import math
import tracemalloc

import numpy as np
import pytest

from spinflux import operators
from spinflux.chain import (ChainSpec, build_coupling_operator,
                            build_current_operator, build_hamiltonian,
                            build_local_hamiltonian_site)
from spinflux.bath import BathSpec
from spinflux.dissipators import Generator, _local_flip_operators
from spinflux.observables import reported_current_operator
from spinflux.operators import DimensionError, Operator, eig_hermitian, embedded_sum

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID = np.eye(2, dtype=complex)


def kron_chain(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def oracle_hamiltonian(n, field, exchange):
    """Independent construction straight from np.kron."""
    d = 2 ** n
    h = np.zeros((d, d), dtype=complex)
    for site in range(n):
        h += 0.5 * field * kron_chain([SZ if k == site else ID for k in range(n)])
    for bond in range(n - 1):
        for s in (SX, SY, SZ):
            h += exchange * kron_chain(
                [s if k in (bond, bond + 1) else ID for k in range(n)])
    return h


def interaction(spec):
    """The exchange part V of the chain's Hamiltonian, H minus H at zero exchange."""
    local = ChainSpec(n=spec.n, field=spec.field, exchange=0.0)
    return build_hamiltonian(spec).matrix - build_hamiltonian(local).matrix


class TestSpec:
    def test_requires_two_sites(self):
        with pytest.raises(ValueError, match="at least 2"):
            ChainSpec(n=1, field=1.0, exchange=0.0)

    def test_requires_positive_field(self):
        with pytest.raises(ValueError, match="field"):
            ChainSpec(n=2, field=0.0, exchange=0.0)

    @pytest.mark.parametrize("field,exchange", [(math.nan, 0.0), (1.0, math.nan),
                                                (math.inf, 0.0), (1.0, math.inf)])
    def test_rejects_nan(self, field, exchange):
        with pytest.raises(ValueError, match="field|exchange"):
            ChainSpec(n=2, field=field, exchange=exchange)

    def test_strong_exchange_warns(self):
        with pytest.warns(UserWarning, match="exchange/field"):
            ChainSpec(n=2, field=1.0, exchange=0.5)

    def test_weak_exchange_silent(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ChainSpec(n=3, field=1.0, exchange=0.01)


class TestLocalHamiltonian:
    # H_loc is the Hamiltonian at zero exchange
    def test_two_site_matrix(self):
        spec = ChainSpec(n=2, field=1.0, exchange=0.0)
        assert np.allclose(build_hamiltonian(spec).matrix,
                           np.diag([1.0, 0.0, 0.0, -1.0]), atol=1e-15)

    def test_traceless(self):
        spec = ChainSpec(n=4, field=2.5, exchange=0.0)
        assert abs(np.trace(build_hamiltonian(spec).matrix)) <= 1e-12

    def test_three_site_spectrum(self):
        # enumeration oracle: energies (field/2) * sum of +-1 over 3 spins
        spec = ChainSpec(n=3, field=2.0, exchange=0.0)
        eig = eig_hermitian(build_hamiltonian(spec))
        expected = sorted((2.0 / 2) * sum(1 - 2 * b for b in bits)
                          for bits in np.ndindex(2, 2, 2))
        assert np.allclose(eig.eigenvalues, expected, atol=1e-12)
        assert np.allclose(expected, [-3, -1, -1, -1, 1, 1, 1, 3])

    def test_site_out_of_range(self):
        spec = ChainSpec(n=2, field=1.0, exchange=0.0)
        with pytest.raises(ValueError, match="out of range"):
            build_local_hamiltonian_site(spec, 3)


class TestInteraction:
    def test_dimer_spectrum(self):
        # singlet/triplet oracle for sigma.sigma: eigenvalues {-3, 1, 1, 1}
        with pytest.warns(UserWarning):
            spec = ChainSpec(n=2, field=1.0, exchange=1.0)
        eig = np.linalg.eigvalsh(interaction(spec))
        assert np.allclose(eig, [-3.0, 1.0, 1.0, 1.0], atol=1e-12)

    def test_conserves_magnetization(self):
        spec = ChainSpec(n=3, field=1.0, exchange=0.01)
        total_z = embedded_sum([(s, SZ) for s in range(1, 4)], 3)
        v = interaction(spec)
        resid = v @ total_z - total_z @ v
        assert np.abs(resid).max() <= 1e-13

    def test_bond_out_of_range(self):
        spec = ChainSpec(n=3, field=1.0, exchange=0.01)
        with pytest.raises(ValueError, match="out of range"):
            build_current_operator(spec, 3)


class TestHamiltonian:
    def test_reduces_to_local_without_exchange(self):
        spec = ChainSpec(n=3, field=1.3, exchange=0.0)
        site_sum = sum(build_local_hamiltonian_site(spec, s).matrix for s in (1, 2, 3))
        assert np.array_equal(build_hamiltonian(spec).matrix, site_sum)

    def test_hermiticity(self):
        spec = ChainSpec(n=3, field=1.0, exchange=0.01)
        h = build_hamiltonian(spec).matrix
        assert np.abs(h - h.conj().T).max() <= 1e-14

    def test_spectrum_vs_oracle(self):
        spec = ChainSpec(n=3, field=1.0, exchange=0.01)
        ours = eig_hermitian(build_hamiltonian(spec)).eigenvalues
        oracle = np.linalg.eigvalsh(oracle_hamiltonian(3, 1.0, 0.01))
        assert np.allclose(ours, oracle, atol=1e-12)


class TestCurrentOperator:
    def test_two_site_formula(self):
        # commutator oracle on 4x4 matrices: exchange*field*(yx - xy)
        spec = ChainSpec(n=2, field=1.0, exchange=0.01)
        expected = 0.01 * 1.0 * (np.kron(SY, SX) - np.kron(SX, SY))
        assert np.abs(build_current_operator(spec, 1).matrix - expected).max() <= 1e-14

    def test_zero_exchange(self):
        spec = ChainSpec(n=2, field=1.0, exchange=0.0)
        assert np.abs(build_current_operator(spec, 1).matrix).max() == 0.0

    def test_hermitian_traceless(self):
        spec = ChainSpec(n=3, field=1.0, exchange=0.01)
        for b in (1, 2):
            j = build_current_operator(spec, b)
            assert j.hermitian
            assert abs(np.trace(j.matrix)) <= 1e-13

    def test_diagonal_elements_vanish_in_energy_basis(self):
        spec = ChainSpec(n=3, field=1.0, exchange=0.01)
        eig = eig_hermitian(build_hamiltonian(spec))
        for b in (1, 2):
            j = build_current_operator(spec, b).matrix
            diag = np.einsum("im,ij,jm->m", eig.eigenvectors.conj(), j,
                             eig.eigenvectors)
            assert np.abs(diag).max() <= 1e-12

    def test_boundary_telescoping_identity(self):
        # i[H, H_loc(1)] equals the first bond current exactly
        spec = ChainSpec(n=3, field=1.0, exchange=0.01)
        h = build_hamiltonian(spec).matrix
        h_loc = build_local_hamiltonian_site(spec, 1).matrix
        lhs = 1j * (h @ h_loc - h_loc @ h)
        assert np.abs(lhs - build_current_operator(spec, 1).matrix).max() <= 1e-14

    def test_interior_continuity_identity(self):
        # i[H, H_loc(mu)] = J(mu, mu+1) - J(mu-1, mu) for interior sites
        spec = ChainSpec(n=3, field=1.0, exchange=0.01)
        h = build_hamiltonian(spec).matrix
        h_loc = build_local_hamiltonian_site(spec, 2).matrix
        lhs = 1j * (h @ h_loc - h_loc @ h)
        rhs = (build_current_operator(spec, 2).matrix
               - build_current_operator(spec, 1).matrix)
        assert np.abs(lhs - rhs).max() <= 1e-14

    def test_mirror_antisymmetry(self):
        spec = ChainSpec(n=3, field=1.0, exchange=0.01)
        d = spec.dim
        perm = np.zeros((d, d))
        for i in range(d):
            b = [(i >> 2) & 1, (i >> 1) & 1, i & 1]  # sites 1..3, MSB first
            j = (b[2] << 2) | (b[1] << 1) | b[0]
            perm[j, i] = 1.0
        j1 = build_current_operator(spec, 1).matrix
        j2 = build_current_operator(spec, 2).matrix
        mapped = perm @ j1 @ perm.T
        assert np.abs(mapped + j2).max() <= 1e-13


class TestCouplingOperator:
    def test_left_is_first_site_x(self):
        spec = ChainSpec(n=2, field=1.0, exchange=0.0)
        assert np.array_equal(build_coupling_operator(spec, "left").matrix,
                              np.kron(SX, ID))

    def test_involution(self):
        spec = ChainSpec(n=3, field=1.0, exchange=0.0)
        x = build_coupling_operator(spec, "left").matrix
        assert np.abs(x @ x - np.eye(8)).max() <= 1e-14

    def test_sides_commute(self):
        spec = ChainSpec(n=3, field=1.0, exchange=0.0)
        left = build_coupling_operator(spec, "left").matrix
        right = build_coupling_operator(spec, "right").matrix
        resid = left @ right - right @ left
        assert np.abs(resid).max() == 0.0

    def test_bad_side(self):
        spec = ChainSpec(n=2, field=1.0, exchange=0.0)
        with pytest.raises(ValueError, match="side"):
            build_coupling_operator(spec, "top")


def kron_embed(m, site, n):
    """Reference embedding: identity factors and np.kron."""
    span = 1 if m.shape[0] == 2 else 2
    left = np.eye(2 ** (site - 1), dtype=complex)
    right = np.eye(2 ** (n - site - span + 1), dtype=complex)
    return np.kron(np.kron(left, m), right)


def kron_builders(n, field, exchange):
    """Every chain operator from full-size kron factors, summed in site
    (bond) order, with the d^3 commutator for the bond currents."""
    sites = [0.5 * field * kron_embed(SZ, s, n) for s in range(1, n + 1)]
    pair = np.zeros((4, 4), dtype=complex)
    for p in (SX, SY, SZ):
        pair += np.kron(p, p)
    bonds = [exchange * kron_embed(pair, b, n) for b in range(1, n)]
    h_loc, v = sites[0], bonds[0]
    for term in sites[1:]:
        h_loc = h_loc + term
    for term in bonds[1:]:
        v = v + term
    currents = [1j * (bonds[b] @ sites[b] - sites[b] @ bonds[b]) for b in range(n - 1)]
    plus = np.array([[0, 1], [0, 0]], dtype=complex)
    return {
        "hamiltonian": h_loc + v,
        "sites": sites,
        "currents": currents,
        "reported": [-1.0 * j for j in currents],
        "contacts": [kron_embed(SX, 1, n), kron_embed(SX, n, n)],
        "flips": [kron_embed(m, s, n) for s in (1, n) for m in (plus, plus.T)],
    }


class TestBuildersMatchKronReference:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_bit_identical(self, n):
        spec = ChainSpec(n=n, field=1.0, exchange=0.01)
        want = kron_builders(n, spec.field, spec.exchange)
        assert np.array_equal(build_hamiltonian(spec).matrix, want["hamiltonian"])
        for s in range(1, n + 1):
            assert np.array_equal(build_local_hamiltonian_site(spec, s).matrix,
                                  want["sites"][s - 1])
        for b in range(1, n):
            assert np.array_equal(build_current_operator(spec, b).matrix,
                                  want["currents"][b - 1])
            assert np.array_equal(reported_current_operator(spec, b).matrix,
                                  want["reported"][b - 1])
        contacts = [build_coupling_operator(spec, side).matrix
                    for side in ("left", "right")]
        flips = [m for side in ("left", "right")
                 for m in _local_flip_operators(spec, side)]
        for got, ref in zip(contacts + flips, want["contacts"] + want["flips"]):
            assert np.array_equal(got, ref)

    def test_one_hermiticity_check_per_returned_operator(self, monkeypatch):
        checked = []
        original = Operator.__post_init__

        def counting(self):
            if self.hermitian:
                checked.append(self.dim)
            original(self)

        monkeypatch.setattr(Operator, "__post_init__", counting)
        spec = ChainSpec(n=6, field=1.0, exchange=0.01)
        gen = Generator("weak_coupling", spec,
                        BathSpec(beta=0.41, coupling=0.01, side="left"),
                        BathSpec(beta=1.39, coupling=0.01, side="right"))
        currents = [reported_current_operator(spec, b) for b in range(1, 6)]
        returned = [gen.hamiltonian, *gen.coupling_operators, *currents]
        assert len(checked) <= len(returned) == 8

    def test_thirteen_sites_refused_beyond_memory(self, monkeypatch):
        # no cap on the dimension: 4 dense 8192 x 8192 arrays are 4 GiB
        spec = ChainSpec(n=13, field=1.0, exchange=0.01)
        monkeypatch.setattr(operators, "available_memory", lambda: 4 * 2 ** 30)
        monkeypatch.setattr(np, "zeros", lambda *args, **kw: pytest.fail("allocated"))
        for build in (build_hamiltonian, lambda s: build_current_operator(s, 1),
                      lambda s: build_coupling_operator(s, "left")):
            with pytest.raises(DimensionError, match="on 13 sites needs 4096 MiB"):
                build(spec)

    @pytest.mark.parametrize("n", [9, 10])
    def test_memory_count_covers_traced_peak(self, monkeypatch, n):
        # each embedded_sum counts its array and the transients of the
        # Operator that wraps it; build_hamiltonian holds one more sum
        required = []
        monkeypatch.setattr(operators, "require_memory",
                            lambda nbytes, what: required.append(nbytes))
        spec = ChainSpec(n=n, field=1.0, exchange=0.01)
        tracemalloc.start()
        try:
            build_hamiltonian(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert required == [operators.embedded_bytes(n)] * 2
        assert peak <= required[0]
