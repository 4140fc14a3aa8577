import logging
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import spinflux
from spinflux.bath import BathSpec
from spinflux.chain import ChainSpec
from spinflux.dissipators import Generator
from spinflux.liouville import (NULLSPACE_TOL, DegenerateSteadyStateError,
                                SolverError, Superoperator, _hermitian_basis,
                                apply, assemble, propagate, steady_state,
                                unvectorize, vectorize)
from spinflux.observables import expectation_series, gibbs_state, trace_distance
from spinflux.operators import DimensionError, Operator, connected_blocks, eig_hermitian
from spinflux.chain import build_current_operator

FIG_CHAIN = ChainSpec(n=3, field=1.0, exchange=0.01)
LEFT = BathSpec(beta=0.41, coupling=0.01, side="left")
RIGHT = BathSpec(beta=1.39, coupling=0.01, side="right")
ALL_VARIANTS = ("redfield", "secular", "weak_coupling", "local_diag")
LINDBLAD = ("secular", "weak_coupling", "local_diag")


# sha256 of every variant's n=5 Liouvillian (its CSR arrays), steady state
# and 41-point propagation from the maximally mixed state, one line each
LIOUVILLE_DIGESTS = """
import hashlib
import numpy as np
from spinflux.bath import BathSpec
from spinflux.chain import ChainSpec
from spinflux.dissipators import VARIANTS, Generator
from spinflux.liouville import assemble, propagate, steady_state
from spinflux.operators import Operator
chain = ChainSpec(n=5, field=1.0, exchange=0.01)
baths = (BathSpec(beta=0.41, coupling=0.01, side="left"),
         BathSpec(beta=1.39, coupling=0.01, side="right"))
rho0 = Operator(np.eye(32, dtype=complex) / 32, hermitian=True)
def digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()
for variant in VARIANTS:
    s = assemble(Generator(variant, chain, *baths))
    m = s.sparse
    print(variant, "assemble", digest((m.data, m.indices, m.indptr)))
    print(variant, "steady", digest([steady_state(s).state.matrix]))
    states = propagate(s, rho0, np.linspace(0.0, 400.0, 41))
    print(variant, "propagate", digest(state.matrix for state in states))
"""


def make_generator(variant, chain=FIG_CHAIN, left=LEFT, right=RIGHT, **kw):
    return Generator(variant, chain, left, right, **kw)


def random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return Operator(m + m.conj().T, hermitian=True)


def maximally_mixed(d):
    return Operator(np.eye(d, dtype=complex) / d, hermitian=True)


class TestAssemble:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_action_equivalence(self, variant):
        gen = make_generator(variant)
        s = assemble(gen)
        terms = tuple(gen.sandwich_terms())
        rng = np.random.default_rng(31)
        for _ in range(20):
            rho = random_hermitian(rng, 8)
            via_matrix = s.matrix @ vectorize(rho.matrix)
            direct = vectorize(apply(terms, rho.matrix))
            scale = max(np.abs(direct).max(), 1.0)
            assert np.abs(via_matrix - direct).max() <= 1e-12 * scale

    def test_closed_system_spectrum_imaginary(self):
        left = BathSpec(beta=0.41, coupling=0.0, side="left")
        right = BathSpec(beta=1.39, coupling=0.0, side="right")
        gen = make_generator("weak_coupling", left=left, right=right)
        s = assemble(gen)
        ev = np.linalg.eigvals(s.matrix)
        assert np.abs(ev.real).max() <= 1e-10
        # eigenvalues are +-i(e_m - e_n)
        eps = gen.eigensystem.eigenvalues
        bohr = np.sort((eps[:, None] - eps[None, :]).ravel())
        assert np.allclose(np.sort(ev.imag), bohr, atol=1e-10)

    @pytest.mark.parametrize("variant", LINDBLAD)
    def test_contraction_semigroup(self, variant):
        s = assemble(make_generator(variant))
        ev = np.linalg.eigvals(s.matrix)
        assert ev.real.max() <= 1e-10

    def test_trace_annihilation_row(self):
        for variant in ALL_VARIANTS:
            s = assemble(make_generator(variant))
            trace_row = np.zeros(64, dtype=complex)
            trace_row[np.arange(8) * 9] = 1.0
            resid = np.linalg.norm(trace_row @ s.matrix)
            assert resid <= 1e-10 * np.linalg.norm(s.matrix)

    def test_hermiticity_preservation(self):
        rng = np.random.default_rng(77)
        for variant in ALL_VARIANTS:
            s = assemble(make_generator(variant))
            m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            lhs = unvectorize(s.matrix @ vectorize(m.conj().T), 8)
            rhs = unvectorize(s.matrix @ vectorize(m), 8).conj().T
            assert np.abs(lhs - rhs).max() <= 1e-10 * max(np.abs(rhs).max(), 1.0)

    def test_site_cap(self):
        for n in (7, 8):  # the n=7 sparse LU fill reaches 2 GB (redfield)
            chain = ChainSpec(n=n, field=1.0, exchange=0.001)
            gen = Generator("weak_coupling", chain, LEFT, RIGHT)
            with pytest.raises(DimensionError, match="trajectory sampler"):
                assemble(gen)

    def test_no_dense_liouville_array(self):
        # the d^2 x d^2 complex matrix alone would be 16 * d**4 bytes
        gen = make_generator("weak_coupling", chain=ChainSpec(n=6, field=1.0,
                                                              exchange=0.01))
        d = gen.chain.dim
        tracemalloc.start()
        try:
            assemble(gen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * d ** 4 / 16

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_solvers_never_densify(self, variant):
        s = assemble(make_generator(variant))
        steady_state(s)
        propagate(s, maximally_mixed(8), np.linspace(0.0, 10.0, 5))
        assert "matrix" not in vars(s)
        assert not s.matrix.flags.writeable
        assert np.array_equal(s.matrix, s.sparse.toarray())

    def test_bits_independent_of_blas_threads(self):
        src = str(Path(spinflux.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")]))}
            done = subprocess.run([sys.executable, "-c", LIOUVILLE_DIGESTS], env=env,
                                  capture_output=True, text=True, check=True)
            outputs.append(done.stdout)
        assert len(outputs[0].splitlines()) == 12
        assert outputs[0] == outputs[1]

    def test_secular_assembly_peak(self):
        # sandwich_terms yields each channel's adjoint in turn; holding all
        # 1,116 of them at once added 73 MB to a 182 MiB traced peak
        gen = make_generator("secular", chain=ChainSpec(n=6, field=1.0,
                                                        exchange=0.01))
        gen.lindblad_terms()
        tracemalloc.start()
        try:
            assemble(gen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2 ** 20

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_jump_terms_match_per_channel_kron_sum(self, variant, n):
        gen = make_generator(variant, chain=ChainSpec(n=n, field=1.0, exchange=0.01))
        h = gen.hamiltonian.matrix
        eye = np.eye(gen.chain.dim)
        want = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
        if variant == "redfield":
            for x, b in gen.redfield_parts():
                bd = b.conj().T
                want += math.pi * (np.kron(x.T, b) + np.kron(b.conj(), x)
                                   - np.kron(eye, x @ b) - np.kron((bd @ x).T, eye))
        else:
            terms = gen.lindblad_terms()
            decay = sum(r * (L.conj().T @ L) for r, L in terms)
            for r, L in terms:
                want += r * np.kron(L.conj(), L)
            want -= 0.5 * (np.kron(eye, decay) + np.kron(decay.T, eye))
        assert np.abs(assemble(gen).matrix - want).max() <= 1e-15


class TestRealForm:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_unitary_basis_carries_the_generator(self, variant, n):
        s = assemble(make_generator(variant, chain=ChainSpec(n=n, field=1.0,
                                                             exchange=0.01)))
        u = _hermitian_basis(s.dim)
        assert np.abs((u.conj().T @ u).toarray() - np.eye(s.dim ** 2)).max() <= 1e-15
        assert s.real.dtype == np.float64
        back = (u @ s.real @ u.conj().T).toarray()
        assert np.abs(back - s.matrix).max() <= 1e-15 * np.abs(s.matrix).max()

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_bordered_singular_values_match_complex(self, variant):
        s = assemble(make_generator(variant))
        diag = np.arange(8) * 9
        weight = np.abs(s.matrix).max()
        singular = []
        for m in (s.matrix.copy(), s.real.toarray()):
            m[0] = 0.0
            m[0, diag] = weight
            singular.append(np.linalg.svd(m, compute_uv=False))
        assert np.abs(singular[0] - singular[1]).max() <= 1e-12 * singular[0][0]

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_states_hermitian_by_construction(self, variant, n):
        gen = make_generator(variant, chain=ChainSpec(n=n, field=1.0, exchange=0.01))
        s = assemble(gen)
        d = s.dim
        rng = np.random.default_rng(13)
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = m @ m.conj().T
        starts = (maximally_mixed(d), Operator(m / np.trace(m), hermitian=True))
        states = [steady_state(s).state]
        for rho0 in starts:
            states += propagate(s, rho0, np.array([0.0, 0.7, 1.4, 30.0, 400.0]))
        for state in states:
            assert np.array_equal(state.matrix, state.matrix.conj().T)


class TestSteadyState:
    def test_equal_temperature_weak_coupling_carries_no_current(self):
        left = BathSpec(beta=1.0, coupling=0.01, side="left")
        right = BathSpec(beta=1.0, coupling=0.01, side="right")
        rep = steady_state(assemble(make_generator("weak_coupling",
                                                   left=left, right=right)))
        bound = 1e-10 * FIG_CHAIN.exchange * FIG_CHAIN.field
        assert np.abs(rep.currents).max() <= bound

    def test_redfield_equal_temperatures_reaches_gibbs(self):
        left = BathSpec(beta=1.0, coupling=0.01, side="left")
        right = BathSpec(beta=1.0, coupling=0.01, side="right")
        gen = make_generator("redfield", left=left, right=right)
        rep = steady_state(assemble(gen))
        assert trace_distance(rep.state, gibbs_state(gen.hamiltonian, 1.0)) <= 1e-6

    def test_secular_state_is_diagonal(self):
        gen = make_generator("secular")
        rep = steady_state(assemble(gen))
        eig = gen.eigensystem
        in_basis = np.abs(eig.eigenvectors.conj().T @ rep.state.matrix
                          @ eig.eigenvectors)
        off_mass = in_basis.sum() - np.trace(in_basis)
        assert off_mass <= 1e-10

    def test_unit_trace_and_residual(self):
        for variant in ALL_VARIANTS:
            rep = steady_state(assemble(make_generator(variant)))
            assert abs(rep.state.trace() - 1.0) <= 1e-12
            assert rep.residual <= 1e-12
            assert rep.null_space_dim == 1

    def test_lindblad_positivity_floor(self):
        for variant in LINDBLAD:
            rep = steady_state(assemble(make_generator(variant)))
            assert rep.min_eigenvalue >= -1e-10

    def test_degenerate_null_space_is_an_error(self):
        left = BathSpec(beta=0.41, coupling=0.0, side="left")
        right = BathSpec(beta=1.39, coupling=0.0, side="right")
        gen = make_generator("weak_coupling", left=left, right=right)
        with pytest.raises(DegenerateSteadyStateError, match="dimension"):
            steady_state(assemble(gen))

    @pytest.mark.parametrize("kappas", [(0.0, 0.0), (0.01, 0.0), (1e-12, 1e-12),
                                        (0.01, 0.01)])
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_degeneracy_verdict_matches_dense_svd_count(self, variant, kappas):
        left = BathSpec(beta=0.41, coupling=kappas[0], side="left")
        right = BathSpec(beta=1.39, coupling=kappas[1], side="right")
        s = assemble(make_generator(variant, left=left, right=right))
        singvals = np.linalg.svd(s.matrix, compute_uv=False)
        null_dim = int(np.sum(singvals <= NULLSPACE_TOL * singvals[0]))
        try:
            steady_state(s)
            degenerate = False
        except DegenerateSteadyStateError:
            degenerate = True
        assert degenerate == (null_dim != 1)

    def test_logs_fill_and_singular_value_estimate(self, caplog):
        with caplog.at_level(logging.INFO, logger="spinflux.liouville"):
            steady_state(assemble(make_generator("redfield")))
        [record] = [r for r in caplog.records if "LU fill" in r.getMessage()]
        assert record.levelno == logging.INFO
        assert "sigma_min/max|L|" in record.getMessage()

    def test_spectral_gap_unique_zero_mode(self):
        for variant in LINDBLAD:
            s = assemble(make_generator(variant))
            ev = np.linalg.eigvals(s.matrix)
            near_zero = np.abs(ev) <= 1e-10 * np.abs(ev).max()
            assert near_zero.sum() == 1
            assert np.sort(ev.real)[:-1].max() < 0

    def test_hot_left_positive_uniform_current(self):
        for variant in ("redfield", "weak_coupling", "local_diag"):
            rep = steady_state(assemble(make_generator(variant)))
            assert np.all(rep.currents > 0)
            spread = np.abs(rep.currents - rep.currents[0]).max()
            assert spread <= 1e-8 * np.abs(rep.currents[0])


class TestPropagate:
    def test_time_zero_identity(self):
        s = assemble(make_generator("weak_coupling"))
        rho0 = maximally_mixed(8)
        out = propagate(s, rho0, np.array([0.0]))
        assert np.abs(out[0].matrix - rho0.matrix).max() <= 1e-14

    def test_relaxes_to_steady_state(self):
        s = assemble(make_generator("weak_coupling"))
        ev = np.linalg.eigvals(s.matrix)
        slowest = np.max(ev.real[ev.real < -1e-12])
        t_end = 25.0 / abs(slowest)
        out = propagate(s, maximally_mixed(8), np.array([t_end]))
        rep = steady_state(s)
        assert np.abs(out[0].matrix - rep.state.matrix).max() <= 1e-8

    def test_closed_system_projector_constant(self):
        left = BathSpec(beta=0.41, coupling=0.0, side="left")
        right = BathSpec(beta=1.39, coupling=0.0, side="right")
        gen = make_generator("weak_coupling", left=left, right=right)
        vec = gen.eigensystem.eigenvectors[:, 2]
        rho0 = Operator(np.outer(vec, vec.conj()), hermitian=True)
        out = propagate(assemble(gen), rho0, np.linspace(0.0, 50.0, 6))
        for state in out:
            assert np.abs(state.matrix - rho0.matrix).max() <= 1e-12

    def test_trace_preserved_along_path(self):
        for variant in ALL_VARIANTS:
            s = assemble(make_generator(variant))
            out = propagate(s, maximally_mixed(8), np.linspace(0.0, 300.0, 31))
            for state in out:
                assert abs(state.trace() - 1.0) <= 1e-10

    def test_lindblad_positivity_along_path(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = m @ m.conj().T
        rho0 = Operator(m / np.trace(m), hermitian=True)
        for variant in LINDBLAD:
            s = assemble(make_generator(variant))
            out = propagate(s, rho0, np.linspace(0.0, 200.0, 21))
            for state in out:
                assert np.linalg.eigvalsh(state.matrix).min() >= -1e-10

    def test_rejects_unnormalized_input(self):
        s = assemble(make_generator("weak_coupling"))
        bad = Operator(np.eye(8, dtype=complex), hermitian=True)
        with pytest.raises(ValueError, match="unit trace"):
            propagate(s, bad, np.array([0.0, 1.0]))

    def test_rejects_decreasing_grid(self):
        s = assemble(make_generator("weak_coupling"))
        with pytest.raises(ValueError, match="increasing"):
            propagate(s, maximally_mixed(8), np.array([1.0, 0.5]))

    def test_jordan_block_matches_closed_form(self):
        # populations at rest; the coherence rho_01 = x + iy under the Jordan
        # block dx/dt = -x + y, dy/dt = -y, written on vec(rho):
        # d rho_01/dt = -(1 + i/2) rho_01 + (i/2) rho_10 and its conjugate
        m = np.zeros((4, 4), dtype=complex)
        m[2, 2], m[2, 1] = -1.0 - 0.5j, 0.5j
        m[1, 1], m[1, 2] = -1.0 + 0.5j, -0.5j
        s = Superoperator(sparse=scipy.sparse.csr_array(m), dim=2, generator=None)
        rho0 = Operator(np.array([[0.5, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]]), hermitian=True)
        times = np.array([0.0, 0.5, 1.0, 3.0, 10.0])
        for t, state in zip(times, propagate(s, rho0, times)):
            rho01 = (0.2 + 0.1 * t + 0.1j) * math.exp(-t)
            want = np.array([[0.5, rho01], [np.conj(rho01), 0.5]])
            assert np.abs(state.matrix - want).max() <= 1e-12

    def test_generator_breaking_hermiticity_is_an_error(self):
        # the Jordan block [[-1, 1], [0, -1]] on (rho_10, rho_01) maps a
        # Hermitian state to a non-Hermitian one
        m = np.zeros((4, 4), dtype=complex)
        m[1, 1], m[1, 2], m[2, 2] = -1.0, 1.0, -1.0
        s = Superoperator(sparse=scipy.sparse.csr_array(m), dim=2, generator=None)
        rho0 = Operator(np.array([[0.5, 0.2], [0.2, 0.5]]), hermitian=True)
        with pytest.raises(SolverError, match="does not preserve Hermiticity"):
            propagate(s, rho0, np.array([0.0, 1.0]))
        with pytest.raises(SolverError, match="does not preserve Hermiticity"):
            steady_state(s)

    def test_nonuniform_grid_matches_dense_expm(self):
        s = assemble(make_generator("redfield"))
        rng = np.random.default_rng(5)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = m @ m.conj().T
        rho0 = Operator(m / np.trace(m), hermitian=True)
        times = np.array([0.3, 0.6, 0.9, 5.0, 40.0, 41.0, 42.0, 100.0])
        for t, state in zip(times, propagate(s, rho0, times)):
            want = unvectorize(scipy.linalg.expm(s.matrix * t) @ vectorize(rho0.matrix), 8)
            assert np.abs(state.matrix - want).max() <= 1e-10

    def test_logs_runs_and_trace_drift(self, caplog):
        s = assemble(make_generator("weak_coupling"))
        with caplog.at_level(logging.INFO, logger="spinflux.liouville"):
            propagate(s, maximally_mixed(8), np.linspace(0.0, 400.0, 201))
            propagate(s, maximally_mixed(8), np.array([0.0, 1.0, 2.0, 4.0, 6.0, 7.0]))
        records = [r for r in caplog.records if "expm_multiply" in r.getMessage()]
        assert [r.levelno for r in records] == [logging.INFO] * 2
        assert "1 expm_multiply run(s) over 201 points" in records[0].getMessage()
        assert "3 expm_multiply run(s) over 6 points" in records[1].getMessage()
        assert all("worst trace drift" in r.getMessage() for r in records)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_occupied_components_match_dense_expm(self, variant):
        gen = make_generator(variant, chain=ChainSpec(n=4, field=1.0, exchange=0.01))
        s = assemble(gen)
        ground = gen.eigensystem.eigenvectors[:, 0]
        starts = (maximally_mixed(16),
                  Operator(np.outer(ground, ground.conj()), hermitian=True),
                  gibbs_state(gen.hamiltonian, 1.0))
        times = np.array([0.0, 10.0, 20.0, 30.0, 150.0, 400.0])
        flows = [scipy.linalg.expm(s.matrix * t) for t in times]
        blocks = connected_blocks(s.sparse)
        for rho0 in starts:
            v0 = vectorize(rho0.matrix)
            outside = np.ones(v0.size, dtype=bool)
            for idx in blocks:
                if v0[idx].any():
                    outside[idx] = False
            assert outside.any()  # no start the CLI offers fills every component
            for flow, state in zip(flows, propagate(s, rho0, times)):
                want = flow @ v0
                got = vectorize(state.matrix)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
                assert not got[outside].any()

    def test_full_support_start_propagates_every_component(self):
        s = assemble(make_generator("secular"))
        assert len(connected_blocks(s.sparse)) == 7
        rng = np.random.default_rng(17)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = m @ m.conj().T
        rho0 = Operator(m / np.trace(m), hermitian=True)
        assert np.all(rho0.matrix != 0)
        times = np.array([0.5, 1.0, 1.5, 7.0, 60.0, 61.0, 62.0, 300.0])
        for t, state in zip(times, propagate(s, rho0, times)):
            want = unvectorize(scipy.linalg.expm(s.matrix * t) @ vectorize(rho0.matrix), 8)
            assert np.abs(state.matrix - want).max() <= 1e-10

    def test_logs_occupied_components(self, caplog):
        s = assemble(make_generator("weak_coupling",
                                    chain=ChainSpec(n=5, field=1.0, exchange=0.01)))
        with caplog.at_level(logging.INFO, logger="spinflux.liouville"):
            propagate(s, maximally_mixed(32), np.linspace(0.0, 10.0, 3))
        records = [r for r in caplog.records if "expm_multiply" in r.getMessage()]
        assert [r.levelno for r in records] == [logging.INFO]
        assert "1 occupied component(s), 512 of 1024 entries" in records[0].getMessage()

    def test_output_independent_of_global_random_state(self):
        s = assemble(make_generator("redfield"))
        times = np.linspace(0.0, 400.0, 21)
        np.random.seed(1)
        first = propagate(s, maximally_mixed(8), times)
        after = np.random.random()
        np.random.seed(2)
        second = propagate(s, maximally_mixed(8), times)
        for a, b in zip(first, second):
            assert np.array_equal(a.matrix, b.matrix)
        np.random.seed(1)
        assert np.random.random() == after  # the caller's stream is left as it was


class TestExpectationSeries:
    def test_identity_observable(self):
        s = assemble(make_generator("weak_coupling"))
        out = propagate(s, maximally_mixed(8), np.linspace(0.0, 100.0, 5))
        ident = Operator(np.eye(8, dtype=complex), hermitian=True)
        assert np.allclose(expectation_series(out, ident), 1.0, atol=1e-10)

    def test_secular_current_vanishes(self):
        gen = make_generator("secular")
        rep = steady_state(assemble(gen))
        j = build_current_operator(FIG_CHAIN, 1)
        vals = expectation_series([rep.state], j)
        assert abs(vals[0]) <= 1e-10 * FIG_CHAIN.exchange * FIG_CHAIN.field

    def test_bond_uniformity_in_weak_coupling_steady_state(self):
        rep = steady_state(assemble(make_generator("weak_coupling")))
        j1 = expectation_series([rep.state], build_current_operator(FIG_CHAIN, 1))
        j2 = expectation_series([rep.state], build_current_operator(FIG_CHAIN, 2))
        assert abs(j1[0] - j2[0]) <= 1e-8 * abs(j1[0])

    def test_dim_mismatch(self):
        rep = steady_state(assemble(make_generator("weak_coupling")))
        with pytest.raises(DimensionError):
            expectation_series([rep.state],
                               Operator(np.eye(4, dtype=complex), hermitian=True))
