import json
import math

import numpy as np
import pytest

from spinflux.bath import BathSpec
from spinflux.chain import ChainSpec, build_hamiltonian
from spinflux.dissipators import VARIANTS, Generator
from spinflux.liouville import assemble, steady_state
from spinflux.observables import (bond_currents, diagonality_defect,
                                  gibbs_state, local_energies,
                                  reported_current_operator, transport_report)
from spinflux.operators import EigenSystem, Operator, eig_hermitian

FIG_CHAIN = ChainSpec(n=3, field=1.0, exchange=0.01)
LEFT = BathSpec(beta=0.41, coupling=0.01, side="left")
RIGHT = BathSpec(beta=1.39, coupling=0.01, side="right")


class TestBondCurrents:
    def test_maximally_mixed_is_currentless(self):
        rho = Operator(np.eye(8, dtype=complex) / 8, hermitian=True)
        assert np.abs(bond_currents(rho, FIG_CHAIN)).max() <= 1e-14

    def test_energy_eigenprojectors_are_currentless(self):
        eig = eig_hermitian(build_hamiltonian(FIG_CHAIN))
        for k in range(8):
            v = eig.eigenvectors[:, k]
            rho = Operator(np.outer(v, v.conj()), hermitian=True)
            assert np.abs(bond_currents(rho, FIG_CHAIN)).max() <= 1e-12

    def test_secular_steady_state_is_currentless(self):
        rep = steady_state(assemble(Generator("secular", FIG_CHAIN, LEFT, RIGHT)))
        bound = 1e-10 * FIG_CHAIN.exchange * FIG_CHAIN.field
        assert np.abs(bond_currents(rep.state, FIG_CHAIN)).max() <= bound

    def test_reported_sign_is_hot_to_cold_positive(self):
        rep = steady_state(assemble(Generator("weak_coupling", FIG_CHAIN,
                                              LEFT, RIGHT)))
        assert np.all(bond_currents(rep.state, FIG_CHAIN) > 0)

    def test_reported_operator_is_flipped_raw_operator(self):
        from spinflux.chain import build_current_operator
        raw = build_current_operator(FIG_CHAIN, 1).matrix
        assert np.array_equal(reported_current_operator(FIG_CHAIN, 1).matrix, -raw)


class TestDiagonalityDefect:
    def test_diagonal_state(self):
        eig = eig_hermitian(build_hamiltonian(FIG_CHAIN))
        p = np.full(8, 1 / 8)
        rho = Operator((eig.eigenvectors * p) @ eig.eigenvectors.conj().T,
                       hermitian=True)
        assert diagonality_defect(rho, eig) <= 1e-13

    def test_equal_superposition(self):
        basis = EigenSystem(np.array([-1.0, 1.0]), np.eye(2, dtype=complex))
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        rho = Operator(np.outer(plus, plus), hermitian=True)
        assert diagonality_defect(rho, basis) == pytest.approx(1.0, abs=1e-14)

    def test_nonequilibrium_weak_coupling_state_carries_coherence(self):
        gen = Generator("weak_coupling", FIG_CHAIN, LEFT, RIGHT)
        rep = steady_state(assemble(gen))
        assert diagonality_defect(rep.state, gen.eigensystem) > 1e-6


class TestGibbsState:
    def test_unit_trace_and_ordering(self):
        eig = eig_hermitian(build_hamiltonian(FIG_CHAIN))
        rho = gibbs_state(eig, 2.0)
        assert abs(np.trace(rho.matrix) - 1.0) <= 1e-12
        pops = np.einsum("im,ij,jm->m", eig.eigenvectors.conj(), rho.matrix,
                         eig.eigenvectors).real
        assert all(a >= b - 1e-15 for a, b in zip(pops, pops[1:]))

    def test_single_spin_closed_form(self):
        # populations (1 -+ tanh(beta * field / 2)) / 2 of (field/2) sigma_z
        h = Operator(np.diag([0.5, -0.5]).astype(complex), hermitian=True)
        rho = gibbs_state(eig_hermitian(h), 1.0).matrix
        t = math.tanh(0.5)
        assert np.abs(rho - np.diag([(1 - t) / 2, (1 + t) / 2])).max() <= 1e-15

    def test_matches_expm_oracle(self):
        import scipy.linalg
        h = build_hamiltonian(FIG_CHAIN)
        direct = scipy.linalg.expm(-1.3 * h.matrix)
        direct /= np.trace(direct)
        assert np.abs(gibbs_state(eig_hermitian(h), 1.3).matrix - direct).max() <= 1e-12


class TestTransportReport:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_fields_are_consistent(self, variant):
        gen = Generator(variant, FIG_CHAIN, LEFT, RIGHT)
        rep = steady_state(assemble(gen))
        row = transport_report(rep, gen.eigensystem)
        assert list(row) == ["variant", "currents", "local_energies", "residual",
                             "null_space_dim", "min_eigenvalue",
                             "diagonality_defect"]
        assert row["variant"] == variant
        assert row["currents"] == bond_currents(rep.state, FIG_CHAIN).tolist()
        assert row["local_energies"] == local_energies(rep.state, FIG_CHAIN).tolist()
        assert all(type(x) is float for x in row["currents"] + row["local_energies"])
        assert row["residual"] == rep.residual
        assert row["null_space_dim"] == 1
        assert row["min_eigenvalue"] == np.linalg.eigvalsh(rep.state.matrix).min()
        assert row["diagonality_defect"] == diagonality_defect(rep.state,
                                                               gen.eigensystem)
        assert json.loads(json.dumps(row)) == row

    def test_energies_track_temperature_gradient(self):
        # hotter left site sits higher in local energy than the cold right site
        gen = Generator("weak_coupling", FIG_CHAIN, LEFT, RIGHT)
        rep = steady_state(assemble(gen))
        assert rep.energies[0] > rep.energies[-1]

    def test_local_energies_of_mixed_state_vanish(self):
        rho = Operator(np.eye(8, dtype=complex) / 8, hermitian=True)
        assert np.abs(local_energies(rho, FIG_CHAIN)).max() <= 1e-14
