import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinflux.chain import ChainSpec, build_hamiltonian
from spinflux.operators import (DimensionError, Operator, _fix_phases,
                                _stable_order, adjoint, anticommutator,
                                commutator, eig_hermitian, embed, identity,
                                pauli, tensor)


def random_complex(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_hermitian(rng, d):
    m = random_complex(rng, d)
    return Operator(m + m.conj().T, hermitian=True)


def sz_sector(dim):
    """Number of up spins of each computational basis state."""
    return np.array([bin(k).count("1") for k in range(dim)])


class TestPauli:
    def test_z_is_diag(self):
        assert np.array_equal(pauli("z").matrix, np.diag([1.0, -1.0]))

    def test_plus_single_entry(self):
        m = pauli("plus").matrix
        assert m[0, 1] == 1.0
        assert np.count_nonzero(m) == 1

    def test_commutator_algebra(self):
        lhs = commutator(pauli("x"), pauli("y")).matrix
        assert np.allclose(lhs, 2j * pauli("z").matrix, atol=1e-15)

    def test_plus_minus_from_xy(self):
        xy = 0.5 * (pauli("x").matrix + 1j * pauli("y").matrix)
        assert np.array_equal(pauli("plus").matrix, xy)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown pauli kind"):
            pauli("w")


class TestTensor:
    def test_z_with_identity(self):
        m = tensor(pauli("z"), identity(2)).matrix
        assert np.array_equal(m, np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_identity_case(self):
        assert np.array_equal(tensor(identity(2), identity(2)).matrix, np.eye(4))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_mixed_product_identity(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c, d = (Operator(random_complex(rng, 2)) for _ in range(4))
        lhs = (tensor(a, b) @ tensor(c, d)).matrix
        rhs = tensor(a @ c, b @ d).matrix
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(np.abs(rhs).max(), 1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_trace_multiplicativity(self, seed):
        rng = np.random.default_rng(seed)
        a, b = Operator(random_complex(rng, 2)), Operator(random_complex(rng, 3))
        assert abs(tensor(a, b).trace() - a.trace() * b.trace()) <= 1e-12 * max(
            abs(a.trace() * b.trace()), 1.0)

    def test_dim_overflow(self):
        big = identity(2048)
        with pytest.raises(DimensionError, match="dense cap"):
            tensor(big, identity(4))


class TestEmbed:
    def test_single_site(self):
        assert np.array_equal(embed(pauli("z"), 1, 2).matrix,
                              tensor(pauli("z"), identity(2)).matrix)

    def test_disjoint_supports_commute(self):
        a = embed(pauli("x"), 1, 3)
        b = embed(pauli("y"), 3, 3)
        assert np.abs(commutator(a, b).matrix).max() == 0.0

    def test_two_site_embedding(self):
        xx = tensor(pauli("x"), pauli("x"))
        expect = np.kron(np.eye(2), xx.matrix)
        assert np.array_equal(embed(xx, 2, 3).matrix, expect)

    def test_site_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            embed(pauli("x"), 4, 3)
        with pytest.raises(ValueError, match="out of range"):
            embed(tensor(pauli("x"), pauli("x")), 3, 3)


class TestAlgebra:
    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(0)
        a = Operator(random_complex(rng, 4))
        assert np.abs(commutator(a, a).matrix).max() == 0.0

    def test_anticommutator_of_x(self):
        assert np.array_equal(anticommutator(pauli("x"), pauli("x")).matrix,
                              2 * np.eye(2))

    def test_adjoint_of_plus(self):
        assert np.array_equal(adjoint(pauli("plus")).matrix, pauli("minus").matrix)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            commutator(pauli("x"), identity(4))


class TestHermitianFlag:
    def test_flag_verified(self):
        with pytest.raises(ValueError, match="flagged hermitian"):
            Operator(np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=True)

    def test_matrix_frozen(self):
        op = pauli("z")
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0


class TestEigHermitian:
    def test_sigma_z_eigenvalues(self):
        eig = eig_hermitian(pauli("z"))
        assert np.array_equal(eig.eigenvalues, [-1.0, 1.0])

    def test_two_site_field_eigenvalues(self):
        h = 0.5 * (embed(pauli("z"), 1, 2) + embed(pauli("z"), 2, 2))
        eig = eig_hermitian(h)
        assert np.allclose(eig.eigenvalues, [-1.0, 0.0, 0.0, 1.0], atol=1e-14)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(42)
        a = random_hermitian(rng, 8)
        eig = eig_hermitian(a)
        rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
        scale = np.abs(a.matrix).max()
        assert np.abs(rebuilt - a.matrix).max() <= 1e-10 * scale

    def test_orthonormality(self):
        rng = np.random.default_rng(7)
        eig = eig_hermitian(random_hermitian(rng, 8))
        gram = eig.eigenvectors.conj().T @ eig.eigenvectors
        assert np.abs(gram - np.eye(8)).max() <= 1e-10

    def test_eigenvalue_sum_is_trace(self):
        rng = np.random.default_rng(11)
        a = random_hermitian(rng, 8)
        eig = eig_hermitian(a)
        bound = 1e-10 * 8 * np.abs(a.matrix).max()
        assert abs(eig.eigenvalues.sum() - a.trace().real) <= bound

    def test_phase_convention(self):
        rng = np.random.default_rng(3)
        eig = eig_hermitian(random_hermitian(rng, 6))
        for j in range(6):
            col = eig.eigenvectors[:, j]
            lead = np.argmax(np.abs(col) > 1e-12 * np.abs(col).max())
            assert col[lead].imag == 0.0
            assert col[lead].real > 0.0

    def test_rejects_unflagged(self):
        with pytest.raises(ValueError, match="hermitian"):
            eig_hermitian(Operator(np.eye(2, dtype=complex)))

    def test_repeated_calls_bit_stable(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 8)
        e1, e2 = eig_hermitian(a), eig_hermitian(a)
        assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
        assert np.array_equal(e1.eigenvectors, e2.eigenvectors)

    @pytest.mark.parametrize("n", [4, 5])
    def test_chain_eigenvectors_live_in_one_sz_sector(self, n):
        h = build_hamiltonian(ChainSpec(n=n, field=1.0, exchange=0.01))
        eig = eig_hermitian(h)
        sector = sz_sector(h.dim)
        for j in range(h.dim):
            support = np.flatnonzero(eig.eigenvectors[:, j])
            assert len(set(sector[support])) == 1
        want = np.linalg.eigvalsh(h.matrix)
        assert np.abs(eig.eigenvalues - want).max() <= 1e-13

    def test_single_block_matches_whole_matrix_eigh(self):
        # a dense matrix is one block: the result is that of one eigh call on
        # the whole matrix, bit for bit
        rng = np.random.default_rng(21)
        a = random_hermitian(rng, 16)
        vals, vecs = np.linalg.eigh(a.matrix)
        vecs = _fix_phases(vecs)
        order = _stable_order(vals, vecs)
        eig = eig_hermitian(a)
        assert np.array_equal(eig.eigenvalues, vals[order])
        assert np.array_equal(eig.eigenvectors, vecs[:, order])
