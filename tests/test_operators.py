import numpy as np
import pytest

from spinflux import operators
from spinflux.chain import ChainSpec, build_hamiltonian
from spinflux.operators import (PAULI, DimensionError, Operator, _fix_phases,
                                _stable_order, available_memory, eig_hermitian,
                                embedded_sum, require_memory, time_grid)


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
        assert np.array_equal(PAULI["z"], np.diag([1.0, -1.0]))

    def test_plus_single_entry(self):
        m = PAULI["plus"]
        assert m[0, 1] == 1.0
        assert np.count_nonzero(m) == 1

    def test_commutator_algebra(self):
        x, y = PAULI["x"], PAULI["y"]
        lhs = x @ y - y @ x
        assert np.allclose(lhs, 2j * PAULI["z"], atol=1e-15)

    def test_plus_minus_from_xy(self):
        xy = 0.5 * (PAULI["x"] + 1j * PAULI["y"])
        assert np.array_equal(PAULI["plus"], xy)
        assert np.array_equal(PAULI["minus"], xy.conj().T)


class TestEmbed:
    def test_single_site(self):
        assert np.array_equal(embedded_sum([(1, PAULI["z"])], 2),
                              np.kron(PAULI["z"], np.eye(2)))

    def test_disjoint_supports_commute(self):
        a = embedded_sum([(1, PAULI["x"])], 3)
        b = embedded_sum([(3, PAULI["y"])], 3)
        assert np.abs(a @ b - b @ a).max() == 0.0

    def test_two_site_embedding(self):
        xx = np.kron(PAULI["x"], PAULI["x"])
        expect = np.kron(np.eye(2), xx)
        assert np.array_equal(embedded_sum([(2, xx)], 3), expect)

    def test_site_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            embedded_sum([(4, PAULI["x"])], 3)
        with pytest.raises(ValueError, match="out of range"):
            embedded_sum([(3, np.kron(PAULI["x"], PAULI["x"]))], 3)


class TestHermitianFlag:
    def test_flag_verified(self):
        with pytest.raises(ValueError, match="flagged hermitian"):
            Operator(np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=True)

    def test_matrix_frozen(self):
        op = Operator(np.diag([1.0, -1.0]), hermitian=True)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_entry_refused(self, entry):
        # a nan defect (inf - inf is one) compares false with any bound
        with pytest.raises(ValueError, match="non-finite"):
            Operator(np.array([[entry, 0.0], [0.0, 1.0]]), hermitian=True)


class TestTimeGrid:
    @pytest.mark.parametrize("t_max", [400.0, 1e4])
    def test_accepts_a_million_linspace_steps(self, t_max):
        # linspace's own steps differ by about 1e-10 of a step here
        times = np.linspace(0.0, t_max, 10 ** 6 + 1)
        assert np.array_equal(time_grid(times), times)


class TestAvailableMemory:
    def test_reads_mem_available(self, tmp_path, monkeypatch):
        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemTotal:        8000000 kB\n"
                           "MemFree:           10000 kB\n"
                           "MemAvailable:    5000000 kB\n")
        monkeypatch.setattr(operators, "MEMINFO", str(meminfo))
        assert available_memory() == 5000000 * 1024

    @pytest.mark.parametrize("text", ["MemTotal: 8000000 kB\nMemFree: 10000 kB\n",
                                      None])
    def test_falls_back_to_free_pages(self, tmp_path, monkeypatch, text):
        # a meminfo without MemAvailable (Linux before 3.14), or none at all
        meminfo = tmp_path / "meminfo"
        if text is not None:
            meminfo.write_text(text)
        monkeypatch.setattr(operators, "MEMINFO", str(meminfo))
        pages = {"SC_AVPHYS_PAGES": 250, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(operators.os, "sysconf", pages.__getitem__)
        assert available_memory() == 250 * 4096

    def test_require_memory_refuses_only_beyond_available(self, monkeypatch):
        monkeypatch.setattr(operators, "available_memory", lambda: 1000)
        require_memory(1000, "a test")
        with pytest.raises(DimensionError, match="a test needs .* memory available"):
            require_memory(1001, "a test")
        monkeypatch.setattr(operators, "available_memory", lambda: None)
        require_memory(10 ** 18, "a test")


class TestEigHermitian:
    def test_sigma_z_eigenvalues(self):
        eig = eig_hermitian(Operator(PAULI["z"], hermitian=True))
        assert np.array_equal(eig.eigenvalues, [-1.0, 1.0])

    def test_two_site_field_eigenvalues(self):
        h = 0.5 * embedded_sum([(1, PAULI["z"]), (2, PAULI["z"])], 2)
        eig = eig_hermitian(Operator(h, hermitian=True))
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
        assert abs(eig.eigenvalues.sum() - np.trace(a.matrix).real) <= bound

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

    @pytest.mark.parametrize("kind, size", [
        *(("mixed", d) for d in (8, 256, 1024)),
        *(("chain", n) for n in (3, 4, 5, 8, 10))])
    def test_stacked_blocks_match_one_eigh_per_block(self, kind, size):
        # the blocks of one size are diagonalized in one stacked eigh call;
        # the result is that of one call per block, bit for bit: 1/d has d
        # blocks of size 1, the chain H its total-S_z sectors
        a = (Operator(np.eye(size, dtype=complex) / size, hermitian=True)
             if kind == "mixed"
             else build_hamiltonian(ChainSpec(n=size, field=1.0, exchange=0.01)))
        vals = np.empty(a.dim)
        vecs = np.zeros((a.dim, a.dim), dtype=complex)
        start = 0
        for idx in operators.connected_blocks(a.matrix):
            cols = slice(start, start + len(idx))
            vals[cols], vecs[idx, cols] = np.linalg.eigh(a.matrix[np.ix_(idx, idx)])
            start += len(idx)
        vecs = _fix_phases(vecs)
        order = _stable_order(vals, vecs)
        eig = eig_hermitian(a)
        assert np.array_equal(eig.eigenvalues, vals[order])
        assert np.array_equal(eig.eigenvectors, vecs[:, order])


def tuple_tie_order(vals, vecs):
    """Reference tie order: each run of equal eigenvalues sorted by Python
    tuples of the rounded (re, im, ...) components."""
    order = np.argsort(vals, kind="stable")
    i = 0
    while i < len(order) - 1:
        j = i
        while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
            j += 1
        order[i:j + 1] = sorted(order[i:j + 1], key=lambda k: tuple(
            np.round(vecs[:, k], 12).view(float)))
        i = j + 1
    return order


class TestTieOrder:
    def spy_orders(self, monkeypatch, a):
        """(vals, vecs) that ``eig_hermitian(a)`` hands to ``_stable_order``."""
        seen = []
        monkeypatch.setattr(operators, "_stable_order", lambda vals, vecs: (
            seen.append((vals, vecs)) or _stable_order(vals, vecs)))
        eig_hermitian(a)
        return seen[0]

    @pytest.mark.parametrize("n", range(3, 9))
    def test_maximally_mixed_state(self, monkeypatch, n):
        d = 2 ** n
        vals, vecs = self.spy_orders(
            monkeypatch, Operator(np.eye(d, dtype=complex) / d, hermitian=True))
        assert np.array_equal(_stable_order(vals, vecs), tuple_tie_order(vals, vecs))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_degenerate_hermitian(self, monkeypatch, seed):
        # kron(B, 1_k): k copies of one block on interleaved supports, so
        # every eigenvalue is tied exactly k times
        rng = np.random.default_rng(seed)
        b = random_hermitian(rng, 4).matrix
        a = Operator(np.kron(b, np.eye(3 + seed)), hermitian=True)
        vals, vecs = self.spy_orders(monkeypatch, a)
        assert len(np.unique(vals)) == 4
        assert np.array_equal(_stable_order(vals, vecs), tuple_tie_order(vals, vecs))

    def test_signed_zeros_and_equal_prefixes(self):
        # components in {-1, -0.0, 0.0, 1}: long shared prefixes, -0.0 ties
        # with 0.0, and fully equal keys that must keep their input order
        rng = np.random.default_rng(9)
        parts = np.array([-1.0, -0.0, 0.0, 1.0])
        vecs = rng.choice(parts, size=(4, 200)) + 1j * rng.choice(parts, size=(4, 200))
        vals = rng.integers(0, 3, size=200).astype(float)
        assert np.array_equal(_stable_order(vals, vecs), tuple_tie_order(vals, vecs))


def column_loop_phases(vecs):
    """Reference phase fix, one column at a time: each column divided by the
    phase of its first component above 1e-12 of its largest, which is then
    made exactly real."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        mags = np.abs(col)
        lead = np.argmax(mags > 1e-12 * mags.max())
        phase = col[lead] / abs(col[lead])
        out[:, j] = col * phase.conjugate()
        out[lead, j] = out[lead, j].real
    return out


class TestPhaseFix:
    def spy_input(self, monkeypatch, a):
        """The eigenvectors that ``eig_hermitian(a)`` hands to ``_fix_phases``."""
        seen = []
        monkeypatch.setattr(operators, "_fix_phases", lambda vecs: (
            seen.append(vecs.copy()) or _fix_phases(vecs)))
        eig_hermitian(a)
        return seen[0]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_chain_matches_column_loop(self, monkeypatch, n):
        vecs = self.spy_input(monkeypatch, build_hamiltonian(
            ChainSpec(n=n, field=1.0, exchange=0.01)))
        assert np.array_equal(_fix_phases(vecs.copy()).view(float),
                              column_loop_phases(vecs).view(float))

    @pytest.mark.parametrize("d", [4, 16, 60])
    def test_random_hermitian_matches_column_loop(self, monkeypatch, d):
        # eigh returns each block's first component real, so the phases
        # are divided exactly and the loop's arithmetic is unchanged
        rng = np.random.default_rng(d)
        for a in (random_hermitian(rng, d),
                  Operator(np.kron(random_hermitian(rng, 4).matrix, np.eye(d // 4)),
                           hermitian=True)):
            vecs = self.spy_input(monkeypatch, a)
            assert np.array_equal(_fix_phases(vecs.copy()).view(float),
                                  column_loop_phases(vecs).view(float))
