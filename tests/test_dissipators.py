import math

import numpy as np
import pytest
import scipy.linalg

from spinflux import dissipators, operators
from spinflux.bath import BathSpec, rate
from spinflux.chain import ChainSpec
from spinflux.dissipators import (Generator, LindbladTerms, VariantError,
                                  bohr_decompose, gamma_matrix,
                                  gamma_remainder_factor,
                                  secular_terms_for_bath, split_gamma,
                                  _local_flip_operators)
from spinflux.liouville import apply, assemble, steady_state
from spinflux.observables import gibbs_state
from spinflux.operators import DimensionError, Operator, eig_hermitian, pauli

FIG_CHAIN = ChainSpec(n=3, field=1.0, exchange=0.01)
LEFT = BathSpec(beta=0.41, coupling=0.01, side="left")
RIGHT = BathSpec(beta=1.39, coupling=0.01, side="right")


def make_generator(variant, chain=FIG_CHAIN, left=LEFT, right=RIGHT):
    return Generator(variant, chain, left, right)


def random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return Operator(m + m.conj().T, hermitian=True)


def sz_sector(dim):
    """Number of up spins of each computational basis state."""
    return np.array([bin(k).count("1") for k in range(dim)])


def two_level_field(field=1.0):
    return Operator(0.5 * field * pauli("z").matrix, hermitian=True)


class TestBohrDecompose:
    def test_two_level_lowering_convention(self):
        dec = bohr_decompose(two_level_field(), pauli("x"), 1e-12)
        by_freq = {w: op for w, op in dec}
        assert set(by_freq) == {1.0, -1.0}
        assert np.allclose(by_freq[1.0], pauli("minus").matrix, atol=1e-14)
        assert np.allclose(by_freq[-1.0], pauli("plus").matrix, atol=1e-14)
        assert np.allclose(by_freq[1.0] + by_freq[-1.0], pauli("x").matrix,
                           atol=1e-14)

    def test_completeness_on_chain(self):
        gen = make_generator("redfield")
        for eigset, xc in zip(gen.eigenoperator_sets(), gen.coupling_operators):
            total = sum(op for _, op in eigset)
            assert np.abs(total - xc.matrix).max() <= 1e-12

    def test_conjugation_closure(self):
        gen = make_generator("redfield")
        for eigset in gen.eigenoperator_sets():
            by_freq = {w: op for w, op in eigset}
            for w, op in eigset:
                assert -w in by_freq
                assert np.abs(by_freq[-w] - op.conj().T).max() <= 1e-12

    def test_frequencies_separated(self):
        gen = make_generator("redfield")
        for eigset in gen.eigenoperator_sets():
            gaps = np.diff([w for w, _ in eigset])
            assert np.all(gaps > gen.cluster_tol)

    def test_interaction_picture_phases(self):
        gen = make_generator("redfield")
        h = gen.hamiltonian.matrix
        t = 0.7
        u = scipy.linalg.expm(1j * h * t)
        for eigset in gen.eigenoperator_sets():
            for w, op in eigset:
                lhs = u @ op @ u.conj().T
                assert np.abs(lhs - np.exp(-1j * w * t) * op).max() <= 1e-10

    def test_no_zero_components_kept(self):
        gen = make_generator("redfield")
        for eigset in gen.eigenoperator_sets():
            for _, op in eigset:
                assert np.abs(op).max() > 1e-14

    @pytest.mark.parametrize("variant", ["redfield", "secular"])
    def test_rejects_negative_cluster_tol(self, variant):
        with pytest.raises(ValueError, match="cluster_tol"):
            Generator(variant, FIG_CHAIN, LEFT, RIGHT, cluster_tol=-1e-9)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="hermitian"):
            bohr_decompose(Operator(pauli("plus").matrix), pauli("x"), 1e-12)


def dissipator(source, rho):
    """Dissipative part of a generator or of Lindblad terms: the action of
    their sandwich terms minus the coherent part -i[H, rho]."""
    h = source.hamiltonian.matrix
    return apply(source.sandwich_terms(), rho) + 1j * (h @ rho - rho @ h)


def kossakowski_apply(coefficients, ops, rho):
    """General coefficient-matrix dissipator
    sum_kl c_kl (F_k rho F_l_dag - (1/2){F_l_dag F_k, rho})."""
    c = np.asarray(coefficients)
    out = np.zeros_like(rho, dtype=complex)
    for k, Fk in enumerate(ops):
        for l, Fl in enumerate(ops):
            if c[k, l] == 0.0:
                continue
            cross = Fl.conj().T @ Fk
            out += c[k, l] * (Fk @ rho @ Fl.conj().T
                              - 0.5 * (cross @ rho + rho @ cross))
    return out


def double_sum_redfield(gen, rho):
    """Literal double-frequency-sum oracle (Hermitian rho)."""
    out = np.zeros_like(rho, dtype=complex)
    for eigset, bath in zip(gen.eigenoperator_sets(), gen.baths):
        for w, xw in eigset:
            weight = math.pi * rate(-w, bath)
            for _, xv in eigset:
                term = weight * (xw @ rho @ xv.conj().T - xv.conj().T @ xw @ rho)
                out += term + term.conj().T
    return out


class TestRedfield:
    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_double_sum_oracle(self, n):
        gen = make_generator("redfield", chain=ChainSpec(n=n, field=1.0, exchange=0.01))
        rng = np.random.default_rng(21)
        for _ in range(5):
            rho = random_hermitian(rng, gen.chain.dim)
            got = dissipator(gen, rho.matrix)
            want = double_sum_redfield(gen, rho.matrix)
            assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)

    def test_gibbs_is_stationary_at_equal_temperatures(self):
        left = BathSpec(beta=1.0, coupling=0.01, side="left")
        right = BathSpec(beta=1.0, coupling=0.01, side="right")
        gen = Generator("redfield", FIG_CHAIN, left, right)
        rho_g = gibbs_state(gen.hamiltonian, 1.0)
        full = apply(gen.sandwich_terms(), rho_g.matrix)
        scale = np.abs(assemble(gen).matrix).max()
        assert np.abs(full).max() <= 1e-10 * scale

    def test_secular_truncation_matches_secular_terms(self):
        gen = make_generator("redfield")
        sec = make_generator("secular")
        rng = np.random.default_rng(5)
        rho = random_hermitian(rng, 8)
        truncated = np.zeros((8, 8), dtype=complex)
        for eigset, bath in zip(gen.eigenoperator_sets(), gen.baths):
            for w, xw in eigset:
                weight = math.pi * rate(-w, bath)
                term = weight * (xw @ rho.matrix @ xw.conj().T
                                 - xw.conj().T @ xw @ rho.matrix)
                truncated += term + term.conj().T
        got = dissipator(sec, rho.matrix)
        assert np.abs(got - truncated).max() <= 1e-13

    def test_trace_annihilation(self):
        gen = make_generator("redfield")
        rng = np.random.default_rng(17)
        for _ in range(20):
            rho = random_hermitian(rng, 8)
            assert abs(np.trace(dissipator(gen, rho.matrix))) <= 1e-12

    def test_wrong_variant_rejected(self):
        with pytest.raises(VariantError):
            make_generator("secular").redfield_parts()

    def test_parts_are_read_only(self):
        gen = make_generator("redfield")
        with pytest.raises(ValueError):
            gen.redfield_parts()[0][1][0, 0] = 1.0

    def test_needs_no_bohr_decomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("redfield decomposed a coupling operator")

        monkeypatch.setattr(dissipators, "bohr_decompose", refuse)
        gen = make_generator("redfield")
        report = steady_state(assemble(gen))
        assert abs(report.state.trace() - 1.0) <= 1e-12

    def test_memory_preflight_leaves_redfield_alone(self, monkeypatch):
        # the amount at which the secular decomposition at n = 4 is refused
        chain = ChainSpec(n=4, field=1.0, exchange=0.01)
        monkeypatch.setattr(operators, "available_memory", lambda: 528383)
        gen = make_generator("redfield", chain=chain)
        assert len(gen.redfield_parts()) == 2
        with pytest.raises(DimensionError, match="64 positive-frequency groups"):
            gen.eigenoperator_sets()

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_parts_exactly_zero_off_neighbouring_sectors(self, n):
        gen = make_generator("redfield", chain=ChainSpec(n=n, field=1.0, exchange=0.01))
        sector = sz_sector(gen.chain.dim)
        far = np.abs(sector[:, None] - sector[None, :]) != 1
        for x, b in gen.redfield_parts():
            assert not np.any(x[far]) and not np.any(b[far])


class TestSecular:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_jumps_exactly_zero_off_neighbouring_sectors(self, n):
        gen = make_generator("secular", chain=ChainSpec(n=n, field=1.0, exchange=0.01))
        sector = sz_sector(gen.chain.dim)
        far = np.abs(sector[:, None] - sector[None, :]) != 1
        for _, jump in gen.lindblad_terms():
            assert not np.any(jump[far])

    def test_two_level_rates(self):
        # single-spin style check built straight from the decomposition
        bath = BathSpec(beta=0.9, coupling=0.05, side="left")
        dec = bohr_decompose(two_level_field(), pauli("x"), 1e-12)
        pairs = secular_terms_for_bath(dec, bath)
        by_jump = {}
        for r, op in pairs:
            if np.allclose(op, pauli("minus").matrix):
                by_jump["minus"] = r
            elif np.allclose(op, pauli("plus").matrix):
                by_jump["plus"] = r
        # emission carries the N+1 weight, absorption the N weight
        assert by_jump["minus"] == pytest.approx(2 * math.pi * rate(-1.0, bath),
                                                 rel=1e-14)
        assert by_jump["plus"] == pytest.approx(2 * math.pi * rate(1.0, bath),
                                                rel=1e-14)
        assert by_jump["minus"] > by_jump["plus"]

    def test_all_rates_nonnegative(self):
        terms = make_generator("secular").lindblad_terms()
        assert len(terms) > 0
        assert all(r >= 0 for r in terms.rates)

    def test_memory_preflight_refuses_before_decomposing(self, monkeypatch):
        # 64 positive Bohr-frequency groups at n = 4: (2*64 + 1) * 16 * 16**2
        # = 528384 bytes of dense operators per bath
        chain = ChainSpec(n=4, field=1.0, exchange=0.01)
        monkeypatch.setattr(operators, "available_memory", lambda: 528383)
        with pytest.raises(DimensionError, match="64 positive-frequency groups"):
            make_generator("secular", chain=chain)
        monkeypatch.setattr(operators, "available_memory", lambda: 528384)
        assert len(make_generator("secular", chain=chain).lindblad_terms()) > 0

    def test_preserves_diagonal_states(self):
        gen = make_generator("secular")
        eig = gen.eigensystem
        rng = np.random.default_rng(2)
        populations = rng.random(8)
        populations /= populations.sum()
        rho = Operator((eig.eigenvectors * populations) @ eig.eigenvectors.conj().T,
                       hermitian=True)
        out = dissipator(gen, rho.matrix)
        in_basis = eig.eigenvectors.conj().T @ out @ eig.eigenvectors
        off = np.abs(in_basis) - np.diag(np.abs(np.diag(in_basis)))
        assert np.abs(off).max() <= 1e-12


class TestGammaMatrix:
    def test_entries(self):
        g = gamma_matrix(LEFT, 1.0)
        up, down = rate(1.0, LEFT), rate(-1.0, LEFT)
        assert g[0, 0] == pytest.approx(2 * math.pi * up, rel=1e-15)
        assert g[1, 1] == pytest.approx(2 * math.pi * down, rel=1e-15)
        assert g[0, 1] == g[1, 0] == pytest.approx(math.pi * (up + down), rel=1e-15)

    def test_determinant_negative(self):
        for beta in (0.41, 1.0, 1.39, 5.0):
            for coupling in (0.01, 0.1, 1.0):
                for f in (0.5, 1.0, 2.0):
                    bath = BathSpec(beta=beta, coupling=coupling, side="left")
                    g = gamma_matrix(bath, f)
                    det = np.linalg.det(g)
                    want = -(math.pi * (rate(f, bath) - rate(-f, bath))) ** 2
                    assert det == pytest.approx(want, rel=1e-10)
                    assert det < 0

    def test_zero_temperature_limit(self):
        bath = BathSpec(beta=1e9, coupling=0.01, side="left")
        g = gamma_matrix(bath, 1.0)
        assert g[0, 0] == pytest.approx(0.0, abs=1e-300)
        assert g[1, 1] == pytest.approx(2 * math.pi * 0.005, rel=1e-6)

    def test_requires_positive_frequency(self):
        with pytest.raises(ValueError, match="positive"):
            gamma_matrix(LEFT, 0.0)


class TestSplitGamma:
    def test_rank_one_psd_part(self):
        g = gamma_matrix(LEFT, 1.0)
        ga, gb = split_gamma(g)
        tr = np.trace(ga)
        assert abs(np.linalg.det(ga)) <= 1e-12 * tr * tr
        eigs = np.linalg.eigvalsh(ga)
        assert abs(eigs[0]) <= 1e-12 * tr
        assert eigs[1] == pytest.approx(tr, rel=1e-12)

    def test_partition_is_exact(self):
        g = gamma_matrix(RIGHT, 1.0)
        ga, gb = split_gamma(g)
        assert np.array_equal(ga + gb, g)
        assert gb[0, 0] == 0.0 and gb[1, 1] == 0.0

    def test_remainder_weight(self):
        # off-diagonal of the remainder is pi * kappa * J(f) * A(N)
        from spinflux.bath import planck, spectral_density
        g = gamma_matrix(LEFT, 1.0)
        _, gb = split_gamma(g)
        n_occ = planck(1.0, LEFT.beta)
        want = (math.pi * LEFT.coupling * spectral_density(1.0)
                * gamma_remainder_factor(n_occ))
        assert gb[0, 1] == pytest.approx(want, rel=1e-10)

    def test_remainder_factor_values(self):
        assert gamma_remainder_factor(1.0) == pytest.approx(1.5 - math.sqrt(2.0),
                                                            abs=1e-12)
        vals = [gamma_remainder_factor(float(n)) for n in range(1, 101)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1.25e-3
        # large-N asymptotics 1/(8N)
        assert vals[-1] == pytest.approx(1 / (8 * 100.0), rel=2e-2)


class TestWeakCoupling:
    def test_one_jump_per_bath_with_trace_rate(self):
        terms = make_generator("weak_coupling").lindblad_terms()
        assert len(terms) == 2
        for bath, r in zip((LEFT, RIGHT), terms.rates):
            want = 2 * math.pi * (rate(1.0, bath) + rate(-1.0, bath))
            assert r == pytest.approx(want, rel=1e-12)

    def test_equivalent_to_kossakowski_form(self):
        gen = make_generator("weak_coupling")
        rng = np.random.default_rng(8)
        for _ in range(20):
            rho = random_hermitian(rng, 8)
            direct = np.zeros((8, 8), dtype=complex)
            for bath in (LEFT, RIGHT):
                ga, _ = split_gamma(gamma_matrix(bath, FIG_CHAIN.field))
                ops = _local_flip_operators(FIG_CHAIN, bath.side)
                direct += kossakowski_apply(ga, ops, rho.matrix)
            got = dissipator(gen, rho.matrix)
            assert np.abs(got - direct).max() <= 1e-12

    def test_zero_exchange_reduces_to_redfield_minus_remainder(self):
        chain = ChainSpec(n=3, field=1.0, exchange=0.0)
        red = Generator("redfield", chain, LEFT, RIGHT)
        weak = Generator("weak_coupling", chain, LEFT, RIGHT)
        rng = np.random.default_rng(12)
        for _ in range(5):
            rho = random_hermitian(rng, 8)
            remainder = np.zeros((8, 8), dtype=complex)
            for bath in (LEFT, RIGHT):
                _, gb = split_gamma(gamma_matrix(bath, chain.field))
                ops = _local_flip_operators(chain, bath.side)
                remainder += kossakowski_apply(gb, ops, rho.matrix)
            lhs = dissipator(red, rho.matrix)
            rhs = dissipator(weak, rho.matrix) + remainder
            assert np.abs(lhs - rhs).max() <= 1e-12

    def test_wrong_variant_rejected(self):
        with pytest.raises(VariantError):
            make_generator("weak_coupling").eigenoperator_sets()


class TestLocalDiag:
    def test_two_jumps_per_bath(self):
        terms = make_generator("local_diag").lindblad_terms()
        assert len(terms) == 4
        got = sorted(terms.rates)
        want = sorted([2 * math.pi * rate(s * 1.0, b)
                       for b in (LEFT, RIGHT) for s in (1, -1)])
        assert np.allclose(got, want, rtol=1e-12)

    def test_matches_diagonal_kossakowski(self):
        gen = make_generator("local_diag")
        rng = np.random.default_rng(4)
        rho = random_hermitian(rng, 8)
        direct = np.zeros((8, 8), dtype=complex)
        for bath in (LEFT, RIGHT):
            g = gamma_matrix(bath, FIG_CHAIN.field)
            ops = _local_flip_operators(FIG_CHAIN, bath.side)
            direct += kossakowski_apply(np.diag(np.diag(g)), ops, rho.matrix)
        got = dissipator(gen, rho.matrix)
        assert np.abs(got - direct).max() <= 1e-13


class TestLindbladTerms:
    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError, match="negative rate"):
            LindbladTerms(rates=(-1.0,), jumps=(pauli("minus").matrix,),
                          hamiltonian=two_level_field())

    def test_prunes_negligible_rates(self):
        terms = LindbladTerms(rates=(1.0, 1e-20),
                              jumps=(pauli("minus").matrix, pauli("plus").matrix),
                              hamiltonian=two_level_field())
        assert terms.rates == (1.0,)

    def test_trace_annihilation(self):
        terms = make_generator("weak_coupling").lindblad_terms()
        rng = np.random.default_rng(19)
        for _ in range(10):
            rho = random_hermitian(rng, 8)
            assert abs(np.trace(dissipator(terms, rho.matrix))) <= 1e-12

    def test_amplitude_damping_action(self):
        terms = LindbladTerms(rates=(1.0,), jumps=(pauli("minus").matrix,),
                              hamiltonian=two_level_field())
        excited = Operator(np.diag([1.0, 0.0]).astype(complex), hermitian=True)
        out = dissipator(terms, excited.matrix)
        assert np.allclose(out, np.diag([-1.0, 1.0]), atol=1e-15)

    def test_hermiticity_preserved(self):
        terms = make_generator("secular").lindblad_terms()
        rng = np.random.default_rng(23)
        rho = random_hermitian(rng, 8)
        out = dissipator(terms, rho.matrix)
        assert np.abs(out - out.conj().T).max() <= 1e-12

    def test_dim_mismatch(self):
        terms = LindbladTerms(rates=(1.0,), jumps=(pauli("minus").matrix,),
                              hamiltonian=two_level_field())
        with pytest.raises(ValueError, match="dim"):
            apply(terms.sandwich_terms(), np.eye(4, dtype=complex) / 4)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("variant", ["secular", "weak_coupling", "local_diag"])
    def test_decay_is_the_anti_hermitian_part_of_h_eff(self, variant, n):
        chain = ChainSpec(n=n, field=1.0, exchange=0.01)
        terms = make_generator(variant, chain=chain).lindblad_terms()
        decay = terms.decay.toarray()
        h_eff = terms.effective_hamiltonian()
        scale = np.abs(decay).max()
        assert np.abs(1j * (h_eff - h_eff.conj().T) - decay).max() <= 1e-14 * scale
        dense = sum(r * (L.conj().T @ L) for r, L in terms)
        assert np.abs(decay - dense).max() <= 1e-14 * scale
        if variant != "secular":
            # every local jump has at most one non-zero per row and column
            assert np.array_equal(decay, np.diag(np.diag(decay)))


class TestGeneratorSpec:
    @pytest.mark.parametrize("variant,calls", [("weak_coupling", 0), ("local_diag", 0),
                                               ("redfield", 1), ("secular", 1)])
    def test_eigensystem_computed_once_and_only_when_needed(self, variant, calls,
                                                            monkeypatch):
        import spinflux.dissipators as dissipators
        seen = []

        def counting(op):
            seen.append(op)
            return eig_hermitian(op)

        monkeypatch.setattr(dissipators, "eig_hermitian", counting)
        gen = make_generator(variant)
        assert len(seen) == calls
        gen.eigensystem
        gen.eigensystem
        assert len(seen) == 1 and seen[0] is gen.hamiltonian

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            make_generator("lamb_shift")

    def test_bath_sides_enforced(self):
        with pytest.raises(ValueError, match="side"):
            Generator("secular", FIG_CHAIN, RIGHT, RIGHT)

    def test_redfield_has_no_lindblad_terms(self):
        gen = make_generator("redfield")
        with pytest.raises(VariantError, match="indefinite"):
            gen.lindblad_terms()

    def test_default_cluster_tol_scales_with_field(self):
        gen = make_generator("secular")
        assert gen.cluster_tol == pytest.approx(1e-9 * FIG_CHAIN.field)
