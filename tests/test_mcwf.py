import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse
import scipy.stats

from spinflux import mcwf, operators
from spinflux.bath import BathSpec
from spinflux.chain import ChainSpec
from spinflux.dissipators import Generator, LindbladTerms
from spinflux.liouville import Superoperator, assemble, coordinates, propagate
from spinflux.mcwf import (Trajectory, _BatchKernel, _rng_for,
                           effective_hamiltonian, evolve_trajectory,
                           run_ensemble, split_seed)
from spinflux.observables import reported_current_operator
from spinflux.operators import DimensionError, Operator, connected_blocks

FIG_CHAIN = ChainSpec(n=3, field=1.0, exchange=0.01)
LEFT = BathSpec(beta=0.41, coupling=0.01, side="left")
RIGHT = BathSpec(beta=1.39, coupling=0.01, side="right")


# the single-spin Pauli matrices, spelled out here as the tests' oracle
PAULI_ENTRIES = {"x": [[0, 1], [1, 0]], "z": [[1, 0], [0, -1]],
                 "plus": [[0, 1], [0, 0]], "minus": [[0, 0], [1, 0]]}


def pauli(kind):
    """A single-spin Pauli operator, flagged Hermitian for x and z."""
    return Operator(np.array(PAULI_ENTRIES[kind], dtype=complex),
                    hermitian=kind in ("x", "z"))


def two_level_field():
    return Operator(0.5 * pauli("z").matrix, hermitian=True)


def damping_terms(rate=1.0):
    return LindbladTerms(rates=(rate,), jumps=(pauli("minus").matrix,),
                         hamiltonian=two_level_field())


EXCITED = np.array([1.0, 0.0], dtype=complex)


class TestEffectiveHamiltonian:
    def test_empty_terms(self):
        h = two_level_field()
        empty = LindbladTerms(rates=(), jumps=(), hamiltonian=h)
        assert np.array_equal(effective_hamiltonian(h, empty).matrix, h.matrix)
        assert empty.decay.shape == (2, 2) and empty.decay.nnz == 0

    def test_two_level_decay(self):
        h = two_level_field()
        h_eff = effective_hamiltonian(h, damping_terms()).matrix
        want = h.matrix - 0.5j * np.diag([1.0, 0.0])
        assert np.abs(h_eff - want).max() <= 1e-15

    @pytest.mark.parametrize("source", ["h_eff", "terms.decay"])
    def test_decay_part_is_positive_semidefinite(self, source):
        gen = Generator("weak_coupling", FIG_CHAIN, LEFT, RIGHT)
        terms = gen.lindblad_terms()
        h_eff = effective_hamiltonian(gen.hamiltonian, terms).matrix
        decay = (1j * (h_eff - h_eff.conj().T) if source == "h_eff"
                 else terms.decay.toarray())
        assert np.linalg.eigvalsh(decay).min() >= -1e-12
        # equivalently the anti-hermitian part only ever shrinks the norm
        assert np.linalg.eigvalsh(-decay).max() <= 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            effective_hamiltonian(Operator(np.eye(4, dtype=complex),
                                           hermitian=True), damping_terms())

    def test_foreign_hamiltonian_rejected(self):
        h = Operator(pauli("x").matrix, hermitian=True)
        with pytest.raises(ValueError, match="differs"):
            effective_hamiltonian(h, damping_terms())


class TestTrajectory:
    def test_closed_system_conserves_energy(self):
        gen = Generator("weak_coupling", FIG_CHAIN,
                        BathSpec(beta=0.41, coupling=0.0, side="left"),
                        BathSpec(beta=1.39, coupling=0.0, side="right"))
        terms = gen.lindblad_terms()
        h_eff = effective_hamiltonian(gen.hamiltonian, terms)
        rng = np.random.default_rng(4)
        psi0 = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi0 /= np.linalg.norm(psi0)
        traj = evolve_trajectory(h_eff, terms, psi0, np.linspace(0, 30, 16),
                                 seed=split_seed(5, 0))
        assert traj.jump_times.size == 0
        h = gen.hamiltonian.matrix
        energies = [np.vdot(s, h @ s).real for s in traj.states]
        assert np.abs(np.diff(energies)).max() <= 1e-8

    def test_states_stay_normalized(self):
        terms = damping_terms()
        h_eff = effective_hamiltonian(two_level_field(), terms)
        traj = evolve_trajectory(h_eff, terms, EXCITED, np.linspace(0, 8, 21),
                                 seed=split_seed(17, 3))
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-10

    def test_jump_times_strictly_increase(self):
        # thermal-like two-level with both channels so several jumps happen
        terms = LindbladTerms(rates=(1.0, 0.8),
                              jumps=(pauli("minus").matrix, pauli("plus").matrix),
                              hamiltonian=two_level_field())
        h_eff = effective_hamiltonian(two_level_field(), terms)
        traj = evolve_trajectory(h_eff, terms, EXCITED, np.linspace(0, 20, 11),
                                 seed=split_seed(8, 1))
        assert traj.jump_times.size >= 3
        assert np.all(np.diff(traj.jump_times) > 0)

    def test_identical_seed_identical_record(self):
        terms = damping_terms()
        h_eff = effective_hamiltonian(two_level_field(), terms)
        grid = np.linspace(0, 8, 9)
        a = evolve_trajectory(h_eff, terms, EXCITED, grid, seed=split_seed(9, 2))
        b = evolve_trajectory(h_eff, terms, EXCITED, grid, seed=split_seed(9, 2))
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.array_equal(a.jump_channels, b.jump_channels)
        assert np.array_equal(a.states, b.states)

    def test_foreign_hamiltonian_rejected(self):
        # the kernel reads the jumps and the decay from terms alone, so an
        # h_eff of other terms would simulate neither generator
        foreign = effective_hamiltonian(two_level_field(), damping_terms(rate=2.0))
        with pytest.raises(ValueError, match="differs"):
            evolve_trajectory(foreign, damping_terms(rate=1.0), EXCITED,
                              np.array([0.0, 1.0]), seed=1)

    @pytest.mark.parametrize("times", [[0.0, np.nan], [np.nan], [0.0, np.inf]])
    def test_rejects_non_finite_grid(self, times):
        terms = damping_terms()
        h_eff = effective_hamiltonian(two_level_field(), terms)
        with pytest.raises(ValueError, match="finite"):
            evolve_trajectory(h_eff, terms, EXCITED, np.array(times), seed=1)

    def test_rejects_unnormalized_state(self):
        terms = damping_terms()
        h_eff = effective_hamiltonian(two_level_field(), terms)
        with pytest.raises(ValueError, match="normalized"):
            evolve_trajectory(h_eff, terms, 2.0 * EXCITED, np.array([0.0, 1.0]),
                              seed=1)

    def test_jump_waiting_times_are_exponential(self):
        # 10^4 decays from the excited state; first-jump times ~ Exp(1)
        terms = damping_terms(rate=1.0)
        count = 10_000
        kernel = _BatchKernel(terms, np.array([0.0, 14.0]))
        rngs = [_rng_for(split_seed(2030, r)) for r in range(count)]
        psi0 = np.tile(EXCITED[:, None], (1, count))
        jump_log = [[] for _ in range(count)]
        for _ in kernel.run(psi0, rngs, jump_log):
            pass
        first = np.array([events[0][0] for events in jump_log if events])
        assert first.size >= count - 5  # censoring beyond t=14 is ~e^-14
        stat = scipy.stats.kstest(first, "expon").statistic
        critical = 1.6276 / np.sqrt(first.size)  # 1% point of the KS statistic
        assert stat < critical

    @pytest.mark.parametrize("rate", [0.3, 1.0, 7.0])
    def test_first_jump_time_is_exact(self, rate):
        # single decay channel: the squared norm is exp(-rate t), so the first
        # jump fires at -ln(u)/rate with u the stream's first draw.  On the
        # grid [0, 200] at rate 7 the squared norm at the end of the bracket
        # underflows to 0
        terms = damping_terms(rate=rate)
        h_eff = effective_hamiltonian(two_level_field(), terms)
        for r in range(20):
            seed = split_seed(404, r)
            u = _rng_for(seed).random()
            want = -np.log(u) / rate
            for t_end in (want + 1.0, 200.0):
                traj = evolve_trajectory(h_eff, terms, EXCITED,
                                         np.array([0.0, t_end]), seed)
                assert abs(traj.jump_times[0] - want) <= 1e-12 * max(want, 1.0)

    def test_first_jump_time_is_exact_on_chain(self):
        # two channels with different rates: the squared norm is no single
        # exponential, so the Newton iteration has to converge on its own
        gen = Generator("weak_coupling", FIG_CHAIN, LEFT, RIGHT)
        terms = gen.lindblad_terms()
        h_eff = effective_hamiltonian(terms.hamiltonian, terms).matrix
        psi0 = np.zeros(8, dtype=complex)
        psi0[1] = 1.0

        def norm2(t):
            return np.linalg.norm(scipy.linalg.expm(-1j * t * h_eff) @ psi0) ** 2

        for r in range(20):
            seed = split_seed(505, r)
            u = _rng_for(seed).random()
            hi = 1.0
            while norm2(hi) > u:
                hi *= 2.0
            want = scipy.optimize.brentq(lambda t: norm2(t) - u, 0.0, hi,
                                         xtol=1e-14, rtol=4 * np.finfo(float).eps)
            traj = evolve_trajectory(Operator(h_eff), terms, psi0,
                                     np.array([0.0, want + 1.0]), seed)
            assert abs(traj.jump_times[0] - want) <= 1e-10 * max(want, 1.0)

    def test_every_jump_matches_dense_reference(self):
        # the whole jump record of an n=3 chain trajectory on a coarse grid,
        # so that jumps fall between grid points: each waiting time from
        # expm + brentq, each channel from the same draws
        gen = Generator("weak_coupling", FIG_CHAIN, LEFT, RIGHT)
        terms = gen.lindblad_terms()
        h_eff = effective_hamiltonian(terms.hamiltonian, terms).matrix
        grid = np.linspace(0.0, 400.0, 51)
        psi = np.zeros(8, dtype=complex)
        psi[1] = 1.0
        seed = split_seed(606, 0)
        traj = evolve_trajectory(Operator(h_eff), terms, psi, grid, seed)
        assert traj.jump_times.size >= 20

        def flow(t):
            return scipy.linalg.expm(-1j * t * h_eff)

        rng = _rng_for(seed)
        u, t = rng.random(), 0.0
        for got_time, got_channel in zip(traj.jump_times, traj.jump_channels):
            def excess(tau):
                return np.linalg.norm(flow(tau) @ psi) ** 2 - u
            hi = 1.0
            while excess(hi) > 0:
                hi *= 2.0
            tau = scipy.optimize.brentq(excess, 0.0, hi, xtol=1e-14,
                                        rtol=4 * np.finfo(float).eps)
            t += tau
            assert abs(got_time - t) <= 1e-10 * max(t, 1.0)
            branches = [L @ (flow(tau) @ psi) for L in terms.jumps]
            weights = np.array(terms.rates) * [np.vdot(b, b).real for b in branches]
            draw, u = rng.random(2)
            channel = min(int(np.sum(np.cumsum(weights) <= draw * weights.sum())),
                          len(weights) - 1)
            assert got_channel == channel
            psi = branches[channel] / np.linalg.norm(branches[channel])
        # and no further jump before the end of the grid
        assert np.linalg.norm(flow(grid[-1] - t) @ psi) ** 2 > u


class TestBlocks:
    def test_n5_sectors_split_h_eff_exactly(self):
        chain = ChainSpec(n=5, field=1.0, exchange=0.01)
        gen = Generator("weak_coupling", chain, LEFT, RIGHT)
        h_eff = effective_hamiltonian(gen.hamiltonian,
                                      gen.lindblad_terms()).matrix
        blocks = connected_blocks(h_eff)
        assert [len(b) for b in blocks] == [1, 5, 10, 10, 5, 1]
        label = np.empty(chain.dim, dtype=int)
        for k, idx in enumerate(blocks):
            label[idx] = k
        off = label[:, None] != label[None, :]
        assert np.count_nonzero(h_eff[off]) == 0

    def test_run_samples_every_grid_point_once(self):
        # blocks of at most BATCH_SIZE samples that cover (grid point,
        # column) exactly once, at unit norm
        gen = Generator("weak_coupling", FIG_CHAIN, LEFT, RIGHT)
        terms = gen.lindblad_terms()
        grid = np.linspace(0.0, 400.0, 51)
        kernel = _BatchKernel(terms, grid)
        count = 300
        psi0 = np.eye(8, dtype=complex)[:, np.arange(count) % 8]
        rngs = [_rng_for(split_seed(808, r)) for r in range(count)]
        seen = np.zeros((len(grid), count), dtype=int)
        for g, cols, states in kernel.run(psi0, rngs):
            assert len(g) == len(cols) == states.shape[1] <= mcwf.BATCH_SIZE
            assert np.abs(np.linalg.norm(states, axis=0) - 1.0).max() <= 1e-12
            np.add.at(seen, (g, cols), 1)
        assert np.all(seen == 1)

    def test_defective_block_takes_expm_path(self):
        # H = g sx with decay 4g on the upper level: H_eff sits at an
        # exceptional point, one double eigenvalue with a single eigenvector
        g, gamma = 0.5, 2.0
        h = Operator(g * pauli("x").matrix, hermitian=True)
        terms = LindbladTerms(rates=(gamma,), jumps=(pauli("minus").matrix,),
                              hamiltonian=h)
        grid = np.linspace(0.0, 6.0, 13)
        kernel = _BatchKernel(terms, grid)
        # the block's rows in sector order, mapped back to basis indices
        assert [list(kernel.order[rows]) for rows, _ in kernel.expm_blocks] == [[0, 1]]

        eye = np.eye(2)
        L = pauli("minus").matrix
        decay = gamma * L.conj().T @ L
        liouvillian = (-1j * (np.kron(eye, h.matrix) - np.kron(h.matrix.T, eye))
                       + gamma * np.kron(L.conj(), L)
                       - 0.5 * (np.kron(eye, decay) + np.kron(decay.T, eye)))
        s = Superoperator(sparse=scipy.sparse.csr_array(liouvillian), dim=2,
                          generator=None)
        rho0 = Operator(np.outer(EXCITED, EXCITED.conj()), hermitian=True)
        exact = propagate(s, rho0, grid) @ coordinates(pauli("z"))
        res = run_ensemble(terms, EXCITED, grid, {"sz": pauli("z")},
                           realizations=4000, master_seed=4242)
        dev = np.abs(res.means["sz"] - exact)
        assert np.all(dev <= 3.0 * res.standard_errors["sz"] + 1e-12)


    def test_eigensystem_computed_once_per_jump_terms(self, monkeypatch):
        # the kernels of later ensembles and trajectories read the blocks that
        # the first one diagonalized: the four S_z sectors at n = 3
        eig_calls = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig",
                            lambda m: eig_calls.append(m.shape) or eig(m))
        terms = Generator("weak_coupling", FIG_CHAIN, LEFT, RIGHT).lindblad_terms()
        obs = {"j": reported_current_operator(FIG_CHAIN, 1)}
        rho0 = Operator(np.eye(8, dtype=complex) / 8, hermitian=True)
        grid = np.linspace(0.0, 20.0, 3)
        psi0 = np.eye(8, dtype=complex)[1]
        h_eff = effective_hamiltonian(terms.hamiltonian, terms)
        counts = []
        for call in (lambda: run_ensemble(terms, rho0, grid, obs, 16, 5),
                     lambda: run_ensemble(terms, rho0, grid, obs, 16, 5),
                     lambda: evolve_trajectory(h_eff, terms, psi0, grid, seed=1)):
            call()
            counts.append(len(eig_calls))
        assert counts == [4, 4, 4]
        assert sorted(eig_calls) == [(1, 1), (1, 1), (3, 3), (3, 3)]
        fresh = Generator("weak_coupling", FIG_CHAIN, LEFT, RIGHT).lindblad_terms()
        evolve_trajectory(h_eff, fresh, psi0, grid, seed=1)
        run_ensemble(fresh, rho0, grid, obs, 16, 5)
        assert len(eig_calls) == 8


class TestSectorOrder:
    @pytest.mark.parametrize("n", [3, 4])
    def test_jump_free_run_matches_expm_from_every_basis_state(self, n):
        # the kernel holds states in sector order, which differs from the
        # basis order at n = 3 and 4; with rates ~1e-9 no jump fires, and
        # every sample must be exp(-i H_eff t) psi0, normalized, in the basis
        # order, from evolve_trajectory and from run_ensemble alike
        chain = ChainSpec(n=n, field=1.0, exchange=0.01)
        weak = [BathSpec(beta=b.beta, coupling=1e-9, side=b.side)
                for b in (LEFT, RIGHT)]
        terms = Generator("weak_coupling", chain, *weak).lindblad_terms()
        h_eff = effective_hamiltonian(terms.hamiltonian, terms).matrix
        grid = np.linspace(0.0, 40.0, 9)
        kernel = _BatchKernel(terms, grid)
        assert not np.array_equal(kernel.order, np.arange(chain.dim))
        flows = np.array([scipy.linalg.expm(-1j * t * h_eff) for t in grid])
        # populations catch a permuted state, the bond currents its phases
        obs = {f"p{j}": Operator(np.diag(np.eye(chain.dim)[j]).astype(complex),
                                 hermitian=True) for j in range(chain.dim)}
        obs.update({f"j{b}": reported_current_operator(chain, b)
                    for b in range(1, n)})
        for k, psi0 in enumerate(np.eye(chain.dim, dtype=complex)):
            want = flows[:, :, k] / np.linalg.norm(flows[:, :, k], axis=1)[:, None]
            traj = evolve_trajectory(Operator(h_eff), terms, psi0, grid,
                                     seed=split_seed(7, k))
            assert traj.jump_times.size == 0
            assert np.abs(traj.states - want).max() <= 1e-12
            res = run_ensemble(terms, psi0, grid, obs, realizations=1, master_seed=k)
            assert res.jump_counts.sum() == 0
            for name, op in obs.items():
                exact = np.einsum("ti,ij,tj->t", want.conj(), op.matrix, want).real
                assert np.abs(res.means[name] - exact).max() <= 1e-12

    def test_kernel_holds_no_dense_matrix(self):
        # every array the kernel keeps, sparse ones included, has fewer
        # than d^2 entries: at n = 5 the largest sector has 10 states
        chain = ChainSpec(n=5, field=1.0, exchange=0.01)
        terms = Generator("weak_coupling", chain, LEFT, RIGHT).lindblad_terms()
        kernel = _BatchKernel(terms, np.linspace(0.0, 40.0, 5))

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif scipy.sparse.issparse(value):
                yield from (value.data, value.indices, value.indptr)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    yield from arrays(item)

        held = list(arrays(list(vars(kernel).values())))
        assert len(held) > 10
        assert max(a.size for a in held) < chain.dim ** 2

    def test_size_one_blocks_have_unit_eigenvectors(self):
        # the kernel skips the product on a block of size 1, which is exact
        # only because LAPACK returns V = V^-1 = [[1]] there
        terms = Generator("local_diag", ChainSpec(n=4, field=1.0, exchange=0.01),
                          LEFT, RIGHT).lindblad_terms()
        ones = [eig for idx, *eig in terms.eigenblocks if len(idx) == 1]
        assert len(ones) == 2
        for _, v, v_inv in ones:
            assert v.tolist() == v_inv.tolist() == [[1.0]]


class TestEnsemble:
    def test_single_realization_matches_trajectory(self):
        terms = damping_terms()
        h_eff = effective_hamiltonian(two_level_field(), terms)
        grid = np.linspace(0, 5, 11)
        master = 77
        res = run_ensemble(terms, EXCITED, grid, {"sz": pauli("z")},
                           realizations=1, master_seed=master)
        traj = evolve_trajectory(h_eff, terms, EXCITED, grid,
                                 seed=split_seed(master, 0))
        manual = np.array([np.vdot(s, pauli("z").matrix @ s).real
                           for s in traj.states])
        assert np.allclose(res.means["sz"], manual, rtol=1e-13, atol=1e-13)
        assert np.all(res.standard_errors["sz"] == 0.0)

    def test_jump_counts_match_trajectory_record(self):
        gen = Generator("weak_coupling", FIG_CHAIN, LEFT, RIGHT)
        terms = gen.lindblad_terms()
        grid = np.linspace(0.0, 400.0, 51)
        psi0 = np.zeros(8, dtype=complex)
        psi0[1] = 1.0
        for master in (11, 12, 13):
            res = run_ensemble(terms, psi0, grid,
                               {"j": reported_current_operator(FIG_CHAIN, 1)},
                               realizations=1, master_seed=master)
            traj = evolve_trajectory(effective_hamiltonian(terms.hamiltonian, terms),
                                     terms, psi0, grid, split_seed(master, 0))
            assert traj.jump_channels.size > 0
            assert np.array_equal(res.jump_counts, np.bincount(
                traj.jump_channels, minlength=len(terms.rates)))

    def test_amplitude_damping_matches_closed_form(self):
        terms = damping_terms()
        grid = np.linspace(0, 5, 26)
        res = run_ensemble(terms, EXCITED, grid, {"sz": pauli("z")},
                           realizations=10_000, master_seed=123)
        exact = 2.0 * np.exp(-grid) - 1.0
        dev = np.abs(res.means["sz"] - exact)
        band = 3.0 * res.standard_errors["sz"] + 1e-12
        assert np.all(dev <= band)

    def test_doubling_realizations_shrinks_error_like_clt(self):
        gen = Generator("weak_coupling", FIG_CHAIN, LEFT, RIGHT)
        terms = gen.lindblad_terms()
        j = reported_current_operator(FIG_CHAIN, 1)
        grid = np.array([0.0, 50.0])
        rho0 = Operator(np.eye(8, dtype=complex) / 8, hermitian=True)
        se = {}
        for r in (2000, 4000):
            res = run_ensemble(terms, rho0, grid, {"j": j}, realizations=r,
                               master_seed=31)
            se[r] = res.standard_errors["j"][-1]
        ratio = se[2000] / se[4000]
        assert np.sqrt(2.0) * 0.8 <= ratio <= np.sqrt(2.0) * 1.2

    def test_worker_count_does_not_change_bits(self):
        gen = Generator("weak_coupling", FIG_CHAIN, LEFT, RIGHT)
        terms = gen.lindblad_terms()
        j = reported_current_operator(FIG_CHAIN, 1)
        grid = np.linspace(0.0, 20.0, 3)
        rho0 = Operator(np.eye(8, dtype=complex) / 8, hermitian=True)
        serial = run_ensemble(terms, rho0, grid, {"j": j}, realizations=600,
                              master_seed=5, workers=1)
        parallel = run_ensemble(terms, rho0, grid, {"j": j}, realizations=600,
                                master_seed=5, workers=2)
        assert np.array_equal(serial.means["j"], parallel.means["j"])
        assert np.array_equal(serial.standard_errors["j"],
                              parallel.standard_errors["j"])

    def test_mixed_initial_state_sampling_is_unbiased(self):
        terms = damping_terms(rate=0.3)
        rho0 = Operator(np.diag([0.25, 0.75]).astype(complex), hermitian=True)
        res = run_ensemble(terms, rho0, np.array([0.0, 0.1]), {"sz": pauli("z")},
                           realizations=4000, master_seed=9)
        want = 0.25 - 0.75
        dev = abs(res.means["sz"][0] - want)
        assert dev <= 3.0 * res.standard_errors["sz"][0] + 1e-12

    @pytest.mark.parametrize("times", [[0.0, np.nan], [np.nan], [0.0, np.inf]])
    def test_rejects_non_finite_grid(self, times):
        # such a grid used to pass the check and leave unwritten samples
        with pytest.raises(ValueError, match="finite"):
            run_ensemble(damping_terms(), EXCITED, np.array(times),
                         {"sz": pauli("z")}, realizations=2, master_seed=1)

    def test_rejects_observable_not_flagged_hermitian(self, monkeypatch):
        # only the real part of <psi|O|psi> is kept, so sigma_plus's
        # imaginary part would be dropped without a word
        monkeypatch.setattr(mcwf, "require_memory",
                            lambda *args: pytest.fail("counted past the check"))
        with pytest.raises(ValueError, match="'sp' must be flagged hermitian"):
            run_ensemble(damping_terms(), EXCITED, np.array([0.0, 1.0]),
                         {"sz": pauli("z"), "sp": pauli("plus")}, realizations=2,
                         master_seed=1)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_refuses_a_bad_seed_before_any_set_up(self, monkeypatch, seed):
        # refused before the memory count, so before a mixed start's
        # eigendecomposition, eigenblocks or the kernel is built
        monkeypatch.setattr(mcwf, "require_memory",
                            lambda *args: pytest.fail("counted past the check"))
        with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
            run_ensemble(damping_terms(), EXCITED, np.array([0.0, 1.0]),
                         {"sz": pauli("z")}, realizations=2, master_seed=seed)

    def test_requires_at_least_one_realization(self):
        with pytest.raises(ValueError, match="realization"):
            run_ensemble(damping_terms(), EXCITED, np.array([0.0, 1.0]),
                         {"sz": pauli("z")}, realizations=0, master_seed=1)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_fewer_than_one_worker(self, monkeypatch, workers):
        # such a count ran serially while the memory count charged it no batch
        monkeypatch.setattr(mcwf, "require_memory",
                            lambda *args: pytest.fail("counted past the check"))
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            run_ensemble(damping_terms(), EXCITED, np.array([0.0, 1.0]),
                         {"sz": pauli("z")}, realizations=2, master_seed=1,
                         workers=workers)

    @pytest.mark.parametrize("value,match", [("abc", "an integer, got 'abc'"),
                                             ("0", ">= 1, got 0")])
    def test_rejects_a_bad_worker_variable(self, monkeypatch, value, match):
        monkeypatch.setenv("SPINFLUX_WORKERS", value)
        monkeypatch.setattr(mcwf, "require_memory",
                            lambda *args: pytest.fail("counted past the check"))
        with pytest.raises(ValueError, match=f"SPINFLUX_WORKERS must be {match}"):
            run_ensemble(damping_terms(), EXCITED, np.array([0.0, 1.0]),
                         {"sz": pauli("z")}, realizations=2, master_seed=1)

    def test_one_kernel_per_ensemble(self, monkeypatch):
        # 600 realizations are 3 batches, and one kernel serves them all
        calls = []
        kernel = mcwf._BatchKernel
        monkeypatch.setattr(mcwf, "_BatchKernel",
                            lambda *args: calls.append(1) or kernel(*args))
        gen = Generator("weak_coupling", FIG_CHAIN, LEFT, RIGHT)
        rho0 = Operator(np.eye(8, dtype=complex) / 8, hermitian=True)
        run_ensemble(gen.lindblad_terms(), rho0, np.linspace(0.0, 20.0, 3),
                     {"j": reported_current_operator(FIG_CHAIN, 1)},
                     realizations=600, master_seed=5, workers=1)
        assert len(calls) == 1

    def test_memory_preflight_refuses_before_allocating(self, monkeypatch):
        # d = 2 in two blocks of size 1, one jump channel, jumps and decay
        # with 1 non-zero each, one observable with 2 non-zeros, 2 points, 1
        # trajectory from a pure state on fresh terms: 262144 fixed bytes,
        # 4 * 16 * (1 + 1) bytes of kernel blocks (no dense H_eff is formed),
        # 56 * (2 + 2) + 8 * 3 * 3 bytes of CSR jumps, decay and observable,
        # and one batch: (8 * 2 + 1024 + 16 * (10 * 2 + 1 * (2 + 2))) bytes for
        # the trajectory and 16 * 2 * 6 * 2 bytes for its 2 samples' states,
        # 262144 + 128 + 296 + 1424 + 384 = 264376 bytes
        monkeypatch.setattr(operators, "available_memory", lambda: 264375)
        with pytest.raises(DimensionError, match="memory available"):
            run_ensemble(damping_terms(), EXCITED, np.array([0.0, 1.0]),
                         {"sz": pauli("z")}, realizations=1, master_seed=1)

    def test_memory_preflight_passes_when_memory_suffices(self, monkeypatch):
        monkeypatch.setattr(operators, "available_memory", lambda: 264376)
        run_ensemble(damping_terms(), EXCITED, np.array([0.0, 1.0]),
                     {"sz": pauli("z")}, realizations=1, master_seed=1)

    def test_memory_preflight_counts_the_batch_samples(self, monkeypatch):
        # the bytes above with a batch of 256 trajectories whose float64
        # samples fill 8 bytes * 1 observable * 20001 points each, and
        # 256 columns of sample states
        total = (262144 + 128 + 296 + 256 * (8 * 20001 + 1024 + 16 * 24)
                 + 16 * 2 * 6 * 256)
        monkeypatch.delenv("SPINFLUX_WORKERS", raising=False)
        monkeypatch.setattr(operators, "available_memory", lambda: total - 1)
        monkeypatch.setattr(mcwf, "_BatchKernel",
                            lambda *args: pytest.fail("allocated past the preflight"))
        with pytest.raises(DimensionError, match="memory available"):
            run_ensemble(damping_terms(), EXCITED, np.linspace(0.0, 20.0, 20001),
                         {"sz": pauli("z")}, realizations=300, master_seed=1)

    def test_memory_preflight_counts_every_batch_in_flight(self, monkeypatch):
        # 512 realizations are two batches; with two workers both are in
        # flight at once, each with its samples and working states
        required = []

        def record(nbytes, what):
            required.append(nbytes)
            raise DimensionError("recorded")

        monkeypatch.setattr(mcwf, "require_memory", record)
        for workers in (1, 2, 3):
            with pytest.raises(DimensionError, match="recorded"):
                run_ensemble(damping_terms(), EXCITED, np.linspace(0.0, 20.0, 101),
                             {"sz": pauli("z")}, realizations=512, master_seed=1,
                             workers=workers)
        batch = 256 * (8 * 101 + 1024 + 16 * 24) + 16 * 2 * 6 * 256
        assert required[1] - required[0] == batch
        assert required[2] == required[1]  # only two batches to run

    @staticmethod
    def traced_peak_and_count(monkeypatch, start, n, used, variant="weak_coupling",
                              realizations=8):
        """tracemalloc peak of one n-site run_ensemble and the bytes it
        required; with ``used`` the jump terms have served a run before."""
        chain = ChainSpec(n=n, field=1.0, exchange=0.01)
        gen = Generator(variant, chain, LEFT, RIGHT)
        terms = gen.lindblad_terms()
        obs = {"j": reported_current_operator(chain, 1)}
        if start == "pure":
            initial = np.zeros(chain.dim, dtype=complex)
            initial[1] = 1.0
        else:
            initial = Operator(np.eye(chain.dim, dtype=complex) / chain.dim,
                               hermitian=True)
        grid = np.linspace(0.0, 40.0, 5)
        if used:
            run_ensemble(terms, initial, grid, obs, realizations=1, master_seed=3)
        required = []
        monkeypatch.setattr(mcwf, "require_memory",
                            lambda nbytes, what: required.append(nbytes))
        tracemalloc.start()
        try:
            run_ensemble(terms, initial, grid, obs, realizations=realizations,
                         master_seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, required[0]

    @pytest.mark.parametrize("n", [8, 9])
    @pytest.mark.parametrize("start", ["pure", "maximally_mixed"])
    def test_memory_preflight_covers_traced_peak(self, monkeypatch, start, n):
        # what the preflight requires bounds what run_ensemble allocates,
        # H_eff's eigensystem included; the maximally mixed start, the CLI's
        # default, adds its eigenvectors
        peak, count = self.traced_peak_and_count(monkeypatch, start, n, used=False)
        assert peak <= count

    @pytest.mark.parametrize("n", [8, 9])
    @pytest.mark.parametrize("start", ["pure", "maximally_mixed"])
    def test_memory_preflight_covers_traced_peak_of_used_terms(self, monkeypatch,
                                                               start, n):
        peak, count = self.traced_peak_and_count(monkeypatch, start, n, used=True)
        assert peak <= count

    @pytest.mark.parametrize("used", [False, True], ids=["fresh", "used"])
    def test_used_terms_at_ten_sites_peak_below_one_dense_matrix(self, monkeypatch,
                                                                 used):
        # the kernel multiplies by each sector's V and V^-1 and forms no d x d
        # matrix: 1.5 MiB against 16 MiB for one, and 33.4 MiB when the
        # kernel held a dense V and V^-1.  Fresh terms slice each block of
        # H_eff from H and the decay: 7.2 MiB, and 32.1 MiB when eigenblocks
        # sliced a dense H_eff
        peak, count = self.traced_peak_and_count(monkeypatch, "pure", 10, used=used)
        assert peak <= count
        assert peak < 16 * 1024 ** 2

    def test_secular_jump_conjugates_no_copy_of_every_branch(self, monkeypatch):
        # 300 n=5 secular trajectories: a jump round of the first batch holds
        # 310 channels' branches of 256 columns, 38.75 MiB.  A conjugate copy
        # of all of them for the weights doubled that, to a 79.7 MiB peak
        peak, count = self.traced_peak_and_count(
            monkeypatch, "maximally_mixed", 5, used=False, variant="secular",
            realizations=300)
        assert peak <= count
        assert peak < 48 * 1024 ** 2

    def test_jump_free_run_stays_within_preflight(self, monkeypatch):
        # n=9 on a 401-point grid without jumps: the samples of 16
        # trajectories are 6416 states; taken in one d x 6416 block they
        # alone would be twice what the preflight counts
        chain = ChainSpec(n=9, field=1.0, exchange=0.01)
        weak = [BathSpec(beta=b.beta, coupling=1e-9, side=b.side)
                for b in (LEFT, RIGHT)]
        terms = Generator("weak_coupling", chain, *weak).lindblad_terms()
        obs = {"j": reported_current_operator(chain, 1)}
        psi0 = np.zeros(chain.dim, dtype=complex)
        psi0[1] = 1.0
        required = []
        monkeypatch.setattr(mcwf, "require_memory",
                            lambda nbytes, what: required.append(nbytes))
        tracemalloc.start()
        try:
            res = run_ensemble(terms, psi0, np.linspace(0.0, 400.0, 401), obs,
                               realizations=16, master_seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.jump_counts.sum() == 0
        assert peak <= required[0]

    def test_result_reproducible(self):
        terms = damping_terms()
        grid = np.linspace(0, 3, 4)
        kw = dict(realizations=300, master_seed=42)
        a = run_ensemble(terms, EXCITED, grid, {"sz": pauli("z")}, **kw)
        b = run_ensemble(terms, EXCITED, grid, {"sz": pauli("z")}, **kw)
        assert np.array_equal(a.means["sz"], b.means["sz"])


class TestSplitSeed:
    def test_keys_fill_both_halves(self):
        assert split_seed(0, 0) == 0
        assert split_seed(1, 0) == 2 ** 64
        assert split_seed(2 ** 64 - 1, 2 ** 64 - 1) == 2 ** 128 - 1

    @pytest.mark.parametrize("seed,index", [(-1, 0), (2 ** 64, 0), (2 ** 64 + 5, 3),
                                            (0, -1), (0, 2 ** 64)])
    def test_refuses_a_half_outside_64_bits(self, seed, index):
        # masking made (-1, 0) the key of (2**64 - 1, 0), and (2**64 + 5, 3) that of (5, 3)
        with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
            split_seed(seed, index)


class TestOneGrid:
    @pytest.mark.parametrize("times", [[1.0, 2.0], [0.0, 1.0, 3.0], [-1.0, 0.0, 1.0]],
                             ids=["late", "unequal", "negative"])
    def test_every_method_refuses(self, times):
        # the trajectory kernel's clock starts at 0, so on a late grid the
        # ensemble would report its values at times - times[0]
        gen = Generator("weak_coupling", FIG_CHAIN, LEFT, RIGHT)
        terms = gen.lindblad_terms()
        rho0 = Operator(np.eye(8, dtype=complex) / 8, hermitian=True)
        grid = np.array(times)
        calls = [
            lambda: propagate(assemble(gen), rho0, grid),
            lambda: run_ensemble(terms, rho0, grid, {"j": reported_current_operator(
                FIG_CHAIN, 1)}, realizations=1, master_seed=1),
            lambda: evolve_trajectory(effective_hamiltonian(gen.hamiltonian, terms),
                                      terms, np.eye(8, dtype=complex)[1], grid, seed=1),
        ]
        errors = []
        for call in calls:
            with pytest.raises(ValueError, match="equal steps from 0") as err:
                call()
            errors.append((type(err.value), str(err.value)))
        assert errors == [(ValueError, errors[0][1])] * 3
