"""Quantum-jump unraveling of Lindblad generators.

Algorithm: exact waiting-time (norm-threshold) sampling (Dalibard, Castin &
Molmer, PRL 68, 580 (1992)).  Between jumps the state evolves under the
non-Hermitian effective Hamiltonian H_eff; one uniform threshold is drawn per
segment and a jump fires when the decaying squared norm crosses it.  The jump
channel is selected with probability proportional to rate * |L psi|^2.

H_eff splits into the connected blocks of its non-zero pattern (for the
chain, the total-S_z sectors).  Each block is diagonalized once per ensemble,
and every batch (in any worker process) shares the result, so a state is
advanced from its last jump in closed form, ``c <- exp(-i Lambda dt) c`` in
eigen-coordinates.  Its amplitudes ``psi = V c`` give the squared norm
``|psi|^2`` at every time, and its derivative ``-psi^dag D psi`` with the
positive semidefinite ``D = LindbladTerms.decay``, in CSR, that H_eff is
built from.  A batch moves from jump to jump, one round per jump, whatever
the length of the grid.  Each jump time is the root of the log of the
monotone norm minus the log of the threshold, found by a bracketed,
safeguarded Newton iteration to ``JUMP_TIME_RTOL`` of the jump's time; the
sampler has no time-step bias.  The grid samples are advanced from each
column's last jump, in blocks of at most ``BATCH_SIZE`` states.  A block
whose eigenvector matrix is worse conditioned than ``EIGVEC_CONDITION_LIMIT``
(near an exceptional point) is advanced with ``scipy.linalg.expm`` of the
block instead, one stacked call per advance for all columns.  The stacked
jump operators, ``D`` and the observables are applied as CSR matrices: a
chain jump or bond current has at most one non-zero per row, and ``D`` of a
local variant is diagonal.

Before it allocates, ``run_ensemble`` checks that the dense matrices it is
about to allocate, the observables and a batch's samples of them fit in the
memory available now, and raises ``DimensionError`` if they do not.

Reproducibility contract: trajectory ``r`` of a run with master seed ``m``
draws from a private Philox stream keyed by the 128-bit integer
``(m << 64) | r``: one threshold at the start, then per jump one channel
draw followed by a new threshold.  Trajectories are simulated in fixed-size
batches (``BATCH_SIZE`` columns of one matrix) and reduced in trajectory
order, so the output bits depend only on (master seed, realizations, grid),
never on the number of worker processes.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Mapping

import numpy as np
import scipy.linalg
import scipy.sparse

from .dissipators import LindbladTerms
from .operators import (DimensionError, Operator, connected_blocks, eig_hermitian,
                        require_memory)

NORM_COLLAPSE = 1e-14
BATCH_SIZE = 256
EIGVEC_CONDITION_LIMIT = 1e4
JUMP_TIME_RTOL = 1e-12
MAX_ROOT_ITERATIONS = 100
# d x d arrays run_ensemble allocates at its traced peak, H_eff, V, V^-1 and
# temporaries: 2.24 at n=9 from a pure state, 3.22 from the maximally mixed one
KERNEL_DENSE_MATRICES = 4
_MASK64 = (1 << 64) - 1


class NormCollapseError(RuntimeError):
    """The unnormalized state norm fell below the representable floor."""


def check_memory(dim: int, observables: int, points: int,
                 trajectories: int) -> None:
    """Raise ``DimensionError`` unless ``observables`` dense ``dim x dim``
    observables, the dense matrices ``run_ensemble`` allocates and a batch's
    float64 samples of every observable at ``points`` grid points fit in
    available memory."""
    require_memory((observables + KERNEL_DENSE_MATRICES) * 16 * dim * dim
                   + 8 * observables * points * min(BATCH_SIZE, trajectories),
                   f"a trajectory ensemble at dimension {dim} with "
                   f"{observables} observable(s)")


def _norms2(psi: np.ndarray) -> np.ndarray:
    """Squared norm of each column of ``psi``."""
    return np.einsum("ij,ij->j", psi.conj(), psi).real


def split_seed(master_seed: int, index: int) -> int:
    """Counter-based per-trajectory seed: 128-bit Philox key (master, index)."""
    return ((master_seed & _MASK64) << 64) | (index & _MASK64)


def _rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True)
class Trajectory:
    """One stochastic realization: jump record plus unit-norm state samples."""

    seed: int
    times: np.ndarray
    states: np.ndarray
    jump_times: np.ndarray
    jump_channels: np.ndarray


@dataclass(frozen=True)
class TrajectoryEnsembleResult:
    """Ensemble means and standard errors of observables on a time grid, and
    the jumps of all trajectories per channel (in the order of
    ``terms.jumps``)."""

    realizations: int
    times: np.ndarray
    means: dict
    standard_errors: dict
    master_seed: int
    jump_counts: np.ndarray
    provenance: dict


def effective_hamiltonian(h: Operator, terms: LindbladTerms) -> Operator:
    """``terms.effective_hamiltonian()`` as an Operator, for callers outside
    the package that pass the Hamiltonian; ``h`` must be ``terms.hamiltonian``."""
    if h.dim != terms.hamiltonian.dim:
        raise DimensionError(f"hamiltonian dim {h.dim} != jump dim "
                             f"{terms.hamiltonian.dim}")
    if not np.array_equal(h.matrix, terms.hamiltonian.matrix):
        raise ValueError("h differs from the Hamiltonian the jump terms carry")
    return Operator(terms.effective_hamiltonian())


class _BatchKernel:
    """Event-driven propagation for one (jump terms, grid) pair.

    States are held in coordinates ``x`` with amplitudes ``psi = V x``:
    eigen-coordinates on diagonalizable blocks of H_eff, and plain amplitudes
    (``V = 1``) on the blocks advanced by ``expm``.  The dense matrices are
    ``v`` and ``v_inv``; the stacked jumps and ``decay``, which on amplitudes
    gives minus the rate of change of the squared norm, are the CSR ones of
    ``terms``.

    A batch takes one round per jump, whatever the grid: each round advances
    every active column from its last jump to the grid's end, finishes the
    columns whose norm stays above their threshold there, and finds the
    others' jump times by Newton on the log of the norm.  The states at the
    grid times a column passes before its jump (or the end) are advanced
    from its last jump in blocks of at most ``BATCH_SIZE`` columns, so no
    sample array grows with the grid.
    """

    def __init__(self, terms: LindbladTerms, times: np.ndarray):
        self.times = np.asarray(times, dtype=float)
        if self.times.ndim != 1 or len(self.times) < 1 or \
                np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be a non-empty strictly increasing grid")
        self.dim = dim = terms.hamiltonian.dim
        self.rates = np.array(terms.rates)
        self.stacked, self.decay = terms.stacked, terms.decay
        h_eff = terms.effective_hamiltonian()
        self.eigenvalues = np.zeros(dim, dtype=complex)
        self.v = np.zeros((dim, dim), dtype=complex)
        self.v_inv = np.zeros((dim, dim), dtype=complex)
        self.expm_blocks = []
        for idx in connected_blocks(h_eff):
            block = h_eff[np.ix_(idx, idx)]
            vals, vecs = np.linalg.eig(block)
            cond = np.linalg.cond(vecs)
            if np.isfinite(cond) and cond <= EIGVEC_CONDITION_LIMIT:
                self.eigenvalues[idx] = vals
                self.v[np.ix_(idx, idx)] = vecs
                self.v_inv[np.ix_(idx, idx)] = np.linalg.inv(vecs)
            else:
                self.v[idx, idx] = 1.0
                self.v_inv[idx, idx] = 1.0
                self.expm_blocks.append((idx, block))

    def run(self, psi0: np.ndarray, rngs: list, jump_log: list | None = None,
            jump_counts: np.ndarray | None = None):
        """Propagate a batch (columns of psi0) to the end of the grid.

        Yields ``(grid indices, columns, normalized states)`` blocks that
        hold every (grid time, column) pair once.  When ``jump_log`` is given
        (one list per column), each column's jump events are appended to its
        list as (time, channel) pairs; ``jump_counts`` (one entry per
        channel) gains every jump.
        """
        thresholds = np.array([rng.random() for rng in rngs])
        x = self.v_inv @ psi0
        start = np.full(x.shape[1], self.times[0])
        first = np.zeros(x.shape[1], dtype=int)  # first grid index not sampled
        active = np.arange(x.shape[1])
        while active.size:
            seg = x[:, active]
            spans = self.times[-1] - start[active]
            norms2 = _norms2(self.v @ self._advance(seg, spans))
            crossed = norms2 <= thresholds[active]
            bad = np.flatnonzero(~crossed & (norms2 < NORM_COLLAPSE))
            if bad.size:
                raise NormCollapseError(
                    f"state norm collapsed to {norms2[bad[0]]:.3e} without "
                    "crossing its jump threshold")
            jumping = active[crossed]
            stop = np.full(active.size, np.inf)
            if jumping.size:
                tau = self._crossing_time(seg[:, crossed], thresholds[jumping],
                                          spans[crossed], norms2[crossed],
                                          start[jumping])
                stop[crossed] = start[jumping] + tau
            last = np.searchsorted(self.times, stop)
            ends = np.cumsum(last - first[active])  # samples, column by column
            for b in range(0, ends[-1], BATCH_SIZE):
                k = np.arange(b, min(b + BATCH_SIZE, ends[-1]))
                w = np.searchsorted(ends, k, side="right")
                g = last[w] - ends[w] + k
                psi = self.v @ self._advance(seg[:, w], self.times[g] - start[active[w]])
                yield g, active[w], psi / np.sqrt(_norms2(psi))
            first[active] = last
            if not jumping.size:
                return
            x[:, jumping], channels = self._jump(self._advance(seg[:, crossed], tau),
                                                 jumping, rngs, thresholds)
            start[jumping] = stop[crossed]
            if jump_log is not None:
                for j, t, channel in zip(jumping, start[jumping], channels):
                    jump_log[j].append((float(t), int(channel)))
            if jump_counts is not None:
                jump_counts += np.bincount(channels, minlength=len(jump_counts))
            active = jumping

    def _advance(self, x: np.ndarray, dt: np.ndarray) -> np.ndarray:
        """Coordinates of each column of ``x`` after its own time ``dt``."""
        out = np.exp(np.multiply.outer(-1j * self.eigenvalues, dt)) * x
        for idx, block in self.expm_blocks:
            flows = scipy.linalg.expm(-1j * dt[:, None, None] * block)
            out[idx] = np.einsum("jab,bj->aj", flows, x[idx])
        return out

    def _crossing_time(self, x: np.ndarray, thresholds: np.ndarray,
                       spans: np.ndarray, end_norms2: np.ndarray,
                       starts: np.ndarray) -> np.ndarray:
        """Per column, the time ``tau`` in ``(0, span]`` at which the squared
        norm of ``advance(x, tau)`` falls to its threshold, to
        ``JUMP_TIME_RTOL`` of the column's time ``max(|start|, |start +
        tau|)``.

        Newton on the log of the closed-form norm, whose derivative is
        ``-psi^dag D psi / |psi|^2``; a step that leaves the bracket is
        replaced by bisection.  The log is exact for a single decay rate.
        """
        lo = np.zeros_like(spans)
        hi = spans.copy()
        log_u = np.log(thresholds)
        start_norms2 = _norms2(self.v @ x)
        # exact for a single decay rate: the norm is then exp(-rate * tau)
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = spans * (np.log(start_norms2 / thresholds)
                           / np.log(start_norms2 / end_norms2))
        tau = np.where(np.isfinite(tau), np.clip(tau, lo, hi), 0.5 * hi)
        todo = np.arange(len(spans))
        for _ in range(MAX_ROOT_ITERATIONS):
            psi = self.v @ self._advance(x[:, todo], tau[todo])
            norms2 = _norms2(psi)
            with np.errstate(divide="ignore", invalid="ignore"):
                f = np.log(norms2) - log_u[todo]
                newton = tau[todo] + f * norms2 / np.einsum(
                    "ij,ij->j", psi.conj(), self.decay @ psi).real
            above = f > 0
            lo[todo] = np.where(above, tau[todo], lo[todo])
            hi[todo] = np.where(above, hi[todo], tau[todo])
            tol = JUMP_TIME_RTOL * np.maximum(np.abs(starts[todo]),
                                              np.abs(starts[todo] + tau[todo]))
            inside = (newton >= lo[todo]) & (newton <= hi[todo])
            done = ((f == 0) | (hi[todo] - lo[todo] <= tol)
                    | (inside & (np.abs(newton - tau[todo]) <= tol)))
            step = np.where(inside, newton, 0.5 * (lo[todo] + hi[todo]))
            tau[todo] = np.where(f == 0, tau[todo], step)
            todo = todo[~done]
            if not todo.size:
                break
        return tau

    def _jump(self, x: np.ndarray, cols: np.ndarray, rngs: list,
              thresholds: np.ndarray) -> tuple:
        """Apply one jump to each column of ``x``; return the normalized
        post-jump coordinates and the channels.  Each column draws its
        channel and then its next threshold from its own stream."""
        count = len(self.rates)
        branches = (self.stacked @ (self.v @ x)).reshape(count, self.dim, -1)
        weights = self.rates[:, None] * np.einsum(
            "kij,kij->kj", branches.conj(), branches).real
        total = weights.sum(axis=0)
        if not np.all(total > 0.0):
            raise NormCollapseError(
                "jump triggered but all channel weights vanish")
        # per stream: the channel draw, then the next threshold
        draws = np.array([rngs[j].random(2) for j in cols])
        below = np.cumsum(weights, axis=0) <= draws[:, 0] * total
        channels = np.minimum(below.sum(axis=0), count - 1)
        thresholds[cols] = draws[:, 1]
        new = branches[channels, :, np.arange(len(cols))].T
        new /= np.linalg.norm(new, axis=0)
        return self.v_inv @ new, channels


def evolve_trajectory(h_eff: Operator, terms: LindbladTerms, psi0: np.ndarray,
                      times: np.ndarray, seed: int) -> Trajectory:
    """Single stochastic realization with full state and jump records;
    ``h_eff`` must be ``terms.effective_hamiltonian()``."""
    psi0 = np.asarray(psi0, dtype=complex).ravel()
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-10:
        raise ValueError("initial state must be normalized")
    if psi0.shape[0] != h_eff.dim:
        raise DimensionError(f"state dim {psi0.shape[0]} != hamiltonian dim {h_eff.dim}")
    if not np.array_equal(h_eff.matrix, terms.effective_hamiltonian()):
        raise ValueError("h_eff differs from the effective Hamiltonian of the jump terms")
    kernel = _BatchKernel(terms, times)
    rng = _rng_for(seed)
    jump_log = [[]]
    states = np.empty((len(kernel.times), kernel.dim), dtype=complex)
    for grid, _, block in kernel.run(psi0[:, None], [rng], jump_log):
        states[grid] = block.T
    events = jump_log[0]
    return Trajectory(
        seed=seed,
        times=kernel.times,
        states=states,
        jump_times=np.array([e[0] for e in events]),
        jump_channels=np.array([e[1] for e in events], dtype=int),
    )


def _initial_states(initial):
    """Normalize the initial-state argument into ``(vectors, cum, kind)``.

    A pure state (a vector) is the one column of ``vectors``, ``cum`` is None
    and it consumes no randomness; a mixed density matrix is unraveled by
    sampling its eigenvectors with cumulative probabilities ``cum`` from its
    eigenvalues (one uniform draw per trajectory).
    """
    if isinstance(initial, Operator):
        eig = eig_hermitian(initial)
        probs = np.clip(eig.eigenvalues, 0.0, None)
        total = probs.sum()
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-10):
            raise ValueError("mixed initial state must have unit trace")
        return eig.eigenvectors, np.cumsum(probs / total), "mixed-eigenvector-sampling"

    psi = np.asarray(initial, dtype=complex).ravel()
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("initial state must be normalized")
    return psi[:, None], None, "pure"


def _run_batch(kernel: _BatchKernel, obs_mats: list, vectors: np.ndarray,
               cum: np.ndarray | None, master_seed: int, start: int, count: int):
    """Simulate trajectories [start, start+count) from the initial states of
    ``_initial_states`` and return per-time (sum, sum of squares) of every
    observable, reduced in trajectory order, and the per-channel jump
    counts."""
    rngs = [_rng_for(split_seed(master_seed, start + j)) for j in range(count)]
    if cum is None:
        picks = [0] * count
    else:
        picks = [min(int(np.searchsorted(cum, rng.random(), side="right")),
                     len(cum) - 1) for rng in rngs]
    psi0 = vectors.take(picks, axis=1)

    vals = np.empty((len(obs_mats), len(kernel.times), count))
    jumps = np.zeros(len(kernel.rates), dtype=int)
    for grid, cols, states in kernel.run(psi0, rngs, jump_counts=jumps):
        for oi, mat in enumerate(obs_mats):
            vals[oi, grid, cols] = np.einsum("ij,ij->j", states.conj(),
                                             mat @ states).real
    sums = np.add.reduce(vals, axis=2)
    return sums, np.add.reduce(np.square(vals, out=vals), axis=2), jumps


def run_ensemble(terms: LindbladTerms, initial, times: np.ndarray,
                 observables: Mapping[str, Operator], realizations: int,
                 master_seed: int, workers: int | None = None
                 ) -> TrajectoryEnsembleResult:
    """Seeded trajectory ensemble with deterministic, order-fixed reduction.

    ``initial`` is either a normalized state vector or a density-matrix
    Operator.  ``workers`` > 1 fans fixed-size batches out to processes; it
    defaults to the SPINFLUX_WORKERS environment variable (or 1) and never
    changes the result bits.  One kernel serves every batch.
    """
    if realizations < 1:
        raise ValueError("need at least one realization")
    dim = terms.hamiltonian.dim
    for name, op in observables.items():
        if op.dim != dim:
            raise DimensionError(f"observable {name!r} dim {op.dim} != {dim}")
    check_memory(dim, len(observables), len(times), realizations)
    vectors, cum, initial_kind = _initial_states(initial)
    obs_names = list(observables)
    obs_mats = [scipy.sparse.csr_array(observables[name].matrix)
                for name in obs_names]

    if workers is None:
        workers = int(os.environ.get("SPINFLUX_WORKERS", "1"))
    batch_args = (_BatchKernel(terms, times), obs_mats, vectors, cum, master_seed)
    spans = [(s, min(BATCH_SIZE, realizations - s))
             for s in range(0, realizations, BATCH_SIZE)]

    if workers > 1 and len(spans) > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(batch_args,)) as pool:
            partials = list(pool.map(_run_worker_batch, spans))
    else:
        partials = [_run_batch(*batch_args, *span) for span in spans]

    sums, sumsq, jump_counts = (sum(parts) for parts in zip(*partials))

    r = realizations
    means = sums / r
    if r > 1:
        variance = np.maximum(sumsq - sums * sums / r, 0.0) / (r - 1)
        ses = np.sqrt(variance / r)
    else:
        ses = np.zeros_like(means)

    return TrajectoryEnsembleResult(
        realizations=r,
        times=np.asarray(times, dtype=float),
        means={name: means[i] for i, name in enumerate(obs_names)},
        standard_errors={name: ses[i] for i, name in enumerate(obs_names)},
        master_seed=master_seed,
        jump_counts=jump_counts,
        provenance={
            "initial_state": initial_kind,
            "seed_scheme": "philox128(master<<64|index)",
            "batch_size": BATCH_SIZE,
            "sampler": "exact-waiting-time",
        },
    )


_worker_batch_args = None


def _init_worker(batch_args: tuple) -> None:
    """Keep the ensemble's kernel and observables for every batch this
    worker process runs."""
    global _worker_batch_args
    _worker_batch_args = batch_args


def _run_worker_batch(span: tuple) -> tuple:
    return _run_batch(*_worker_batch_args, *span)
