"""Quantum-jump unraveling of Lindblad generators.

Algorithm: exact waiting-time (norm-threshold) sampling (Dalibard, Castin &
Molmer, PRL 68, 580 (1992)).  Between jumps the state evolves under the
non-Hermitian effective Hamiltonian H_eff; one uniform threshold is drawn per
segment and a jump fires when the decaying squared norm crosses it.  The jump
channel is selected with probability proportional to rate * |L psi|^2.

H_eff's eigensystem is ``LindbladTerms.eigenblocks``, diagonalized once per
connected block of its non-zero pattern (for the chain, the total-S_z
sectors) and read by every kernel built from the same terms.  The kernel
holds each state in sector order, the blocks one after another, so it
multiplies by each block's ``V`` and ``V^-1`` on its own rows and never by a
d x d matrix.  A state is advanced from its last jump in closed form,
``c <- exp(-i Lambda dt) c`` in eigen-coordinates; a block too
ill-conditioned to diagonalize is advanced with ``scipy.linalg.expm``
instead.  The amplitudes ``psi = V c`` give the squared norm ``|psi|^2`` at
every time, and its derivative ``-psi^dag D psi`` with ``D =
LindbladTerms.decay``.  Each jump time is the root of the log of
the monotone norm minus the log of the threshold, found by a bracketed,
safeguarded Newton iteration to ``JUMP_TIME_RTOL`` of the jump's time, so
the sampler has no time-step bias.  The stacked jump operators, ``D`` and
the observables are applied as CSR matrices: a chain jump or bond current
has at most one non-zero per row, and ``D`` of a local variant is diagonal.

Before it allocates, ``run_ensemble`` raises ``DimensionError`` unless the
bytes ``ensemble_bytes`` counts fit in the memory available.

Reproducibility contract: trajectory ``r`` of a run with master seed ``m``
draws from a private Philox stream keyed by the 128-bit integer
``(m << 64) | r``, with m and r in [0, 2**64): one threshold at the start,
then per jump one channel draw followed by a new threshold.  Trajectories
are simulated in fixed-size batches (``BATCH_SIZE`` columns of one matrix)
and reduced in trajectory order, so the output bits depend only on (master
seed, realizations, grid), never on the number of worker processes.
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
from .operators import (DimensionError, Operator, dense_bytes, eig_hermitian,
                        require_memory, time_grid)

NORM_COLLAPSE = 1e-14
BATCH_SIZE = 256
JUMP_TIME_RTOL = 1e-12
MAX_ROOT_ITERATIONS = 100
JUMP_CHANNEL_CHUNK = 8
# run_ensemble's ledger, fitted to tracemalloc peaks at n=3 to 10: while
# terms.eigenblocks is not yet cached, arrays the size of each block of H_eff (V,
# V^-1 and the work of diagonalizing one block, which is sliced from H and the
# decay); d x d arrays for a mixed start's eigendecomposition, which keeps one;
# d-vectors per trajectory of a batch besides d + 2 entries per jump channel (a
# branch and its weight's working arrays), and per column of a block of samples;
# bytes of a trajectory's random stream, per non-zero of a CSR matrix at the peak
# of its conversion to sector order, and of a mixed start's blocks (165 KB at n=6)
KERNEL_BLOCK_MATRICES, MIXED_START_MATRICES = 4, 4
BATCH_STATE_VECTORS, BATCH_SAMPLE_VECTORS = 10, 6
STREAM_BYTES, CSR_BYTES_PER_NONZERO, ENSEMBLE_FIXED_BYTES = 1024, 56, 2 ** 18


class NormCollapseError(RuntimeError):
    """The unnormalized state norm fell below the representable floor."""


def worker_count(workers: int | None = None) -> int:
    """``workers``, or the SPINFLUX_WORKERS environment variable (default 1)
    when it is None; ``ValueError``, naming the source, unless an integer >= 1."""
    source = "workers"
    if workers is None:
        source, raw = "SPINFLUX_WORKERS", os.environ.get("SPINFLUX_WORKERS", "1")
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(f"SPINFLUX_WORKERS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ValueError(f"{source} must be >= 1, got {workers}")
    return workers


def ensemble_bytes(sectors: list, jumps: int, jump_nnz: int, observable_nnz: list,
                   points: int, realizations: int, mixed: bool,
                   diagonalized: bool = False, workers: int | None = None) -> int:
    """Bytes ``run_ensemble`` allocates: the eigensystems of H_eff's blocks of
    the sizes ``sectors`` unless the jump terms are ``diagonalized``
    already, a ``mixed`` start's eigendecomposition, the
    CSR jumps and decay (``jump_nnz`` non-zeros) and observables
    (``observable_nnz`` non-zeros each), and per batch in flight, one per
    worker process, its samples and states."""
    dim = sum(sectors)
    batch = min(BATCH_SIZE, realizations)
    per_batch = (batch * (8 * len(observable_nnz) * points + STREAM_BYTES
                          + 16 * (BATCH_STATE_VECTORS * dim + jumps * (dim + 2)))
                 + 16 * dim * BATCH_SAMPLE_VECTORS * min(BATCH_SIZE, batch * points))
    csr = (CSR_BYTES_PER_NONZERO * (jump_nnz + sum(observable_nnz))
           + 8 * (dim + 1) * (jumps + 1 + len(observable_nnz)))
    blocks = (not diagonalized) * 16 * KERNEL_BLOCK_MATRICES * sum(b * b for b in sectors)
    return (ENSEMBLE_FIXED_BYTES + blocks + dense_bytes(dim, MIXED_START_MATRICES * mixed)
            + csr + min(worker_count(workers), -(-realizations // BATCH_SIZE)) * per_batch)


def _norms2(psi: np.ndarray) -> np.ndarray:
    """Squared norm of each column of ``psi``."""
    return np.einsum("ij,ij->j", psi.conj(), psi).real


def _by_block(blocks: list, x: np.ndarray) -> np.ndarray:
    """``x`` with ``m @ x[rows]`` in place of its ``rows`` for each ``(rows,
    m)`` of ``blocks``; the other rows are copied unchanged."""
    out = x.copy()
    for rows, m in blocks:
        np.dot(m, x[rows], out=out[rows])
    return out


def split_seed(master_seed: int, index: int) -> int:
    """Counter-based per-trajectory seed: 128-bit Philox key (master, index).
    Each half must lie in [0, 2**64), so distinct pairs give distinct keys."""
    if not (0 <= master_seed < 2 ** 64 and 0 <= index < 2 ** 64):
        raise ValueError(f"master seed {master_seed} or trajectory index {index} "
                         "is outside [0, 2**64)")
    return (master_seed << 64) | index


def _rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True)
class Trajectory:
    """One stochastic realization: jump record plus unit-norm state samples."""

    states: np.ndarray
    jump_times: np.ndarray
    jump_channels: np.ndarray


@dataclass(frozen=True)
class TrajectoryEnsembleResult:
    """Ensemble means and standard errors of observables on a time grid, and
    the jumps of all trajectories per channel (in ``terms.jumps`` order)."""

    means: dict
    standard_errors: dict
    jump_counts: np.ndarray


def effective_hamiltonian(h: Operator, terms: LindbladTerms) -> Operator:
    """The dense H_eff ``H - (i/2) D`` of ``terms`` as an Operator, ``D``
    from ``terms.decay``; ``h`` must be ``terms.hamiltonian``.  Kept only for
    the benchmark's jump sample (``bench/workloads.py``), until ROADMAP item
    6 counts its jumps with ``run_ensemble``'s ``jump_counts``."""
    if h.dim != terms.hamiltonian.dim:
        raise DimensionError(f"hamiltonian dim {h.dim} != jump dim "
                             f"{terms.hamiltonian.dim}")
    if not np.array_equal(h.matrix, terms.hamiltonian.matrix):
        raise ValueError("h differs from the Hamiltonian the jump terms carry")
    return Operator(h.matrix - 0.5j * terms.decay)


class _BatchKernel:
    """Event-driven propagation for one (jump terms, grid) pair, from t = 0
    along ``linspace(0, t_max, N)`` (``operators.time_grid``).

    States are held in sector order, ``psi[order]`` with ``order`` the
    concatenated index sets of ``terms.eigenblocks``, so each block of H_eff
    is one contiguous slice of rows.  On that slice they are held in
    coordinates ``x`` with amplitudes ``psi = V x``: eigen-coordinates on a
    diagonalizable block, and plain amplitudes on a block advanced by
    ``expm`` or of size 1 (where ``V = V_inv = [[1]]``).  ``V x`` and
    ``V_inv psi`` are one product per block, so no d x d matrix is formed.
    The stacked jumps and ``decay``, which on amplitudes gives minus the rate
    of change of the squared norm, are the CSR ones of ``terms`` in sector
    order, and so are the observables of ``sector_csr``.

    A batch takes one round per jump, whatever the grid: each round advances
    every active column from its last jump to the grid's end, finishes the
    columns whose norm stays above their threshold there, and finds the
    others' jump times by Newton on the log of the norm.  The states at the
    grid times a column passes before its jump (or the end) are advanced
    from its last jump in blocks of at most ``BATCH_SIZE`` columns, so no
    sample array grows with the grid.
    """

    def __init__(self, terms: LindbladTerms, times: np.ndarray):
        self.times = time_grid(times)
        self.dim = dim = terms.hamiltonian.dim
        self.rates = np.array(terms.rates)
        self.order = np.concatenate([idx for idx, *_ in terms.eigenblocks])
        self.eigenvalues = np.zeros(dim, dtype=complex)
        # (rows, V) and (rows, V_inv) of each eigen block past size 1, and
        # (rows, block of H_eff) of each block advanced by expm
        self.eigvecs, self.eigvecs_inv, self.expm_blocks = [], [], []
        start = 0
        for idx, *eig in terms.eigenblocks:
            rows = slice(start, start + len(idx))
            start = rows.stop
            if len(eig) == 1:
                self.expm_blocks.append((rows, eig[0]))
                continue
            self.eigenvalues[rows] = eig[0]
            if len(idx) > 1:
                self.eigvecs.append((rows, eig[1]))
                self.eigvecs_inv.append((rows, eig[2]))
        self.stacked = self.sector_csr(terms.stacked)
        self.decay = self.sector_csr(terms.decay)

    def sector_csr(self, mat) -> scipy.sparse.csr_array:
        """``mat``, a dense or sparse d x d matrix or a stack of them, as CSR
        with the rows of each d x d block and the columns in sector order."""
        rows = (np.arange(mat.shape[0] // self.dim)[:, None] * self.dim
                + self.order).ravel()
        return scipy.sparse.csr_array(mat)[rows][:, self.order]

    def run(self, psi0: np.ndarray, rngs: list, jump_log: list | None = None,
            jump_counts: np.ndarray | None = None):
        """Propagate a batch (columns of psi0, in sector order) to the end of
        the grid.

        Yields ``(grid indices, columns, normalized states)`` blocks, the
        states in sector order, that hold every (grid time, column) pair
        once.  When ``jump_log`` is given
        (one list per column), each column's jump events are appended to its
        list as (time, channel) pairs; ``jump_counts`` (one entry per
        channel) gains every jump.
        """
        thresholds = np.array([rng.random() for rng in rngs])
        x = _by_block(self.eigvecs_inv, psi0)
        start = np.zeros(x.shape[1])
        first = np.zeros(x.shape[1], dtype=int)  # first grid index not sampled
        active = np.arange(x.shape[1])
        while active.size:
            seg = x[:, active]
            spans = self.times[-1] - start[active]
            norms2 = _norms2(_by_block(self.eigvecs, self._advance(seg, spans)))
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
                psi = _by_block(self.eigvecs, self._advance(
                    seg[:, w], self.times[g] - start[active[w]]))
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
        for rows, block in self.expm_blocks:
            flows = scipy.linalg.expm(-1j * dt[:, None, None] * block)
            out[rows] = np.einsum("jab,bj->aj", flows, x[rows])
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
        start_norms2 = _norms2(_by_block(self.eigvecs, x))
        # exact for a single decay rate: the norm is then exp(-rate * tau)
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = spans * (np.log(start_norms2 / thresholds)
                           / np.log(start_norms2 / end_norms2))
        tau = np.where(np.isfinite(tau), np.clip(tau, lo, hi), 0.5 * hi)
        todo = np.arange(len(spans))
        for _ in range(MAX_ROOT_ITERATIONS):
            psi = _by_block(self.eigvecs, self._advance(x[:, todo], tau[todo]))
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
        channel and then its next threshold from its own stream.  The
        weights are taken ``JUMP_CHANNEL_CHUNK`` channels at a time, so only
        that many channels' branches are conjugated at once, and only the
        chosen branch of each column outlives the draw."""
        count = len(self.rates)
        branches = (self.stacked @ _by_block(self.eigvecs, x)).reshape(
            count, self.dim, -1)
        weights = self.rates[:, None] * np.concatenate(
            [np.einsum("kij,kij->kj", part.conj(), part).real
             for part in (branches[k:k + JUMP_CHANNEL_CHUNK]
                          for k in range(0, count, JUMP_CHANNEL_CHUNK))])
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
        del branches
        new /= np.linalg.norm(new, axis=0)
        return _by_block(self.eigvecs_inv, new), channels


def evolve_trajectory(h_eff: Operator, terms: LindbladTerms, psi0: np.ndarray,
                      times: np.ndarray, seed: int) -> Trajectory:
    """Single stochastic realization with full state and jump records;
    ``h_eff`` must be ``effective_hamiltonian`` of ``terms``.  Kept only for the
    benchmark's jump sample (``bench/workloads.py``), until ROADMAP item 6
    counts its jumps with ``run_ensemble``'s ``jump_counts``."""
    psi0, _ = _initial_states(np.asarray(psi0))
    if psi0.shape[0] != h_eff.dim:
        raise DimensionError(f"state dim {psi0.shape[0]} != hamiltonian dim {h_eff.dim}")
    if not np.array_equal(h_eff.matrix,
                          effective_hamiltonian(terms.hamiltonian, terms).matrix):
        raise ValueError("h_eff differs from the effective Hamiltonian of the jump terms")
    kernel = _BatchKernel(terms, times)
    rng = _rng_for(seed)
    jump_log = [[]]
    states = np.empty((len(kernel.times), kernel.dim), dtype=complex)
    for grid, _, block in kernel.run(psi0[kernel.order], [rng], jump_log):
        states[np.ix_(grid, kernel.order)] = block.T  # back to the basis order
    events = np.array(jump_log[0]).reshape(-1, 2)
    return Trajectory(states, events[:, 0], events[:, 1].astype(int))


def _initial_states(initial):
    """``(vectors, cum)``: a pure state (a vector) is the one column of
    ``vectors``, ``cum`` is None and it consumes no randomness; a mixed
    density matrix is unraveled by sampling its eigenvectors with cumulative
    probabilities ``cum`` (one uniform draw per trajectory)."""
    if isinstance(initial, Operator):
        eig = eig_hermitian(initial)
        probs = np.clip(eig.eigenvalues, 0.0, None)
        total = probs.sum()
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-10):
            raise ValueError("mixed initial state must have unit trace")
        return eig.eigenvectors, np.cumsum(probs / total)

    psi = np.asarray(initial, dtype=complex).ravel()
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("initial state must be normalized")
    return psi[:, None], None


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
    psi0 = vectors[np.ix_(kernel.order, picks)]  # in the kernel's sector order

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
    Operator at t = 0, the first point of ``times``, ``linspace(0, t_max,
    N)``.  Every observable must be flagged Hermitian: only the real part of
    its expectation is kept.  ``workers`` > 1 fans fixed-size batches out to
    processes; it defaults to the SPINFLUX_WORKERS environment variable (or
    1) and never changes the result bits.  Pair each worker with one BLAS
    thread (``OPENBLAS_NUM_THREADS=1``): workers that each start a
    multi-threaded BLAS contend for the cores.  One kernel serves every batch.
    """
    if realizations < 1:
        raise ValueError("need at least one realization")
    split_seed(master_seed, realizations - 1)  # refuse a bad seed before any set-up
    dim = terms.hamiltonian.dim
    for name, op in observables.items():
        if op.dim != dim:
            raise DimensionError(f"observable {name!r} dim {op.dim} != {dim}")
        if not op.hermitian:
            raise ValueError(f"observable {name!r} must be flagged hermitian")
    workers = worker_count(workers)
    nnz = [np.count_nonzero(op.matrix) for op in observables.values()]
    require_memory(ensemble_bytes([len(idx) for idx in terms.blocks], len(terms),
                                  terms.stacked.nnz + terms.decay.nnz, nnz, len(times),
                                  realizations, isinstance(initial, Operator),
                                  # a cached_property is in __dict__ once computed
                                  "eigenblocks" in vars(terms), workers),
                   f"a trajectory ensemble at dimension {dim} with "
                   f"{len(nnz)} observable(s)")
    vectors, cum = _initial_states(initial)
    kernel = _BatchKernel(terms, times)
    obs_mats = [kernel.sector_csr(op.matrix) for op in observables.values()]

    batch_args = (kernel, obs_mats, vectors, cum, master_seed)
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

    return TrajectoryEnsembleResult(dict(zip(observables, means)),
                                    dict(zip(observables, ses)), jump_counts)


_worker_batch_args = None


def _init_worker(batch_args: tuple) -> None:
    """Keep the ensemble's kernel and observables for every batch this
    worker process runs."""
    global _worker_batch_args
    _worker_batch_args = batch_args


def _run_worker_batch(span: tuple) -> tuple:
    return _run_batch(*_worker_batch_args, *span)
