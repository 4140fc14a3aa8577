"""Checked dense matrices on tensor-product spin spaces.

An ``Operator`` is an immutable dense complex square matrix; one flagged
Hermitian is verified Hermitian when it is made.  No dimension is capped:
each entry point that allocates counts its bytes first, and
``require_memory``, the one gate, refuses a count above the memory available.

Chain operators are sums of one-site (2x2) and two-site (4x4) blocks.
``embedded_sum`` adds each block straight into one preallocated array
through a strided view, so no identity factor, Kronecker product or
intermediate ``Operator`` is formed, and the caller verifies hermiticity
once, on the finished matrix.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse.csgraph

HERMITICITY_RTOL = 1e-12
GRID_SPACING_RTOL = 1e-10
MEMINFO = "/proc/meminfo"
# the traced peak of an embedded_sum wrapped in an Operator: d x d arrays (the
# sum, the Operator's copy, the conjugate and difference of its hermiticity
# check), numpy's buffer for the transposed operand, and objects (4 KiB at n=3)
EMBEDDED_MATRICES, NUMPY_BUFFER_ENTRIES, EMBEDDED_OBJECT_BYTES = 4, 8192, 2 ** 13


class DimensionError(ValueError):
    """Operator dimensions are incompatible, or need more memory than is free."""


def available_memory() -> int | None:
    """Bytes of memory available now without swapping, or None where the
    operating system does not report it.  Linux's ``MemAvailable`` counts
    the reclaimable page cache; elsewhere the free physical pages are the
    estimate."""
    try:
        with open(MEMINFO, encoding="ascii") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError):
        pass
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None


def dense_bytes(dim: int, matrices: int) -> int:
    """Bytes of ``matrices`` dense complex ``dim x dim`` arrays."""
    return 16 * matrices * dim * dim


def embedded_bytes(n: int) -> int:
    """Bytes of an ``embedded_sum`` on ``n`` sites wrapped in an ``Operator``."""
    return (dense_bytes(2 ** n, EMBEDDED_MATRICES)
            + 16 * min(4 ** n, NUMPY_BUFFER_ENTRIES) + EMBEDDED_OBJECT_BYTES)


def require_memory(nbytes: int, what: str) -> None:
    """Raise ``DimensionError`` if ``what`` needs ``nbytes``, more than the
    memory available now."""
    free = available_memory()
    if free is not None and nbytes > free:
        raise DimensionError(
            f"{what} needs {nbytes / 2**20:.0f} MiB, more than the "
            f"{free / 2**20:.0f} MiB of memory available")


def _as_matrix(entries) -> np.ndarray:
    m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionError(f"operator entries must be square, got shape {m.shape}")
    return m


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense complex square matrix, optionally flagged (and verified) Hermitian."""

    matrix: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        if self.hermitian:
            scale = np.abs(m).max()
            if not np.isfinite(scale):  # a nan defect passes the test below
                raise ValueError("operator flagged hermitian has a non-finite entry")
            defect = np.abs(m - m.conj().T).max()
            if defect > HERMITICITY_RTOL * max(scale, 1e-300):
                raise ValueError(
                    f"operator flagged hermitian but defect {defect:.3e} exceeds "
                    f"{HERMITICITY_RTOL:.0e} * {scale:.3e}"
                )
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"Operator(dim={self.dim}, hermitian={self.hermitian})"


@dataclass(frozen=True)
class EigenSystem:
    """Hermitian eigendecomposition: ascending eigenvalues, orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        vecs = np.asarray(self.eigenvectors, dtype=complex)
        vals.flags.writeable = False
        vecs.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


# read-only single-spin matrices; "plus" and "minus" are (x +- i y)/2
PAULI = {
    "identity": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "plus": np.array([[0, 1], [0, 0]], dtype=complex),
    "minus": np.array([[0, 0], [1, 0]], dtype=complex),
}
for _m in PAULI.values():
    _m.flags.writeable = False


def embedded_sum(blocks, n: int) -> np.ndarray:
    """Dense ``2**n x 2**n`` sum of local blocks, added in the order given.

    Each ``(site, block)`` pair is a 2x2 block on ``site`` or a 4x4 block on
    sites (site, site+1), 1-based, and acts as the identity elsewhere.  The
    blocks go straight into one zeroed array, so the result equals the sum of
    ``kron(kron(1, block), 1)`` in the same order entry for entry.
    """
    require_memory(embedded_bytes(n), f"a dense operator on {n} sites")
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for site, block in blocks:
        k = block.shape[0]
        if block.shape != (k, k) or k not in (2, 4):
            raise DimensionError(f"embedded_sum expects a dim-2 or dim-4 block, "
                                 f"got shape {block.shape}")
        span = k.bit_length() - 1
        if not 1 <= site <= n - span + 1:
            raise ValueError(f"site {site} out of range for span-{span} "
                             f"operator on {n} sites")
        left, right = 2 ** (site - 1), 2 ** (n - site - span + 1)
        # writable view v[i, p, j, q] = out[(i, p, j), (i, q, j)]: the k x k
        # block the local operator fills for each state (i, j) of the sites
        # it does not act on
        view = np.einsum("ipjiqj->ipjq", out.reshape(left, k, right, left, k, right))
        view += block[None, :, None, :]
    return out


def stack_rows(mats, size: int) -> scipy.sparse.csr_array:
    """CSR matrix of ``size`` columns whose row t holds the non-zeros of
    ``mats[t]`` flattened row-major, with the 32-bit indices SuperLU takes.
    Only the non-zeros of each matrix are kept while ``mats`` is consumed."""
    positions, values = [], []
    for m in mats:
        x = np.ravel(m)
        positions.append(np.flatnonzero(x))
        values.append(x[positions[-1]])
    indptr = np.cumsum([0] + [len(idx) for idx in positions], dtype=np.int32)
    return scipy.sparse.csr_array(
        (np.concatenate(values), np.concatenate(positions, dtype=np.int32), indptr),
        shape=(len(positions), size))


def time_grid(times) -> np.ndarray:
    """``times`` as a float array, which must be ``linspace(0, t_max, N)``,
    N >= 1: finite, strictly increasing, from exactly 0, and within
    ``GRID_SPACING_RTOL * t_max`` of that linspace at every point (relative
    to the span: linspace's own steps differ by 1e-10 of a step at 10**6)."""
    times = np.asarray(times, dtype=float)
    if not (times.ndim == 1 and len(times) and np.isfinite(times).all()
            and times[0] == 0.0 and (np.diff(times) > 0).all()
            and np.abs(times - np.linspace(0.0, times[-1], len(times))).max()
            <= GRID_SPACING_RTOL * times[-1]):
        raise ValueError("times must be a non-empty, finite, strictly increasing "
                         "grid of equal steps from 0, linspace(0, t_max, N)")
    return times


def connected_blocks(matrix) -> list[np.ndarray]:
    """Index sets, ordered by smallest index, of the connected components of
    the symmetrized non-zero pattern of a dense or sparse square matrix: the
    matrix is block diagonal on them with exactly zero off-block entries."""
    # the boolean pattern, since csgraph would cast complex values to float
    _, labels = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_array(matrix != 0), connection="weak")
    _, first = np.unique(labels, return_index=True)
    return [np.flatnonzero(labels == labels[i]) for i in np.sort(first)]


def eig_hermitian(a: Operator) -> EigenSystem:
    """Eigendecomposition of a verified-Hermitian operator.

    Each connected block of the non-zero pattern (for the chain Hamiltonian,
    each total-S_z sector) is diagonalized on its own, so every eigenvector
    is exactly zero outside its block; the blocks of one size go to
    ``np.linalg.eigh`` in one stack.  Eigenvalues come back ascending.
    Each eigenvector's phase is fixed so its first component of
    non-negligible magnitude is real positive; exact eigenvalue ties are
    ordered lexicographically by the phase-fixed vectors.  This keeps
    regression baselines stable across runs.
    """
    if not a.hermitian:
        raise ValueError("eig_hermitian requires an operator flagged hermitian")
    vals = np.empty(a.dim)
    vecs = np.zeros((a.dim, a.dim), dtype=complex)
    blocks = connected_blocks(a.matrix)
    sizes = np.array([len(idx) for idx in blocks])
    starts = np.cumsum(sizes) - sizes  # each block's first column
    for size in np.unique(sizes):
        members = np.flatnonzero(sizes == size)
        rows = np.stack([blocks[m] for m in members])  # (blocks, size)
        cols = starts[members, None] + np.arange(size)
        vals[cols], block_vecs = np.linalg.eigh(a.matrix[rows[:, :, None],
                                                         rows[:, None, :]])
        vecs[rows[:, :, None], cols[:, None, :]] = block_vecs
    _fix_phases(vecs)
    order = _stable_order(vals, vecs)
    return EigenSystem(vals[order], np.ascontiguousarray(vecs[:, order]))


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Fix each column's phase in place and return ``vecs``."""
    cols = np.arange(vecs.shape[1])
    mags = np.abs(vecs)
    lead = np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0)
    vecs *= (vecs[lead, cols] / mags[lead, cols]).conj()
    # scrub the residual imaginary dust on the lead components
    vecs[lead, cols] = vecs[lead, cols].real
    return vecs


def _stable_order(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    order = np.argsort(vals, kind="stable")
    # break exact float ties deterministically: lexicographic on the rounded
    # (re, im, re, im, ...) components, where -0.0 equals 0.0
    edges = np.flatnonzero(np.diff(vals[order], prepend=np.nan, append=np.nan))
    for i, j in zip(edges[:-1], edges[1:]):
        if j - i > 1:
            keys = vecs.T[order[i:j]]
            keys = np.round(keys, 12, out=keys).view(float)
            order[i:j] = order[i:j][np.lexsort(keys.T[::-1])]
    return order
