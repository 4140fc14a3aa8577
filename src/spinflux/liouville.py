"""Superoperator assembly, steady states, and time propagation.

``assemble`` and the matrix-free ``apply`` both derive from a generator's
sandwich terms ``(c, A, B)``, ``L(rho) = sum c * A rho B``.  Density
matrices are column-stacked: ``vec(rho)[i + d*j] = rho[i, j]``, so
``vec(A rho B) = kron(B.T, A) vec(rho)``.  The assembled matrix therefore acts
on vectors of length d**2.

The chain's eigenvectors vanish exactly outside their total-S_z sector
(``operators.eig_hermitian``), so the terms, and with them the assembled
matrix, carry exact zeros: at n=5 between 0.6% (``local_diag``) and 10%
(``secular``) of its entries are non-zero.  ``assemble`` builds the CSR
matrix with one sparse product over the terms.

Every generator here preserves Hermiticity, so it is a real linear map on
the d**2-dimensional real space of Hermitian matrices (the coherence-vector
picture of Alicki & Lendi, Quantum Dynamical Semigroups and Applications,
LNP 286 (1987)).  The solvers read only that map, ``Superoperator.real``,
in the real coordinates of ``_hermitian_basis``: ``steady_state`` factorizes
the trace-bordered real matrix once with a sparse LU, and ``propagate``
calls ``expm_multiply`` on real vectors once per run of equally spaced grid
points and per connected component of the real matrix's non-zero pattern
that the initial state occupies (the CLI's start states fill one of two at
n=5).  Every state they return is mapped back as ``unvec(U r)`` with ``r``
real, and so is Hermitian by construction.  The LU's fill caps chains at
``MAX_SITES``; longer ones need the trajectory sampler.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .dissipators import Generator
from .observables import bond_currents, local_energies
from .operators import (HERMITICITY_RTOL, DimensionError, Operator,
                        connected_blocks, stack_rows)

logger = logging.getLogger(__name__)

MAX_SITES = 6
NULLSPACE_TOL = 1e-10
INVERSE_ITERATIONS = 4
TRACE_DRIFT_TOL = 1e-10
GRID_SPACING_RTOL = 1e-10


class SolverError(RuntimeError):
    """Steady-state or propagation failure."""


class DegenerateSteadyStateError(SolverError):
    """The generator's numerical null space is not one-dimensional."""


@dataclass(frozen=True)
class Superoperator:
    """Generator matrix acting on column-stacked density matrices, held as
    CSR (``sparse``); the solvers read only its real form ``real``."""

    sparse: scipy.sparse.csr_array
    dim: int
    generator: Generator

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """Read-only dense copy of ``sparse``, formed on first access."""
        m = self.sparse.toarray()
        m.flags.writeable = False
        return m

    @functools.cached_property
    def real(self) -> scipy.sparse.csr_array:
        """``R = U^H L U`` in the coordinates of ``_hermitian_basis``, formed
        once from ``sparse`` on first access.

        Row ``m`` of ``U^H L U`` combines rows ``m`` and ``Tm`` of ``L U``,
        ``Tm`` being the slot of the transposed entry.  When ``L`` preserves
        Hermiticity these two rows are complex conjugates and ``U^H L U`` is
        real, so row ``m`` of ``R`` is the real part of a multiple of row
        ``max(m, Tm)`` of ``L U``, and only those rows are multiplied out.
        Otherwise ``L - U R U^H``, which is ``i U Im(U^H L U) U^H`` when the
        whole of ``U^H L U`` is formed, does not vanish.  It is measured on a
        fixed probe of unit-modulus entries, which a violation escapes only
        if it nearly annihilates the probe; a residue above rounding,
        relative to the largest absolute row sum of ``L``, raises
        ``SolverError``.
        """
        d = self.dim
        l = self.sparse
        u = _hermitian_basis(d)
        slot = np.arange(d * d)
        mirror = slot.reshape(d, d).T.ravel()
        source = np.maximum(slot, mirror)
        read = np.flatnonzero(source == slot)
        lu_rows = (l[read] @ u)[np.searchsorted(read, source)]
        scale = np.where(slot == mirror, 1, 2) * u[source, slot].conj()
        lu_rows.data *= np.repeat(scale, np.diff(lu_rows.indptr))
        r = scipy.sparse.csr_array(
            (lu_rows.data.real.copy(), lu_rows.indices, lu_rows.indptr), shape=l.shape)
        del lu_rows
        r.eliminate_zeros()
        r.sort_indices()

        probe = np.exp(2j * np.pi * np.random.default_rng(0).random(d * d))
        coords = u.conj().T @ probe
        back = u @ (r @ coords.real + 1j * (r @ coords.imag))
        residue = np.abs(l @ probe - back).max() / abs(l).sum(axis=1).max()
        if residue > HERMITICITY_RTOL:
            raise SolverError(
                f"the generator does not preserve Hermiticity: the imaginary "
                f"residue of its real form is {residue:.3e} of its largest "
                f"absolute row sum, above {HERMITICITY_RTOL:.0e}")
        return r


def _hermitian_basis(d: int) -> scipy.sparse.csr_array:
    """Unitary ``U`` with ``vec(rho) = U r``, ``r`` real exactly when ``rho``
    is Hermitian: slot ``i*(d+1)`` holds ``rho_ii`` and, for ``i < j``, slot
    ``i + d*j`` holds ``sqrt(2) Re rho_ij`` and slot ``j + d*i`` holds
    ``sqrt(2) Im rho_ij``.  Slot 0 is ``rho_00`` in both bases."""
    i, j = np.triu_indices(d, 1)
    re, im = i + d * j, j + d * i
    diag = np.arange(d) * (d + 1)
    h = np.sqrt(0.5)
    vals = np.repeat([1.0, h, 1j * h, h, -1j * h], [d] + [len(re)] * 4)
    return scipy.sparse.csr_array(
        (vals, (np.concatenate([diag, re, re, im, im]),
                np.concatenate([diag, re, im, re, im]))), shape=(d * d, d * d))


@dataclass(frozen=True)
class SteadyStateReport:
    """Stationary state and its diagnostics; ``null_space_dim`` is 1 by
    construction, since a degenerate generator raises instead."""

    state: Operator
    residual: float
    null_space_dim: int
    min_eigenvalue: float
    currents: np.ndarray
    energies: np.ndarray
    variant: str


def vectorize(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho).reshape(-1, order="F")


def unvectorize(vec: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(vec).reshape((dim, dim), order="F")


def apply(terms, rho: np.ndarray) -> np.ndarray:
    """Matrix-free action ``sum c * A rho B`` of sandwich terms ``(c, A,
    B)`` on a density matrix; ``None`` stands for the identity.  A state
    whose dimension differs from the operators' raises ``ValueError``."""
    out = np.zeros(np.shape(rho), dtype=complex)
    for c, a, b in terms:
        x = rho if a is None else a @ rho
        out += c * (x if b is None else x @ b)
    return out


def assemble(gen: Generator) -> Superoperator:
    """Build ``sum c * kron(B.T, A)`` over the generator's sandwich terms in
    CSR: with ``c_t * B_t`` flattened into row t of ``P`` and ``A_t`` into
    row t of ``Q``, ``P.T @ Q`` holds ``sum_t c_t B_t[c, a] A_t[b, e]`` at
    ``(c*d + a, b*d + e)``, whose place in the Kronecker sum is ``(a*d + b,
    c*d + e)``."""
    n = gen.chain.n
    if n > MAX_SITES:
        raise DimensionError(
            f"Liouville solves are capped at {MAX_SITES} sites (got {n}); "
            "use the trajectory sampler for longer chains")
    d = gen.chain.dim
    eye = np.eye(d)
    p = stack_rows((c * (eye if b is None else b) for c, _, b in gen.sandwich_terms()),
                   d * d)
    q = stack_rows((eye if a is None else a for _, a, _ in gen.sandwich_terms()), d * d)
    m = (p.T @ q).tocoo()
    (c, a), (b, e) = np.divmod(m.row, d), np.divmod(m.col, d)
    s = scipy.sparse.csr_array((m.data, (a * d + b, c * d + e)), shape=m.shape)
    s.eliminate_zeros()
    return Superoperator(sparse=s, dim=d, generator=gen)


def steady_state(s: Superoperator, null_tol: float = NULLSPACE_TOL) -> SteadyStateReport:
    """Solve for the stationary density matrix with one sparse LU of the
    real form.

    The trace constraint replaces the first row, ``rho_00``'s, which the
    trace-annihilation property of the generator makes redundant.  The
    arrays of this bordered matrix in CSR are those of its transpose in
    CSC, which is factorized once, so the solves run transposed.  ``U`` is
    unitary, so the bordered matrix has the singular values of the complex
    trace-bordered generator.  The null space must be one-dimensional, i.e.
    the bordered matrix regular: an exactly singular factor, or a smallest
    singular value (estimated by inverse iteration on the same factors) at
    most ``null_tol * max|L|``, raises instead of silently picking a member
    of a degenerate stationary manifold.  The state ``unvec(U x)`` is
    Hermitian by construction.
    """
    d = s.dim
    gen = s.generator
    real = s.real
    weight = np.abs(s.sparse.data).max()
    diag = np.arange(d) * (d + 1)
    cut = real.indptr[1]
    transposed = scipy.sparse.csc_array(
        (np.concatenate([np.full(d, weight), real.data[cut:]]),
         np.concatenate([diag, real.indices[cut:]]),
         np.concatenate([[0], real.indptr[1:] - cut + d])), shape=real.shape)
    try:
        lu = scipy.sparse.linalg.splu(transposed)
    except RuntimeError as exc:
        raise DegenerateSteadyStateError(
            f"numerical null space has dimension above 1: the trace-bordered "
            f"generator is exactly singular ({exc}; variant {gen.variant!r})") from exc
    sigma = _smallest_singular_value(lu) / weight
    logger.info("steady state %s: sparse LU fill %d, sigma_min/max|L| %.3e",
                gen.variant, lu.L.nnz + lu.U.nnz, sigma)
    if not sigma > null_tol:
        raise DegenerateSteadyStateError(
            f"numerical null space has dimension above 1: smallest singular "
            f"value of the trace-bordered generator is {sigma:.3e} * max|L| "
            f"<= {null_tol:.1e} * max|L| (variant {gen.variant!r})")

    b = np.zeros(d * d)
    b[0] = weight
    x = lu.solve(b, trans="T")
    x /= x[diag].sum()
    rho = unvectorize(_hermitian_basis(d) @ x, d)

    residual = float(np.linalg.norm(s.sparse @ vectorize(rho)))
    eigvals = np.linalg.eigvalsh(rho)
    state = Operator(rho, hermitian=True)
    return SteadyStateReport(
        state=state,
        residual=residual,
        null_space_dim=1,
        min_eigenvalue=float(eigvals.min()),
        currents=bond_currents(state, gen.chain),
        energies=local_energies(state, gen.chain),
        variant=gen.variant,
    )


def _smallest_singular_value(lu) -> float:
    """Estimate of the smallest singular value of the factorized real matrix
    ``A``: ``INVERSE_ITERATIONS`` power steps on ``(A^T A)^-1`` from a fixed
    random start.  The estimate approaches the true value from above; a
    non-finite iterate (a numerically singular factor) gives 0."""
    x = np.random.default_rng(0).standard_normal(lu.shape[0])
    x /= np.linalg.norm(x)
    with np.errstate(all="ignore"):
        for _ in range(INVERSE_ITERATIONS):
            x = lu.solve(lu.solve(x, trans="T"))
            growth = np.linalg.norm(x)
            if not np.isfinite(growth) or growth == 0.0:
                return 0.0
            x /= growth
    return 1.0 / np.sqrt(growth)


def propagate(s: Superoperator, rho0: Operator, times: np.ndarray) -> list[Operator]:
    """Evolve rho0 along the time grid: rho(t) = exp(S t) rho0.

    The state is carried in real coordinates ``r = U^H vec(rho0)`` (whose
    imaginary part, rounding of the verified Hermitian flag, is dropped)
    under ``exp(R t)``, ``R = s.real``.  That flow is block diagonal on the
    connected components of ``R``'s non-zero pattern, so only the components
    on which ``r`` is non-zero are propagated, each with its own submatrix;
    every other entry stays exactly 0.  The grid, with t = 0 in front when
    it starts later, is split into maximal runs of equally spaced points;
    each run is one ``expm_multiply`` call per component (Al-Mohy & Higham,
    SIAM J. Sci. Comput. 33, 488 (2011)) from the last state of the run
    before.  Trace drift beyond TRACE_DRIFT_TOL at any output time is an
    error, never a silent renormalization.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a non-empty strictly increasing grid")
    if times[0] < 0:
        raise ValueError("times must be non-negative")
    if rho0.dim != s.dim:
        raise DimensionError(f"initial state dim {rho0.dim} != generator dim {s.dim}")
    if abs(np.trace(rho0.matrix) - 1.0) > 1e-10:
        raise ValueError("initial state must have unit trace")
    if not rho0.hermitian:
        raise ValueError("initial state must be flagged hermitian")

    grid = times if times[0] == 0 else np.concatenate(([0.0], times))
    runs = _uniform_runs(grid)
    real = s.real
    u = _hermitian_basis(s.dim)
    vecs = np.zeros((len(grid), s.dim ** 2))
    vecs[0] = (u.conj().T @ vectorize(rho0.matrix)).real
    occupied = [idx for idx in connected_blocks(real) if vecs[0, idx].any()]
    # expm_multiply estimates norms of matrix powers with random probe
    # vectors from numpy's global generator; a fixed seed, restored after,
    # keeps the output bits independent of the caller's random state
    rng_state = np.random.get_state()
    np.random.seed(0)
    try:
        for idx in occupied:
            block = real[idx][:, idx]
            for first, last in runs:
                vecs[first + 1:last + 1, idx] = scipy.sparse.linalg.expm_multiply(
                    block, vecs[first, idx], start=0.0, stop=grid[last] - grid[first],
                    num=last - first + 1, endpoint=True)[1:]
    finally:
        np.random.set_state(rng_state)
    vecs = vecs[len(grid) - len(times):]
    drifts = np.abs(vecs[:, np.arange(s.dim) * (s.dim + 1)].sum(axis=1) - 1.0)
    if drifts.max() > TRACE_DRIFT_TOL:
        bad = np.argmax(drifts > TRACE_DRIFT_TOL)
        raise SolverError(f"trace drift {drifts[bad]:.3e} at t={times[bad]} "
                          f"exceeds {TRACE_DRIFT_TOL}")
    logger.info("propagation: %d expm_multiply run(s) over %d points on %d "
                "occupied component(s), %d of %d entries, worst trace drift "
                "%.3e", len(runs), len(times), len(occupied),
                sum(map(len, occupied)), s.dim ** 2, drifts.max())
    return [Operator(unvectorize(v, s.dim), hermitian=True) for v in (u @ vecs.T).T]


def _uniform_runs(grid: np.ndarray) -> list[tuple[int, int]]:
    """Index pairs ``(first, last)`` of maximal runs of equally spaced grid
    points (to ``GRID_SPACING_RTOL``); consecutive runs share an end point."""
    runs = []
    first = 0
    while first < len(grid) - 1:
        step = grid[first + 1] - grid[first]
        last = first + 1
        while (last + 1 < len(grid) and abs(grid[last + 1] - grid[last] - step)
               <= GRID_SPACING_RTOL * step):
            last += 1
        runs.append((first, last))
        first = last
    return runs
