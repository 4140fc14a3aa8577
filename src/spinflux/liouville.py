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
matrix with one sparse product over the terms, and the solvers read only
it: ``steady_state`` factorizes the trace-bordered generator once with a
sparse LU, and ``propagate`` calls ``expm_multiply`` once per run of equally
spaced grid points and per connected component of the non-zero pattern that
the initial state occupies (the CLI's start states fill one of two at n=5).
The LU's fill caps chains at ``MAX_SITES``; longer ones need the trajectory
sampler.
"""

from __future__ import annotations

import functools
import logging
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .dissipators import Generator
from .observables import bond_currents, local_energies
from .operators import DimensionError, Operator, connected_blocks

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
    CSR (``sparse``), the only form the solvers read."""

    sparse: scipy.sparse.csr_array
    dim: int
    generator: Generator

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """Read-only dense copy of ``sparse``, formed on first access."""
        m = self.sparse.toarray()
        m.flags.writeable = False
        return m


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
    terms = gen.sandwich_terms()
    p = _flat_rows((c * (eye if b is None else b) for c, _, b in terms), d * d)
    q = _flat_rows((eye if a is None else a for _, a, _ in terms), d * d)
    m = (p.T @ q).tocoo()
    (c, a), (b, e) = np.divmod(m.row, d), np.divmod(m.col, d)
    s = scipy.sparse.csr_array((m.data, (a * d + b, c * d + e)), shape=m.shape)
    s.eliminate_zeros()
    return Superoperator(sparse=s, dim=d, generator=gen)


def _flat_rows(mats, size: int) -> scipy.sparse.csr_array:
    """CSR matrix whose row t is the row-major flattened ``mats[t]``, of
    ``size`` entries; its 32-bit indices, as SuperLU takes them, carry
    through the product."""
    cols, vals = [], []
    for x in map(np.ravel, mats):
        cols.append(np.flatnonzero(x))
        vals.append(x[cols[-1]])
    indptr = np.cumsum([0] + [len(idx) for idx in cols], dtype=np.int32)
    return scipy.sparse.csr_array(
        (np.concatenate(vals), np.concatenate(cols, dtype=np.int32), indptr),
        shape=(len(cols), size))


def steady_state(s: Superoperator, null_tol: float = NULLSPACE_TOL) -> SteadyStateReport:
    """Solve for the stationary density matrix with one sparse LU.

    The trace constraint replaces the first diagonal-component row, which the
    trace-annihilation property of the generator makes redundant, and the
    bordered matrix is factorized once.  The null space must be
    one-dimensional, i.e. the bordered matrix regular: an exactly singular
    factor, or a smallest singular value (estimated by inverse iteration on
    the same factors) at most ``null_tol * max|L|``, raises instead of
    silently picking a member of a degenerate stationary manifold.
    """
    d = s.dim
    gen = s.generator
    weight = abs(s.sparse).max()
    trace_row = np.zeros((1, d * d), dtype=complex)
    trace_row[0, np.arange(d) * (d + 1)] = weight
    bordered = scipy.sparse.vstack([trace_row, s.sparse[1:]], format="csc")
    try:
        lu = scipy.sparse.linalg.splu(bordered)
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

    b = np.zeros(d * d, dtype=complex)
    b[0] = weight
    rho = unvectorize(lu.solve(b), d)
    asymmetry = np.abs(rho - rho.conj().T).max()
    logger.debug("steady state hermitization defect %.3e", asymmetry)
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real

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
    """Estimate of the smallest singular value of the factorized matrix ``A``:
    ``INVERSE_ITERATIONS`` power steps on ``(A^H A)^-1`` from a fixed random
    start.  The estimate approaches the true value from above; a non-finite
    iterate (a numerically singular factor) gives 0."""
    rng = np.random.default_rng(0)
    size = lu.shape[0]
    x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    x /= np.linalg.norm(x)
    with np.errstate(all="ignore"):
        for _ in range(INVERSE_ITERATIONS):
            x = lu.solve(lu.solve(x, trans="H"))
            growth = np.linalg.norm(x)
            if not np.isfinite(growth) or growth == 0.0:
                return 0.0
            x /= growth
    return 1.0 / np.sqrt(growth)


def propagate(s: Superoperator, rho0: Operator, times: np.ndarray) -> list[Operator]:
    """Evolve rho0 along the time grid: rho(t) = exp(S t) rho0.

    ``exp(S t)`` is block diagonal on the connected components of the
    sparse generator's non-zero pattern, so only the components on which
    ``vec(rho0)`` is non-zero are propagated, each with its own submatrix;
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
    vecs = np.zeros((len(grid), s.dim ** 2), dtype=complex)
    vecs[0] = vectorize(rho0.matrix)
    occupied = [idx for idx in connected_blocks(s.sparse) if vecs[0, idx].any()]
    # expm_multiply estimates norms of matrix powers with random probe
    # vectors from numpy's global generator; a fixed seed, restored after,
    # keeps the output bits independent of the caller's random state
    rng_state = np.random.get_state()
    np.random.seed(0)
    try:
        for idx in occupied:
            block = s.sparse[idx][:, idx]
            for first, last in runs:
                vecs[first + 1:last + 1, idx] = scipy.sparse.linalg.expm_multiply(
                    block, vecs[first, idx], start=0.0, stop=grid[last] - grid[first],
                    num=last - first + 1, endpoint=True)[1:]
    finally:
        np.random.set_state(rng_state)
    vecs = vecs[len(grid) - len(times):]

    out = []
    worst = 0.0
    for t, v in zip(times, vecs):
        rho = unvectorize(v, s.dim)
        drift = abs(np.trace(rho) - 1.0)
        if drift > TRACE_DRIFT_TOL:
            raise SolverError(f"trace drift {drift:.3e} at t={t} exceeds "
                              f"{TRACE_DRIFT_TOL}")
        worst = max(worst, drift)
        out.append(Operator(0.5 * (rho + rho.conj().T), hermitian=True))
    logger.info("propagation: %d expm_multiply run(s) over %d points on %d "
                "occupied component(s), %d of %d entries, worst trace drift "
                "%.3e", len(runs), len(times), len(occupied),
                sum(map(len, occupied)), s.dim ** 2, worst)
    return out


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


def expectation_series(states: list[Operator], obs: Operator) -> np.ndarray:
    """Expectation value of one observable along a list of states; the
    imaginary residue is discarded (with a warning if it is not negligible)."""
    values = np.empty(len(states))
    worst = 0.0
    for i, rho in enumerate(states):
        if rho.dim != obs.dim:
            raise DimensionError(f"state dim {rho.dim} != observable dim {obs.dim}")
        z = np.trace(rho.matrix @ obs.matrix)
        worst = max(worst, abs(z.imag))
        values[i] = z.real
    if worst > 1e-10:
        warnings.warn(f"imaginary residue {worst:.3e} in expectation series "
                      "exceeds 1e-10", stacklevel=2)
    else:
        logger.debug("expectation series imaginary residue %.3e discarded", worst)
    return values
