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
calls ``expm_multiply`` on the components of its non-zero pattern that the
initial state occupies.  The steady state ``unvec(U x)``, ``x`` real, is
Hermitian by construction; ``propagate`` returns the real coordinates.
``U`` is unitary, so an observable's expectation is a real dot product,
``tr(rho O) = coordinates(O) @ coordinates(rho)``, and a time series is
``propagate(...) @ coordinates(O)``.  The LU's fill, not countable before
factorizing, caps chains at ``MAX_SITES`` (``require_sites``).
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
                        connected_blocks, require_memory, stack_rows, time_grid)

logger = logging.getLogger(__name__)

MAX_SITES = 6
NULLSPACE_TOL = 1e-10
INVERSE_ITERATIONS = 4
TRACE_DRIFT_TOL = 1e-10
# propagate's bytes at its traced peak (0.50 to 0.89 of the count at n=3 to 6):
# per grid point and Liouville-space entry, the real coordinates returned and
# expm_multiply's output (8 + 8); per non-zero of the Liouvillian, the fixed
# work of expm_multiply on a component, and the real form if propagate forms it
PROPAGATE_BYTES_PER_ENTRY, PROPAGATE_BYTES_PER_NONZERO = 16, 64
PROPAGATE_FIXED_BYTES, REAL_FORM_BYTES_PER_NONZERO = 2 ** 15, 40


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


def require_sites(n: int) -> None:
    """Raise ``DimensionError`` for a chain longer than ``MAX_SITES``."""
    if n > MAX_SITES:
        raise DimensionError(
            f"Liouville solves are capped at {MAX_SITES} sites (got {n}); "
            "use the trajectory sampler for longer chains")


def assemble(gen: Generator) -> Superoperator:
    """Build ``sum c * kron(B.T, A)`` over the generator's sandwich terms in
    CSR: with ``c_t * B_t`` flattened into row t of ``P`` and ``A_t`` into
    row t of ``Q``, ``P.T @ Q`` holds ``sum_t c_t B_t[c, a] A_t[b, e]`` at
    ``(c*d + a, b*d + e)``, whose place in the Kronecker sum is ``(a*d + b,
    c*d + e)``."""
    require_sites(gen.chain.n)
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


def coordinates(op: Operator) -> np.ndarray:
    """Real coordinates ``(U^H vec(op)).real`` of an operator flagged
    Hermitian, in the basis of ``_hermitian_basis``; the imaginary part, the
    rounding of the verified flag, is dropped.  An operator not flagged
    Hermitian raises ``ValueError``."""
    if not op.hermitian:
        raise ValueError("operator must be flagged hermitian")
    return (_hermitian_basis(op.dim).conj().T @ vectorize(op.matrix)).real


def propagate(s: Superoperator, rho0: Operator, times: np.ndarray) -> np.ndarray:
    """Evolve rho0 along the time grid in real coordinates: row k of the
    returned ``(len(times), d**2)`` array is ``exp(R t_k) coordinates(rho0)``,
    ``R = s.real``, so ``rho(t_k) = unvec(U r_k)``.

    That flow is block diagonal on the connected components of ``R``'s
    non-zero pattern, so only the components on which ``coordinates(rho0)``
    is non-zero are propagated, each with its own submatrix; every other
    entry stays exactly 0.  The grid is ``linspace(0, t_max, N)``
    (``operators.time_grid``), so a component takes one ``expm_multiply``
    call (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)).  A run that
    would not fit in memory (``s.real`` included, if formed here) raises
    ``DimensionError`` before allocation.
    Trace drift beyond TRACE_DRIFT_TOL at any output time is an error, never
    a silent renormalization.
    """
    times = time_grid(times)
    if rho0.dim != s.dim:
        raise DimensionError(f"initial state dim {rho0.dim} != generator dim {s.dim}")
    diag = np.arange(s.dim) * (s.dim + 1)
    r0 = coordinates(rho0)
    if abs(r0[diag].sum() - 1.0) > 1e-10:
        raise ValueError("initial state must have unit trace")

    per_nonzero = PROPAGATE_BYTES_PER_NONZERO + (
        0 if "real" in s.__dict__ else REAL_FORM_BYTES_PER_NONZERO)
    require_memory(len(times) * PROPAGATE_BYTES_PER_ENTRY * s.dim ** 2
                   + per_nonzero * s.sparse.nnz + PROPAGATE_FIXED_BYTES,
                   f"propagating {len(times)} states of dimension {s.dim}")
    real = s.real
    vecs = np.zeros((len(times), s.dim ** 2))
    vecs[0] = r0
    occupied = [idx for idx in connected_blocks(real) if r0[idx].any()]
    # expm_multiply estimates norms of matrix powers with random probe
    # vectors from numpy's global generator; a fixed seed, restored after,
    # keeps the output bits independent of the caller's random state;
    # the grid [0.0] needs no call
    rng_state = np.random.get_state()
    np.random.seed(0)
    try:
        for idx in occupied if len(times) > 1 else ():
            vecs[1:, idx] = scipy.sparse.linalg.expm_multiply(
                real[idx][:, idx], r0[idx], start=0.0, stop=times[-1],
                num=len(times), endpoint=True)[1:]
    finally:
        np.random.set_state(rng_state)
    drifts = np.abs(vecs[:, diag].sum(axis=1) - 1.0)
    if drifts.max() > TRACE_DRIFT_TOL:
        bad = np.argmax(drifts > TRACE_DRIFT_TOL)
        raise SolverError(f"trace drift {drifts[bad]:.3e} at t={times[bad]} "
                          f"exceeds {TRACE_DRIFT_TOL}")
    logger.info("propagation: expm_multiply over %d points on %d occupied "
                "component(s), %d of %d entries, worst trace drift %.3e",
                len(times), len(occupied), sum(map(len, occupied)), s.dim ** 2,
                drifts.max())
    return vecs
