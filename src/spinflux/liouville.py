"""Superoperator assembly, steady states, and time propagation.

``assemble`` and the matrix-free ``apply`` both derive from a generator's
sandwich terms ``(c, A, B)``, ``L(rho) = sum c * A rho B``.  Density
matrices are column-stacked: ``vec(rho)[i + d*j] = rho[i, j]``, so
``vec(A rho B) = kron(B.T, A) vec(rho)``.  The assembled matrix therefore acts
on vectors of length d**2; chains beyond ``MAX_SITES`` must fall back to the
trajectory sampler instead of dense Liouville algebra.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dissipators import Generator
from .observables import bond_currents, local_energies
from .operators import DimensionError, Operator

logger = logging.getLogger(__name__)

MAX_SITES = 6
NULLSPACE_TOL = 1e-10
EIG_CONDITION_LIMIT = 1e8
TRACE_DRIFT_TOL = 1e-10


class SolverError(RuntimeError):
    """Steady-state or propagation failure."""


class DegenerateSteadyStateError(SolverError):
    """The generator's numerical null space is not one-dimensional."""


@dataclass(frozen=True)
class Superoperator:
    """Dense generator matrix acting on column-stacked density matrices."""

    matrix: np.ndarray
    dim: int
    generator: Generator

    def __post_init__(self):
        self.matrix.flags.writeable = False


@dataclass(frozen=True)
class SteadyStateReport:
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
    """Build the full generator matrix ``sum c * kron(B.T, A)`` from the
    generator's sandwich terms, in the column-stacking convention."""
    n = gen.chain.n
    if n > MAX_SITES:
        raise DimensionError(
            f"dense Liouville solves are capped at {MAX_SITES} sites (got {n}); "
            "use the trajectory sampler for longer chains")
    d = gen.chain.dim
    left = np.zeros((d, d), dtype=complex)
    right = np.zeros((d, d), dtype=complex)
    coeffs, lefts, rights = [], [], []
    for c, a, b in gen.sandwich_terms():
        if b is None:
            left += c * a
        elif a is None:
            right += c * b
        else:
            coeffs.append(c)
            lefts.append(a)
            rights.append(b)
    # s = kron(1, left) + kron(right.T, 1) + sum_t c_t kron(B_t.T, A_t), one
    # row block a at a time so that no d^2 x d^2 temporary is formed; the
    # stacked two-sided terms give s4[a, b, c, e] += sum_t c_t B_t[c, a] A_t[b, e]
    coeffs = np.array(coeffs)
    flat = np.array(lefts, dtype=complex).reshape(-1, d * d)
    rights = np.array(rights, dtype=complex).reshape(-1, d, d)
    s = np.zeros((d * d, d * d), dtype=complex)
    s4 = s.reshape(d, d, d, d)
    diag = np.arange(d)
    for a in range(d):
        s4[a, :, a, :] += left
        s4[a, diag, :, diag] += right[:, a]
        block = (rights[:, :, a] * coeffs[:, None]).T @ flat
        s4[a] += block.reshape(d, d, d).transpose(1, 0, 2)

    return Superoperator(matrix=s, dim=d, generator=gen)


def steady_state(s: Superoperator, null_tol: float = NULLSPACE_TOL) -> SteadyStateReport:
    """Solve for the stationary density matrix.

    The numerical null-space dimension (singular values <= null_tol * max)
    must be exactly one; a degenerate stationary manifold raises instead of
    silently picking a member.  The trace constraint replaces the first
    diagonal-component row, which the trace-annihilation property of the
    generator makes redundant.
    """
    d = s.dim
    singvals = np.linalg.svd(s.matrix, compute_uv=False)
    null_dim = int(np.sum(singvals <= null_tol * singvals[0]))
    if null_dim != 1:
        raise DegenerateSteadyStateError(
            f"numerical null space has dimension {null_dim}, expected 1 "
            f"(variant {s.generator.variant!r})")

    weight = np.abs(s.matrix).max()
    a = np.array(s.matrix)
    trace_row = np.zeros(d * d, dtype=complex)
    trace_row[np.arange(d) * (d + 1)] = 1.0
    a[0, :] = weight * trace_row
    b = np.zeros(d * d, dtype=complex)
    b[0] = weight
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"steady-state linear solve failed: {exc}") from exc

    rho = unvectorize(x, d)
    asymmetry = np.abs(rho - rho.conj().T).max()
    logger.debug("steady state hermitization defect %.3e", asymmetry)
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real

    residual = float(np.linalg.norm(s.matrix @ vectorize(rho)))
    eigvals = np.linalg.eigvalsh(rho)
    gen = s.generator
    state = Operator(rho, hermitian=True)
    return SteadyStateReport(
        state=state,
        residual=residual,
        null_space_dim=null_dim,
        min_eigenvalue=float(eigvals.min()),
        currents=bond_currents(state, gen.chain),
        energies=local_energies(state, gen.chain),
        variant=gen.variant,
    )


def propagate(s: Superoperator, rho0: Operator, times: np.ndarray) -> list[Operator]:
    """Evolve rho0 along the time grid: rho(t) = exp(S t) rho0.

    Uses the eigendecomposition of the generator when its eigenvector matrix
    is well conditioned, otherwise falls back to stepwise scaling-and-squaring
    matrix exponentials.  Trace drift beyond TRACE_DRIFT_TOL at any output
    time is an error, never a silent renormalization.
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

    states = _propagate_eig(s, rho0, times)
    if states is None:
        states = _propagate_expm(s, rho0, times)

    out = []
    for t, rho in zip(times, states):
        drift = abs(np.trace(rho) - 1.0)
        if drift > TRACE_DRIFT_TOL:
            raise SolverError(f"trace drift {drift:.3e} at t={t} exceeds "
                              f"{TRACE_DRIFT_TOL}")
        out.append(Operator(0.5 * (rho + rho.conj().T), hermitian=True))
    return out


def _propagate_eig(s, rho0, times):
    vals, vecs = np.linalg.eig(s.matrix)
    cond = np.linalg.cond(vecs)
    if not np.isfinite(cond) or cond >= EIG_CONDITION_LIMIT:
        logger.info("eigenvector condition number %.3e; propagating with "
                    "stepwise expm", cond)
        return None
    coeff = np.linalg.solve(vecs, vectorize(rho0.matrix))
    states = []
    for t in times:
        v = vecs @ (np.exp(vals * t) * coeff)
        rho = unvectorize(v, s.dim)
        if abs(np.trace(rho) - 1.0) > TRACE_DRIFT_TOL:
            logger.info("trace drift at t=%g on the eigenbasis path (eigenvector "
                        "condition number %.3e); propagating with stepwise expm",
                        t, cond)
            return None
        states.append(rho)
    return states


def _propagate_expm(s, rho0, times):
    states = []
    rho = rho0.matrix.copy()
    prev_t = 0.0
    steppers: dict[float, np.ndarray] = {}
    for t in times:
        dt = t - prev_t
        if dt > 0:
            if dt not in steppers:
                steppers[dt] = scipy.linalg.expm(s.matrix * dt)
            rho = unvectorize(steppers[dt] @ vectorize(rho), s.dim)
        states.append(rho)
        prev_t = t
    return states


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
