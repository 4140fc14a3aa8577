"""Physical quantities derived from states: currents, energies, comparison metrics."""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .chain import (ChainSpec, build_current_operator, build_hamiltonian,
                    build_local_hamiltonian_site)
from .operators import DimensionError, EigenSystem, Operator, eig_hermitian

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TransportReport:
    """Steady-transport summary: one current per bond, one energy per site,
    plus the coherence and positivity diagnostics of the state."""

    currents: np.ndarray
    energies: np.ndarray
    diagonality_defect: float
    positivity_floor: float
    variant: str

    def __post_init__(self):
        for name in ("currents", "energies"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contain non-finite entries")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


# The raw bond operator i[V(b), H_loc(b)] equals the coherent growth rate of
# the *upstream* site energy, so its bare expectation is negative when energy
# flows from a hot left bath to a cold right one.  All reported currents carry
# this single global flip, fixed once, so hot-to-cold flow reads positive.
REPORTED_CURRENT_SIGN = -1.0


def reported_current_operator(spec: ChainSpec, bond: int) -> Operator:
    """Bond-current observable in the reporting sign convention."""
    return build_current_operator(spec, bond, sign=REPORTED_CURRENT_SIGN)


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


def bond_currents(rho: Operator, spec: ChainSpec) -> np.ndarray:
    """Energy current on each bond in the reporting sign convention."""
    return np.array([expectation_series([rho], reported_current_operator(spec, b))[0]
                     for b in range(1, spec.n)])


def local_energies(rho: Operator, spec: ChainSpec) -> np.ndarray:
    """Local field energy at each site, tr(rho H_loc(site))."""
    return np.array([
        expectation_series([rho], build_local_hamiltonian_site(spec, site))[0]
        for site in range(1, spec.n + 1)])


def diagonality_defect(rho: Operator, basis: EigenSystem) -> float:
    """Total off-diagonal mass of rho in the given eigenbasis."""
    u = basis.eigenvectors
    if rho.dim != u.shape[0]:
        raise DimensionError(f"state dim {rho.dim} != basis dim {u.shape[0]}")
    r = np.abs(u.conj().T @ rho.matrix @ u)
    return float(r.sum() - np.trace(r))


def trace_distance(rho: Operator, sigma: Operator) -> float:
    """Half the sum of singular values of rho - sigma; in [0, 1] for states."""
    if rho.dim != sigma.dim:
        raise DimensionError(f"dimension mismatch {rho.dim} vs {sigma.dim}")
    return float(0.5 * np.linalg.svd(rho.matrix - sigma.matrix,
                                     compute_uv=False).sum())


def gibbs_state(h: Operator, beta: float) -> Operator:
    """Canonical state exp(-beta h)/Z, built from the eigendecomposition."""
    eig = eig_hermitian(h)
    w = np.exp(-beta * (eig.eigenvalues - eig.eigenvalues.min()))
    w /= w.sum()
    rho = (eig.eigenvectors * w) @ eig.eigenvectors.conj().T
    return Operator(rho, hermitian=True)


def transport_report(rho: Operator, spec: ChainSpec, variant: str) -> TransportReport:
    """Bundle the transport observables of a (steady) state."""
    basis = eig_hermitian(build_hamiltonian(spec))
    return TransportReport(
        currents=bond_currents(rho, spec),
        energies=local_energies(rho, spec),
        diagonality_defect=diagonality_defect(rho, basis),
        positivity_floor=float(np.linalg.eigvalsh(rho.matrix).min()),
        variant=variant,
    )
