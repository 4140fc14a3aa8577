"""Physical quantities derived from states: currents, energies, the
diagonality defect, the Gibbs state, and ``transport_report``, the one
builder of the stationary row that ``steady.json`` holds."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .chain import ChainSpec, build_current_operator, build_local_hamiltonian_site
from .operators import DimensionError, EigenSystem, Operator

if TYPE_CHECKING:
    from .liouville import SteadyStateReport


# The raw bond operator i[V(b), H_loc(b)] equals the coherent growth rate of
# the *upstream* site energy, so its bare expectation is negative when energy
# flows from a hot left bath to a cold right one.  All reported currents carry
# this single global flip, fixed once, so hot-to-cold flow reads positive.
REPORTED_CURRENT_SIGN = -1.0


def reported_current_operator(spec: ChainSpec, bond: int) -> Operator:
    """Bond-current observable in the reporting sign convention."""
    return build_current_operator(spec, bond, sign=REPORTED_CURRENT_SIGN)


def bond_currents(rho: Operator, spec: ChainSpec) -> np.ndarray:
    """Energy current on each bond in the reporting sign convention."""
    return np.array([np.trace(rho.matrix @ reported_current_operator(spec, b).matrix).real
                     for b in range(1, spec.n)])


def local_energies(rho: Operator, spec: ChainSpec) -> np.ndarray:
    """Local field energy at each site, tr(rho H_loc(site))."""
    return np.array([
        np.trace(rho.matrix @ build_local_hamiltonian_site(spec, site).matrix).real
        for site in range(1, spec.n + 1)])


def diagonality_defect(rho: Operator, basis: EigenSystem) -> float:
    """Total off-diagonal mass of rho in the given eigenbasis."""
    u = basis.eigenvectors
    if rho.dim != u.shape[0]:
        raise DimensionError(f"state dim {rho.dim} != basis dim {u.shape[0]}")
    r = np.abs(u.conj().T @ rho.matrix @ u)
    return float(r.sum() - np.trace(r))


def gibbs_state(eig: EigenSystem, beta: float) -> Operator:
    """Canonical state exp(-beta h)/Z of the h whose eigensystem is ``eig``."""
    w = np.exp(-beta * (eig.eigenvalues - eig.eigenvalues.min()))
    w /= w.sum()
    rho = (eig.eigenvectors * w) @ eig.eigenvectors.conj().T
    return Operator(rho, hermitian=True)


def transport_report(report: SteadyStateReport, basis: EigenSystem) -> dict:
    """The stationary row of a steady-state report, as ``steady.json`` holds
    it: currents and energies as lists of floats, the solve diagnostics, and
    the state's ``diagonality_defect`` in ``basis``, the generator's
    eigensystem."""
    return {
        "variant": report.variant,
        "currents": [float(x) for x in report.currents],
        "local_energies": [float(x) for x in report.energies],
        "residual": report.residual,
        "null_space_dim": report.null_space_dim,
        "min_eigenvalue": report.min_eigenvalue,
        "diagonality_defect": diagonality_defect(report.state, basis),
    }
