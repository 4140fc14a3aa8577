"""Spin-1/2 Heisenberg chain between two thermal contacts.

Builds the chain pieces used everywhere else: the Hamiltonian (local field
plus isotropic nearest-neighbor exchange), the field term of one site,
bond-resolved energy-current operators, and the spin-x contact operators at
the chain ends.

Conventions (hbar = k_B = 1):

* ``H = H_loc + V`` with ``H_loc = sum_mu (field/2) sigma_z(mu)`` and
  ``V = exchange * sum_mu vec(sigma)(mu) . vec(sigma)(mu+1)``.
* The bond current ``J(mu) = i [V(mu,mu+1), H_loc(mu)]`` measures energy flow
  from site mu to site mu+1; its sign is validated downstream against the
  hotter-left configuration.
* Sites and bonds are 1-based; bond mu joins sites (mu, mu+1).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .operators import PAULI, Operator, embedded_sum

WEAK_EXCHANGE_RATIO = 0.1

# exchange pair xx + yy + zz on two neighbouring sites, summed in that order
_PAIR = np.zeros((4, 4), dtype=complex)
for _kind in ("x", "y", "z"):
    _PAIR += np.kron(PAULI[_kind], PAULI[_kind])
_PAIR.flags.writeable = False


@dataclass(frozen=True)
class ChainSpec:
    """Chain geometry and energy scales: n sites, local field, exchange coupling."""

    n: int
    field: float
    exchange: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"chain needs at least 2 sites, got n={self.n}")
        if not 0 < self.field < np.inf:
            raise ValueError(f"local field must be positive and finite, got {self.field}")
        if not 0 <= self.exchange < np.inf:
            raise ValueError(f"exchange must be finite and >= 0, got {self.exchange}")
        if self.exchange > WEAK_EXCHANGE_RATIO * self.field:
            warnings.warn(
                f"exchange/field = {self.exchange / self.field:.3g} exceeds "
                f"{WEAK_EXCHANGE_RATIO}; the weak-internal-coupling generator "
                "assumes exchange << field",
                stacklevel=2,
            )

    @property
    def dim(self) -> int:
        return 2 ** self.n


def _check_site(spec: ChainSpec, site: int) -> None:
    if not 1 <= site <= spec.n:
        raise ValueError(f"site {site} out of range 1..{spec.n}")


def _check_bond(spec: ChainSpec, bond: int) -> None:
    if not 1 <= bond <= spec.n - 1:
        raise ValueError(f"bond {bond} out of range 1..{spec.n - 1}")


def _field_terms(spec: ChainSpec, sites) -> list:
    return [(site, 0.5 * spec.field * PAULI["z"]) for site in sites]


def build_local_hamiltonian_site(spec: ChainSpec, site: int) -> Operator:
    """(field/2) sigma_z at one site, embedded in the full chain."""
    _check_site(spec, site)
    return Operator(embedded_sum(_field_terms(spec, [site]), spec.n), hermitian=True)


def build_hamiltonian(spec: ChainSpec) -> Operator:
    """H_loc + V, each summed in site (bond) order before the two are added."""
    h = embedded_sum(_field_terms(spec, range(1, spec.n + 1)), spec.n)
    h += embedded_sum([(bond, spec.exchange * _PAIR) for bond in range(1, spec.n)],
                      spec.n)
    return Operator(h, hermitian=True)


def build_current_operator(spec: ChainSpec, bond: int, sign: float = 1.0) -> Operator:
    """Energy-current operator for one bond, ``sign * i [V(bond), H_loc(bond)]``.

    The commutator is taken on the two sites of the bond (4x4) and embedded
    once; ``sign`` is applied to the block before it is embedded.
    """
    _check_bond(spec, bond)
    v = spec.exchange * _PAIR
    h = np.kron(0.5 * spec.field * PAULI["z"], PAULI["identity"])
    block = 1j * (v @ h - h @ v)
    return Operator(embedded_sum([(bond, block * sign)], spec.n), hermitian=True)


def contact_site(spec: ChainSpec, side: str) -> int:
    """The site a bath attaches to: 1 on the left, n on the right."""
    if side == "left":
        return 1
    if side == "right":
        return spec.n
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def build_coupling_operator(spec: ChainSpec, side: str) -> Operator:
    """Contact operator sigma_x at the first (left) or last (right) site."""
    site = contact_site(spec, side)
    return Operator(embedded_sum([(site, PAULI["x"])], spec.n), hermitian=True)
