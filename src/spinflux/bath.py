"""Thermal-bath spectral functions.

A bath is a continuum of harmonic oscillators at inverse temperature ``beta``
with an Ohmic spectral density, characterized entirely by the one-sided rate

    rate(w, bath) = (kappa/2) * [J(w) - J(-w)] * planck(w, beta)
                  = (kappa/2) * w / (exp(beta*w) - 1)          for w != 0,

evaluated at the discrete transition frequencies of the system.  ``rate`` is
non-negative for every real w and obeys detailed balance

    rate(w, beta) = exp(-beta*w) * rate(-w, beta),

which is what drives a single-bath system to the Gibbs state.  At w = 0, and
wherever beta*w underflows below the smallest normal float, the analytic
limit kappa/(2*beta) is used.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class BathSpec:
    """One thermal contact: inverse temperature, coupling strength, attachment side."""

    beta: float
    coupling: float
    side: str

    def __post_init__(self):
        if not 0 < self.beta < math.inf:
            raise ValueError(f"inverse temperature must be positive and finite, "
                             f"got {self.beta}")
        if not 0 <= self.coupling < math.inf:
            raise ValueError(f"bath coupling must be >= 0 and finite, got {self.coupling}")
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")


def planck(omega: float, beta: float) -> float:
    """Bose occupation 1/(exp(beta*omega) - 1); negative for omega < 0."""
    x = beta * omega
    if x == 0.0:
        raise ValueError("planck distribution has a pole at beta*omega = 0")
    if x > 0.0:
        # exp(-x)/(1 - exp(-x)) never overflows and underflows cleanly to 0
        return math.exp(-x) / -math.expm1(-x)
    return 1.0 / math.expm1(x)


def spectral_density(omega: float) -> float:
    """Ohmic density: omega for omega > 0, zero otherwise."""
    return omega if omega > 0.0 else 0.0


def rate(omega: float, bath: BathSpec) -> float:
    """One-sided bath rate at a transition frequency; the omega = 0 pole is
    filled with its analytic limit kappa/(2*beta), which is also returned
    when beta*omega is zero or subnormal (planck would see a pole or inf)."""
    if abs(bath.beta * omega) < sys.float_info.min:
        return bath.coupling / (2.0 * bath.beta)
    odd = spectral_density(omega) - spectral_density(-omega)
    return 0.5 * bath.coupling * odd * planck(omega, bath.beta)
