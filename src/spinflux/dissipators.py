"""Master-equation generators for the two-bath spin chain.

Four generator variants share one chain and one pair of baths:

``redfield``
    Non-secular Born-Markov dissipator in its spectral form (the principal
    value part is dropped everywhere, so no Lamb-shift Hamiltonian appears).
``secular``
    Keeps only the frequency-diagonal terms of the Redfield double sum; always
    of Lindblad form, but its stationary state carries no energy current.
``weak_coupling``
    Treats the contact operator's free evolution under the local field alone
    (valid for exchange << field), then splits the resulting 2x2 coefficient
    matrix as gamma = gamma_a + gamma_b with det(gamma_a) = 0 and discards the
    indefinite remainder gamma_b.  One jump operator per bath, Lindblad form,
    and the stationary current survives.
``local_diag``
    Same construction but zeroing the off-diagonal of gamma instead: the
    familiar two-jump local thermalizer, kept for comparison.

Frequency-sign convention, used consistently everywhere: the eigenoperator
attached to frequency w *lowers* the system energy by w, i.e. for the single
spin the decomposition of sigma_x against (field/2) sigma_z yields
(+field, sigma_minus) and (-field, sigma_plus), and
exp(iHt) X(w) exp(-iHt) = exp(-iwt) X(w).  Under this labeling the spectral
weight attached to the channel X(w) is rate(-w, bath): emission (w > 0)
carries the spontaneous-plus-stimulated factor N+1, absorption (w < 0) the
factor N, which is exactly what detailed balance requires for a Gibbs fixed
point at the bath temperature.

Each generator has one representation, ``Generator.sandwich_terms()``:
``(c, A, B)`` terms with ``L(rho) = sum c * A rho B``, coherent part
included.  ``liouville.assemble`` and ``liouville.apply`` derive from it;
``LindbladTerms`` is the jump form the trajectory sampler needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bath import BathSpec, rate, spectral_density
from .chain import (ChainSpec, build_coupling_operator, build_hamiltonian,
                    contact_site)
from .operators import (PAULI, EigenSystem, Operator, eig_hermitian, embedded_sum,
                        require_memory)

VARIANTS = ("redfield", "secular", "weak_coupling", "local_diag")
LINDBLAD_VARIANTS = ("secular", "weak_coupling", "local_diag")

DEFAULT_CLUSTER_TOL_FACTOR = 1e-9
ZERO_OPERATOR_NORM = 1e-14
RATE_PRUNE_FACTOR = 1e-16


class VariantError(ValueError):
    """A generator was handed to a builder for a different variant."""


@dataclass(frozen=True)
class EigenOperatorSet:
    """Decomposition of a coupling operator by transition frequency.

    ``operators[k]`` collects every matrix element of the source operator whose
    transition lowers the system energy by ``frequencies[k]``; the set is
    closed under (w -> -w, X -> X.conj().T) and sums back to the source.
    """

    frequencies: np.ndarray
    operators: tuple

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        freqs.flags.writeable = False
        object.__setattr__(self, "frequencies", freqs)
        for op in self.operators:
            op.flags.writeable = False

    def __len__(self) -> int:
        return len(self.frequencies)

    def __iter__(self):
        return iter(zip(self.frequencies, self.operators))


def _cluster_sorted(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Greedy left-to-right grouping of sorted values with spread <= tol."""
    groups = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[start] > tol:
            groups.append(np.arange(start, i))
            start = i
    return groups


def bohr_decompose(h: Operator, x: Operator, cluster_tol: float,
                   eig: EigenSystem | None = None) -> EigenOperatorSet:
    """Split ``x`` into eigenoperators of ``h`` grouped by transition frequency.

    Eigenvalues of ``h`` closer than ``cluster_tol`` are treated as one level,
    and the resulting frequency differences are merged with the same
    tolerance.  Components with max-norm below ``ZERO_OPERATOR_NORM`` are
    dropped.  Entries come back sorted by frequency, exactly closed under
    conjugation.  ``eig``, when given, is ``eig_hermitian(h)``.  Before it
    forms them, ``DimensionError`` refuses a decomposition whose dense
    operators (two per positive-frequency group, plus the zero-frequency
    one) would not fit in the memory available.
    """
    if cluster_tol < 0:
        raise ValueError("cluster_tol must be >= 0")
    if not h.hermitian:
        raise ValueError("bohr_decompose requires a hermitian generator of the spectrum")
    if eig is None:
        eig = eig_hermitian(h)
    u = eig.eigenvectors
    x_eig = u.conj().T @ x.matrix @ u

    level_groups = _cluster_sorted(eig.eigenvalues, cluster_tol)
    level_of = np.empty(eig.dim, dtype=int)
    level_means = np.empty(len(level_groups))
    for c, idx in enumerate(level_groups):
        level_of[idx] = c
        level_means[c] = eig.eigenvalues[idx].mean()

    # frequency of element (i, j): energy lost by the system, mean(col) - mean(row)
    pair_freq = level_means[level_of[None, :]] - level_means[level_of[:, None]]

    # group the distinct positive pair frequencies; mirror to negatives so the
    # set is symmetric no matter how the greedy grouping falls
    upper_pairs = [(a, b) for a in range(len(level_groups)) for b in range(len(level_groups))
                   if level_means[b] > level_means[a]]
    pos_vals = np.array([level_means[b] - level_means[a] for a, b in upper_pairs])
    order = np.argsort(pos_vals, kind="stable")
    freq_groups = _cluster_sorted(pos_vals[order], cluster_tol)
    # each group gives a lowering operator and its adjoint, plus the w = 0 piece
    require_memory((2 * len(freq_groups) + 1) * 16 * eig.dim ** 2,
                   f"a Bohr decomposition at dimension {eig.dim} into "
                   f"{len(freq_groups)} positive-frequency groups")

    entries: list[tuple[float, np.ndarray]] = []

    diag_mask = level_of[None, :] == level_of[:, None]
    zero_piece = np.where(diag_mask, x_eig, 0.0)
    if np.abs(zero_piece).max() > ZERO_OPERATOR_NORM:
        entries.append((0.0, u @ zero_piece @ u.conj().T))

    for grp in freq_groups:
        members = [upper_pairs[order[g]] for g in grp]
        freq = float(np.mean([level_means[b] - level_means[a] for a, b in members]))
        mask = np.zeros_like(diag_mask)
        for a, b in members:
            mask |= (level_of[:, None] == a) & (level_of[None, :] == b)
        piece = np.where(mask, x_eig, 0.0)
        if np.abs(piece).max() <= ZERO_OPERATOR_NORM:
            continue
        lowering = u @ piece @ u.conj().T
        entries.append((freq, lowering))
        entries.append((-freq, lowering.conj().T))

    entries.sort(key=lambda item: item[0])
    freqs = np.array([f for f, _ in entries])
    ops = tuple(np.ascontiguousarray(m) for _, m in entries)
    return EigenOperatorSet(frequencies=freqs, operators=ops)


@dataclass(frozen=True)
class GammaMatrix:
    """2x2 coefficient matrix of the local contact dissipator in the
    (sigma_plus, sigma_minus) operator basis."""

    matrix: np.ndarray
    frequency: float
    bath: BathSpec

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def gamma_matrix(bath: BathSpec, frequency: float) -> GammaMatrix:
    """Coefficient matrix of the local dissipator at a transition frequency.

    Diagonal: 2*pi*rate(+f) (absorption, on sigma_plus) and 2*pi*rate(-f)
    (emission, on sigma_minus).  Off-diagonal: pi*(rate(+f) + rate(-f)).
    Indefinite for every finite temperature: det = -pi^2 (rate(+f)-rate(-f))^2.
    """
    if not frequency > 0:
        raise ValueError(f"transition frequency must be positive, got {frequency}")
    up = rate(frequency, bath)
    down = rate(-frequency, bath)
    cross = math.pi * (up + down)
    m = np.array([[2.0 * math.pi * up, cross],
                  [cross, 2.0 * math.pi * down]])
    return GammaMatrix(matrix=m, frequency=frequency, bath=bath)


def split_gamma(gamma: GammaMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Split gamma into a singular PSD part and a zero-diagonal remainder.

    The returned ``gamma_a`` keeps the diagonal of gamma and takes the
    geometric mean of the diagonal as off-diagonal, so det(gamma_a) = 0 and
    gamma_a is rank-1 positive semidefinite; ``gamma_b = gamma - gamma_a``
    has exactly zero diagonal.
    """
    g = gamma.matrix
    m = math.sqrt(g[0, 0] * g[1, 1])
    gamma_a = np.array([[g[0, 0], m], [m, g[1, 1]]])
    gamma_b = g - gamma_a
    return gamma_a, gamma_b


def gamma_remainder_factor(occupation: float) -> float:
    """Weight N + 1/2 - sqrt(N^2 + N) of the discarded remainder, in units of
    pi * kappa * J(f); decays like 1/(8N) at high temperature."""
    return occupation + 0.5 - math.sqrt(occupation * occupation + occupation)


@dataclass(frozen=True)
class LindbladTerms:
    """Jump operators with non-negative rates, plus the coherent Hamiltonian
    they accompany.  Rates below RATE_PRUNE_FACTOR * max(rate) are pruned."""

    rates: tuple
    jumps: tuple
    hamiltonian: Operator

    def __post_init__(self):
        rates = tuple(float(r) for r in self.rates)
        if len(rates) != len(self.jumps):
            raise ValueError("rates and jump operators must pair up")
        for r in rates:
            if r < 0:
                raise ValueError(f"negative rate {r} is not Lindblad-admissible")
        dim = self.hamiltonian.dim
        for L in self.jumps:
            if L.shape != (dim, dim):
                raise ValueError("jump operators must act on the full space")
        threshold = RATE_PRUNE_FACTOR * max(rates) if rates else 0.0
        keep = [i for i, r in enumerate(rates) if r >= threshold]
        jumps = []
        for i in keep:
            m = np.ascontiguousarray(np.asarray(self.jumps[i], dtype=complex))
            m.flags.writeable = False
            jumps.append(m)
        object.__setattr__(self, "rates", tuple(rates[i] for i in keep))
        object.__setattr__(self, "jumps", tuple(jumps))

    def __len__(self) -> int:
        return len(self.rates)

    def __iter__(self):
        return iter(zip(self.rates, self.jumps))

    def effective_hamiltonian(self) -> np.ndarray:
        """Non-Hermitian drift H - (i/2) sum_k rate_k L_k_dag L_k."""
        d = self.hamiltonian.dim
        decay = np.zeros((d, d), dtype=complex)
        for r, L in self:
            decay += r * (L.conj().T @ L)
        return self.hamiltonian.matrix - 0.5j * decay

    def sandwich_terms(self) -> tuple:
        """``(-i, H_eff, 1)``, ``(i, 1, H_eff_dag)``, then ``(rate_k, L_k,
        L_k_dag)`` in jump order: the Lindblad generator
        ``-i[H, rho] + sum_k rate_k (L_k rho L_k_dag - (1/2){L_k_dag L_k, rho})``."""
        h_eff = self.effective_hamiltonian()
        return ((-1j, h_eff, None), (1j, None, h_eff.conj().T),
                *((r, L, L.conj().T) for r, L in self))


class Generator:
    """One master-equation generator: a variant bound to a chain and two baths.

    The Hamiltonian's eigensystem is computed on first use (``redfield``
    and ``secular`` need it at construction, the local variants never do);
    everything else is built eagerly and is immutable.
    """

    def __init__(self, variant: str, chain: ChainSpec, bath_left: BathSpec,
                 bath_right: BathSpec, cluster_tol: float | None = None):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
        if bath_left.side != "left" or bath_right.side != "right":
            raise ValueError("baths must be tagged with their attachment side")
        self.variant = variant
        self.chain = chain
        self.baths = (bath_left, bath_right)
        self.cluster_tol = (DEFAULT_CLUSTER_TOL_FACTOR * chain.field
                            if cluster_tol is None else float(cluster_tol))
        self.hamiltonian = build_hamiltonian(chain)
        self.coupling_operators = tuple(
            build_coupling_operator(chain, b.side) for b in self.baths)

        self._eigensets: tuple[EigenOperatorSet, ...] | None = None
        self._filtered: tuple[np.ndarray, ...] | None = None
        self._terms: LindbladTerms | None = None

        if variant in ("redfield", "secular"):
            self._eigensets = tuple(
                bohr_decompose(self.hamiltonian, xc, self.cluster_tol,
                               eig=self.eigensystem)
                for xc in self.coupling_operators)
        if variant == "redfield":
            self._filtered = tuple(
                _spectral_filter(es, b) for es, b in zip(self._eigensets, self.baths))
            return
        if variant == "secular":
            pairs = [pair for es, b in zip(self._eigensets, self.baths)
                     for pair in secular_terms_for_bath(es, b)]
        elif variant == "weak_coupling":
            pairs = [_weak_coupling_jump(self.chain, b) for b in self.baths]
        else:
            pairs = []
            for b in self.baths:
                g = gamma_matrix(b, chain.field).matrix
                up, down = _local_flip_operators(self.chain, b.side)
                pairs.append((g[0, 0], up))
                pairs.append((g[1, 1], down))
        self._terms = LindbladTerms(rates=tuple(r for r, _ in pairs),
                                    jumps=tuple(L for _, L in pairs),
                                    hamiltonian=self.hamiltonian)

    @cached_property
    def eigensystem(self) -> EigenSystem:
        return eig_hermitian(self.hamiltonian)

    @property
    def is_lindblad(self) -> bool:
        return self.variant in LINDBLAD_VARIANTS

    def eigenoperator_sets(self) -> tuple[EigenOperatorSet, ...]:
        if self._eigensets is None:
            raise VariantError(f"variant {self.variant!r} does not decompose the "
                               "coupling operators against the full Hamiltonian")
        return self._eigensets

    def lindblad_terms(self) -> LindbladTerms:
        if self._terms is None:
            raise VariantError(
                f"variant {self.variant!r} has no Lindblad representation; its "
                "coefficient matrix is indefinite, so no jump-operator list exists")
        return self._terms

    def redfield_parts(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per bath: (contact operator X, spectrally filtered operator B) with
        the dissipator pi*([B rho, X] + h.c.)."""
        if self.variant != "redfield" or self._filtered is None:
            raise VariantError(f"redfield parts requested from variant {self.variant!r}")
        return tuple((xc.matrix, b) for xc, b in
                     zip(self.coupling_operators, self._filtered))

    def sandwich_terms(self) -> tuple:
        """The whole generator as ``(c, A, B)`` terms, ``L(rho) = sum c * A
        rho B``, ``None`` standing for the identity.  Lindblad variants give
        ``LindbladTerms.sandwich_terms()``; ``redfield`` gives ``(-i, H, 1)``,
        ``(i, 1, H)``, then per bath the four terms of ``pi (B rho X - X B rho
        + X rho B_dag - rho B_dag X)``, the double frequency sum
        ``pi sum_{w,w'} rate(-w) [X(w) rho, X(w')_dag] + h.c.`` collapsed
        over ``w'`` (the unfiltered sum is the bare contact operator again)."""
        if self._terms is not None:
            return self._terms.sandwich_terms()
        h = self.hamiltonian.matrix
        terms = [(-1j, h, None), (1j, None, h)]
        for x, b in self.redfield_parts():
            bd = b.conj().T
            terms += [(math.pi, b, x), (-math.pi, x @ b, None),
                      (math.pi, x, bd), (-math.pi, None, bd @ x)]
        return tuple(terms)


def _spectral_filter(eigset: EigenOperatorSet, bath: BathSpec) -> np.ndarray:
    """Weight each frequency component with the bath spectrum: sum of
    rate(-w) * X(w)."""
    total = np.zeros_like(eigset.operators[0])
    for w, op in eigset:
        total = total + rate(-w, bath) * op
    return total


def secular_terms_for_bath(eigset: EigenOperatorSet, bath: BathSpec) -> list:
    """Frequency-diagonal jump channels: rate 2*pi*rate(-w) on X(w)."""
    return [(2.0 * math.pi * rate(-w, bath), op) for w, op in eigset]


def _local_flip_operators(chain: ChainSpec, side: str) -> tuple[np.ndarray, np.ndarray]:
    site = contact_site(chain, side)
    return tuple(embedded_sum([(site, PAULI[kind])], chain.n)
                 for kind in ("plus", "minus"))


def _weak_coupling_jump(chain: ChainSpec, bath: BathSpec) -> tuple[float, np.ndarray]:
    """Rank-1 part of the local coefficient matrix as a single jump channel.

    gamma_a = v v^T with v = (sqrt(g11), sqrt(g22)), so its one positive
    eigenvalue is tr(gamma_a) with unit eigenvector v/|v|; the jump operator
    mixes the local raising and lowering operators with those weights.
    """
    g = gamma_matrix(bath, chain.field).matrix
    alpha = g[0, 0] + g[1, 1]
    site = contact_site(chain, bath.side)
    if alpha == 0.0:
        return 0.0, embedded_sum([(site, PAULI["minus"])], chain.n)
    u1 = math.sqrt(g[0, 0] / alpha)
    u2 = math.sqrt(g[1, 1] / alpha)
    return alpha, embedded_sum([(site, u1 * PAULI["plus"] + u2 * PAULI["minus"])],
                               chain.n)
