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
    matrix (``gamma_matrix``) as gamma = gamma_a + gamma_b with det(gamma_a)
    = 0 (``split_gamma``) and discards the indefinite remainder gamma_b.  The
    rank-1 gamma_a is one jump operator per bath, Lindblad form, and the
    stationary current survives.
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
included.  ``liouville.assemble`` and ``liouville.apply`` derive from it.
``LindbladTerms``, the jump form, owns the one CSR ``decay`` D =
``sum_k rate_k L_k_dag L_k``; H_eff = H - (i/2) D is formed from it.

Each spectrum is computed once, by its owner.  ``Generator`` owns the
Hamiltonian's ``eigensystem`` and ``bohr_table``, the frequency group of
every eigenbasis matrix element: the ``redfield`` filter weights that table
with the bath rates in one pass, and the ``secular`` jumps are the
eigenoperators X(w) cut out of it.  ``LindbladTerms`` owns H_eff's
``eigenblocks``, each block sliced from H and D, read by every kernel.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse

from .bath import BathSpec, rate
from .chain import (ChainSpec, build_coupling_operator, build_hamiltonian,
                    contact_site)
from .operators import (PAULI, EigenSystem, Operator, connected_blocks, dense_bytes,
                        eig_hermitian, embedded_sum, require_memory, stack_rows)

VARIANTS = ("redfield", "secular", "weak_coupling", "local_diag")
LINDBLAD_VARIANTS = ("secular", "weak_coupling", "local_diag")
# jump channels of the local variants, known before they are built
LOCAL_JUMPS = {"weak_coupling": 2, "local_diag": 4}

DEFAULT_CLUSTER_TOL_FACTOR = 1e-9
ZERO_OPERATOR_NORM = 1e-14
RATE_PRUNE_FACTOR = 1e-16
EIGVEC_CONDITION_LIMIT = 1e4


class VariantError(ValueError):
    """A generator was handed to a builder for a different variant."""


def _cluster_sorted(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Greedy left-to-right grouping of sorted values with spread <= tol."""
    groups = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[start] > tol:
            groups.append(np.arange(start, i))
            start = i
    return groups


def _bohr_labels(eig: EigenSystem, cluster_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Frequency group of every element of a ``d x d`` eigenbasis matrix.

    Eigenvalues closer than ``cluster_tol`` form one level.  The positive
    level differences, taken in row-major order of the level pairs and
    stably sorted, are merged with the same tolerance into groups with
    ascending mean frequencies ``freqs``.  ``labels[i, j]`` is ``k`` when
    element ``(i, j)`` lowers the energy by ``freqs[k - 1]``, ``-k`` when it
    raises it by that much, and 0 within one level.
    """
    if not cluster_tol >= 0:
        raise ValueError(f"cluster_tol must be >= 0, got {cluster_tol}")
    level_groups = _cluster_sorted(eig.eigenvalues, cluster_tol)
    level_of = np.empty(eig.dim, dtype=int)
    level_means = np.empty(len(level_groups))
    for c, idx in enumerate(level_groups):
        level_of[idx] = c
        level_means[c] = eig.eigenvalues[idx].mean()

    # group the positive level differences; the mirrored negatives get the
    # same groups, so the table is antisymmetric however the grouping falls
    lower, upper = np.nonzero(level_means[None, :] > level_means[:, None])
    pos_vals = level_means[upper] - level_means[lower]
    order = np.argsort(pos_vals, kind="stable")
    groups = _cluster_sorted(pos_vals[order], cluster_tol)
    pair_label = np.zeros((len(level_groups),) * 2, dtype=int)
    freqs = np.empty(len(groups))
    for k, grp in enumerate(groups, start=1):
        members = order[grp]
        pair_label[lower[members], upper[members]] = k
        pair_label[upper[members], lower[members]] = -k
        freqs[k - 1] = pos_vals[members].mean()
    return pair_label[level_of[:, None], level_of[None, :]], freqs


def _eigenoperators(x: Operator, eig: EigenSystem, labels: np.ndarray,
                    freqs: np.ndarray) -> tuple:
    """The eigenoperators of ``x``: ``(w, X(w))`` pairs sorted by ``w``, cut
    from the Bohr table ``(labels, freqs)`` of the eigensystem ``eig``.  The
    read-only ``X(w)`` collects the elements of ``x`` whose transition lowers
    the energy by ``w``, so the pairs sum back to ``x`` and are closed under
    ``(w, X) -> (-w, X_dag)``.  Components with max-norm below
    ``ZERO_OPERATOR_NORM`` are dropped.  The dense operators, two per
    positive-frequency group and the zero-frequency one, must fit in the
    memory available before they are formed."""
    require_memory(dense_bytes(eig.dim, 2 * len(freqs) + 1),
                   f"a Bohr decomposition at dimension {eig.dim} into "
                   f"{len(freqs)} positive-frequency groups")
    u = eig.eigenvectors
    x_eig = u.conj().T @ x.matrix @ u

    pairs = []
    for k, w in enumerate([0.0] + freqs.tolist()):
        piece = np.where(labels == k, x_eig, 0.0)
        if np.abs(piece).max() <= ZERO_OPERATOR_NORM:
            continue
        op = u @ piece @ u.conj().T
        pairs.append((w, op))
        if k:
            pairs.append((-w, np.ascontiguousarray(op.conj().T)))
    for _, op in pairs:
        op.flags.writeable = False
    return tuple(sorted(pairs, key=lambda item: item[0]))


def gamma_matrix(bath: BathSpec, frequency: float) -> np.ndarray:
    """Read-only 2x2 coefficient matrix of the local contact dissipator at a
    transition frequency, in the (sigma_plus, sigma_minus) operator basis.

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
    m.flags.writeable = False
    return m


def split_gamma(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split gamma, a ``gamma_matrix`` ``g``, into a singular PSD part and a
    zero-diagonal remainder.

    The returned ``gamma_a`` keeps the diagonal of gamma and takes the
    geometric mean of the diagonal as off-diagonal, so det(gamma_a) = 0 and
    gamma_a is rank-1 positive semidefinite; ``gamma_b = gamma - gamma_a``
    has exactly zero diagonal.
    """
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

    @cached_property
    def stacked(self) -> scipy.sparse.csr_array:
        """The jumps in one CSR matrix, ``L_k`` in rows ``k*d`` to ``k*d + d - 1``."""
        d = self.hamiltonian.dim
        if not self.jumps:
            return scipy.sparse.csr_array((0, d), dtype=complex)
        return stack_rows(self.jumps, d * d).reshape((len(self) * d, d)).tocsr()

    @cached_property
    def decay(self) -> scipy.sparse.csr_array:
        """``D = sum_k rate_k L_k_dag L_k`` in CSR, formed here only.  Block k of
        one product is ``L_k_dag L_k``; ``[rate_0 1, rate_1 1, ...]`` adds
        rate_k times block k in jump order, as a dense loop over channels does
        (bit for bit when each jump has one non-zero per row)."""
        d, count = self.hamiltonian.dim, len(self)
        s = self.stacked.tocoo()
        adjoints = scipy.sparse.csr_array(  # block diagonal of the L_k_dag
            (s.data.conj(), (s.row - s.row % d + s.col, s.row)), shape=(count * d,) * 2)
        weights = scipy.sparse.kron([self.rates], scipy.sparse.eye_array(d), format="csr")
        return weights @ (adjoints @ self.stacked)

    @cached_property
    def blocks(self) -> list[np.ndarray]:
        """Index sets of the connected blocks of H_eff's non-zero pattern, the
        union of H's and ``decay``'s (for the chain, the total-S_z sectors),
        found without forming the dense H_eff."""
        return connected_blocks(scipy.sparse.csr_array(self.hamiltonian.matrix != 0)
                                + (self.decay != 0))

    @cached_property
    def eigenblocks(self) -> tuple:
        """The eigensystem of H_eff = ``H - (i/2) D`` per block of ``blocks``,
        each block sliced from H and D = ``decay``, never from a d x d H_eff:
        ``(idx, eigenvalues, V, V_inv)``, or ``(idx, block)`` where ``V`` is
        worse conditioned than ``EIGVEC_CONDITION_LIMIT`` (near an exceptional
        point).  Diagonalized here only, once for every kernel."""
        h = self.hamiltonian.matrix
        blocks = []
        for idx in self.blocks:
            block = h[np.ix_(idx, idx)] - 0.5j * self.decay[idx][:, idx].toarray()
            vals, vecs = np.linalg.eig(block)
            cond = np.linalg.cond(vecs)
            blocks.append((idx, vals, vecs, np.linalg.inv(vecs))
                          if np.isfinite(cond) and cond <= EIGVEC_CONDITION_LIMIT
                          else (idx, block))
        return tuple(blocks)

    def sandwich_terms(self) -> Iterator[tuple]:
        """``(-i, H_eff, 1)``, ``(i, 1, H_eff_dag)``, then ``(rate_k, L_k,
        L_k_dag)`` in jump order: the Lindblad generator
        ``-i[H, rho] + sum_k rate_k (L_k rho L_k_dag - (1/2){L_k_dag L_k, rho})``.
        Yielded one at a time, so a single pass never holds every ``L_k_dag``."""
        h_eff = self.hamiltonian.matrix - 0.5j * self.decay
        yield -1j, h_eff, None
        yield 1j, None, h_eff.conj().T
        for r, L in self:
            yield r, L, L.conj().T


class Generator:
    """One master-equation generator: a variant bound to a chain and two baths.

    The Hamiltonian's eigensystem and Bohr table, the contact operators and
    the eigenoperator sets are computed on first use, once: ``redfield``
    needs the first three at construction, ``secular`` all four, and the
    local variants none.  Everything else is built eagerly and is immutable.
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

        self._eigensets: tuple[tuple, ...] | None = None
        self._filtered: tuple[np.ndarray, ...] | None = None
        self._terms: LindbladTerms | None = None

        if variant == "redfield":
            self._filtered = tuple(
                _spectral_filter(xc, b, self.eigensystem, *self.bohr_table)
                for xc, b in zip(self.coupling_operators, self.baths))
            return
        if variant == "secular":
            pairs = [pair for es, b in zip(self.eigenoperator_sets(), self.baths)
                     for pair in secular_terms_for_bath(es, b)]
        elif variant == "weak_coupling":
            pairs = [_weak_coupling_jump(self.chain, b) for b in self.baths]
        else:
            pairs = []
            for b in self.baths:
                g = gamma_matrix(b, chain.field)
                up, down = _local_flip_operators(self.chain, b.side)
                pairs.append((g[0, 0], up))
                pairs.append((g[1, 1], down))
        self._terms = LindbladTerms(rates=tuple(r for r, _ in pairs),
                                    jumps=tuple(L for _, L in pairs),
                                    hamiltonian=self.hamiltonian)

    @cached_property
    def eigensystem(self) -> EigenSystem:
        """The Hamiltonian's eigensystem, diagonalized here only."""
        return eig_hermitian(self.hamiltonian)

    @cached_property
    def bohr_table(self) -> tuple[np.ndarray, np.ndarray]:
        """``_bohr_labels`` of ``eigensystem``: the one frequency table that
        the ``redfield`` filter and both baths' eigenoperators read."""
        return _bohr_labels(self.eigensystem, self.cluster_tol)

    @cached_property
    def coupling_operators(self) -> tuple[Operator, Operator]:
        """The sigma_x contacts of the left and right bath."""
        return tuple(build_coupling_operator(self.chain, b.side) for b in self.baths)

    @property
    def is_lindblad(self) -> bool:
        return self.variant in LINDBLAD_VARIANTS

    def eigenoperator_sets(self) -> tuple[tuple, ...]:
        """Per bath, the ``(w, X(w))`` pairs of its contact operator, cut
        from ``bohr_table`` by ``_eigenoperators``."""
        if self.variant not in ("redfield", "secular"):
            raise VariantError(f"variant {self.variant!r} does not decompose the "
                               "coupling operators against the full Hamiltonian")
        if self._eigensets is None:
            self._eigensets = tuple(
                _eigenoperators(xc, self.eigensystem, *self.bohr_table)
                for xc in self.coupling_operators)
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
        if self._filtered is None:
            raise VariantError(f"redfield parts requested from variant {self.variant!r}")
        return tuple((xc.matrix, b) for xc, b in
                     zip(self.coupling_operators, self._filtered))

    def sandwich_terms(self) -> Iterable[tuple]:
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


def _spectral_filter(x: Operator, bath: BathSpec, eig: EigenSystem,
                     labels: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """``sum_w rate(-w) X(w)`` in one pass: each eigenbasis element of ``x``
    is weighted by the rate of its frequency group from ``_bohr_labels``.
    Read-only."""
    signed = np.concatenate(([0.0], freqs, -freqs[::-1]))  # signed[label] is w
    weights = np.array([rate(-w, bath) for w in signed])
    u = eig.eigenvectors
    b = u @ (weights[labels] * (u.conj().T @ x.matrix @ u)) @ u.conj().T
    b.flags.writeable = False
    return b


def secular_terms_for_bath(eigset: tuple, bath: BathSpec) -> list:
    """Frequency-diagonal jump channels: rate 2*pi*rate(-w) on X(w)."""
    return [(2.0 * math.pi * rate(-w, bath), op) for w, op in eigset]


def _local_flip_operators(chain: ChainSpec, side: str) -> tuple[np.ndarray, np.ndarray]:
    site = contact_site(chain, side)
    return tuple(embedded_sum([(site, PAULI[kind])], chain.n)
                 for kind in ("plus", "minus"))


def _weak_coupling_jump(chain: ChainSpec, bath: BathSpec) -> tuple[float, np.ndarray]:
    """``split_gamma``'s rank-1 part gamma_a of the local coefficient matrix
    as a single jump channel: its one positive eigenvalue, tr(gamma_a), is the
    rate, and its unit eigenvector sqrt(diag(gamma_a) / tr(gamma_a)) weights
    the local raising and lowering operators of the jump.
    """
    gamma_a, _ = split_gamma(gamma_matrix(bath, chain.field))
    alpha = np.trace(gamma_a)
    site = contact_site(chain, bath.side)
    if alpha == 0.0:
        return 0.0, embedded_sum([(site, PAULI["minus"])], chain.n)
    u1, u2 = np.sqrt(np.diag(gamma_a) / alpha)
    return alpha, embedded_sum([(site, u1 * PAULI["plus"] + u2 * PAULI["minus"])],
                               chain.n)
