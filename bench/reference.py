"""Reference computations made apart from the program under test.

Every generator is written here as a list of sandwich terms ``(c, A, B)``
meaning ``L(rho) = sum c * A @ rho @ B``.  From that one list come a sparse
Liouvillian (``vec(A rho B) = kron(B.T, A) vec(rho)``, column stacking), a
matrix-free residual and, through ``expm_multiply``, exact time series.
Only the operators that a ``Generator`` exposes (its Hamiltonian, its
Lindblad jump list or its Redfield parts) are read from the program; nothing
here calls ``spinflux.liouville`` or ``spinflux.mcwf``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply, spsolve


def sandwich_terms(gen) -> list[tuple[complex, np.ndarray, np.ndarray | None]]:
    """Coherent part plus dissipator of ``gen``; ``None`` stands for the
    identity."""
    h = gen.hamiltonian.matrix
    terms = [(-1j, h, None), (1j, None, h)]
    if gen.variant == "redfield":
        # pi * (B rho X - X B rho + X rho B^dag - rho B^dag X), per bath
        for x, b in gen.redfield_parts():
            bd = b.conj().T
            terms += [(math.pi, b, x), (-math.pi, x @ b, None),
                      (math.pi, x, bd), (-math.pi, None, bd @ x)]
    else:
        for r, jump in gen.lindblad_terms():
            jd = jump.conj().T
            decay = jd @ jump
            terms += [(r, jump, jd), (-0.5 * r, decay, None),
                      (-0.5 * r, None, decay)]
    return terms


def apply(terms, rho: np.ndarray) -> np.ndarray:
    """Matrix-free action of the generator on a density matrix."""
    out = np.zeros_like(rho, dtype=complex)
    for c, a, b in terms:
        x = rho if a is None else a @ rho
        out += c * (x if b is None else x @ b)
    return out


def liouvillian(terms, dim: int) -> sp.csr_matrix:
    """Sparse Liouvillian acting on column-stacked density matrices."""
    eye = sp.identity(dim, dtype=complex, format="csr")
    total = sp.csr_matrix((dim * dim, dim * dim), dtype=complex)
    for c, a, b in terms:
        left = eye if a is None else sp.csr_matrix(a)
        right = eye if b is None else sp.csr_matrix(b.T)
        total = total + c * sp.kron(right, left, format="csr")
    return total


def vec(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v).reshape((dim, dim), order="F")


def residual(terms, rho: np.ndarray) -> float:
    """Frobenius norm of L(rho), relative to the scale of the generator:
    sum over terms of |c| * |A|_2 * |B|_2 with |rho|_F."""
    scale = sum(abs(c) * _norm2(a) * _norm2(b) for c, a, b in terms)
    return float(np.linalg.norm(apply(terms, rho)) / (scale * np.linalg.norm(rho)))


def _norm2(m) -> float:
    return 1.0 if m is None else float(np.linalg.norm(m, 2))


def null_state(terms, dim: int) -> np.ndarray:
    """Unit-trace null vector of a small dense Liouvillian, from its SVD."""
    lv = liouvillian(terms, dim).toarray()
    _, _, vh = scipy.linalg.svd(lv)
    rho = unvec(vh[-1].conj(), dim)
    rho = rho / np.trace(rho)
    return 0.5 * (rho + rho.conj().T)


def steady_state(terms, dim: int) -> np.ndarray:
    """Stationary state from a sparse solve with the trace row in place of
    the first equation."""
    lv = liouvillian(terms, dim).tolil()
    lv[0, :] = 0.0
    lv[0, np.arange(dim) * (dim + 1)] = 1.0
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0
    rho = unvec(spsolve(lv.tocsc(), rhs), dim)
    return 0.5 * (rho + rho.conj().T)


def current_series(terms, rho0: np.ndarray, t_max: float, points: int,
                   observables: list[np.ndarray]) -> np.ndarray:
    """Expectation values ``[observable, time]`` on
    ``linspace(0, t_max, points)`` by exact sparse propagation."""
    dim = rho0.shape[0]
    states = expm_multiply(liouvillian(terms, dim), vec(rho0), start=0.0,
                           stop=t_max, num=points, endpoint=True)
    # tr(rho O) = vec(O.T) . vec(rho)
    rows = np.array([vec(o.T) for o in observables])
    return (states @ rows.T).real.T


def fingerprint(gen, observables: list[np.ndarray]) -> str:
    """Digest of the operators a Lindblad time series is computed from,
    rounded so that last-bit differences between equivalent builds do not
    count (``+ 0.0`` turns a rounded -0.0 into 0.0)."""
    digest = hashlib.sha256()
    parts = [gen.hamiltonian.matrix, *observables]
    for r, jump in gen.lindblad_terms():
        parts += [np.array([r]), jump]
    for part in parts:
        digest.update((np.round(np.asarray(part, dtype=complex), 12) + 0.0).tobytes())
    return digest.hexdigest()


def load_curve(path: Path, gen, observables: list[np.ndarray], t_max: float,
               points: int) -> np.ndarray | None:
    """Cached exact curve ``[observable, time]``, or None when the file is
    missing or was made for other operators or another grid."""
    try:
        cached = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    if (cached["fingerprint"], cached["t_max"], cached["points"]) != \
            (fingerprint(gen, observables), t_max, points):
        return None
    return np.array(cached["currents"])


def save_curve(path: Path, gen, observables: list[np.ndarray], t_max: float,
               points: int, currents: np.ndarray, command: str,
               parameters: str) -> None:
    path.write_text(json.dumps({
        "command": command,
        "parameters": parameters,
        "t_max": t_max,
        "points": points,
        "fingerprint": fingerprint(gen, observables),
        "currents": [[float(x) for x in row] for row in currents],
    }, indent=1) + "\n", encoding="utf-8")
