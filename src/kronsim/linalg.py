"""Dense complex matrix kernels.

Everything downstream (model validation, block-encoding algebra, oracles)
funnels through these functions, so tolerances live here: Hermiticity is
checked entrywise at 1e-12, spectral reconstructions hold at 1e-10 in
operator norm. Matrices are plain complex128 ndarrays; dimensions stay at
desk scale (system dimension <= 1024), so dense storage is deliberate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotSquare

HERMITIAN_TOL = 1e-12


def as_cmatrix(m) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={a.ndim}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise DimensionMismatch("matrix contains non-finite entries")
    return a


def as_cvector(v) -> np.ndarray:
    """Coerce to a finite 1-d complex128 array."""
    a = np.asarray(v, dtype=np.complex128)
    if a.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got ndim={a.ndim}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise DimensionMismatch("vector contains non-finite entries")
    return a


def require_square(m: np.ndarray) -> np.ndarray:
    m = as_cmatrix(m)
    if m.shape[0] != m.shape[1]:
        raise NotSquare(f"matrix is {m.shape[0]}x{m.shape[1]}")
    return m


def require_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    m = require_square(m)
    defect = max_entry_norm(m - m.conj().T)
    if defect > tol:
        raise NotHermitian(f"max-entry Hermiticity defect {defect:.3e} > {tol:.1e}")
    return m


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of one Hermitian factor.

    eigenvalues are sorted by descending magnitude (ties broken by descending
    value, so the order is deterministic); entries below the rank tolerance
    are stored as exact zeros. eigenvectors holds the matching orthonormal
    columns. rank counts the nonzero eigenvalues.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rank: int

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def eig_hermitian(m, rank_tol: float = 1e-10) -> SpectralData:
    """Diagonalize a Hermitian matrix.

    rank_tol is relative to the largest eigenvalue magnitude: anything below
    rank_tol * max|lambda| is reported as an exact zero.
    """
    m = require_hermitian(m)
    vals, vecs = np.linalg.eigh(m)
    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    if scale > 0.0:
        vals = np.where(np.abs(vals) < rank_tol * scale, 0.0, vals)
    order = np.lexsort((-vals, -np.abs(vals)))
    vals = vals[order]
    vecs = vecs[:, order]
    rank = int(np.count_nonzero(vals))
    return SpectralData(eigenvalues=vals, eigenvectors=vecs, rank=rank)


def kron(a, b) -> np.ndarray:
    return np.kron(as_cmatrix(a), as_cmatrix(b))


def kron_all(mats) -> np.ndarray:
    mats = list(mats)
    out = as_cmatrix(mats[0])
    for m in mats[1:]:
        out = np.kron(out, as_cmatrix(m))
    return out


def partial_trace(m, keep_dim: int, trace_dim: int, traced_side: str) -> np.ndarray:
    """Trace out one tensor factor of a square matrix on keep x trace space.

    traced_side names the factor that disappears: 'left' treats m as living on
    (traced tensor kept), 'right' on (kept tensor traced).
    """
    m = require_square(m)
    if keep_dim < 1 or trace_dim < 1 or m.shape[0] != keep_dim * trace_dim:
        raise DimensionMismatch(
            f"dim {m.shape[0]} != keep {keep_dim} * trace {trace_dim}"
        )
    if traced_side == "left":
        t = m.reshape(trace_dim, keep_dim, trace_dim, keep_dim)
        return np.einsum("akal->kl", t)
    if traced_side == "right":
        t = m.reshape(keep_dim, trace_dim, keep_dim, trace_dim)
        return np.einsum("kala->kl", t)
    raise DimensionMismatch(f"traced_side must be 'left' or 'right', got {traced_side!r}")


def op_norm(m) -> float:
    """Largest singular value."""
    m = as_cmatrix(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def hermitian_op_norm(m) -> float:
    """Largest singular value of a Hermitian matrix, as its largest |eigenvalue|.

    The same quantity as op_norm for Hermitian input (such as U^dag U - I),
    read from the lower triangle by eigvalsh, which is about twice as fast as
    the SVD at a few hundred rows and more.
    """
    m = as_cmatrix(m)
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(m))))


def trace_norm(m) -> float:
    """Sum of singular values."""
    m = as_cmatrix(m)
    if m.size == 0:
        return 0.0
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def max_entry_norm(m) -> float:
    m = as_cmatrix(m)
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(m)))


def sparsity(m, tol: float = 1e-12) -> int:
    """Maximum count of above-tolerance entries over all rows and columns."""
    m = as_cmatrix(m)
    mask = np.abs(m) > tol
    if not mask.any():
        return 0
    return int(max(mask.sum(axis=1).max(), mask.sum(axis=0).max()))


def unitary_completion(v) -> np.ndarray:
    """Unitary whose first column is the given unit vector (Householder).

    The vector is phase-rotated so its leading entry is real nonnegative,
    reflected onto e0, and the phase restored as a global factor; the result
    satisfies U e0 = v to machine precision for any complex unit vector.
    """
    v = as_cvector(v)
    n = v.shape[0]
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > 1e-10:
        raise DimensionMismatch(f"column norm {nrm} is not 1")
    phase = v[0] / abs(v[0]) if abs(v[0]) > 1e-14 else 1.0
    tilted = v / phase
    w = tilted - np.eye(n, dtype=np.complex128)[:, 0]
    n2 = float(np.real(np.vdot(w, w)))
    if n2 < 1e-28:
        return phase * np.eye(n, dtype=np.complex128)
    h = np.eye(n, dtype=np.complex128) - 2.0 * np.outer(w, w.conj()) / n2
    return phase * h


def expm_hermitian(h, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via eigendecomposition."""
    h = require_hermitian(h)
    vals, vecs = np.linalg.eigh(h)
    phases = np.exp(-1j * vals * t)
    return (vecs * phases) @ vecs.conj().T
