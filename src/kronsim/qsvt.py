"""Polynomial eigenvalue transformation of block-encoded Hermitian operators.

The emulation path: eigendecompose the measured block, apply the polynomial to
the eigenvalues, re-dilate the result. The polynomial machinery builds the
Chebyshev-basis approximant of exp(-i x t) from Bessel coefficients:

    cos(xt) = J0(t) + 2 sum_{k even>=2} (-1)^(k/2) J_k(t) T_k(x)
    sin(xt) = 2 sum_{k odd} (-1)^((k-1)/2) J_k(t) T_k(x)

Both parts are built at half amplitude so the transformation premise
|P(x)| <= 1/2 holds; callers restore the factor 2 on the extracted block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from numpy.polynomial import chebyshev

from .blockenc import BlockEncoding, dilate
from .errors import DegreeOverflow, InvalidFactor, NotHermitianBlock
from .ledger import ResourceLedger
from .linalg import op_norm

GRID_POINTS = 2001
DEGREE_CAP = 10_000
PREMISE_BOUND = 0.5

# Chebyshev-spaced sup-norm grid on [-1, 1]; dense enough for the degrees
# reachable under the cap.
SUP_GRID = np.cos(np.pi * np.arange(GRID_POINTS) / (GRID_POINTS - 1))

# Above this |t| the ascending series needs enough terms that float64
# cancellation costs digits; Miller's recurrence takes over.
SERIES_CUTOFF = 12.0


@dataclass(frozen=True)
class ChebPoly:
    """Real polynomial in the Chebyshev basis with a measured sup-norm error.

    sup_err is the grid-measured sup of |eval(x) - target(x)| for whatever
    target the builder approximated; it is data, not a recomputed bound.
    """

    coefficients: tuple[float, ...]
    degree: int
    sup_err: float

    def __post_init__(self):
        if self.degree != len(self.coefficients) - 1:
            raise InvalidFactor(
                f"degree {self.degree} != len(coefficients)-1 = {len(self.coefficients) - 1}"
            )

    def eval(self, x) -> np.ndarray:
        return chebyshev.chebval(np.asarray(x, dtype=np.float64), self.coefficients)

    def grid_max_abs(self) -> float:
        return float(np.max(np.abs(self.eval(SUP_GRID))))


def _trim(coeffs: np.ndarray) -> tuple[float, ...]:
    nz = np.nonzero(coeffs)[0]
    if nz.size == 0:
        return (0.0,)
    return tuple(float(c) for c in coeffs[: nz[-1] + 1])


def _bessel_series(k: int, t: float) -> float:
    # Exact rational ascending series sum_m (-1)^m (t/2)^(k+2m) / (m! (k+m)!).
    # Fraction arithmetic sidesteps the float64 cancellation that costs ~4
    # digits near |t| = 12.
    half = Fraction(t) / 2
    half2 = half * half
    term = half**k / math.factorial(k)
    acc = term
    m = 0
    while True:
        m += 1
        term = -term * half2 / (m * (k + m))
        acc += term
        if abs(term) < Fraction(1, 10**25) and 2 * m > abs(t):
            break
        if m > 500:
            break
    return float(acc)


def _bessel_miller(kmax: int, t: float) -> np.ndarray:
    """J_0(t)..J_kmax(t) by backward recurrence, |t| > 0."""
    at = abs(t)
    start = max(kmax, int(math.ceil(at))) + 40 + int(0.1 * at)
    vals = np.zeros(start + 2)
    vals[start + 1] = 0.0
    vals[start] = 1e-30
    for n in range(start, 0, -1):
        vals[n - 1] = (2.0 * n / at) * vals[n] - vals[n + 1]
        if abs(vals[n - 1]) > 1e250:
            vals[n - 1 :] *= 1e-250
    # Normalization identity: J0 + 2 sum_{m>=1} J_{2m} = 1.
    norm = vals[0] + 2.0 * np.sum(vals[2 : start + 1 : 2])
    out = vals[: kmax + 1] / norm
    if t < 0:
        out[1::2] *= -1.0
    return out


def bessel_j(k: int, t: float) -> float:
    """Bessel function of the first kind, J_k(t), to 1e-14 absolute."""
    if k < 0:
        raise InvalidFactor(f"order must be nonnegative, got {k}")
    if t == 0.0:
        return 1.0 if k == 0 else 0.0
    if abs(t) <= SERIES_CUTOFF:
        return _bessel_series(k, t)
    return float(_bessel_miller(k, t)[k])


def _candidate(t: float, degree: int, bessels: np.ndarray):
    """Half-amplitude truncated approximants of cos(xt) and -sin(xt)."""
    cr = np.zeros(degree + 1)
    ci = np.zeros(degree + 1)
    cr[0] = 0.5 * bessels[0]
    for k in range(2, degree + 1, 2):
        cr[k] = (-1.0) ** (k // 2) * bessels[k]
    for k in range(1, degree + 1, 2):
        ci[k] = -((-1.0) ** ((k - 1) // 2)) * bessels[k]
    # Enforce |P| <= 1/2 exactly: shrink both parts together so the complex
    # combination stays a scaled copy; the shrinkage lands in sup_err.
    max_part = max(
        float(np.max(np.abs(chebyshev.chebval(SUP_GRID, cr)))),
        float(np.max(np.abs(chebyshev.chebval(SUP_GRID, ci)))) if degree >= 1 else 0.0,
    )
    rho = 1.0 if max_part <= PREMISE_BOUND else PREMISE_BOUND / max_part
    cr *= rho
    ci *= rho
    err_r = float(np.max(np.abs(chebyshev.chebval(SUP_GRID, cr) - 0.5 * np.cos(SUP_GRID * t))))
    err_i = float(np.max(np.abs(chebyshev.chebval(SUP_GRID, ci) + 0.5 * np.sin(SUP_GRID * t))))
    return cr, ci, err_r, err_i


def jacobi_anger(t: float, delta: float) -> tuple[ChebPoly, ChebPoly]:
    """Half-amplitude Chebyshev approximants (real, imag) of exp(-i x t).

    The combined defect sup |2 (pr(x) + i pi(x)) - exp(-i x t)| over the grid
    is at most delta; each part's own sup_err is stored. Degree is minimized
    by geometric bracketing plus bisection over the stop predicate.
    """
    if not (0.0 < delta < 0.5):
        raise InvalidFactor(f"delta must lie in (0, 1/2), got {delta}")
    if t == 0.0:
        return ChebPoly((0.5,), 0, 0.0), ChebPoly((0.0,), 0, 0.0)

    budget = delta / 2.0  # err_r + err_i <= delta/2 makes the combined sup <= delta

    # The bisection probes many degrees for one t; series terms are per-order
    # independent, so grow a shared cache instead of recomputing.
    series_cache: list[float] = []
    miller_cache = np.zeros(0)

    def get_bessels(degree: int) -> np.ndarray:
        nonlocal miller_cache
        if abs(t) <= SERIES_CUTOFF:
            while len(series_cache) <= degree:
                series_cache.append(_bessel_series(len(series_cache), t))
            return np.asarray(series_cache[: degree + 1])
        if miller_cache.size <= degree:
            miller_cache = _bessel_miller(degree, t)
        return miller_cache[: degree + 1]

    def ok(degree: int):
        cr, ci, err_r, err_i = _candidate(t, degree, get_bessels(degree))
        if err_r + err_i <= budget:
            return cr, ci, err_r, err_i
        return None

    lo = 0  # highest degree known to fail (0 fails for t != 0)
    hi = int(math.ceil(abs(t))) + 4
    built = ok(hi)
    while built is None:
        lo = hi
        hi *= 2
        if hi > DEGREE_CAP:
            raise DegreeOverflow(
                f"degree cap {DEGREE_CAP} exceeded for t={t}, delta={delta}"
            )
        built = ok(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        attempt = ok(mid)
        if attempt is None:
            lo = mid
        else:
            hi = mid
            built = attempt
    cr, ci, err_r, err_i = built
    cr_t = _trim(cr)
    ci_t = _trim(ci)
    return (
        ChebPoly(cr_t, len(cr_t) - 1, err_r),
        ChebPoly(ci_t, len(ci_t) - 1, err_i),
    )


def apply_poly(
    u: BlockEncoding,
    pr: ChebPoly,
    pi: ChebPoly,
    ledger: ResourceLedger | None = None,
) -> BlockEncoding:
    """Encoding of P(block) with P = pr + i*pi, via eigenvalue application.

    Declared err is the transformation theorem's propagation bound plus the
    approximants' measured sup errors: 4 p sqrt(err_in / scale) + sup_errs.
    """
    block = u.block()
    defect = op_norm(block - block.conj().T)
    if defect > 1e-9:
        raise NotHermitianBlock(f"block Hermiticity defect {defect:.3e}")
    p = max(pr.degree, pi.degree)

    def transform(m: np.ndarray) -> np.ndarray:
        vals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
        pvals = pr.eval(vals) + 1j * pi.eval(vals)
        return (vecs * pvals) @ vecs.conj().T

    out = dilate(transform(block), 1.0, tag=f"poly({u.ledger_tag})")
    err = 4.0 * p * math.sqrt(max(u.err, 0.0) / u.scale) + pr.sup_err + pi.sup_err
    target = None
    if u.target is not None:
        target = transform(u.target / u.scale)
    if ledger is not None:
        anc_qubits = max(1, (u.ancilla_dim - 1).bit_length())
        ledger.record(
            "poly",
            be_queries=p + 1,
            two_qubit_gates=(anc_qubits + 1) * p,
            poly_degree=p,
            ancilla_dims=4 * u.ancilla_dim,
        )
    return replace(out, err=err + out.err, target=target)
