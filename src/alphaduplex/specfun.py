"""Special functions and adaptive quadrature used by the closed-form link analysis.

The BER formulas need three ingredients beyond numpy: the complementary
error function, the lower incomplete gamma function gamma(2, x) (for the
uplink power moment E[P_u^(2/eta)]), and the Gauss hypergeometric family
2F1(1, b; b+1; -x) with b in (0, 1) that shows up in every interference
Laplace transform.  The fourth ingredient is a semi-infinite quadrature
engine for integrands of the form g(z) * exp(-c z) / sqrt(z).

erfc is a bit-exact port of the Cephes code behind scipy's, so the Monte
Carlo path loads no scipy, and gamma(2, x) is elementary.  scipy.special
supplies the 2F1 alone, and it is imported on first use, not with this
module: it costs about 0.3 s, and an eta = 4 analysis never needs it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureError",
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "erfc",
    "lower_gamma_2",
    "hyp2f1_special",
    "adaptive_quad",
    "quad_intervals",
    "integrate_semi_infinite",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not converge.

    Either the subdivision budget ran out, or the integrand or a panel sum
    formed a value that is not finite, which no bisection mends.
    """


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for the adaptive integrators."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("rel_tol and abs_tol must be positive")


DEFAULT_QUADRATURE = QuadratureSpec()


# Cephes erf/erfc rational approximations (Moshier, ndtr.c), highest degree
# first; the leading 1.0 of each denominator is written out.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2   # exp(-x^2) underflows past x^2 > this


def _polevl(x, coeffs):
    """Horner's rule in Cephes' order (np.polyval would give NaN at inf)."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def erfc(x):
    """Complementary error function, elementwise on arrays.

    A port of Cephes ``erfc`` (Moshier, ndtr.c), the code behind
    ``scipy.special.erfc``, and bit-equal to it: |x| < 1 is 1 - erf(x),
    the rest exp(-x^2) P(|x|)/Q(|x|) (R/S from |x| = 8 on), reflected to
    2 - y for negative x.  The exponential is libm's, through math.exp:
    numpy's SIMD exp differs from it in the last bit.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    ax = np.abs(flat)
    with np.errstate(over="ignore"):
        sq = flat * flat
    out = np.where(flat < 0.0, 2.0, 0.0)   # the limits past _MAXLOG
    small = ax < 1.0
    xs, zs = flat[small], sq[small]
    out[small] = 1.0 - xs * _polevl(zs, _ERF_T) / _polevl(zs, _ERF_U)
    tail = ~small & ~(sq > _MAXLOG)   # NaN lands here and stays NaN
    t = ax[tail]
    e = np.fromiter(map(math.exp, (-sq[tail]).tolist()), float, t.size)
    near = t < 8.0
    p = np.where(near, _polevl(t, _ERFC_P), _polevl(t, _ERFC_R))
    q = np.where(near, _polevl(t, _ERFC_Q), _polevl(t, _ERFC_S))
    y = e * p / q
    out[tail] = np.where(flat[tail] < 0.0, 2.0 - y, y)
    out = out.reshape(x.shape)
    return float(out) if out.ndim == 0 else out


# Taylor coefficients of gamma(2, x) / x^2 = sum_k (-x)^k / (k! (k + 2));
# 18 terms reach double precision for x <= 0.5.
_GAMMA2_SERIES = tuple(1.0 / (math.factorial(k) * (k + 2)) for k in range(18))


def lower_gamma_2(x: float) -> float:
    """Lower incomplete gamma gamma(2, x) = 1 - (1 + x) e^-x for x >= 0.

    Not regularized, so gamma(2, inf) = Gamma(2) = 1; within 6e-14 relative
    of scipy.  The closed form cancels for small x (relative error
    ~ 2 eps / x), so below 0.5 the Taylor series takes over.  At the
    reference point c = 0.9424777960769379 the closed form is bit-equal to
    scipy's value.  Plain floats: the power moment calls this once
    per BER, where numpy's per-call overhead would cost more than scipy.
    """
    if x < 0.5:
        acc = 0.0
        for coeff in reversed(_GAMMA2_SERIES):
            acc = acc * -x + coeff
        return x * (x * acc)
    x = min(x, 1e3)   # 1.0 from x ~ 45 on; keeps inf * 0 out
    return -math.expm1(-x) - x * math.exp(-x)


def hyp2f1_special(b: float, x):
    """Gauss hypergeometric 2F1(1, b; b+1; -x) for 0 < b < 1 and x >= 0.

    Evaluated by ``scipy.special.hyp2f1``; at the frozen test values
    (b from 1/4 to 0.9, x up to 1e20) it is within 2e-15 of mpmath.
    Accepts scalar or ndarray ``x``; the return matches the input shape.
    """
    if not 0.0 < b < 1.0:
        raise ValueError(f"b must lie in (0, 1), got {b}")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise ValueError("x must be nonnegative")
    from scipy.special import hyp2f1
    out = hyp2f1(1.0, b, b + 1.0, -x_arr)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

# 15-point Kronrod rule with embedded 7-point Gauss rule (QUADPACK qk15).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Full symmetric node/weight tables on [-1, 1].
_K_NODES = np.concatenate([-_XGK[:-1], [0.0], _XGK[-2::-1]])
_K_WEIGHTS = np.concatenate([_WGK[:-1], [_WGK[-1]], _WGK[-2::-1]])
_G_WEIGHTS = np.zeros_like(_K_WEIGHTS)
_G_WEIGHTS[1:-1:2] = np.concatenate([_WG[:-1], [_WG[-1]], _WG[-2::-1]])


# Panels of the first pass over an interval: several, so a narrow feature
# cannot slip between the nodes of a single rule with a tiny error estimate.
_N_SEED = 8
# Bisections adaptive_quad may spend before it gives up.
_MAX_SUBDIVISIONS = 200


def _gk15_panels(f: Callable, lo: np.ndarray, hi: np.ndarray):
    """Gauss-Kronrod estimates of the panels [lo, hi] from one call of f.

    ``lo`` and ``hi`` have any shape s.  ``f`` sees the Kronrod nodes as one
    flat array of points (C order of s + (15,)) and returns values of shape
    (..., k).  Returns the 15-point estimates and their error estimates,
    each of shape (...) + s.  The rule is applied to stacked rows of 15, so
    a panel's bits do not depend on the panels evaluated with it.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    # a nan or an infinite panel sum never converges: fail at once, naming
    # the operation, rather than after the whole subdivision budget
    with np.errstate(invalid="raise"):
        try:
            y = np.asarray(
                f((mid[..., None] + half[..., None] * _K_NODES).ravel()),
                dtype=float)
            y = y.reshape(y.shape[:-1] + lo.shape + _K_NODES.shape)
            with np.errstate(over="raise"):
                kron = half * (y @ _K_WEIGHTS)
                gauss = half * (y @ _G_WEIGHTS)
                err = np.abs(kron - gauss)
        except FloatingPointError as exc:
            raise QuadratureError(
                f"the integrand has no finite value: {exc}") from None
    return kron, err


def _seed_pass(f: Callable, a: np.ndarray, b: np.ndarray):
    """Edges, estimates and errors of the first pass over arrays [a, b]."""
    # np.linspace(a, b, _N_SEED + 1) bit for bit, without its overhead
    edges = (np.arange(_N_SEED + 1.0) * ((b - a) / _N_SEED)[..., None]
             + a[..., None])
    edges[..., -1] = b
    return (edges, *_gk15_panels(f, edges[..., :-1], edges[..., 1:]))


def adaptive_quad(f: Callable, a: float, b: float,
                  spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Globally adaptive Gauss-Kronrod bisection on a finite interval.

    ``f(x)`` maps evaluation points of shape (k,) to values of shape
    (..., k); the integral is taken along the last axis and returned with
    shape (...), as a float when that shape is ().  A family of integrands
    shares one subdivision tree, refined where the worst component error
    sits, until every component meets its own
    max(abs_tol, rel_tol * |value|).  Each pass calls ``f`` once: on all
    initial panels, then on both halves of each bisected panel.  Raises
    QuadratureError once ``_MAX_SUBDIVISIONS`` bisections are spent
    without converging, and at once where the integrand or a panel's rule
    forms a nan (0 * inf, inf - inf) or a panel sum overflows.
    """
    edges, vals, errs = _seed_pass(f, np.asarray(a, dtype=float),
                                   np.asarray(b, dtype=float))
    total_val = vals.sum(axis=-1)
    total_err = errs.sum(axis=-1)
    worst = errs.reshape(-1, _N_SEED).max(axis=0).tolist()
    heap = [(-worst[i], i, edges[i], edges[i + 1], vals[..., i], errs[..., i])
            for i in range(_N_SEED)]
    heapq.heapify(heap)

    n = _N_SEED
    while not (total_err <= np.maximum(
            spec.abs_tol, spec.rel_tol * np.abs(total_val))).all():
        if n == _N_SEED + _MAX_SUBDIVISIONS:
            raise QuadratureError(
                f"no convergence after {_MAX_SUBDIVISIONS} subdivisions "
                f"(worst error {np.max(total_err):.3e})")
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        vals, errs = _gk15_panels(f, np.array([pa, pm]), np.array([pm, pb]))
        total_val += vals.sum(axis=-1) - pval
        total_err += errs.sum(axis=-1) - perr
        worst = errs.reshape(-1, 2).max(axis=0).tolist()
        for j, (lo, hi) in enumerate(((pa, pm), (pm, pb))):
            heapq.heappush(heap, (-worst[j], 2 * n + j, lo, hi,
                                  vals[..., j], errs[..., j]))
        n += 1
    return total_val if total_val.ndim else float(total_val)


def quad_intervals(integrand: Callable, a: np.ndarray, b: np.ndarray,
                   abs_tol: np.ndarray,
                   spec: QuadratureSpec = DEFAULT_QUADRATURE) -> list[float]:
    """``adaptive_quad`` of one integrand per interval [a[j], b[j]], bit for bit.

    ``integrand(rows)``, for a slice of rows, maps points in equal groups per
    interval (row order) to values.  The seed passes of all intervals are
    one call; only an interval that misses its tolerance
    max(abs_tol[j], spec.rel_tol * |value|) there goes on to adaptive_quad.
    Returns floats, in row order.
    """
    _, vals, errs = _seed_pass(integrand(slice(None)), a, b)
    value = vals.sum(axis=-1)
    ok = errs.sum(axis=-1) <= np.maximum(abs_tol, spec.rel_tol * np.abs(value))
    out = value.tolist()
    for j in np.flatnonzero(~ok):
        out[j] = adaptive_quad(integrand(slice(j, j + 1)), a[j], b[j],
                               QuadratureSpec(spec.rel_tol, abs_tol[j]))
    return out


def integrate_semi_infinite(f: Callable, decay_rate: float = 1.0):
    """Integrate f over (0, inf) for integrands with an integrable 1/sqrt(z) singularity.

    ``f`` must be dominated by an envelope M * exp(-decay_rate * z) / sqrt(z)
    with moderate M (true for every BER integrand here: the Laplace-transform
    factors are <= 1 and the exponential carries rate >= 1).  The substitution
    z = t^2 removes the endpoint singularity, and the upper limit is cut where
    the known envelope drops below abs_tol.

    ``f`` maps points of shape (k,) to values of shape (..., k), as for
    adaptive_quad, and the result has shape (...).
    """
    if decay_rate <= 0:
        raise ValueError("decay_rate must be positive")
    # After z = t^2 the tail of the envelope is ~ exp(-c t^2); cut where the
    # remaining mass is far below abs_tol.
    z_max = (-math.log(DEFAULT_QUADRATURE.abs_tol) + 12.0) / decay_rate
    t_max = math.sqrt(z_max)

    def g(t):
        return 2.0 * t * f(t * t)

    return adaptive_quad(g, 0.0, t_max)
