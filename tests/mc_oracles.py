"""Independent oracles for the closed-form layer and the link assembly.

Two oracle families for the closed forms, both deliberately avoiding the
package's own quadrature and hypergeometric kernels:

* Monte Carlo estimators that realize the marked point processes the
  Laplace transforms summarize: Poisson patterns on a finite disk,
  unit-mean exponential fading per point, power control with its
  exclusion thinning, and an exact multiplicative correction for the
  aggregate beyond the disk.  Beyond-disk points are independent of
  in-disk ones and their aggregate LT is a deterministic integral, so
  the truncation introduces no bias at any disk radius.

* Brute-force scipy quadrature of the defining integrals (the PGFL
  exponent written directly as a distance integral, with the transmit
  power averaged over the serving-distance law), giving deterministic
  near-machine references for the same quantities.

The eta = 4 arctan forms of the four transforms, written out with
np.arctan instead of 2F1 and assembled into uplink and downlink BERs by the
package's public quadrature, are an oracle for the package's
hypergeometric kernel and exponent code at the reference exponent.

Three oracles serve the Monte Carlo simulator: UE placement one
realization at a time, a ``cKDTree.query`` per rejection round, as the
reference for the lockstep placement of a block of realizations; link parts
assembled one link at a time, in the order the simulator draws its fading
gains, as the reference for the batched per-realization assembly; and that
batched assembly written with fresh arrays, as the reference for its
in-place arithmetic.

The interference factors have a bit-exact oracle: each lobe between the
spectral nulls integrated on its own by ``adaptive_quad``, as the package
did before it batched the lobes of many alphas into shared seed passes.
Its integrand is ``spectrum``, one pulse's S(f) from the package's
normalization constant and sinc power.  ``factors_time_domain`` checks the
factors from outside the frequency-domain formula: it builds the pulses in
time, takes their spectra by FFT, and correlates the shifted aggressor with
the victim's band-limited matched filter, in numpy alone.  The tests that
need the factors at one alpha take them from ``factors_at``, through the
batched kernel, as the program does.

``distance_pdf``, the serving-distance density written out per km, is the
oracle for the mass of that law and for the power moments taken over it.
"""

import math

import numpy as np
from scipy import integrate, special

from alphaduplex.analytic import hamdi_average
from alphaduplex.model import (
    M_PER_KM,
    Direction,
    SystemParams,
    max_inversion_radius_m,
    uplink_power_moment,
)
from alphaduplex import montecarlo
from alphaduplex.montecarlo import NetworkRealization, StarvationError
from alphaduplex import pulse
from alphaduplex.pulse import InterferenceFactors, PulseKind, PulsePair, PulseShape
from alphaduplex.specfun import QuadratureSpec, adaptive_quad, integrate_semi_infinite

DISK_RADIUS_M = 10_000.0
_CHUNK_POINTS = 2_000_000


def serving_distance_inverse_cdf(u, p: SystemParams):
    """Map uniforms in [0, 1) to serving distances in meters.

    Inverts the truncated-Rayleigh law of the nearest-BS distance
    conditioned on lying within the inversion radius.
    """
    lam = p.lambda_per_m2
    c = math.pi * lam * max_inversion_radius_m(p) ** 2
    u = np.asarray(u, dtype=float)
    return np.sqrt(-np.log1p(u * np.expm1(-c)) / (math.pi * lam))


def distance_pdf(r_km, p: SystemParams):
    """Serving-distance density f_R(r) of an active uplink UE, per km.

    Rayleigh-type nearest-BS density truncated at the channel-inversion
    radius and renormalized.  ``r_km`` may be a scalar or ndarray; negative
    distances are rejected, distances beyond the support return 0.
    """
    r = np.asarray(r_km, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("r must be nonnegative")
    scalar = r.ndim == 0
    r = np.atleast_1d(r)

    pi_lam = math.pi * p.lambda_bs                       # per km^2
    r_max = max_inversion_radius_m(p) / M_PER_KM         # km
    norm = -math.expm1(-pi_lam * r_max * r_max)          # 1 - e^(-pi lam r_max^2)
    pdf = 2.0 * pi_lam * r * np.exp(-pi_lam * r * r) / norm
    pdf = np.where(r <= r_max, pdf, 0.0)
    return float(pdf[0]) if scalar else pdf


def _power_nodes(p: SystemParams, order: int = 64):
    """Gauss-Legendre nodes and weights for expectations over P_u."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    powers = p.rho * serving_distance_inverse_cdf(u, p) ** p.eta
    return powers, w


def _tail_exponent(s: float, coeff_of_power, p: SystemParams,
                   r_min: float = DISK_RADIUS_M) -> float:
    """PGFL exponent of the aggregate beyond r_min.

    2 pi lam int_{r_min}^inf E_P[ s c(P) x^-eta / (1 + s c(P) x^-eta) ] x dx
    where c(P) = coeff_of_power(P) is the per-point LT coefficient.
    """
    lam = p.lambda_per_m2
    powers, w = _power_nodes(p)
    coeffs = np.broadcast_to(
        np.asarray(coeff_of_power(powers), dtype=float), powers.shape)

    def integrand(x):
        t = s * coeffs * x ** (-p.eta)
        return float(np.sum(w * (t / (1.0 + t)))) * x

    val, _ = integrate.quad(integrand, r_min, np.inf,
                            epsabs=1e-14, epsrel=1e-10, limit=200)
    return 2.0 * math.pi * lam * val


def _mc_exp_mean(rng, n_patterns: int, mean_count: float, draw_contrib, s):
    """Mean and standard error of exp(-s Y) over Poisson patterns.

    Y sums h_i * contrib_i over the points of one pattern, h_i unit-mean
    exponential.  draw_contrib(rng, total) returns the per-point factors
    (zero meaning the point is thinned out).
    """
    acc = 0.0
    acc_sq = 0.0
    done = 0
    per_chunk = max(1, int(_CHUNK_POINTS / max(mean_count, 1.0)))
    while done < n_patterns:
        nb = min(per_chunk, n_patterns - done)
        counts = rng.poisson(mean_count, size=nb)
        total = int(counts.sum())
        owner = np.repeat(np.arange(nb), counts)
        contrib = draw_contrib(rng, total)
        h = rng.exponential(1.0, size=total)
        y = np.bincount(owner, weights=h * contrib, minlength=nb)
        vals = np.exp(-s * y)
        acc += float(vals.sum())
        acc_sq += float(vals @ vals)
        done += nb
    mean = acc / n_patterns
    var = max(acc_sq / n_patterns - mean * mean, 0.0)
    var *= n_patterns / max(n_patterns - 1, 1)
    return mean, math.sqrt(var / n_patterns)


def _disk_positions(rng, total: int):
    # floor keeps a point landing exactly at the origin from producing nan
    x = DISK_RADIUS_M * np.sqrt(rng.random(total))
    return np.maximum(x, 1e-9)


def lt_oracle_bs_on_uplink(s: float, factors: InterferenceFactors,
                           p: SystemParams, n_patterns: int, seed: int):
    """MC estimate of the BS-driven uplink interference LT: (value, se)."""
    rng = np.random.default_rng(seed)
    a = p.p_b * factors.i_du_sq / p.rho
    mean_count = p.lambda_per_m2 * math.pi * DISK_RADIUS_M ** 2

    def draw(rng, total):
        return a * _disk_positions(rng, total) ** (-p.eta)

    mean, se = _mc_exp_mean(rng, n_patterns, mean_count, draw, s)
    corr = math.exp(-_tail_exponent(s, lambda powers: a, p))
    return mean * corr, se * corr


def lt_oracle_ue_on_uplink(s: float, p: SystemParams,
                           n_patterns: int, seed: int):
    """MC estimate of the UE-driven uplink interference LT: (value, se).

    Each interferer carries its own serving distance; it contributes only
    if it lies beyond its inversion radius, else power control would have
    handed it to the tagged BS.
    """
    rng = np.random.default_rng(seed)
    mean_count = p.lambda_per_m2 * math.pi * DISK_RADIUS_M ** 2

    def draw(rng, total):
        x = _disk_positions(rng, total)
        r_serv = serving_distance_inverse_cdf(rng.random(total), p)
        return np.where(x > r_serv, r_serv ** p.eta * x ** (-p.eta), 0.0)

    mean, se = _mc_exp_mean(rng, n_patterns, mean_count, draw, s)
    corr = math.exp(-_tail_exponent(s, lambda powers: powers / p.rho, p))
    return mean * corr, se * corr


def lt_oracle_bs_on_downlink(s: float, r_o: float, p: SystemParams,
                             n_patterns: int, seed: int):
    """MC estimate of the other-BS downlink LT at serving distance r_o."""
    rng = np.random.default_rng(seed)
    area = math.pi * (DISK_RADIUS_M ** 2 - r_o ** 2)
    mean_count = p.lambda_per_m2 * area

    def draw(rng, total):
        u = rng.random(total)
        x = np.sqrt(r_o ** 2 + u * (DISK_RADIUS_M ** 2 - r_o ** 2))
        return (x / r_o) ** (-p.eta)

    mean, se = _mc_exp_mean(rng, n_patterns, mean_count, draw, s)
    corr = math.exp(-_tail_exponent(s, lambda powers: r_o ** p.eta, p))
    return mean * corr, se * corr


def lt_oracle_ue_on_downlink(s: float, r_o: float,
                             factors: InterferenceFactors, p: SystemParams,
                             n_patterns: int, seed: int):
    """MC estimate of the UE-driven downlink LT at serving distance r_o.

    Interfering UEs sit at their BSs' positions and are excluded inside
    their own inversion radius.
    """
    rng = np.random.default_rng(seed)
    mean_count = p.lambda_per_m2 * math.pi * DISK_RADIUS_M ** 2
    scale = factors.i_ud_sq * r_o ** p.eta / p.p_b

    def draw(rng, total):
        x = _disk_positions(rng, total)
        r_serv = serving_distance_inverse_cdf(rng.random(total), p)
        power = p.rho * r_serv ** p.eta
        return np.where(x > r_serv, scale * power * x ** (-p.eta), 0.0)

    mean, se = _mc_exp_mean(rng, n_patterns, mean_count, draw, s)
    corr = math.exp(-_tail_exponent(s, lambda powers: scale * powers, p))
    return mean * corr, se * corr


def hamdi_oracle_exp(omega1: float, omega2: float, b_const: float,
                     mean_y: float, n_samples: int, seed: int,
                     chunk: int = 5_000_000):
    """MC estimate of E[w1 erfc(sqrt(w2 x/(y+b)))]: (value, se).

    x is unit-mean exponential; y is exponential with the given mean, so
    its LT is 1/(1 + mean_y z).
    """
    rng = np.random.default_rng(seed)
    acc = 0.0
    acc_sq = 0.0
    done = 0
    while done < n_samples:
        nb = min(chunk, n_samples - done)
        x = rng.exponential(1.0, nb)
        y = rng.exponential(mean_y, nb)
        vals = omega1 * special.erfc(np.sqrt(omega2 * x / (y + b_const)))
        acc += float(vals.sum())
        acc_sq += float(vals @ vals)
        done += nb
    mean = acc / n_samples
    var = max(acc_sq / n_samples - mean * mean, 0.0)
    var *= n_samples / max(n_samples - 1, 1)
    return mean, math.sqrt(var / n_samples)


# ---------------------------------------------------------------------------
# Deterministic brute-force quadrature of the defining PGFL integrals.
# ---------------------------------------------------------------------------

def _serving_density_m(r, p: SystemParams):
    lam = p.lambda_per_m2
    c = math.pi * lam * max_inversion_radius_m(p) ** 2
    return (2.0 * math.pi * lam * r * np.exp(-math.pi * lam * r * r)
            / (-math.expm1(-c)))


def lt_brute_bs_on_uplink(s: float, factors: InterferenceFactors,
                          p: SystemParams) -> float:
    a = s * p.p_b * factors.i_du_sq / p.rho
    if a == 0.0:
        return 1.0

    def g(x):
        t = a * x ** (-p.eta)
        return (t / (1.0 + t)) * x

    val, _ = integrate.quad(g, 0.0, np.inf,
                            epsabs=1e-14, epsrel=1e-11, limit=200)
    return math.exp(-2.0 * math.pi * p.lambda_per_m2 * val)


def lt_brute_ue_on_uplink(s: float, p: SystemParams) -> float:
    r_max = max_inversion_radius_m(p)

    def inner(r_serv):
        c = s * r_serv ** p.eta

        def g(x):
            t = c * x ** (-p.eta)
            return (t / (1.0 + t)) * x

        val, _ = integrate.quad(g, r_serv, np.inf,
                                epsabs=1e-14, epsrel=1e-11, limit=200)
        return val * float(_serving_density_m(r_serv, p))

    outer, _ = integrate.quad(inner, 0.0, r_max,
                              epsabs=1e-14, epsrel=1e-10, limit=200)
    return math.exp(-2.0 * math.pi * p.lambda_per_m2 * outer)


def lt_brute_bs_on_downlink(s: float, r_o: float, p: SystemParams) -> float:
    def g(x):
        t = s * (x / r_o) ** (-p.eta)
        return (t / (1.0 + t)) * x

    val, _ = integrate.quad(g, r_o, np.inf,
                            epsabs=1e-14, epsrel=1e-11, limit=200)
    return math.exp(-2.0 * math.pi * p.lambda_per_m2 * val)


def lt_brute_ue_on_downlink(s: float, r_o: float,
                            factors: InterferenceFactors,
                            p: SystemParams) -> float:
    r_max = max_inversion_radius_m(p)
    base = s * factors.i_ud_sq * r_o ** p.eta / p.p_b
    if base == 0.0:
        return 1.0

    def inner(r_serv):
        c = base * p.rho * r_serv ** p.eta

        def g(x):
            t = c * x ** (-p.eta)
            return (t / (1.0 + t)) * x

        val, _ = integrate.quad(g, r_serv, np.inf,
                                epsabs=1e-14, epsrel=1e-11, limit=200)
        return val * float(_serving_density_m(r_serv, p))

    outer, _ = integrate.quad(inner, 0.0, r_max,
                              epsabs=1e-14, epsrel=1e-10, limit=200)
    return math.exp(-2.0 * math.pi * p.lambda_per_m2 * outer)


# ---------------------------------------------------------------------------
# Independent scipy evaluation of the assembled BER integrals.  Reuses the
# package's LT closed forms (validated separately above) but none of its
# quadrature machinery.
# ---------------------------------------------------------------------------

def laplace(exponent, *args):
    """exp(-exponent(*args)): the LT whose exponent one of the package's
    factories returned, e.g. ``laplace(_ue_on_uplink(p), s)``."""
    return np.exp(-exponent(*args))


def ber_uplink_scipy_reference(factors: InterferenceFactors,
                               p: SystemParams) -> float:
    from alphaduplex.analytic import _bs_on_uplink, _ue_on_uplink

    bs, ue = _bs_on_uplink(factors, p), _ue_on_uplink(p)
    w1, w2 = p.omega(Direction.UPLINK)
    sigma_sq = p.sigma_n_sq
    b_const = (p.beta * p.p_b * factors.i_su_sq + sigma_sq) / p.rho
    decay = 1.0 + b_const / w2

    def g(t):            # z = t^2 removes the 1/sqrt(z) endpoint
        z = t * t
        lt = laplace(bs, z / w2) * laplace(ue, z / w2)
        return 2.0 * lt * math.exp(-decay * z)

    val, _ = integrate.quad(g, 0.0, np.inf,
                            epsabs=1e-13, epsrel=1e-11, limit=200)
    return w1 - (w1 / math.sqrt(math.pi)) * val


def ber_downlink_scipy_reference(factors: InterferenceFactors,
                                 p: SystemParams) -> float:
    from alphaduplex.analytic import _bs_on_downlink, _ue_on_downlink

    bs, ue = _bs_on_downlink(p), _ue_on_downlink(factors, p)
    w1, w2 = p.omega(Direction.DOWNLINK)
    sigma_sq = p.sigma_n_sq
    r_max = max_inversion_radius_m(p)

    def averaged_lt(z):
        def g(r):
            b_r = (p.beta * p.rho * factors.i_sd_sq * r ** (2.0 * p.eta)
                   + sigma_sq * r ** p.eta) / p.p_b
            return (float(_serving_density_m(r, p))
                    * laplace(bs, z / w2, r)
                    * laplace(ue, z / w2, r)
                    * math.exp(-z * b_r / w2))

        val, _ = integrate.quad(g, 0.0, r_max,
                                epsabs=1e-13, epsrel=1e-9, limit=200)
        return val

    def outer(t):        # z = t^2
        z = t * t
        return 2.0 * averaged_lt(z) * math.exp(-z)

    val, _ = integrate.quad(outer, 0.0, 10.0,
                            epsabs=1e-12, epsrel=1e-9, limit=200)
    return w1 - (w1 / math.sqrt(math.pi)) * val


# ---------------------------------------------------------------------------
# eta = 4 closed forms: 2F1(1, 1/2; 3/2; -x) = arctan(sqrt x) / sqrt x in
# every transform, assembled by the package's public quadrature.
# ---------------------------------------------------------------------------

def ber_uplink_eta4_arctan(factors: InterferenceFactors,
                           p: SystemParams) -> float:
    assert p.eta == 4.0
    w1, w2 = p.omega(Direction.UPLINK)
    sigma_sq = p.sigma_n_sq
    b_const = (p.beta * p.p_b * factors.i_su_sq + sigma_sq) / p.rho
    e_sqrt_pu = uplink_power_moment(p)
    cross = 0.5 * math.pi * math.sqrt(p.p_b * factors.i_du_sq)
    pi_lam = math.pi * p.lambda_per_m2

    def lt(s):
        term = e_sqrt_pu * np.arctan(np.sqrt(s)) + cross
        return np.exp(-pi_lam * np.sqrt(s / p.rho) * term)

    return hamdi_average(lt, w1, w2, b_const)


def ber_downlink_eta4_arctan(factors: InterferenceFactors,
                             p: SystemParams) -> float:
    assert p.eta == 4.0
    w1, w2 = p.omega(Direction.DOWNLINK)
    sigma_sq = p.sigma_n_sq
    e_sqrt_pu = uplink_power_moment(p)
    pi_lam = math.pi * p.lambda_per_m2
    ud_scale = math.sqrt(factors.i_ud_sq / p.p_b)
    ud_arg = math.sqrt(p.rho * factors.i_ud_sq / p.p_b)
    inner_spec = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-14)

    def averaged_lt(z):
        s = z[:, None] / w2
        rt_s = np.sqrt(s)

        def g(r):
            ue_term = ud_scale * e_sqrt_pu * np.arctan(r ** 2 * rt_s * ud_arg)
            bs_term = np.arctan(rt_s)
            b_r = (p.beta * p.rho * factors.i_sd_sq * r ** 8
                   + sigma_sq * r ** 4) / p.p_b
            lt = np.exp(-pi_lam * rt_s * r ** 2 * (ue_term + bs_term))
            return _serving_density_m(r, p) * lt * np.exp(-s * b_r)

        return adaptive_quad(g, 0.0, max_inversion_radius_m(p), inner_spec)

    integral = integrate_semi_infinite(
        lambda z: averaged_lt(z) * np.exp(-z) / np.sqrt(z))
    return w1 - (w1 / math.sqrt(math.pi)) * integral


# ---------------------------------------------------------------------------
# UE placement one realization at a time: each rejection round asks the
# realization's k-d tree for the nearest BS of every candidate.
# ---------------------------------------------------------------------------

def sample_realization_per_round(p: SystemParams, cfg,
                                 realization_index: int) -> NetworkRealization:
    """One deployment, drawn exactly as ``sample_realization`` draws it."""
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(realization_index,)))
    area = cfg.region_side ** 2
    n_bs = int(rng.poisson(p.lambda_bs * area))
    if n_bs == 0:
        return NetworkRealization(np.empty((0, 2)), np.empty((0, 2)), np.empty(0),
                                  np.empty(0))
    bs = rng.random((n_bs, 2)) * cfg.region_side
    tree = cKDTree(bs)
    r_max_km = max_inversion_radius_m(p) / M_PER_KM
    r_draw = min(r_max_km, cfg.region_side * math.sqrt(2.0))

    ue = np.zeros((n_bs, 2))
    dist = np.zeros(n_bs)
    unserved = np.arange(n_bs)
    for _ in range(montecarlo._CANDIDATE_CAP):
        m = unserved.size
        radius = r_draw * np.sqrt(rng.random(m))
        angle = 2.0 * math.pi * rng.random(m)
        cand = bs[unserved] + np.column_stack(
            (radius * np.cos(angle), radius * np.sin(angle)))
        inside = np.all((cand >= 0.0) & (cand <= cfg.region_side), axis=1)
        _, nearest = tree.query(cand, distance_upper_bound=r_max_km * (1 + 1e-9))
        ok = inside & (nearest == unserved)
        won = unserved[ok]
        ue[won] = cand[ok]
        dist[won] = radius[ok]
        unserved = unserved[~ok]
        if unserved.size == 0:
            break
    else:
        raise StarvationError(
            f"{unserved.size} of {n_bs} BSs found no admissible UE within "
            f"{montecarlo._CANDIDATE_CAP} candidates each")

    tx = p.rho * (M_PER_KM * dist) ** p.eta
    return NetworkRealization(bs, ue, tx, dist)


# ---------------------------------------------------------------------------
# Per-link Monte Carlo link assembly: one link at a time, in the simulator's
# draw order (h0, then every other BS's gain, then every other UE's gain).
# ---------------------------------------------------------------------------

def _interference_sums(rx, own: int, real, p: SystemParams, rng):
    keep = np.arange(real.n_bs) != own
    h0 = float(rng.exponential())
    d_bs = M_PER_KM * np.linalg.norm(real.bs_positions[keep] - rx, axis=1)
    g_bs = rng.exponential(size=d_bs.size)
    bs_sum = p.p_b * float(np.sum(g_bs * d_bs ** -p.eta))
    d_ue = M_PER_KM * np.linalg.norm(real.ue_positions[keep] - rx, axis=1)
    g_ue = rng.exponential(size=d_ue.size)
    ue_sum = float(np.sum(real.tx_power[keep] * g_ue * d_ue ** -p.eta))
    return h0, bs_sum, ue_sum


def core_indices(pos, cfg) -> np.ndarray:
    """Rows of pos in the centred square of side cfg.core_side, edges in."""
    lo = (cfg.region_side - cfg.core_side) / 2
    hi = lo + cfg.core_side
    return np.array([i for i, (x, y) in enumerate(pos.tolist())
                     if lo <= x <= hi and lo <= y <= hi], dtype=np.intp)


def link_parts_per_link(real, p: SystemParams, cfg, rng):
    """Uplink then downlink link parts of one realization, link by link.

    Returns (ul, dl): ul rows are (h0, bs_sum, ue_sum) at each BS of the
    core window, dl rows are (h0, bs_sum, ue_sum, r_o_m, own_tx) at each
    active UE in it.
    """
    ul = [_interference_sums(real.bs_positions[b], b, real, p, rng)
          for b in core_indices(real.bs_positions, cfg)]
    dl = [_interference_sums(real.ue_positions[u], u, real, p, rng)
          + (M_PER_KM * real.serving_distance[u], float(real.tx_power[u]))
          for u in core_indices(real.ue_positions, cfg)]
    return np.reshape(ul, (-1, 3)), np.reshape(dl, (-1, 5))


def link_parts_out_of_place(rx_pos, tagged, real, p: SystemParams, rng):
    """``_link_parts`` as fresh-array expressions, g * (1000 d)^-eta.

    The reference for the in-place assembly: the same gain block, the same
    column compaction and the same operand order, every step a new array.
    """
    k, n = tagged.size, real.n_bs
    if k == 0:
        return np.empty(0), np.empty(0), np.empty(0)
    g = rng.standard_exponential(size=(k, 2 * n - 1))
    others = np.ones((k, n), dtype=bool)
    others[np.arange(k), tagged] = False

    def compact(block):
        return block[others].reshape(k, n - 1)

    def dist_m(pos):
        dx = pos[:, 0] - rx_pos[:, :1]
        dy = pos[:, 1] - rx_pos[:, 1:]
        return M_PER_KM * compact(np.sqrt(dx * dx + dy * dy))

    bs_terms = g[:, 1:n] * dist_m(real.bs_positions) ** -p.eta
    tx = compact(np.broadcast_to(real.tx_power, (k, n)))
    ue_terms = tx * g[:, n:] * dist_m(real.ue_positions) ** -p.eta
    return g[:, 0].copy(), p.p_b * np.sum(bs_terms, axis=1), np.sum(ue_terms, axis=1)


def spectrum(shape: PulseShape, f):
    """Pulse spectrum S(f), real-valued and even; scalar or ndarray ``f``.

    Rectangular time pulses give a sinc, triangular give a sinc^2, both
    scaled so the first nulls sit at +-allocated_band/2 and the in-band
    energy is 1.
    """
    f_arr = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(f_arr)):
        raise ValueError("f must be finite")
    out = pulse._sinc_power(pulse._peak(shape), shape.allocated_band,
                            shape.kind is PulseKind.TRIANGULAR, f_arr)
    return float(out) if out.ndim == 0 else out


def factor_per_lobe(victim: Direction, plan, pulse_u, pulse_d,
                    spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Correlation I_aggressor->victim, one ``adaptive_quad`` call per lobe.

    The victim band is cut at the nulls of the shifted aggressor spectrum,
    each lobe gets abs_tol / (number of lobes), and the lobe values are
    summed in band order as floats.
    """
    s_victim = pulse_u if victim is Direction.UPLINK else pulse_d
    s_aggr = pulse_d if victim is Direction.UPLINK else pulse_u
    offset = plan.carrier_offset
    if victim is Direction.DOWNLINK:
        offset = -offset
    half = 0.5 * s_victim.allocated_band
    edges = {-half, half}
    half_b = 0.5 * s_aggr.allocated_band
    for k in range(math.ceil((-half - offset) / half_b),
                   math.floor((half - offset) / half_b) + 1):
        null = offset + k * half_b
        if k != 0 and -half < null < half:
            edges.add(null)
    breakpoints = sorted(edges)

    def integrand(f):
        return spectrum(s_aggr, f - offset) * spectrum(s_victim, f)

    panel_spec = QuadratureSpec(
        rel_tol=spec.rel_tol,
        abs_tol=spec.abs_tol / max(1, len(breakpoints) - 1))
    total = 0.0
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        total += adaptive_quad(integrand, lo, hi, panel_spec)
    return total


def factors_per_lobe(plan, pulse_u, pulse_d) -> InterferenceFactors:
    """Both squared cross factors from ``factor_per_lobe``, clipped to [0, 1]."""
    sq = [min(max(t * t, 0.0), 1.0)
          for t in (factor_per_lobe(v, plan, pulse_u, pulse_d)
                    for v in (Direction.UPLINK, Direction.DOWNLINK))]
    return InterferenceFactors(*sq)


def factors_at(alpha: float, p: SystemParams = SystemParams(),
               pair: PulsePair = PulsePair()) -> InterferenceFactors:
    """The squared factors at one alpha, from ``interference_factor_grid``."""
    return pulse.interference_factor_grid(p.b_u, p.b_d, pair, [alpha])[0]


def factors_time_domain(b_u: float, b_d: float, pair: PulsePair, alpha: float,
                        n: int = 2 ** 18, symbols: int = 400) -> tuple[float, float]:
    """(|I_d->u|, |I_u->d|) at ``alpha`` from time-aligned pulses, by FFT.

    A band W carries a rectangle of length 2/W (a sinc with nulls at
    +-W/2) or a triangle of half-width 2/W (a sinc^2).  ``n`` samples span
    ``symbols`` times 2/min(b_u, b_d); each rectangle sample is the
    fraction of its cell the pulse covers, so an edge between samples does
    not move the nulls.  Each pulse is scaled to unit spectral energy
    inside its own band, the aggressor is shifted by the carrier offset in
    time, and the sum of its spectrum times the victim's over the victim's
    band is the matched filter's output at lag 0.  The FFT bin width
    cancels between that sum and the two energies.
    """
    b = min(b_u, b_d)
    bands = (b_u + alpha * b, b_d + alpha * b)
    offset = 0.5 * (b_u + b_d) - alpha * b   # f_d - f_u
    dt = symbols * 2.0 / b / n
    t = (np.arange(n) - n // 2) * dt
    f = np.fft.fftfreq(n, dt)

    def spectrum_td(kind, band, shift):
        width = 2.0 / band
        if kind is PulseKind.RECTANGULAR:
            half = 0.5 * width
            p = (np.clip(t + 0.5 * dt, -half, half)
                 - np.clip(t - 0.5 * dt, -half, half)) / dt
        else:
            p = np.clip(1.0 - np.abs(t) / width, 0.0, None)
        energy = np.sum(np.abs(np.fft.fft(p)[np.abs(f) <= 0.5 * band]) ** 2)
        shifted = p * np.exp(2j * np.pi * shift * t) / math.sqrt(energy)
        return np.fft.fft(np.fft.ifftshift(shifted))   # t = 0 at index 0

    kinds = (pair.uplink, pair.downlink)
    out = []
    for victim, shift in ((0, offset), (1, -offset)):
        aggr = 1 - victim
        s_a = spectrum_td(kinds[victim], bands[victim], 0.0)
        s_b = spectrum_td(kinds[aggr], bands[aggr], shift)
        in_band = np.abs(f) <= 0.5 * bands[victim]
        out.append(abs(np.vdot(s_a[in_band], s_b[in_band]).real))
    return out[0], out[1]
