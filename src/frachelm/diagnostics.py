"""Quantitative verification harness for the analytic claims.

Rate checks evaluate a designated part of the fundamental solution on a log
grid and form value * r^rate products.  ``envelope_bounded`` is a bound check,
not a sharpness check: it fails only when the product grows systematically
toward the asymptotic end (max over the window exceeding ``DRIFT_FACTOR``
times the product at the benign end).  The two-sided max/min ratio is also
reported for rows with sharp rates, where it powers the negative controls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, is_count, is_real, is_real_kind
from .green import green_eval_batch, green_radial_derivative
from .quadrature import DEFAULT_SPEC
from .scattering import volume_potential
from .specfun import gauss_panels, hankel1_0, hankel1_1

DRIFT_FACTOR = 100.0
GSRC_TAIL_FRACTION = 0.05
_PROFILE_POINTS = 7    # log-spaced radii of a radiation profile; shells between them


@dataclass
class RateFit:
    """Product diagnostics for one claimed asymptotic rate."""

    radii: np.ndarray
    values: np.ndarray
    claimed_rate: float
    fitted_slope: float
    growth_ratio: float      # max(product) / product at the benign end
    drift_ratio: float       # max(product) / min(product), two-sided
    envelope_bounded: bool


@dataclass
class RadiationReport:
    src_profile: list
    gsrc_partial: list
    delta: float
    verdict_src: bool
    verdict_gsrc: bool


def _rate_values(p, part, r_window, top, claimed_rate, n_points, spec):
    """(radii, |part(r)|, |part(r)| r^claimed_rate) on a log grid between the
    ends of r_window, a 1-D sequence of at least two finite numbers with
    0 < rmin < rmax <= top."""
    try:
        w = np.asarray(r_window, dtype=float)
    except (TypeError, ValueError):
        w = np.empty(0)
    if not (w.ndim == 1 and w.size >= 2 and np.all(np.isfinite(w)) and 0.0 < w[0] < w[-1] <= top):
        raise DomainError("r_window must be a 1-D sequence of at least two finite numbers with "
                          f"0 < rmin < rmax <= {top}, got {r_window!r}")
    if part not in ("j_tail", "nonhelm_total"):
        raise DomainError(f"unknown part {part!r}; use 'j_tail' or 'nonhelm_total'")
    if not (is_count(n_points) and n_points >= 2) or not np.isfinite(claimed_rate):
        raise DomainError("rate checks need an integer n_points >= 2 and a finite claimed_rate")
    radii = np.logspace(np.log10(w[0]), np.log10(w[-1]), n_points)
    helm, riesz, jt, _ = green_eval_batch(p, 0.0, radii, spec)
    values = np.abs(jt if part == "j_tail" else riesz + jt)
    return radii, values, values * radii ** claimed_rate


def _rate_fit(radii, values, claimed_rate, product, anchor_index):
    slope = float(np.polyfit(np.log(radii), np.log(np.maximum(values, 1e-300)), 1)[0])
    growth = float(np.max(product) / product[anchor_index])
    drift = float(np.max(product) / np.min(product))
    return RateFit(radii, values, float(claimed_rate), slope, growth, drift,
                   bool(growth <= DRIFT_FACTOR))


def decay_rate_check(p, part, r_window, claimed_rate, spec=DEFAULT_SPEC, n_points=13):
    """Check |part(r)| <= C / r^claimed_rate over a far-field window."""
    radii, values, product = _rate_values(p, part, r_window, np.inf, claimed_rate, n_points, spec)
    return _rate_fit(radii, values, claimed_rate, product, 0)


def singularity_rate_check(p, part, r_window, claimed_rate, spec=DEFAULT_SPEC,
                           n_points=11, log_correction=False):
    """Check |part(r)| <= C / r^claimed_rate (or C |ln r| when log-corrected)
    over a window shrinking to 0; the benign anchor is the largest radius."""
    radii, values, product = _rate_values(p, part, r_window, 0.5, claimed_rate, n_points, spec)
    if log_correction:
        product = product / (-np.log(radii))
    return _rate_fit(radii, values, claimed_rate, product, len(radii) - 1)


# ---------------------------------------------------------------------------
# Radiation-condition classification
# ---------------------------------------------------------------------------

@dataclass
class RadialField:
    """A radial field in n dimensions: value_fn and deriv_fn map a 1-D array
    of radii to u(r) and du/dr."""

    n: int
    value_fn: callable
    deriv_fn: callable


def hankel_outgoing_field(k):
    """H0^(1)(k r) on the plane: the reference outgoing test field."""
    return RadialField(2, lambda r: hankel1_0(k * r), lambda r: -k * hankel1_1(k * r))


def hankel_incoming_field(k):
    """H0^(2)(k r): the incoming control (fails both radiation conditions)."""
    return RadialField(2, lambda r: np.conj(hankel1_0(k * r)),
                       lambda r: np.conj(-k * hankel1_1(k * r)))


def green_radial_field(p, spec=DEFAULT_SPEC):
    """The assembled fundamental solution as a radial test field; as in
    ``src_residual``, G and dG/dr both run at spec."""
    def value(r):
        helm, riesz, jt, _ = green_eval_batch(p, 0.0, r, spec)
        return helm + riesz + jt
    return RadialField(p.n, value, lambda r: green_radial_derivative(p, 0.0, r, spec))


def _surface_measure(n, r):
    return {1: 2.0, 2: 2.0 * np.pi * r, 3: 4.0 * np.pi * r ** 2}[n]


def radiation_classify(field, k, r0, r_max, delta):
    """Classify a radial field against both radiation conditions.

    src verdict: the profile r^{(n-1)/2} |d_r u - i k u| decays below 0.1 of
    its first value.  gsrc verdict: the cumulative weighted annulus integrals
    with weight (1+r^2)^{delta-1} are Cauchy-converging (last shell adds less
    than ``GSRC_TAIL_FRACTION`` of the total).  The field is evaluated once,
    at the 7 profile radii and the 6-point Gauss nodes of every shell together.
    """
    if not isinstance(field, RadialField) or field.n not in (1, 2, 3):
        raise DomainError("radiation_classify requires a RadialField with n in {1, 2, 3}")
    if not (is_real(delta) and 0.5 < delta < 1.0):
        raise DomainError(f"delta must lie in (1/2, 1), got {delta!r}")
    if not (is_real(r0) and is_real(r_max) and 0.0 < r0 < r_max < np.inf):
        raise DomainError(f"need real 0 < R0 < R_max < inf, got {r0!r}, {r_max!r}")
    if not (is_real(k) and 0.0 < k < np.inf):
        raise DomainError(f"k must be one finite positive number, got {k!r}")
    n = field.n
    radii = np.logspace(np.log10(r0), np.log10(r_max), _PROFILE_POINTS)
    nodes, w = gauss_panels(radii, 6)
    r = np.concatenate([radii, nodes])
    res_sq = np.abs(field.deriv_fn(r) - 1j * k * field.value_fn(r)) ** 2
    profile = radii ** ((n - 1) / 2.0) * np.sqrt(res_sq[:radii.size])
    terms = w * res_sq[radii.size:] * (1.0 + nodes ** 2) ** (delta - 1.0) \
        * _surface_measure(n, nodes)
    total = np.cumsum(terms.reshape(radii.size - 1, -1).sum(axis=1))
    last = np.diff(total, prepend=0.0)[-1]
    return RadiationReport(
        [(float(a), float(b)) for a, b in zip(radii, profile)],
        [(float(a), float(b)) for a, b in zip(radii[1:], total)], float(delta),
        bool(profile[-1] < 0.1 * profile[0]),
        bool(last < GSRC_TAIL_FRACTION * max(total[-1], 1e-300)))


# ---------------------------------------------------------------------------
# Limiting-absorption slope
# ---------------------------------------------------------------------------

def lap_slope(p, r, eps_list, spec=DEFAULT_SPEC):
    """Log-log slope of |G^{k_eps}(r) - G^k(r)| against eps."""
    return lap_differences(p, r, eps_list, spec)[0]


def lap_differences(p, r, eps_list, spec=DEFAULT_SPEC):
    """(log-log slope against eps, |G^{k_eps}(r) - G^k(r)| per eps), from one
    Green call at r that takes eps = 0 and every eps as its shifts."""
    if np.ndim(r) != 0 or not (is_real_kind(r) and is_real_kind(eps_list)):
        raise DomainError(f"lap_differences takes one real radius and real eps, got {r!r}")
    eps = np.asarray(eps_list, dtype=float)
    if eps.ndim != 1 or eps.size < 2 or np.any(np.diff(eps) >= 0.0) or np.any(eps <= 0.0):
        raise DomainError("eps_list must be a 1-D array, positive and strictly decreasing")
    shifts = np.r_[0.0, eps]
    helm, riesz, jt, err = green_eval_batch(p, shifts, np.full(shifts.size, float(r)), spec)
    total = helm + riesz + jt
    diffs = np.abs(total[1:] - total[0])
    for e, d, ge in zip(eps, diffs, err[1:]):
        if d < 10.0 * (ge + err[0]):
            raise AccuracyError(
                f"absorption difference at eps={e} is below 10x the quadrature "
                "error estimate; slope would be inconclusive", value=float(d))
    return float(np.polyfit(np.log(eps), np.log(diffs), 1)[0]), diffs


# ---------------------------------------------------------------------------
# Weighted-norm convolution check
# ---------------------------------------------------------------------------

def convolution_norm_check(p, source, delta, truncation_radius, spec=DEFAULT_SPEC):
    """Ratio ||G * f||_{L^{2,-delta}} / ||f||_{L^2} on a truncated sample grid.

    `source` is a PotentialGrid whose q_values play the role of f.  The
    convolution is sampled on a uniform grid of the source's largest cell
    size out to the truncation radius (half-integer multiples of the spacing,
    so on a symmetric box with an even cell count samples can fall on source
    nodes, which the shared near weights of the solver handle) and the
    weighted norm accumulated discretely.  All m samples share one
    ``volume_potential`` call, which holds at most 2^17 of its m N weight
    rows (N source cells) at once, so memory does not grow with m.
    """
    if not (is_real(delta) and 0.5 < delta < 1.0):
        raise DomainError(f"delta must lie in (1/2, 1), got {delta!r}")
    if not (is_real(truncation_radius) and 0.0 < truncation_radius < np.inf):
        raise DomainError("truncation_radius must be positive and finite, "
                          f"got {truncation_radius!r}")
    n = p.n
    if source.dim != n:
        raise DomainError("source grid dimension mismatch")
    f = source.q_values
    den = np.sqrt(np.sum(np.abs(f) ** 2) * source.cell_volume)
    if den == 0.0:
        raise DomainError("source is identically zero")
    h = float(np.max(source.cell_sizes))
    m = int(np.ceil(truncation_radius / h))
    axes = [(-m + 0.5 + np.arange(2 * m)) * h for _ in range(n)]
    grids = np.meshgrid(*axes, indexing="ij")
    samples = np.stack([g.ravel() for g in grids], axis=1)
    conv = volume_potential(p, source, f, samples, spec)
    acc = np.sum(np.abs(conv) ** 2 * (1.0 + np.sum(samples ** 2, axis=1)) ** (-delta))
    num = np.sqrt(acc * h ** n)
    return float(num / den)
