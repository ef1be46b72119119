"""Squared-Bessel dynamics and the radial Dirichlet form.

The process dx = sqrt(2 x^+) dW + theta dt is simulated by full-truncation
Euler.  The one-dimensional form E^theta(f, g) = int t f' g' dlambda_theta,
its generator t f'' + theta f', the hypergeometric eigenfunctions, and
Monte-Carlo estimates of the measure-space Dirichlet form close the
radial-isomorphism loop.
"""

import math
from math import gamma as gamma_fn

import numpy as np

from . import _kernels
from .cylinders import CylinderFunction, OuterFunction, gradient, one_kernel
from .randmeas import lambda_window_mass, mlp_window_batch

__all__ = [
    "simulate_besq_batch",
    "hitting_prob",
    "empirical_hitting",
    "quadrature_E",
    "generator_symmetry",
    "hyp0f1",
    "hyp0f1_regularized",
    "bessel_ode_residual",
    "radial_form_mc",
    "dirichlet_form_mc",
    "RadialTestFunction",
    "smooth_bump_radial",
]


def simulate_besq_batch(theta, x0, T, dt, rng, n_paths):
    """Full-truncation Euler paths x <- max(x + sqrt(2 x^+) dW + theta dt, 0)
    as an (n_paths, n_steps + 1) array of states >= 0 (an F-ordered view of
    the time-major states), plus the time grid k dt, k = 0..n_steps, and the
    fraction of clipped steps (vanishes as dt -> 0 for x0 > 0, theta >= 1)."""
    if n_paths < 1:
        raise ValueError("need n_paths >= 1")
    if theta < 0 or x0 < 0:
        raise ValueError("theta and x0 must be >= 0")
    if dt <= 0 or dt > T / 10:
        raise ValueError("need 0 < dt <= T/10")
    n_steps = int(round(T / dt))
    normals = rng.standard_normal((n_paths, n_steps))
    paths, clipped = _kernels.euler_besq_paths(float(x0), float(theta), float(dt), normals)
    return paths, np.arange(n_steps + 1) * dt, clipped


def hitting_prob(theta, a, x, b):
    """P(hit a before b from x) = (s(b) - s(x)) / (s(b) - s(a)) with the
    scale function s' = t^{-theta} of the generator t f'' + theta f'.
    With k = 1 - theta, s(v) - s(u) = u^k expm1(k log(v/u)) / k, so the
    ratio is (x/a)^k expm1(k log(b/x)) / expm1(k log(b/a)): no difference
    of powers cancels near theta = 1, where it tends to the log-scale
    value log(b/x) / log(b/a)."""
    if not 0 < a < x < b:
        raise ValueError("need 0 < a < x < b")
    k, near, far = 1.0 - theta, math.log(b / x), math.log(b / a)
    if k == 0.0:
        return near / far
    return float((x / a) ** k * math.expm1(k * near) / math.expm1(k * far))


HITTING_SEGMENT_STEPS = 500  # Euler steps per block of normals drawn for the live paths
QUAD_RTOL = 1e-10  # relative error that _integrate refines its panels toward
QUAD_MAX_PANELS = 400  # panels _integrate may bisect the interval into
HYP0F1_MAX_TERMS = 500  # terms the 0F1 series may take before they give up


def empirical_hitting(theta, a, x, b, dt, n_paths, rng):
    """Fraction of Euler paths hitting a before b: segments of
    HITTING_SEGMENT_STEPS steps, each drawing normals only for the paths
    still alive, so resolved paths stop consuming budget; unresolved paths
    after time 200 count toward neither side and are reported."""
    if not 0 < a < x < b:
        raise ValueError("need 0 < a < x < b")
    states = np.full(n_paths, float(x))
    hits_a = 0
    hits_b = 0
    steps_left = int(round(200.0 / dt))
    while len(states) and steps_left > 0:
        n_seg = min(HITTING_SEGMENT_STEPS, steps_left)
        normals = rng.standard_normal((len(states), n_seg))
        out, final = _kernels.euler_besq_exit(
            states, float(theta), float(a), float(b), float(dt), normals
        )
        hits_a += int(np.sum(out == 0))
        hits_b += int(np.sum(out == 1))
        states = final[out == -1]
        steps_left -= n_seg
    return {"hit_a": hits_a, "hit_b": hits_b, "unresolved": len(states), "n": n_paths}


# 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK's qk21): the positive
# nodes, largest first, then 0, with their Kronrod weights; the nodes at odd
# indices are the 10-point Gauss nodes, with the Gauss weights below.  The
# Kronrod rule is exact for polynomials of degree 31, the Gauss rule for 19.
_GK21_NODES = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_GK21_KRONROD_WEIGHTS = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208626368000, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_GK21_GAUSS_WEIGHTS = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _gk21(f, lo, hi):
    """The 21-point Kronrod value of int_lo^hi f and its error estimate,
    the distance to the 10-point Gauss value on the same nodes."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    kronrod = _GK21_KRONROD_WEIGHTS[-1] * f(mid)
    gauss = 0.0
    for i, x in enumerate(_GK21_NODES[:-1]):
        pair = f(mid - half * x) + f(mid + half * x)
        kronrod += _GK21_KRONROD_WEIGHTS[i] * pair
        if i % 2:
            gauss += _GK21_GAUSS_WEIGHTS[i // 2] * pair
    return half * kronrod, abs(half * (kronrod - gauss))


def _integrate(f, lo, hi):
    """int_lo^hi f(t) dt for a scalar callable f, by adaptive Gauss-Kronrod:
    bisect the panel with the largest error estimate until the estimates sum
    to at most QUAD_RTOL |value| or QUAD_MAX_PANELS panels are used.  Raises
    RuntimeError if they still exceed 1e-8 |value|."""
    value, err = _gk21(f, lo, hi)
    panels = [(err, lo, hi, value)]
    while err > QUAD_RTOL * abs(value) and len(panels) < QUAD_MAX_PANELS:
        worst = max(panels)
        panels.remove(worst)
        _, a, b, _ = worst
        mid = 0.5 * (a + b)
        for left, right in ((a, mid), (mid, b)):
            v, e = _gk21(f, left, right)
            panels.append((e, left, right, v))
        value = math.fsum(p[3] for p in panels)
        err = math.fsum(p[0] for p in panels)
    if not err <= 1e-8 * abs(value):  # also refuses a nan
        raise RuntimeError(f"quadrature did not reach relative 1e-8 (err {err:.2e})")
    return float(value)


def quadrature_E(theta, chi_prime, cap):
    """E^theta(chi, chi) = int_0^cap t chi'(t)^2 t^{theta-1}/Gamma(theta) dt
    by _integrate: refined toward relative error QUAD_RTOL = 1e-10, and
    RuntimeError if the error estimate stays above relative 1e-8."""
    if cap <= 0:
        raise ValueError("domain cap must be positive")
    c = 1.0 / gamma_fn(theta)
    return _integrate(lambda t: c * t**theta * chi_prime(t) ** 2, 0.0, cap)


class RadialTestFunction:
    """Scalar function on (0, inf) with first and second derivatives."""

    __slots__ = ("f", "d1", "d2", "support")

    def __init__(self, f, d1, d2=None, support=(0.0, np.inf)):
        self.f = f
        self.d1 = d1
        self.d2 = d2
        self.support = support


def smooth_bump_radial(lo, hi):
    """C^inf bump on (lo, hi) with closed-form derivatives."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)

    def z(t):
        return (t - mid) / half

    def f(t):
        s = z(t)
        return np.exp(-1.0 / (1.0 - s * s)) if abs(s) < 1 else 0.0

    def d1(t):
        s = z(t)
        if abs(s) >= 1:
            return 0.0
        return f(t) * (-2.0 * s / (1.0 - s * s) ** 2) / half

    def d2(t):
        s = z(t)
        if abs(s) >= 1:
            return 0.0
        g = 1.0 - s * s
        # (e^{-1/g})''/e^{-1/g} = (6 s^4 - 2)/g^4, then chain rule through z
        return f(t) * (6.0 * s**4 - 2.0) / g**4 / half**2

    return RadialTestFunction(f, d1, d2, support=(lo, hi))


def generator_symmetry(theta, f, g):
    """Residual |E^theta(f, g) + int f (t g'' + theta g') dlambda_theta|;
    both integrals by _integrate over the joint support, which raises
    RuntimeError when either misses its tolerance."""
    lo = min(f.support[0], g.support[0])
    hi = max(f.support[1], g.support[1])
    if not (0 < lo < hi < np.inf):
        raise ValueError("supports must be compact inside (0, inf)")
    c = 1.0 / gamma_fn(theta)
    bilinear = _integrate(lambda t: c * t**theta * f.d1(t) * g.d1(t), lo, hi)
    against_generator = _integrate(
        lambda t: c * t ** (theta - 1.0) * f.f(t) * (t * g.d2(t) + theta * g.d1(t)), lo, hi
    )
    scale = max(abs(bilinear), abs(against_generator), 1.0)
    return abs(bilinear + against_generator), scale


def _series_sum(total, magnitudes):
    """A 0F1 series sum, unless it is not finite or its rounding bound
    exceeds 1e-8 of it (the alternating terms of a large negative z cancel).
    The bound is eps times magnitudes, the running sum of |partial sum| +
    |term|: at least one ulp of each partial sum and of each term."""
    bound = np.finfo(float).eps * magnitudes
    if not math.isfinite(total) or bound > 1e-8 * abs(total):
        raise RuntimeError(f"0F1 series lost its accuracy: sum {total:.3g}, rounding bound {bound:.3g}")
    return total


def hyp0f1(a, z):
    """0F1(; a; z) = sum_k z^k / (<a>_k k!) with term-ratio stopping; raises
    RuntimeError when the terms run out or the sum misses its accuracy."""
    if float(a) == int(a) and a <= 0:
        raise ValueError("parameter pole: a must avoid nonpositive integers")
    term = total = 1.0
    magnitudes = 0.0
    for k in range(1, HYP0F1_MAX_TERMS):
        term *= z / ((a + k - 1.0) * k)
        total += term
        magnitudes += abs(total) + abs(term)
        if abs(term) <= 1e-14 * max(abs(total), 1.0):
            return _series_sum(float(total), magnitudes)
    raise RuntimeError("0F1 series did not converge")


def _rgamma(x):
    """1/Gamma(x): 0 at the poles x = 0, -1, -2, ..., and exp(-lgamma(x))
    past x = 171.6, where Gamma(x) overflows a float."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    try:
        return 1.0 / math.gamma(x)
    except OverflowError:
        return math.exp(-math.lgamma(x))


def hyp0f1_regularized(a, z):
    """0Ftilde1(; a; z) = sum_k rgamma(a + k) z^k / k!; entire in a (the
    reciprocal-Gamma factors vanish at the poles).  Raises like hyp0f1."""
    if a < -170.0:
        raise ValueError("need a >= -170: 1/Gamma(a) overflows a float below it")
    total = magnitudes = 0.0
    zk = 1.0
    for k in range(HYP0F1_MAX_TERMS):
        term = _rgamma(a + k) * zk
        total += term
        magnitudes += abs(total) + abs(term)
        zk *= z / (k + 1.0)
        if k > 4 and abs(term) <= 1e-16 * max(abs(total), 1e-300) and abs(zk * _rgamma(a + k + 1)) <= 1e-16:
            return _series_sum(total, magnitudes)
    raise RuntimeError("0F1 series did not converge")


def bessel_ode_residual(theta, t, solution="first"):
    """Residual of t f'' + theta f' - f = 0 at t for the two hypergeometric
    solutions, with derivatives taken through the series."""
    if solution == "first":
        f = hyp0f1(theta, t)
        d1 = hyp0f1(theta + 1.0, t) / theta
        d2 = hyp0f1(theta + 2.0, t) / (theta * (theta + 1.0))
        return abs(t * d2 + theta * d1 - f)
    # f1(t) = t^p g(t), p = 1 - theta, g = 0Ftilde1(; 2-theta; t), g' = 0Ftilde1(; 3-theta; t)
    p = 1.0 - theta
    g0, g1, g2 = (hyp0f1_regularized(2.0 - theta + k, t) for k in range(3))
    f = t**p * g0
    d1 = p * t ** (p - 1.0) * g0 + t**p * g1
    d2 = p * (p - 1.0) * t ** (p - 2.0) * g0 + 2.0 * p * t ** (p - 1.0) * g1 + t**p * g2
    return abs(t * d2 + theta * d1 - f)


def _form_values(u, params, window, n, rng_seed):
    """Per-sample sum_j w_j (|hor_j|^2 + 4 ver_j^2) of u over the
    mass-windowed multiplicative Lebesgue law (one batched gradient call),
    and the largest horizontal component."""
    mu = mlp_window_batch(params, window, n, rng_seed)
    hor, ver = gradient(u, mu)
    vals = mu.row_sums(mu.atom_weights * (np.sum(hor * hor, axis=1) + 4.0 * ver**2))
    return vals, float(np.abs(hor).max(initial=0.0))


def radial_form_mc(theta, params, chi, window, n, rng_seed):
    """Monte-Carlo vs quadrature for the radial Dirichlet form.

    mc: one quarter of the measure-space form of u = chi(mass) estimated over
    the mass-windowed multiplicative Lebesgue law (the horizontal gradient of
    a radial function vanishes identically); quad: quadrature_E on (0, b).  chi' must
    be supported inside the window.
    """
    a, b = window
    if chi.support[0] < a or chi.support[1] > b:
        raise ValueError("chi' support must sit inside the mass window")
    u = CylinderFunction(
        OuterFunction(lambda v: 1.0, [lambda v: 0.0], 1),
        [one_kernel()],
        cutoff=lambda m: chi.f(m),
        cutoff_prime=lambda m: chi.d1(m),
    )
    vals, max_hor = _form_values(u, params, window, n, rng_seed)
    z = lambda_window_mass(theta, window)
    return {
        "mc": float(0.25 * z * vals.mean()),
        "se": float(0.25 * z * vals.std(ddof=1) / np.sqrt(n)),
        "quad": quadrature_E(theta, chi.d1, b),
        "max_horizontal": max_hor,
        "n": n,
    }


def dirichlet_form_mc(u, theta, params, window, n, rng_seed):
    """Monte-Carlo estimate of the measure-space Dirichlet form of u over the
    mass-windowed multiplicative Lebesgue law:

        E(u) ~ lambda_theta([a,b]) * mean of sum_j w_j (|hor_j|^2 + 4 ver_j^2).

    u must vanish outside the mass window (e.g. via a truncation factor)."""
    vals, _ = _form_values(u, params, window, n, rng_seed)
    z = lambda_window_mass(theta, window)
    return float(z * vals.mean()), float(z * vals.std(ddof=1) / np.sqrt(n))
