"""Squared-Bessel dynamics and the radial Dirichlet form.

The process dx = sqrt(2 x^+) dW + theta dt is simulated by full-truncation
Euler (an exact-transition sampler through the Poisson-Gamma mixture serves
as a moment oracle).  The one-dimensional form E^theta(f, g) =
int t f' g' dlambda_theta, its generator t f'' + theta f', the
hypergeometric eigenfunctions, and Monte-Carlo estimates of the
measure-space Dirichlet form close the radial-isomorphism loop.
"""

from math import gamma as gamma_fn

import numpy as np
from scipy.integrate import quad
from scipy.special import rgamma

from . import _kernels
from .cylinders import CylinderFunction, OuterFunction, gradient, one_kernel
from .randmeas import lambda_window_mass, mlp_window_batch

__all__ = [
    "BesselPath",
    "simulate_besq",
    "simulate_besq_batch",
    "besq_exact_terminal",
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
]


class BesselPath:
    """Time grid and state trajectory of one squared-Bessel path."""

    __slots__ = ("t_grid", "x", "theta", "scheme", "clipped_fraction")

    def __init__(self, t_grid, x, theta, scheme, clipped_fraction=0.0):
        t_grid = np.asarray(t_grid, dtype=float)
        x = np.asarray(x, dtype=float)
        if t_grid.shape != x.shape:
            raise ValueError("t_grid and x must have equal length")
        if t_grid[0] != 0.0 or np.any(np.diff(t_grid) <= 0):
            raise ValueError("t_grid must strictly increase from 0")
        if np.any(x < 0):
            raise ValueError("squared-Bessel states must be >= 0")
        self.t_grid = t_grid
        self.x = x
        self.theta = float(theta)
        self.scheme = scheme
        self.clipped_fraction = float(clipped_fraction)


def simulate_besq(theta, x0, T, dt, rng):
    """One full-truncation Euler path: x <- max(x + sqrt(2 x^+) dW + theta dt, 0)."""
    paths, t_grid, clipped = simulate_besq_batch(theta, x0, T, dt, rng, n_paths=1)
    return BesselPath(t_grid, paths[0], theta, "euler-full-truncation", clipped)


def simulate_besq_batch(theta, x0, T, dt, rng, n_paths):
    """Euler paths as an (n_paths, n_steps + 1) array plus the time grid and
    the fraction of clipped steps (vanishes as dt -> 0 for x0 > 0, theta >= 1)."""
    if theta < 0 or x0 < 0:
        raise ValueError("theta and x0 must be >= 0")
    if dt <= 0 or dt > T / 10:
        raise ValueError("need 0 < dt <= T/10")
    n_steps = int(round(T / dt))
    normals = rng.standard_normal((n_paths, n_steps))
    paths, clipped = _kernels.euler_besq_paths(float(x0), float(theta), float(dt), normals)
    return paths, np.arange(n_steps + 1) * dt, clipped


def besq_exact_terminal(theta, x0, t, rng, n):
    """Exact draws of x_t via the time-changed standard squared Bessel of
    dimension 2 theta: x_t = y_{t/2}, y_s ~ s * chi'^2(2 theta, x0/s), sampled
    as a Poisson(x0/(2s)) mixture of Gamma(theta + N, 2) variables."""
    s = t / 2.0
    lam = x0 / s
    pois = rng.poisson(lam / 2.0, size=n)
    return s * rng.gamma(theta + pois, 2.0)


def _scale_function(theta, t):
    if theta == 1.0:
        return np.log(t)
    return t ** (1.0 - theta) / (1.0 - theta)


def hitting_prob(theta, a, x, b):
    """P(hit a before b from x) = (s(b) - s(x)) / (s(b) - s(a)) with the
    scale function s' = t^{-theta} of the generator t f'' + theta f'."""
    if not 0 < a < x < b:
        raise ValueError("need 0 < a < x < b")
    sa, sx, sb = (_scale_function(theta, v) for v in (a, x, b))
    return float((sb - sx) / (sb - sa))


HITTING_SEGMENT_STEPS = 500  # Euler steps per block of normals drawn for the live paths


def empirical_hitting(theta, a, x, b, dt, n_paths, rng, t_max=200.0):
    """Fraction of Euler paths hitting a before b: segments of
    HITTING_SEGMENT_STEPS steps, each drawing normals only for the paths
    still alive, so resolved paths stop consuming budget; unresolved paths
    after t_max count toward neither side and are reported."""
    states = np.full(n_paths, float(x))
    hits_a = 0
    hits_b = 0
    steps_left = int(round(t_max / dt))
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


def quadrature_E(theta, chi_prime, cap, rtol=1e-10):
    """E^theta(chi, chi) = int_0^cap t chi'(t)^2 t^{theta-1}/Gamma(theta) dt
    by adaptive quadrature to relative 1e-8 or better."""
    if cap <= 0:
        raise ValueError("domain cap must be positive")
    c = 1.0 / gamma_fn(theta)

    def integrand(t):
        return c * t**theta * chi_prime(t) ** 2

    val, err = quad(integrand, 0.0, cap, epsabs=0.0, epsrel=rtol, limit=400)
    if val != 0.0 and err > 1e-8 * abs(val):
        raise RuntimeError(f"quadrature did not reach relative 1e-8 (err {err:.2e})")
    return float(val)


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


def generator_symmetry(theta, f, g, rtol=1e-10):
    """Residual |E^theta(f, g) + int f (t g'' + theta g') dlambda_theta|;
    both integrals by adaptive quadrature over the joint support."""
    lo = min(f.support[0], g.support[0])
    hi = max(f.support[1], g.support[1])
    if not (0 < lo < hi < np.inf):
        raise ValueError("supports must be compact inside (0, inf)")
    c = 1.0 / gamma_fn(theta)
    bilinear, _ = quad(
        lambda t: c * t**theta * f.d1(t) * g.d1(t), lo, hi, epsabs=0.0, epsrel=rtol, limit=400
    )
    against_generator, _ = quad(
        lambda t: c * t ** (theta - 1.0) * f.f(t) * (t * g.d2(t) + theta * g.d1(t)),
        lo,
        hi,
        epsabs=0.0,
        epsrel=rtol,
        limit=400,
    )
    scale = max(abs(bilinear), abs(against_generator), 1.0)
    return abs(bilinear + against_generator), scale


def hyp0f1(a, z, tol=1e-14, max_terms=500):
    """0F1(; a; z) = sum_k z^k / (<a>_k k!) with term-ratio stopping."""
    if float(a) == int(a) and a <= 0:
        raise ValueError("parameter pole: a must avoid nonpositive integers")
    term = 1.0
    total = 1.0
    for k in range(1, max_terms):
        term *= z / ((a + k - 1.0) * k)
        total += term
        if abs(term) <= tol * max(abs(total), 1.0):
            return float(total)
    raise RuntimeError("0F1 series did not converge")


def hyp0f1_regularized(a, z, tol=1e-16, max_terms=500):
    """0Ftilde1(; a; z) = sum_k rgamma(a + k) z^k / k!; entire in a (the
    reciprocal-Gamma factors vanish at the poles)."""
    total = 0.0
    zk = 1.0
    for k in range(max_terms):
        term = rgamma(a + k) * zk
        total += term
        zk *= z / (k + 1.0)
        if k > 4 and abs(term) <= tol * max(abs(total), 1e-300) and abs(zk * rgamma(a + k + 1)) <= tol:
            break
    return float(total)


def bessel_ode_residual(theta, t, solution="first"):
    """Residual of t f'' + theta f' - f = 0 at t for the two hypergeometric
    solutions, with derivatives taken through the series."""
    if solution == "first":
        f = hyp0f1(theta, t)
        d1 = hyp0f1(theta + 1.0, t) / theta
        d2 = hyp0f1(theta + 2.0, t) / (theta * (theta + 1.0))
        return abs(t * d2 + theta * d1 - f)
    # f1(t) = t^{1-theta} 0Ftilde1(; 2-theta; t): differentiate the series
    # sum_k rgamma(2 - theta + k) t^{1-theta+k} / k! term by term
    val = d1 = d2 = 0.0
    inv_fact = 1.0
    for k in range(400):
        c = rgamma(2.0 - theta + k) * inv_fact
        p = 1.0 - theta + k
        val += c * t**p
        d1 += c * p * t ** (p - 1.0)
        d2 += c * p * (p - 1.0) * t ** (p - 2.0)
        inv_fact /= k + 1.0
        if k > 6 and abs(c) * max(t**p, 1.0) < 1e-18 * max(abs(val), 1e-10):
            break
    return abs(t * d2 + theta * d1 - val)


def _form_values(u, params, window, n, rng_seed):
    """Per-sample sum_j w_j (|hor_j|^2 + 4 ver_j^2) of u over the
    mass-windowed multiplicative Lebesgue law (one batched gradient call),
    and the largest horizontal component."""
    mu = mlp_window_batch(params, window, n, rng_seed).measures
    hor, ver = gradient(u, mu)
    vals = mu.row_sums(mu.atom_weights * (np.sum(hor * hor, axis=1) + 4.0 * ver**2))
    return vals, float(np.abs(hor).max(initial=0.0))


def radial_form_mc(theta, params, chi, window, n, rng_seed, cap=None):
    """Monte-Carlo vs quadrature for the radial Dirichlet form.

    mc: one quarter of the measure-space form of u = chi(mass) estimated over
    the mass-windowed multiplicative Lebesgue law (the horizontal gradient of
    a radial function vanishes identically); quad: quadrature_E.  chi' must
    be supported inside the window.
    """
    a, b = window
    if chi.support[0] < a or chi.support[1] > b:
        raise ValueError("chi' support must sit inside the mass window")
    if cap is None:
        cap = b
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
        "quad": quadrature_E(theta, chi.d1, cap),
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
