"""Cylinder functions on measures and their horizontal/vertical calculus.

A cylinder function is u(mu) = chi(mu M) * F(f_1*mu, ..., f_k*mu) built from
an outer function, an optional smooth mass cutoff, and inner kernels that are
either plain fields f(x) or extended fields f(s, x) evaluated at the atom
masses s = mu_x.  The gradient splits into a horizontal (transport) vector
and a vertical (reaction) scalar per atom; the tangent norm weights the
vertical part by 4.
"""

import numpy as np

from .measures import DiscreteMeasure, hellinger_sq, wasserstein_sq
from .let import hk_sq
from .randmeas import MeasureBatch

__all__ = [
    "ScalarField",
    "OuterFunction",
    "sum_outer",
    "poly_outer",
    "CylinderFunction",
    "evaluate",
    "gradient",
    "tangent_norm_14",
    "tangent_pairing",
    "perturbation_derivative",
    "slope_probe",
    "analytic_slope",
    "truncation",
    "truncation_profile",
    "truncation_profile_prime",
    "linear_lip_bound",
    "linear_cylinder",
    "multiply",
    "compose",
    "perturb_measure",
    "gauss_kernel",
    "bump_kernel",
    "coordinate_kernel",
    "one_kernel",
    "mass_kernel_extended",
]

RICHARDSON_STEPS = np.array([1e-2, 5e-3, 2.5e-3])  # perturbation_derivative's steps, largest first
HK_TOL = 1e-9  # LET tolerance of the HK distances in slope_probe and linear_lip_bound


class ScalarField:
    """Inner kernel: plain f(x), or extended f(s, x) when the mass
    derivative ds(s, x) is given, with its derivatives.

    Evaluators are vectorized over atom arrays: fn(points) or fn(s, points),
    returning one value per atom; gradients return (n, d) arrays.  lip and
    sup are declared constants for the Lipschitz estimate.
    """

    __slots__ = ("fn", "grad", "ds", "lip", "sup")

    def __init__(self, fn, grad, ds=None, lip=None, sup=None):
        self.fn = fn
        self.grad = grad
        self.ds = ds
        self.lip = lip
        self.sup = sup

    def values(self, weights, points):
        if self.ds is None:
            return np.asarray(self.fn(points), dtype=float)
        return np.asarray(self.fn(weights, points), dtype=float)

    def gradients(self, weights, points):
        if self.ds is None:
            return np.asarray(self.grad(points), dtype=float)
        return np.asarray(self.grad(weights, points), dtype=float)

    def mass_derivative(self, weights, points):
        if self.ds is None:
            return np.zeros(len(weights))
        return np.asarray(self.ds(weights, points), dtype=float)


class OuterFunction:
    """F: R^k -> R with partial derivatives, applied to kernel integrals."""

    __slots__ = ("value", "partials", "arity")

    def __init__(self, value, partials, arity):
        self.value = value
        self.partials = partials
        self.arity = arity


def _identity_outer():
    return OuterFunction(lambda a: a[0], [lambda a: 1.0], 1)


def sum_outer(k):
    return OuterFunction(
        lambda a: float(np.sum(a)), [(lambda a: 1.0) for _ in range(k)], k
    )


def poly_outer(coeffs):
    """Univariate polynomial outer: F(a) = sum_j coeffs[j] a^j."""
    coeffs = np.asarray(coeffs, dtype=float)
    dcoeffs = coeffs[1:] * np.arange(1, len(coeffs))

    def val(a):
        return float(np.polynomial.polynomial.polyval(a[0], coeffs))

    def dval(a):
        return float(np.polynomial.polynomial.polyval(a[0], dcoeffs))

    return OuterFunction(val, [dval], 1)


class CylinderFunction:
    """chi(mu M) * F(kernel integrals); houses plain and extended kernels."""

    __slots__ = ("outer", "kernels", "cutoff", "cutoff_prime")

    def __init__(self, outer, kernels, cutoff=None, cutoff_prime=None):
        if outer.arity != len(kernels):
            raise ValueError("outer arity must match the number of kernels")
        if (cutoff is None) != (cutoff_prime is None):
            raise ValueError("cutoff and cutoff_prime come together")
        self.outer = outer
        self.kernels = list(kernels)
        self.cutoff = cutoff
        self.cutoff_prime = cutoff_prime

    def kernel_integrals(self, mu):
        return _kernel_terms(self, _as_batch(mu))[1][0]


def _as_batch(mu):
    """A MeasureBatch as it is; a DiscreteMeasure as the one-row batch."""
    return mu if isinstance(mu, MeasureBatch) else MeasureBatch(mu.points[None], mu.weights[None])


def _kernel_terms(u, batch):
    """Kernel values at the atoms (k, m) and the kernel integrals (n, k)."""
    w, p = batch.atom_weights, batch.atom_points
    vals = np.reshape([kern.values(w, p) for kern in u.kernels], (len(u.kernels), len(w)))
    return vals, batch.row_sums((vals * w).T)


def _per_measure(fn, args):
    """A scalar callable (outer function, partial or cutoff) at each measure."""
    return np.array([fn(a) for a in args], dtype=float)


def evaluate(u, mu):
    """u(mu) = chi(mu M) * F(f*mu); extended kernels receive the atom masses."""
    val = u.outer.value(u.kernel_integrals(mu))
    if u.cutoff is not None:
        val *= u.cutoff(mu.mass)
    return float(val)


def gradient(u, mu):
    """Per-atom horizontal vectors and vertical scalars of the gradient.

    hor_j = chi * sum_i dF_i * grad f_i(mu_x, x_j)
    ver_j = chi * sum_i dF_i * (f_i(mu_x, x_j) + mu_x f_i'(mu_x, x_j))
            + chi'(mu M) * F

    mu is a DiscreteMeasure, giving hor (n, d) and ver (n,) aligned with its
    atoms, or a MeasureBatch, giving them over the batch's positive-weight
    atoms (atom_points, measure ids rows).  Kernels are called once on all
    atoms of the batch; the outer function, its partials and the cutoff
    keep their scalar contract and are called once per measure.
    """
    batch = _as_batch(mu)
    w, p = batch.atom_weights, batch.atom_points
    vals, args = _kernel_terms(u, batch)
    hor = np.zeros((len(w), batch.dim))
    ver = np.zeros(len(w))
    masses = batch.masses
    chi = _per_measure(u.cutoff, masses) if u.cutoff is not None else np.ones(len(batch))
    for i, kern in enumerate(u.kernels):
        di = _per_measure(u.outer.partials[i], args)
        if not di.any():
            continue
        di = (chi * di)[batch.rows]
        hor += di[:, None] * kern.gradients(w, p)
        ver += di * (vals[i] + w * kern.mass_derivative(w, p))
    if u.cutoff is not None:
        fval = _per_measure(u.outer.value, args)
        ver += (_per_measure(u.cutoff_prime, masses) * fval)[batch.rows]
    return hor, ver


def tangent_norm_14(grad, mu):
    """sqrt( sum_j w_j (|hor_j|^2 + 4 ver_j^2) ), the T^{1,4} gradient norm."""
    hor, ver = grad
    if hor.shape[0] != len(mu) or ver.shape[0] != len(mu):
        raise ValueError("gradient arrays are not aligned with the atoms")
    return float(np.sqrt(np.sum(mu.weights * (np.sum(hor * hor, axis=1) + 4.0 * ver**2))))


def perturb_measure(mu, t1, t2, t, vertical_factor=1.0):
    """Translate atoms by t*T1 and reweight by (1 + vertical_factor*t*T2)^2."""
    scale = 1.0 + vertical_factor * t * np.asarray(t2, dtype=float)
    if np.any(scale <= 0):
        raise ValueError("reweighting factor crossed zero; shrink the radius")
    return DiscreteMeasure(
        mu.points + t * np.atleast_2d(t1), mu.weights * scale**2, dim=mu.dim
    )


def perturbation_derivative(u, mu, t1, t2):
    """Richardson-extrapolated derivative of t -> u(exp(tT1)_#((1+tT2)^2 mu))
    from central differences at the RICHARDSON_STEPS.

    Matches the tangent pairing <grad u, (T1, 2 T2)>_{T_mu}."""
    d = np.array(
        [
            (evaluate(u, perturb_measure(mu, t1, t2, h)) - evaluate(u, perturb_measure(mu, t1, t2, -h)))
            / (2 * h)
            for h in RICHARDSON_STEPS
        ]
    )
    # Neville table in h^2 (central differences have even error expansion)
    x = RICHARDSON_STEPS**2
    tab = d.copy()
    for lvl in range(1, len(d)):
        tab[lvl:] = (
            tab[lvl:] * x[: len(x) - lvl] - tab[lvl - 1 : -1] * x[lvl:]
        ) / (x[: len(x) - lvl] - x[lvl:])
    return float(tab[-1])


def tangent_pairing(grad, mu, t1, t2):
    """<grad, (T1, 2 T2)>_{T_mu} = sum w (hor . T1 + 2 ver T2)."""
    hor, ver = grad
    return float(
        np.sum(mu.weights * (np.sum(hor * np.atleast_2d(t1), axis=1) + 2.0 * ver * np.asarray(t2)))
    )


def analytic_slope(u, mu, metric):
    """Metric slope of u at mu: HK uses the full T^{1,4} norm, Hellinger the
    vertical part, extended Wasserstein the horizontal part."""
    hor, ver = gradient(u, mu)
    if metric == "hk":
        return tangent_norm_14((hor, ver), mu)
    if metric == "he":
        return float(2.0 * np.sqrt(np.sum(mu.weights * ver**2)))
    if metric == "w":
        return float(np.sqrt(np.sum(mu.weights * np.sum(hor * hor, axis=1))))
    raise ValueError(f"unknown metric {metric!r}")


def _metric_dist(metric, a, b):
    if metric == "hk":
        return np.sqrt(max(hk_sq(a, b, HK_TOL), 0.0))
    if metric == "he":
        return np.sqrt(hellinger_sq(a, b))
    return np.sqrt(wasserstein_sq(a, b))


def slope_probe(u, mu, metric, rng):
    """Empirical difference quotient sup |u(mu') - u(mu'')| / dist(mu', mu'')
    over perturbation families at the radii 0.012, 0.006 and 0.003.

    The family always contains the analytically optimal direction (gradient
    components per the metric: reweightings for Hellinger, translations for
    Wasserstein, both for HK), plus four random directions from rng.
    """
    n = len(mu)
    hor, ver = gradient(u, mu)
    directions = []
    if metric == "hk":
        directions.append((hor, ver))
    elif metric == "he":
        directions.append((np.zeros_like(hor), ver))
    else:
        directions.append((hor, np.zeros_like(ver)))
    for _ in range(4):
        t1 = rng.normal(0, 1, (n, mu.dim))
        t2 = rng.normal(0, 1, n)
        if metric == "he":
            t1 = np.zeros_like(t1)
        if metric == "w":
            t2 = np.zeros_like(t2)
        directions.append((t1, t2))

    best = 0.0
    u0 = evaluate(u, mu)
    for t1, t2 in directions:
        norm = np.sqrt(np.max(np.sum(t1 * t1, axis=1)) + np.max(t2 * t2)) if n else 1.0
        if norm == 0:
            continue
        t1, t2 = t1 / norm, t2 / norm
        for r in (0.012, 0.006, 0.003):
            # the HK slope construction uses the doubled vertical convention
            plus = perturb_measure(mu, t1, t2, r, vertical_factor=2.0)
            d = _metric_dist(metric, plus, mu)
            if d > 0:
                best = max(best, abs(evaluate(u, plus) - u0) / d)
            minus = perturb_measure(mu, t1, t2, -r, vertical_factor=2.0)
            d2 = _metric_dist(metric, plus, minus)
            if d2 > 0:
                best = max(best, abs(evaluate(u, plus) - evaluate(u, minus)) / d2)
    return best


def truncation_profile(r):
    """Smooth cutoff: 1 on [0,1], 0 on [2,inf), cubic smoothstep between
    (max slope 3/2, within the required bound 2)."""
    r = np.asarray(r, dtype=float)
    u = np.clip(r - 1.0, 0.0, 1.0)
    return np.where(r <= 1.0, 1.0, np.where(r >= 2.0, 0.0, 1.0 - u * u * (3.0 - 2.0 * u)))


def truncation_profile_prime(r):
    r = np.asarray(r, dtype=float)
    u = r - 1.0
    inside = (r > 1.0) & (r < 2.0)
    out = np.zeros_like(r)
    out[inside] = -6.0 * u[inside] * (1.0 - u[inside])
    return out


def truncation(k):
    """u_k(mu) = varsigma(mu M / k): equals 1 for mu M <= k, 0 for mu M >= 2k."""
    if k <= 0:
        raise ValueError("truncation level must be positive")

    def chi(m):
        return float(truncation_profile(np.array([m / k]))[0])

    def chi_prime(m):
        return float(truncation_profile_prime(np.array([m / k]))[0]) / k

    return CylinderFunction(
        OuterFunction(lambda a: 1.0, [lambda a: 0.0], 1),
        [one_kernel()],
        cutoff=chi,
        cutoff_prime=chi_prime,
    )


LIP_EST_CONST = np.sqrt(2.0 + np.pi**2 / 2.0)


def linear_lip_bound(f, mu0, mu1):
    """Two sides of the Lipschitz estimate for potential energies:
    |f*mu0 - f*mu1| <= (Lip f v sup f) sqrt(2 + pi^2/2) (mu0 M + mu1 M)^{1/2} HK."""
    if f.lip is None or f.sup is None:
        raise ValueError("kernel must declare lip and sup constants")
    a = float(np.sum(f.values(mu0.weights, mu0.points) * mu0.weights)) if len(mu0) else 0.0
    b = float(np.sum(f.values(mu1.weights, mu1.points) * mu1.weights)) if len(mu1) else 0.0
    lhs = abs(a - b)
    hk = np.sqrt(max(hk_sq(mu0, mu1, HK_TOL), 0.0))
    rhs = max(f.lip, f.sup) * LIP_EST_CONST * np.sqrt(mu0.mass + mu1.mass) * hk
    return lhs, rhs


def multiply(u, v):
    """Product cylinder function (u * v); gradients follow the Leibniz rule."""
    ku, kv = len(u.kernels), len(v.kernels)
    if u.cutoff is not None or v.cutoff is not None:
        raise ValueError("fold cutoffs into the outer functions before multiplying")

    def val(a):
        return u.outer.value(a[:ku]) * v.outer.value(a[ku:])

    partials = []
    for i in range(ku):
        partials.append(lambda a, i=i: u.outer.partials[i](a[:ku]) * v.outer.value(a[ku:]))
    for j in range(kv):
        partials.append(lambda a, j=j: u.outer.value(a[:ku]) * v.outer.partials[j](a[ku:]))
    return CylinderFunction(OuterFunction(val, partials, ku + kv), u.kernels + v.kernels)


def compose(phi, phi_prime, u):
    """Chain rule: phi(u(mu)) with smooth scalar phi."""
    if u.cutoff is not None:
        raise ValueError("fold the cutoff into the outer function before composing")

    def val(a):
        return phi(u.outer.value(a))

    partials = [
        (lambda a, i=i: phi_prime(u.outer.value(a)) * u.outer.partials[i](a))
        for i in range(len(u.kernels))
    ]
    return CylinderFunction(OuterFunction(val, partials, len(u.kernels)), u.kernels)


# ---------------------------------------------------------------------------
# kernel primitives
# ---------------------------------------------------------------------------

def one_kernel():
    return ScalarField(
        lambda p: np.ones(len(p)),
        lambda p: np.zeros_like(np.atleast_2d(p)),
        lip=0.0,
        sup=1.0,
    )


def gauss_kernel(center, width, amplitude=1.0):
    center = np.atleast_1d(np.asarray(center, dtype=float))
    width = float(width)
    amplitude = float(amplitude)

    def fn(p):
        z = (np.atleast_2d(p) - center) / width
        return amplitude * np.exp(-0.5 * np.sum(z * z, axis=1))

    def grad(p):
        p = np.atleast_2d(p)
        z = (p - center) / width
        return fn(p)[:, None] * (-(p - center) / width**2)

    lip = abs(amplitude) * np.exp(-0.5) / width
    return ScalarField(fn, grad, lip=lip, sup=abs(amplitude))


def bump_kernel(center, radius, amplitude=1.0):
    """Compactly supported C^2 spline bump (1 - |z|^2)^3 on |z| < 1."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    radius = float(radius)
    amplitude = float(amplitude)

    def fn(p):
        z = (np.atleast_2d(p) - center) / radius
        r2 = np.sum(z * z, axis=1)
        return amplitude * np.where(r2 < 1.0, (1.0 - r2) ** 3, 0.0)

    def grad(p):
        p = np.atleast_2d(p)
        z = (p - center) / radius
        r2 = np.sum(z * z, axis=1)
        fac = np.where(r2 < 1.0, -6.0 * (1.0 - r2) ** 2, 0.0) * amplitude / radius**2
        return fac[:, None] * (p - center)

    lip = abs(amplitude) * (96.0 / (25.0 * np.sqrt(5.0))) / radius
    return ScalarField(fn, grad, lip=lip, sup=abs(amplitude))


def coordinate_kernel(axis=0):
    def fn(p):
        return np.atleast_2d(p)[:, axis]

    def grad(p):
        p = np.atleast_2d(p)
        out = np.zeros_like(p)
        out[:, axis] = 1.0
        return out

    return ScalarField(fn, grad, lip=1.0, sup=np.inf)


def mass_kernel_extended(h=None, h_grad=None):
    """Extended kernel f(s, x) = s * h(x) (h = 1 by default): the atom-mass
    self-energy whose vertical gradient is 2 mu_x h(x)."""
    if h is None:
        h = lambda p: np.ones(len(np.atleast_2d(p)))
        h_grad = lambda p: np.zeros_like(np.atleast_2d(p))

    return ScalarField(
        lambda s, p: np.asarray(s) * h(p),
        lambda s, p: np.asarray(s)[:, None] * h_grad(p),
        ds=lambda s, p: h(p),
    )


def linear_cylinder(kernel):
    """u = f*: the potential energy of a single kernel."""
    return CylinderFunction(_identity_outer(), [kernel])
