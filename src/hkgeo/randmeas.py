"""Samplers and Monte-Carlo validators for Dirichlet-Ferguson, Gamma, and
multiplicative infinite-dimensional Lebesgue laws on discrete measures.

The simplicial part of the sigma-finite multiplicative Lebesgue law with
homogeneity theta uses stick-breaking with Beta(1, theta) sticks: this is the
convention forced by the defining Mecke identity (the Beta(1, 1) reading
fails it; see tests/test_randmeas.py for the two-convention experiment).
Expectations against the sigma-finite law are computed either windowed in
mass (exact restriction, product structure) or Gamma-reweighted with the
density e^{mass} and exponential damping.

Samplers and validators draw whole batches (MeasureBatch) from one truncated
stick matrix (Ishwaran & James, JASA 96, 2001) and one base_sampler call; a
single measure is a row of a batch.
"""

import math
import time
from math import gamma as gamma_fn

import numpy as np

from .measures import DiscreteMeasure, _ensure_fits

__all__ = [
    "IntensityParams",
    "MeasureBatch",
    "SampleBatch",
    "CheckReport",
    "uniform_ball_sampler",
    "df_batch",
    "lambda_window_mass",
    "mecke_check_df",
    "mecke_check_mlp",
    "invariance_checks",
    "estimate_intensity",
    "gamma_batch",
    "mlp_window_batch",
]

TRUNC_TOL = 1e-10  # stick-breaking truncation: every sampled row leaves less mass than this
MECKE_S_CAP = 20.0  # S: mecke_check_mlp integrates its rhs over s in [0, S]
MECKE_QUAD_ORDER = 96  # by Gauss-Legendre quadrature with this many nodes
MULTIPLIER_SUPPORT = 2.0  # invariance_checks' multiplier test function vanishes at masses >= this
MULTIPLIER_SLOPE = 0.4  # and its log-multipliers are this times x_1 or |x|^2


def uniform_ball_sampler(dim):
    """Uniform distribution on the unit ball: diffuse, with known density."""

    def draw(rng, n):
        u = rng.normal(0, 1, (n, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = rng.uniform(0, 1, n) ** (1.0 / dim)
        return u * r[:, None]

    volume = np.pi ** (dim / 2) / gamma_fn(dim / 2 + 1)

    def density(points):
        with np.errstate(over="ignore"):  # an overflowed |x| = inf is still outside the ball
            inside = np.linalg.norm(np.atleast_2d(points), axis=1) <= 1.0
        return np.where(inside, 1.0 / volume, 0.0)

    return draw, density


class IntensityParams:
    """Homogeneity parameter theta and the diffuse base probability nu."""

    __slots__ = ("theta", "base_sampler", "dim")

    def __init__(self, theta, dim=1, base_sampler=None):
        if theta <= 0:
            raise ValueError("theta must be positive")
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        if base_sampler is None:
            base_sampler, _ = uniform_ball_sampler(dim)
        self.theta = float(theta)
        self.base_sampler = base_sampler
        self.dim = int(dim)


class MeasureBatch:
    """n measures on R^d as padded arrays: points (n, K, d), weights (n, K).

    A zero weight is padding.  The flattened views atom_points, atom_weights
    and rows (rows[j] is the measure of atom j) hold only the positive-weight
    atoms, in row-major order; they are what user callables receive, and they
    are computed once, so treat a batch as read-only.  Atoms within a row are
    taken as distinct (the samplers draw them from a diffuse nu); indexing or
    iterating yields DiscreteMeasures, which merge coinciding atoms.
    """

    __slots__ = ("points", "weights", "dim", "rows", "atom_points", "atom_weights")

    def __init__(self, points, weights):
        self.points = points = np.asarray(points, dtype=float)
        self.weights = weights = np.asarray(weights, dtype=float)
        if points.ndim != 3 or weights.shape != points.shape[:2]:
            raise ValueError(f"need points (n, K, d) and weights (n, K), not {points.shape}, {weights.shape}")
        if not (np.isfinite(points).all() and np.isfinite(weights).all() and (weights >= 0).all()):
            raise ValueError("points must be finite and weights finite and >= 0")
        self.dim = points.shape[2]
        live = np.flatnonzero(weights)
        self.rows = live // max(weights.shape[1], 1)
        self.atom_points = np.take(points.reshape(-1, self.dim), live, axis=0)
        self.atom_weights = np.take(weights, live)

    def __len__(self):
        return self.weights.shape[0]

    def __getitem__(self, i):
        return DiscreteMeasure(self.points[i], self.weights[i], dim=self.dim)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @property
    def masses(self):
        return self.row_sums(self.atom_weights)

    def row_sums(self, values):
        """Per-measure sums of per-atom values, (m,) or (m, ...) -> (n,) or (n, ...)."""
        values = np.asarray(values, dtype=float)
        tail = values.shape[1:]
        cols = math.prod(tail)
        bins = (self.rows[:, None] * cols + np.arange(cols)).ravel()
        sums = np.bincount(bins, values.ravel(), minlength=len(self) * cols)
        # bincount returns integers when the batch has no atoms
        return sums.astype(float, copy=False).reshape((len(self),) + tail)


class SampleBatch:
    """A MeasureBatch with importance weights representing a target law."""

    __slots__ = ("measures", "weights")

    def __init__(self, measures, weights):
        if not isinstance(measures, MeasureBatch):
            raise ValueError("measures must be a MeasureBatch")
        weights = np.asarray(weights, dtype=float)
        if len(measures) != len(weights):
            raise ValueError("measures and weights must have equal length")
        if not (np.isfinite(weights).all() and (weights >= 0).all()):
            raise ValueError("importance weights must be finite and >= 0")
        self.measures = measures
        self.weights = weights

    def __len__(self):
        return len(self.measures)


class CheckReport:
    """Two-sided Monte-Carlo comparison with standard errors and timing."""

    __slots__ = ("name", "lhs", "rhs", "se_lhs", "se_rhs", "n", "verdict", "runtime_s", "per_sample_us")

    def __init__(self, name, lhs, rhs, se_lhs, se_rhs, n, runtime_s=0.0):
        self.name = name
        self.lhs = float(lhs)
        self.rhs = float(rhs)
        self.se_lhs = float(se_lhs)
        self.se_rhs = float(se_rhs)
        self.n = int(n)
        self.verdict = bool(
            abs(self.lhs - self.rhs) <= 3.0 * np.hypot(self.se_lhs, self.se_rhs) + 1e-15
        )
        self.runtime_s = float(runtime_s)
        self.per_sample_us = 1e6 * self.runtime_s / self.n if self.n else 0.0

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


def _truncation_level(beta, trunc_tol):
    if beta <= 0 or not 0 < trunc_tol < 1:
        raise ValueError("need beta > 0 and trunc_tol in (0, 1)")
    return max(8, int(np.ceil(-np.log(trunc_tol) * max(beta, 1.0))) + 16)


def _poisson_tail(k, mean):
    """P(N >= k) for N ~ Poisson(mean) and k > mean: the terms
    mean^j e^{-mean} / j! summed upward from j = k until they stop adding to
    the sum, the first in log space through lgamma (mean^k and k! overflow
    on their own).  No 1 - CDF, which cancels to 0 in the far tail."""
    log_first = k * math.log(mean) - mean - math.lgamma(k + 1.0)
    term = total = 1.0
    j = k
    while term > 1e-17 * total:
        j += 1
        term *= mean / j
        total += term
    return math.exp(log_first + math.log(total))


def _batch_floats(dim, beta, n, trunc_tol):
    """Upper bound of the float64 values a batch of n measures holds at its
    peak (tracemalloc: 2 dim + 5 per padded atom, for the sticks, the base
    draws and the flattened atoms), times its stick columns.

    A row needs N + 1 sticks, N ~ Poisson(beta L) with L = -log(trunc_tol),
    since -log(1 - v) ~ Exp(beta) for v ~ Beta(1, beta); the column count
    is the least k >= the initial level (which exceeds beta L) with
    n P(N >= k) <= 1e-9, P by _poisson_tail, plus the residual column."""
    k = _truncation_level(beta, trunc_tol)
    mean = -beta * math.log(trunc_tol)
    while n * _poisson_tail(k, mean) > 1e-9:
        k += 1
    return n * (k + 1) * (2 * dim + 6)


def _stick_matrix(beta, n, trunc_tol, rng):
    """Vectorized stick weights (n, K+1) with per-row residual below
    trunc_tol, topped up column-by-column where needed; rows that stop early
    are padded with zeros, and the last column holds each row's residual."""
    k = _truncation_level(beta, trunc_tol)
    v = rng.beta(1.0, beta, size=(n, k))
    log_resid = np.cumsum(np.log1p(-v), axis=1)
    cols = [v * np.exp(np.concatenate([np.zeros((n, 1)), log_resid[:, :-1]], axis=1))]
    resid = np.exp(log_resid[:, -1])
    while np.any(resid >= trunc_tol):
        need = resid >= trunc_tol
        extra = np.zeros(n)
        extra[need] = rng.beta(1.0, beta, size=int(need.sum()))
        cols.append((resid * extra)[:, None])
        resid = resid * (1.0 - extra)
    q = np.concatenate(cols + [resid[:, None]], axis=1)
    return q


def _shapes(params, beta, n, rng, draw_masses=None):
    """n measures mass_i * (stick-breaking DF(beta) shape) and their masses.

    Draw order: the masses (draw_masses(n), default all 1), the stick
    matrix, then all n * K atoms in one base_sampler call.  The memory check
    comes first, before anything is allocated."""
    _ensure_fits(_batch_floats(params.dim, beta, n, TRUNC_TOL), f"a batch of {n} random measures")
    masses = np.ones(n) if draw_masses is None else draw_masses(n)
    q = _stick_matrix(beta, n, TRUNC_TOL, rng)
    x = params.base_sampler(rng, q.size).reshape(q.shape + (params.dim,))
    return MeasureBatch(x, masses[:, None] * q), masses


def df_batch(params, beta, n, rng):
    """n Dirichlet-Ferguson samples via stick-breaking, as a MeasureBatch of
    purely atomic random probability measures with atoms drawn iid from nu."""
    return _shapes(params, beta, n, np.random.default_rng(rng))[0]


def _window_masses(theta, window, rng, n):
    """Masses with density t^{theta-1} restricted and normalized to [a, b],
    by the inverse CDF t = (a^theta + U (b^theta - a^theta))^{1/theta}."""
    a, b = window
    if not (0 <= a < b):
        raise ValueError("window must satisfy 0 <= a < b")
    u = rng.uniform(0, 1, n)
    return (a**theta + u * (b**theta - a**theta)) ** (1.0 / theta)


def lambda_window_mass(theta, window):
    """lambda_theta([a, b]) = (b^theta - a^theta) / Gamma(theta + 1)."""
    a, b = window
    return (b**theta - a**theta) / gamma_fn(theta + 1.0)


def _gamma_shapes(params, beta, n, rng):
    return _shapes(params, beta, n, rng, lambda k: rng.gamma(params.theta, 1.0, k))


def gamma_batch(params, n, seed):
    """Gamma random measures (total mass ~ Gamma(theta, 1), independent of
    the DF(theta) simplicial part) with importance weights e^{mass}: a
    SampleBatch representing the sigma-finite multiplicative Lebesgue law;
    seed is a seed or a numpy Generator."""
    rng = np.random.default_rng(seed)
    measures, masses = _gamma_shapes(params, params.theta, n, rng)
    return SampleBatch(measures, np.exp(np.minimum(masses, 700.0)))


def mlp_window_batch(params, window, n, seed):
    """MeasureBatch from the mass-windowed multiplicative Lebesgue law: each
    row an independent pair (windowed lambda_theta mass, DF(theta) shape),
    drawn directly, so every row has importance weight 1 (the window
    normalization is lambda_theta([a, b])); seed is a seed or a numpy
    Generator."""
    rng = np.random.default_rng(seed)
    draw = lambda k: _window_masses(params.theta, window, rng, k)
    return _shapes(params, params.theta, n, rng, draw)[0]


def _mean_se(values):
    values = np.asarray(values, dtype=float)
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(len(values)))


def _compare(name, lhs, rhs, t0):
    """CheckReport of the per-sample values of both sides, timed from t0."""
    (ml, sl), (mr, sr) = _mean_se(lhs), _mean_se(rhs)
    return CheckReport(name, ml, mr, sl, sr, len(lhs), time.perf_counter() - t0)


def mecke_check_df(F, beta, params, n, rng, name="mecke-df"):
    """Both sides of the Dirichlet-Ferguson Mecke identity for a bounded F.

    lhs: mean over DF samples eta of  sum_j q_j F(eta, x_j, q_j)
    rhs: mean over independent (eta, x ~ nu, t ~ Beta(1, beta)) of
         F((1-t) eta + t delta_x, x, t)
    F is vectorized over the flattened atoms of a whole batch:
    F(batch, points (m, d), sticks (m,)) -> (m,), where batch is a
    MeasureBatch.  On the lhs the atoms are the batch's positive-weight
    atoms, with measure ids batch.rows; on the rhs there is one atom per
    measure, the added atom x of measure i in row i.  Zero-weight padding
    never reaches F.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(rng)
    eta = df_batch(params, beta, n, rng)
    lhs = eta.row_sums(eta.atom_weights * F(eta, eta.atom_points, eta.atom_weights))
    eta = df_batch(params, beta, n, rng)
    x = params.base_sampler(rng, n)
    t = rng.beta(1.0, beta, n)
    perturbed = MeasureBatch(
        np.concatenate([eta.points, x[:, None]], axis=1),
        np.concatenate([(1.0 - t)[:, None] * eta.weights, t[:, None]], axis=1),
    )
    return _compare(name, lhs, F(perturbed, x, t), t0)


def mecke_check_mlp(h, params, n, rng, beta_sticks=None, name="mecke-mlp"):
    """Both sides of the Mecke identity for the multiplicative Lebesgue law
    with the damped test function F(mu, s, x) = e^{-2 mu M} h(s, x).

    Expectations run over Gamma samples with the reweighting dL = e^{mass} dG:
      lhs = E_G[ e^{-mass} sum_j w_j h(w_j, x_j) ]
      rhs = theta * E_G[ e^{-mass} ] * int nu(dx) int_0^S e^{-2s} h(s, x) ds
    with the s-integral by fixed Gauss-Legendre quadrature and the nu-integral
    by an independent draw per sample.  h is vectorized over the flattened
    atoms of the whole batch: h(s (m,), x (m, d)) -> (m,); zero-weight
    padding never reaches it.

    beta_sticks overrides the simplicial stick concentration (default theta);
    the identity holds only for the theta convention.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(rng)
    theta = params.theta
    if beta_sticks is None:
        beta_sticks = theta
    nodes, weights = np.polynomial.legendre.leggauss(MECKE_QUAD_ORDER)
    s_nodes = 0.5 * MECKE_S_CAP * (nodes + 1.0)
    s_weights = 0.5 * MECKE_S_CAP * weights

    mu, masses = _gamma_shapes(params, beta_sticks, n, rng)
    w = mu.atom_weights
    lhs = np.exp(-masses) * mu.row_sums(w * h(w, mu.atom_points))
    _ensure_fits(n * MECKE_QUAD_ORDER * (params.dim + 1), f"{n} quadrature rules of {MECKE_QUAD_ORDER} nodes")
    masses = rng.gamma(theta, 1.0, n)
    x = params.base_sampler(rng, n)
    vals = np.reshape(h(np.tile(s_nodes, n), np.repeat(x, MECKE_QUAD_ORDER, axis=0)), (n, MECKE_QUAD_ORDER))
    rhs = theta * np.exp(-masses) * (vals @ (s_weights * np.exp(-2.0 * s_nodes)))
    return _compare(name, lhs, rhs, t0)


def invariance_checks(params, n, seed):
    """Projective-invariance and semigroup checks for the multiplicative law.

    (a) exact homogeneity of lambda_theta on mass windows (analytic);
    (b) multiplier action k = e^a: Gamma-reweighted expectation of u(k mu)
        against e^{-theta int log k dnu} E[u(mu)], for a bounded u supported
        in {mass <= MULTIPLIER_SUPPORT}, with a(x) = c x_1 (traceless) and
        a(x) = c |x|^2 (analytic trace on the uniform ball), c = MULTIPLIER_SLOPE;
    (c) convolution: E[e^{-(m + m')}] over Gamma(theta) x Gamma(tau), tau =
        theta / 2, equals the Gamma(theta + tau) damped moment 2^{-(theta+tau)}.
    """
    theta = params.theta
    tau = 0.5 * theta
    rng = np.random.default_rng(seed)
    reports = {}

    # (a) analytic homogeneity: lambda_theta(c [0, r]) = c^theta lambda_theta([0, r])
    c, r = 1.7, 2.3
    lhs = lambda_window_mass(theta, (0.0, c * r))
    rhs = c**theta * lambda_window_mass(theta, (0.0, r))
    reports["homogeneity"] = CheckReport("homogeneity", lhs, rhs, 0.0, 0.0, 0)

    # (b) multiplier tests: u depends on the measure through its mass only
    def u(m):
        inside = m < MULTIPLIER_SUPPORT
        z = np.where(inside, m / MULTIPLIER_SUPPORT, 0.0)
        return np.where(inside, np.exp(-1.0 / (1.0 - z * z)) * np.exp(-m), 0.0)

    dim = params.dim
    cases = {
        "multiplier-traceless": (lambda p: MULTIPLIER_SLOPE * p[:, 0], 0.0),
        "multiplier-radial": (
            lambda p: MULTIPLIER_SLOPE * np.sum(p * p, axis=1),
            MULTIPLIER_SLOPE * dim / (dim + 2.0),  # int |x|^2 dnu on the unit ball
        ),
    }
    for label, (a_fn, trace) in cases.items():
        t0 = time.perf_counter()
        mu, masses = _gamma_shapes(params, theta, n, rng)
        k_masses = mu.row_sums(np.exp(a_fn(mu.atom_points)) * mu.atom_weights)
        # weights e^{mass} are bounded on the support of the integrands
        damp = np.exp(np.minimum(masses, 700.0))
        lhs_vals = damp * u(k_masses)
        rhs_vals = np.exp(-theta * trace) * damp * u(mu.masses)
        reports[label] = _compare(label, lhs_vals, rhs_vals, t0)

    # (c) damped convolution moment
    t0 = time.perf_counter()
    m1 = rng.gamma(theta, 1.0, size=n)
    m2 = rng.gamma(tau, 1.0, size=n)
    ml, sl = _mean_se(np.exp(-(m1 + m2)))
    reports["convolution"] = CheckReport(
        "convolution", ml, 2.0 ** (-(theta + tau)), sl, 0.0, n, time.perf_counter() - t0
    )
    return reports


def estimate_intensity(batch):
    """Intensity estimators from a weighted batch representing a law Q:

    theta_hat = mean of w * mass * e^{-mass}
    nu_hat first moment = mean of w * e^{-mass} * int x dmu(x), over theta_hat.
    """
    n = len(batch)
    if n == 0:
        raise ValueError("empty batch")
    mu = batch.measures
    masses = mu.masses
    integrand = batch.weights * masses * np.exp(-masses)
    theta_hat, theta_se = _mean_se(integrand)
    if np.all(masses == 0.0):
        return {"theta_hat": 0.0, "theta_se": 0.0, "nu_first_moment": None, "degenerate": True}
    moments = mu.row_sums(mu.atom_weights[:, None] * mu.atom_points)
    firsts = (batch.weights * np.exp(-masses))[:, None] * moments
    nu_first = firsts.mean(axis=0) / theta_hat
    nu_first_se = firsts.std(axis=0, ddof=1) / np.sqrt(n) / abs(theta_hat)
    return {
        "theta_hat": theta_hat,
        "theta_se": theta_se,
        "nu_first_moment": nu_first,
        "nu_first_moment_se": nu_first_se,
        "degenerate": False,
    }
