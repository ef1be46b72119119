"""Optimal Legendre-conjugate potential pairs for the Gaussian entropy-transport
distance between a fixed grid density on a ball and a mollified measure.

The pair (phi, psi) is seeded from the discrete solver's optimal dual
potentials through the min-convolution chain

    phi_tilde(x) = min_y [ |x-y|^2/2 - phi1(y) ],   phi = |.|^2/2 - phi_tilde,

and then one discrete double conjugation makes (phi, psi) exact mutual
Legendre conjugates on their grids (conjugation alone, from any fixed start,
stalls at a feasible but suboptimal pair; the solver seed carries the
measure dependence).
"""

import numpy as np

from . import _kernels
from .let import LetProblem, _ensure_let_fits, solve_let
from .measures import DiscreteMeasure, cost_matrix_sq
from .mollify import mollify

__all__ = [
    "PotentialPair",
    "legendre_pair",
    "gradient_duality_value",
    "grid_measure_on_ball",
    "legendre_conjugate",
]


def grid_measure_on_ball(density, radius, spacing, dim):
    """Grid measure with weights density(x) * spacing^d on nodes |x| <= radius."""
    half = int(np.floor(radius / spacing + 1e-12))
    axes = [np.arange(-half, half + 1) * spacing] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    pts = pts[np.linalg.norm(pts, axis=1) <= radius + 1e-12]
    w = np.asarray(density(pts), dtype=float) * spacing**dim
    if np.any(w <= 0):
        raise ValueError("ball density must be strictly positive on the grid")
    return DiscreteMeasure(pts, w, dim=dim)


def legendre_conjugate(points_from, values_from, points_to):
    """Discrete Legendre transform g(y) = max_x [<x, y> - f(x)] on point sets.

    Separable across coordinates on product grids; here point sets are small
    enough for the direct max-plus kernel over flattened supports.
    """
    out = np.empty(len(points_to))
    if points_from.shape[1] == 1:
        return _kernels.maxplus_transform(
            np.ascontiguousarray(points_to[:, 0]),
            np.ascontiguousarray(points_from[:, 0]),
            np.ascontiguousarray(values_from),
        )
    for k, y in enumerate(points_to):
        out[k] = np.max(points_from @ y - values_from)
    return out


class PotentialPair:
    """Grid-discretized Legendre conjugates (phi, psi) with bound metadata."""

    __slots__ = (
        "phi",
        "phi_points",
        "psi",
        "psi_points",
        "R",
        "K",
        "duality_value",
        "psi_spacing",
        "solver_value",
        "solver_gap",
    )

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    def psi_lipschitz(self):
        """Max discrete slope of psi between neighboring grid nodes."""
        worst = 0.0
        pts, vals = self.psi_points, self.psi
        for k in range(pts.shape[1]):
            step = np.zeros(pts.shape[1])
            step[k] = self.psi_spacing
            target = pts + step
            idx = _match_points(pts, target)
            ok = idx >= 0
            if np.any(ok):
                worst = max(
                    worst,
                    float(np.max(np.abs(vals[idx[ok]] - vals[ok]) / self.psi_spacing)),
                )
        return worst

    def q_map(self):
        """q(y) = (1 - e^{-|y|^2 + 2 psi(y)})/2, the K-bounded dual integrand."""
        expo = -np.sum(self.psi_points**2, axis=1) + 2.0 * self.psi
        return 0.5 * (1.0 - np.exp(np.minimum(expo, 700.0)))

    def q_bound_and_lip(self):
        q = self.q_map()
        bound = float(np.max(np.abs(q)))
        worst = 0.0
        pts = self.psi_points
        for k in range(pts.shape[1]):
            step = np.zeros(pts.shape[1])
            step[k] = self.psi_spacing
            idx = _match_points(pts, pts + step)
            ok = idx >= 0
            if np.any(ok):
                worst = max(worst, float(np.max(np.abs(q[idx[ok]] - q[ok]) / self.psi_spacing)))
        return bound, worst


def _match_points(points, targets, tol=1e-9):
    """Index of each target in points (-1 when absent); exact grid matching."""
    key = {tuple(np.round(p / tol).astype(np.int64)): i for i, p in enumerate(points)}
    out = np.full(len(targets), -1, dtype=np.int64)
    for k, t in enumerate(targets):
        out[k] = key.get(tuple(np.round(t / tol).astype(np.int64)), -1)
    return out


def _box_grid(points, spacing, pad=1):
    """Regular grid covering the bounding box of the points, padded by nodes."""
    dim = points.shape[1]
    axes = []
    for k in range(dim):
        lo = int(np.floor(points[:, k].min() / spacing)) - pad
        hi = int(np.ceil(points[:, k].max() / spacing)) + pad
        axes.append(np.arange(lo, hi + 1) * spacing)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def legendre_pair(nu, mu, cfg, tol=5e-3, radius=None):
    """Optimal potential pair for GHK(nu, T_eps(mu))^2.

    nu is a grid measure supported on the closed ball B(0, R) with strictly
    positive weights; mu is an arbitrary discrete measure, mollified by cfg.
    Returns a PotentialPair whose duality value is the dual objective
    evaluated through (phi, psi) and must match the solver's primal value.
    """
    if radius is None:
        radius = float(np.max(np.linalg.norm(nu.points, axis=1)))
    m = mollify(mu, cfg)
    _ensure_let_fits(len(nu), len(m))
    sol = solve_let(LetProblem(nu, m, cost_matrix_sq(nu, m)), tol)

    # min-convolution extension of the solver duals, then exact conjugation
    live = np.isfinite(sol.phi1)
    ypts = m.points[live]
    phi1 = sol.phi1[live]
    d2 = cost_matrix_sq(nu, DiscreteMeasure(ypts, np.ones(len(ypts)), dim=m.dim))
    phi_tilde = np.min(0.5 * d2 - phi1[None, :], axis=1)
    phi_raw = 0.5 * np.sum(nu.points**2, axis=1) - phi_tilde

    psi_points = _box_grid(m.points, cfg.spacing, pad=1)
    psi = legendre_conjugate(nu.points, phi_raw, psi_points)
    phi = legendre_conjugate(psi_points, psi, nu.points)

    expo_phi = -np.sum(nu.points**2, axis=1) + 2.0 * phi
    expo_psi_at_m = None
    idx = _match_points(psi_points, m.points)
    if np.any(idx < 0):
        raise RuntimeError("psi grid does not cover the mollified support")
    expo_psi_at_m = -np.sum(m.points**2, axis=1) + 2.0 * psi[idx]
    duality_value = float(
        np.sum((1.0 - np.exp(np.minimum(expo_phi, 700.0))) * nu.weights)
        + np.sum((1.0 - np.exp(np.minimum(expo_psi_at_m, 700.0))) * m.weights)
    )

    pair = PotentialPair(
        phi=phi,
        phi_points=nu.points,
        psi=psi,
        psi_points=psi_points,
        R=radius,
        K=np.nan,
        duality_value=duality_value,
        psi_spacing=cfg.spacing,
        solver_value=sol.primal_value,
        solver_gap=sol.gap,
    )
    bound, lip = pair.q_bound_and_lip()
    psi0 = pair.psi[_match_points(psi_points, np.zeros((1, m.dim)))[0]]
    pair.K = float(max(psi0, bound, lip))
    return pair


def gradient_duality_value(pair, t_mu):
    """Dual value through the gradient form: for each atom y of T_eps(mu),

        (1 - e^{-|y|^2 + 2 psi})^2 + e^{-2|y|^2 + 4 psi} (e^{|y - grad psi|^2} - 1)

    with grad psi by central differences; boundary atoms whose neighbors are
    missing are excluded and their mass reported."""
    pts, vals, sp = pair.psi_points, pair.psi, pair.psi_spacing
    dim = pts.shape[1]
    idx_c = _match_points(pts, t_mu.points)
    if np.any(idx_c < 0):
        raise ValueError("measure atoms are not on the psi grid")
    grad = np.zeros((len(t_mu), dim))
    usable = np.ones(len(t_mu), dtype=bool)
    for k in range(dim):
        step = np.zeros(dim)
        step[k] = sp
        up = _match_points(pts, t_mu.points + step)
        dn = _match_points(pts, t_mu.points - step)
        ok = (up >= 0) & (dn >= 0)
        usable &= ok
        grad[ok, k] = (vals[up[ok]] - vals[dn[ok]]) / (2.0 * sp)

    y = t_mu.points[usable]
    psi_y = vals[idx_c[usable]]
    g = grad[usable]
    e1 = -np.sum(y * y, axis=1) + 2.0 * psi_y
    disp = np.sum((y - g) ** 2, axis=1)
    term1 = (1.0 - np.exp(np.minimum(e1, 700.0))) ** 2
    term2 = np.exp(np.minimum(2.0 * e1 + disp, 700.0)) - np.exp(np.minimum(2.0 * e1, 700.0))
    value = float(np.sum((term1 + term2) * t_mu.weights[usable]))
    excluded_mass = float(t_mu.weights[~usable].sum())
    return value, excluded_mass
