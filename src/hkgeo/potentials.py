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
from .let import LetProblem, _ensure_let_fits, _half_cost_transform, solve_let
from .measures import DiscreteMeasure, cost_matrix_sq
from .mollify import mollify

__all__ = [
    "PotentialPair",
    "legendre_pair",
    "gradient_duality_value",
    "grid_measure_on_ball",
    "legendre_conjugate",
]


def _lattice_points(origin, shape, spacing):
    """Nodes (origin + i) * spacing of the box i in [0, shape), row-major."""
    return (np.indices(shape).reshape(len(shape), -1).T + origin) * spacing


def _lattice_nodes(points, origin, shape, spacing):
    """Integer index i of each point in the box of nodes (origin + i) * spacing,
    i in [0, shape), and a mask of the points that are such a node (within
    1e-6 spacings of it).  Index rows of masked-out points are meaningless."""
    q = points / spacing
    k = np.rint(q)
    nodes = k.astype(np.int64) - origin
    ok = np.all((np.abs(q - k) <= 1e-6) & (nodes >= 0) & (nodes < shape), axis=1)
    return nodes, ok


def grid_measure_on_ball(density, radius, spacing, dim):
    """Grid measure with weights density(x) * spacing^d on nodes |x| <= radius."""
    if radius <= 0:
        raise ValueError(f"ball radius must be positive, got {radius}")
    if spacing <= 0:
        raise ValueError(f"grid spacing must be positive, got {spacing}")
    half = int(np.floor(radius / spacing + 1e-12))
    pts = _lattice_points(np.full(dim, -half), (2 * half + 1,) * dim, spacing)
    pts = pts[np.linalg.norm(pts, axis=1) <= radius + 1e-12]
    w = np.asarray(density(pts), dtype=float) * spacing**dim
    if np.any(w <= 0):
        raise ValueError("ball density must be strictly positive on the grid")
    return DiscreteMeasure(pts, w, dim=dim)


def legendre_conjugate(points_from, values_from, points_to):
    """Discrete Legendre transform g(y) = max_x [<x, y> - f(x)] on point sets
    of any dimension, through the dense max-plus kernel."""
    return _kernels.maxplus_transform(points_to, points_from, values_from)


class PotentialPair:
    """Grid-discretized Legendre conjugates (phi, psi) with bound metadata.

    psi lives on the box of lattice nodes (psi_origin + i) * psi_spacing,
    i in [0, psi_shape), in row-major order."""

    __slots__ = (
        "phi",
        "phi_points",
        "psi",
        "psi_origin",
        "psi_shape",
        "psi_spacing",
        "R",
        "K",
        "duality_value",
        "solver_value",
        "solver_gap",
    )

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    @property
    def psi_points(self):
        return _lattice_points(self.psi_origin, self.psi_shape, self.psi_spacing)

    def _max_slope(self, values):
        """Max |difference| / spacing between lattice neighbours."""
        grid = values.reshape(self.psi_shape)
        worst = max(np.max(np.abs(np.diff(grid, axis=k)), initial=0.0) for k in range(grid.ndim))
        return float(worst / self.psi_spacing)

    def psi_lipschitz(self):
        """Max discrete slope of psi between neighboring grid nodes."""
        return self._max_slope(self.psi)

    def q_map(self):
        """q(y) = (1 - e^{-|y|^2 + 2 psi(y)})/2, the K-bounded dual integrand."""
        expo = -np.sum(self.psi_points**2, axis=1) + 2.0 * self.psi
        return 0.5 * (1.0 - np.exp(np.minimum(expo, 700.0)))

    def q_bound_and_lip(self):
        q = self.q_map()
        return float(np.max(np.abs(q))), self._max_slope(q)


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
    problem = LetProblem(nu, m, cost_matrix_sq(nu, m))
    sol = solve_let(problem, tol)

    # min-convolution extension of the solver duals, then exact conjugation
    phi_tilde = _half_cost_transform(problem.cost.T, sol.phi1)
    phi_raw = 0.5 * np.sum(nu.points**2, axis=1) - phi_tilde

    # psi lives on the lattice box around T_eps(mu), padded by one node
    sp = cfg.spacing
    index = np.rint(m.points / sp).astype(np.int64)
    origin = index.min(axis=0) - 1
    shape = tuple((index.max(axis=0) - origin + 2).tolist())
    psi_points = _lattice_points(origin, shape, sp)
    psi = legendre_conjugate(nu.points, phi_raw, psi_points)
    phi = legendre_conjugate(psi_points, psi, nu.points)

    nodes, ok = _lattice_nodes(m.points, origin, shape, sp)
    if not ok.all():
        raise RuntimeError("psi grid does not cover the mollified support")
    psi_grid = psi.reshape(shape)
    expo_phi = -np.sum(nu.points**2, axis=1) + 2.0 * phi
    expo_psi_at_m = -np.sum(m.points**2, axis=1) + 2.0 * psi_grid[tuple(nodes.T)]
    duality_value = float(
        np.sum((1.0 - np.exp(np.minimum(expo_phi, 700.0))) * nu.weights)
        + np.sum((1.0 - np.exp(np.minimum(expo_psi_at_m, 700.0))) * m.weights)
    )

    pair = PotentialPair(
        phi=phi,
        phi_points=nu.points,
        psi=psi,
        psi_origin=origin,
        psi_shape=shape,
        psi_spacing=sp,
        R=radius,
        K=np.nan,
        duality_value=duality_value,
        solver_value=sol.primal_value,
        solver_gap=sol.gap,
    )
    bound, lip = pair.q_bound_and_lip()
    pair.K = float(max(psi_grid[tuple(-origin)], bound, lip))
    return pair


def gradient_duality_value(pair, t_mu):
    """Dual value through the gradient form: for each atom y of T_eps(mu),

        (1 - e^{-|y|^2 + 2 psi})^2 + e^{-2|y|^2 + 4 psi} (e^{|y - grad psi|^2} - 1)

    with grad psi by central differences; boundary atoms whose neighbors are
    missing are excluded and their mass reported."""
    shape, sp = pair.psi_shape, pair.psi_spacing
    nodes, ok = _lattice_nodes(t_mu.points, pair.psi_origin, shape, sp)
    if not ok.all():
        raise ValueError("measure atoms are not on the psi grid")
    usable = np.all((nodes > 0) & (nodes < np.array(shape) - 1), axis=1)
    at = tuple(nodes[usable].T)
    grid = pair.psi.reshape(shape)
    g = np.stack([np.gradient(grid, sp, axis=k)[at] for k in range(len(shape))], axis=1)

    y = t_mu.points[usable]
    e1 = -np.sum(y * y, axis=1) + 2.0 * grid[at]
    disp = np.sum((y - g) ** 2, axis=1)
    term1 = (1.0 - np.exp(np.minimum(e1, 700.0))) ** 2
    term2 = np.exp(np.minimum(2.0 * e1 + disp, 700.0)) - np.exp(np.minimum(2.0 * e1, 700.0))
    value = float(np.sum((term1 + term2) * t_mu.weights[usable]))
    excluded_mass = float(t_mu.weights[~usable].sum())
    return value, excluded_mass
