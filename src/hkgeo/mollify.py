"""Mollification of discrete measures onto regular grids.

The operator maps mu to ((f_eps)_# mu + eps * delta_0) * kappa_eps, realized
as nearest-node binning followed by discrete convolution with the sampled
bump kernel, renormalized so the sampled kernel sums to one (exact mass
bookkeeping: output mass = mu M + eps).
"""

from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from . import _kernels
from .measures import DiscreteMeasure

__all__ = [
    "MollifierConfig",
    "mollify",
    "weak_error",
    "kappa",
    "retraction",
    "retraction_profile",
    "kernel_normalization",
]


def _bump_profile(r):
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


@lru_cache(maxsize=8)
def kernel_normalization(dim):
    """c_d with integral of c_d * exp(-1/(1-|x|^2)) over the unit ball = 1."""
    surface = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[dim]
    val, _ = quad(lambda r: float(_bump_profile(np.array([r]))[0]) * r ** (dim - 1), 0.0, 1.0)
    return 1.0 / (surface * val)


def kappa(x, dim=None):
    """Normalized bump kernel, support exactly the closed unit ball."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if dim is None:
        dim = x.shape[1]
    r = np.linalg.norm(x, axis=1)
    return kernel_normalization(dim) * _bump_profile(r)


def _smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def retraction_profile(r):
    """Radial profile rho: rho(r) = r on [0,1], slope <= 1 throughout,
    rho = 2 beyond r = 3 (rho' = 1 - smoothstep((r-1)/2) in between)."""
    r = np.asarray(r, dtype=float)
    u = np.clip((r - 1.0) / 2.0, 0.0, 1.0)
    mid = 1.0 + 2.0 * (u - u**3 + 0.5 * u**4)
    return np.where(r <= 1.0, r, np.where(r >= 3.0, 2.0, mid))


def retraction(x):
    """The map f(x) = x * rho(|x|)/|x|: identity on B(0,1), |f| <= 2, Lip 1."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.linalg.norm(x, axis=1)
    fac = np.ones_like(r)
    pos = r > 0
    fac[pos] = retraction_profile(r[pos]) / r[pos]
    return x * fac[:, None]


class MollifierConfig:
    """Regularization strength and origin-centered grid for the mollifier.

    The grid spacing must resolve the kernel (spacing <= eps/4) and the grid
    covers the ball of radius 2/eps + eps where the output lives.
    """

    __slots__ = ("eps", "spacing", "dim", "half_nodes")

    def __init__(self, eps, spacing, dim, cover_radius=None):
        if not 0.0 < eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if spacing <= 0 or spacing > eps / 4 + 1e-15:
            raise ValueError("grid spacing must be positive and <= eps/4")
        if dim not in (1, 2, 3):
            raise ValueError("mollifier supports dim in {1, 2, 3}")
        if cover_radius is None:
            cover_radius = 2.0 / eps + eps
        half = int(np.ceil(cover_radius / spacing)) + 1
        self.eps = float(eps)
        self.spacing = float(spacing)
        self.dim = int(dim)
        self.half_nodes = half

    @property
    def cover_radius(self):
        return self.half_nodes * self.spacing

    def kernel_patch(self):
        """Sampled kernel on grid offsets inside the eps-ball, summing to 1."""
        k = int(np.floor(self.eps / self.spacing))
        axes = [np.arange(-k, k + 1)] * self.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        offsets = np.stack([m.ravel() for m in mesh], axis=1)
        r = np.linalg.norm(offsets * self.spacing, axis=1) / self.eps
        vals = _bump_profile(r)
        keep = vals > 0
        offsets, vals = offsets[keep], vals[keep]
        return offsets, vals / vals.sum()


def mollify(mu, cfg):
    """Grid-supported surrogate of T_eps(mu); total mass = mu M + eps."""
    if mu.dim != cfg.dim:
        raise ValueError("measure dimension does not match mollifier grid")
    eps, sp = cfg.eps, cfg.spacing
    pts = retraction(eps * mu.points) / eps if len(mu) else np.empty((0, cfg.dim))
    pts = np.concatenate([pts, np.zeros((1, cfg.dim))], axis=0)
    w = np.concatenate([mu.weights, [eps]])
    idx = np.rint(pts / sp).astype(np.int64)
    if np.any(np.abs(idx) + int(np.floor(eps / sp)) > cfg.half_nodes):
        raise ValueError("grid does not cover the mollified support")

    n = 2 * cfg.half_nodes + 1
    offsets, patch = cfg.kernel_patch()
    strides = np.array([n**k for k in range(cfg.dim - 1, -1, -1)], dtype=np.int64)
    flat_centers = (idx + cfg.half_nodes) @ strides
    flat_offsets = offsets @ strides
    grid = np.zeros(n**cfg.dim)
    _kernels.stamp_kernel(flat_centers, w, patch, grid, flat_offsets)

    nz = np.flatnonzero(grid)
    coords = (np.stack(np.unravel_index(nz, (n,) * cfg.dim), axis=1) - cfg.half_nodes) * sp
    return DiscreteMeasure(coords, grid[nz], dim=cfg.dim)


def weak_error(mu, cfg, tests):
    """|int phi dT_eps(mu) - int phi dmu| for each test function."""
    out = mollify(mu, cfg)
    errs = []
    for phi in tests:
        a = float(np.sum(phi(out.points) * out.weights)) if len(out) else 0.0
        b = float(np.sum(phi(mu.points) * mu.weights)) if len(mu) else 0.0
        errs.append(abs(a - b))
    return errs
