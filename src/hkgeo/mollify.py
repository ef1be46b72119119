"""Mollification of discrete measures onto regular grids.

The operator maps mu to ((f_eps)_# mu + eps * delta_0) * kappa_eps, realized
as nearest-node binning followed by discrete convolution with the sampled
bump kernel, renormalized so the sampled kernel sums to one (exact mass
bookkeeping: output mass = mu M + eps).
"""

import numpy as np

from . import _kernels
from .measures import DiscreteMeasure, _ensure_fits

__all__ = [
    "MollifierConfig",
    "mollify",
    "retraction",
    "retraction_profile",
]


def _bump_profile(r):
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


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
    with np.errstate(over="ignore"):
        r = np.sqrt(np.add.reduce(x * x, axis=1))  # np.linalg.norm's formula, bit for bit
    # rows whose square overflows (|x| >~ 1e154): scale by max |x_i| first
    big = np.isinf(r)
    if big.any():
        s = np.abs(x[big]).max(axis=1)
        r[big] = s * np.linalg.norm(x[big] / s[:, None], axis=1)
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

    def __init__(self, eps, spacing, dim):
        if not 0.0 < eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if spacing <= 0 or spacing > eps / 4 + 1e-15:
            raise ValueError("grid spacing must be positive and <= eps/4")
        if dim not in (1, 2, 3):
            raise ValueError("mollifier supports dim in {1, 2, 3}")
        self.eps = float(eps)
        self.spacing = float(spacing)
        self.dim = int(dim)
        self.half_nodes = int(np.ceil((2.0 / eps + eps) / spacing)) + 1

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
    n = 2 * cfg.half_nodes + 1
    nodes = n**cfg.dim
    # Refuse, before allocating, a call that does not fit in free memory: the
    # grid, plus (atoms + 1) patches of at most `box` nodes stamped and turned
    # into output atoms.  tracemalloc peaks were 0.18-0.98 of this count on
    # 1-, 2- and 3-D measures of 0 to 20,000 atoms.
    box = (2 * int(np.floor(eps / sp)) + 1) ** cfg.dim
    stamped = (len(mu) + 1) * box
    floats = nodes + 3 * stamped + 8 * (cfg.dim + 1) * min(stamped, nodes)
    _ensure_fits(floats, f"a mollifier grid of {n}^{cfg.dim} nodes")

    # |retraction| <= 2, so |idx| + floor(eps / sp) <= half_nodes on every
    # axis: each patch lands inside the grid.
    pts = retraction(eps * mu.points) / eps if len(mu) else np.empty((0, cfg.dim))
    pts = np.concatenate([pts, np.zeros((1, cfg.dim))], axis=0)
    w = np.concatenate([mu.weights, [eps]])
    idx = np.rint(pts / sp).astype(np.int64)
    offsets, patch = cfg.kernel_patch()
    strides = np.array([n**k for k in range(cfg.dim - 1, -1, -1)], dtype=np.int64)
    flat_centers = (idx + cfg.half_nodes) @ strides
    flat_offsets = offsets @ strides
    grid = np.zeros(nodes)
    _kernels.stamp_kernel(flat_centers, w, patch, grid, flat_offsets)

    nz = np.flatnonzero(grid)
    coords = (np.stack(np.unravel_index(nz, (n,) * cfg.dim), axis=1) - cfg.half_nodes) * sp
    return DiscreteMeasure(coords, grid[nz], dim=cfg.dim)
