"""Geometric cone over a metric space: cone distances and entropy-transport costs."""

import numpy as np

__all__ = ["cone_dist", "g_transform", "let_cost", "HALF_PI"]

HALF_PI = 0.5 * np.pi


def cone_dist(a, r, s, base_dist):
    """Distance sqrt(r^2 + s^2 - 2 r s cos(d ^ a)), a in (0, pi], between cone
    points of radii r, s over base points at distance d; radius 0 is the vertex."""
    if not (0.0 < a <= np.pi):
        raise ValueError("cone parameter must lie in (0, pi]")
    if base_dist < 0:
        raise ValueError("base distance must be >= 0")
    if r < 0 or s < 0:
        raise ValueError("cone radius must be >= 0")
    val = r * r + s * s - 2.0 * r * s * np.cos(min(base_dist, a))
    return float(np.sqrt(max(val, 0.0)))


def g_transform(z):
    """arccos(e^{-z^2/2}): the increasing concave map with g(0)=0 sending
    the Euclidean distance to the GHK base distance."""
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("g_transform defined on z >= 0")
    out = np.arccos(np.exp(-0.5 * z * z))
    return float(out) if out.ndim == 0 else out


def let_cost(kind, base_dist):
    """Entropy-transport cost per unit plan mass at base distance d.

    GHK: d^2.  HK: -log cos^2(d ^ pi/2), +inf for d >= pi/2 (forbidden cell).
    """
    d = np.asarray(base_dist, dtype=float)
    if np.any(d < 0):
        raise ValueError("base distance must be >= 0")
    kind = kind.lower()
    if kind == "ghk":
        out = d * d
    elif kind == "hk":
        capped = np.minimum(d, HALF_PI)
        with np.errstate(divide="ignore"):
            out = np.where(capped < HALF_PI, -2.0 * np.log(np.cos(np.minimum(capped, HALF_PI * (1 - 1e-16)))), np.inf)
    else:
        raise ValueError(f"unknown cost kind {kind!r}")
    return float(out) if out.ndim == 0 else out
