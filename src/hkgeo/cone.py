"""Geometric cone over a metric space: cone distances and entropy-transport costs."""

import numpy as np

__all__ = ["ConePoint", "cone_dist", "g_transform", "let_cost", "HALF_PI"]

HALF_PI = 0.5 * np.pi


class ConePoint:
    """Point [x, r] of the cone; all points with radius 0 are the vertex."""

    __slots__ = ("base", "radius")

    def __init__(self, base, radius):
        if radius < 0:
            raise ValueError("cone radius must be >= 0")
        object.__setattr__(self, "base", np.asarray(base, dtype=float))
        object.__setattr__(self, "radius", float(radius))

    def __setattr__(self, *a):
        raise AttributeError("ConePoint is immutable")

    def __eq__(self, other):
        if self.radius == 0.0 and other.radius == 0.0:
            return True
        return self.radius == other.radius and np.array_equal(self.base, other.base)

    def __repr__(self):
        return f"ConePoint(base={self.base}, radius={self.radius})"


def cone_dist(a, p0, p1, base_dist):
    """Cone distance sqrt(r^2 + s^2 - 2 r s cos(d ^ a)) for a in (0, pi]."""
    if not (0.0 < a <= np.pi):
        raise ValueError("cone parameter must lie in (0, pi]")
    if base_dist < 0:
        raise ValueError("base distance must be >= 0")
    r, s = p0.radius, p1.radius
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
