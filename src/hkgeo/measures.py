"""Discrete nonnegative measures on R^d and their elementary distances."""

import csv
import io
import json
import os

import numpy as np
from scipy.optimize import linprog

__all__ = [
    "DiscreteMeasure",
    "MassDecomposition",
    "total_mass",
    "hellinger_sq",
    "wasserstein_sq",
    "dilate",
    "pushforward",
    "decompose",
    "recompose",
    "measure_to_json",
    "measure_from_json",
    "measure_to_csv",
    "measure_from_csv",
]

WASSERSTEIN_SUPPORT_CAP = 64
EQUAL_MASS_RTOL = 1e-12


def _available_bytes():
    """Free physical memory (unbounded where the platform does not report it)."""
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError):
        return np.inf


def _ensure_fits(n_floats, what):
    """Refuse, before allocating, n_floats float64 values that do not fit in free memory."""
    need, avail = 8 * n_floats, _available_bytes()
    if need > avail:
        raise ValueError(f"{what} needs about {need:,} bytes, but only {avail:,} bytes of memory are free")


class DiscreteMeasure:
    """Finite nonnegative measure sum_i w_i delta_{x_i} on R^d.

    Atoms at exactly identical coordinates are merged on construction (their
    weights are summed) and zero-weight atoms are dropped, so ``mu_x`` is
    well defined at every atom.  Instances are immutable.
    """

    __slots__ = ("points", "weights", "dim")

    def __init__(self, points, weights, dim=None):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        weights = np.asarray(weights, dtype=float).ravel()
        if points.size == 0:
            if dim is None:
                raise ValueError("empty measure needs an explicit dim")
            points = points.reshape(0, dim)
        if dim is None:
            dim = points.shape[1]
        if points.shape != (weights.shape[0], dim):
            raise ValueError(
                f"points shape {points.shape} incompatible with "
                f"{weights.shape[0]} weights in dimension {dim}"
            )
        if not np.all(np.isfinite(points)):
            raise ValueError("points must be finite")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise ValueError("weights must be finite and >= 0")
        keep = weights > 0
        points, weights = points[keep], weights[keep]
        if points.shape[0] > 1:
            points, weights = _merge_atoms(points, weights)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "dim", int(dim))
        points.setflags(write=False)
        weights.setflags(write=False)

    def __setattr__(self, *a):
        raise AttributeError("DiscreteMeasure is immutable")

    def __len__(self):
        return self.points.shape[0]

    @property
    def mass(self):
        return float(self.weights.sum())

    def is_zero(self):
        return len(self) == 0

    def __repr__(self):
        return f"DiscreteMeasure(n={len(self)}, dim={self.dim}, mass={self.mass:.6g})"

    def allclose(self, other, atol=1e-12):
        if self.dim != other.dim or len(self) != len(other):
            return False
        if len(self) == 0:
            return True
        oi = _lexorder(self.points)
        oj = _lexorder(other.points)
        return np.allclose(self.points[oi], other.points[oj], atol=atol) and np.allclose(
            self.weights[oi], other.weights[oj], atol=atol
        )


def _lexorder(points):
    return np.lexsort(points.T[::-1])


def _merge_atoms(points, weights):
    order = _lexorder(points)
    points, weights = points[order], weights[order]
    new = np.ones(len(points), dtype=bool)
    new[1:] = np.any(points[1:] != points[:-1], axis=1)
    groups = np.cumsum(new) - 1
    merged_w = np.zeros(groups[-1] + 1)
    np.add.at(merged_w, groups, weights)
    return points[new], merged_w


class MassDecomposition:
    """Total mass and unit-mass shape of a measure; (zero flag, 0) for 0."""

    __slots__ = ("shape", "mass", "is_zero")

    def __init__(self, shape, mass, is_zero):
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "mass", float(mass))
        object.__setattr__(self, "is_zero", bool(is_zero))

    def __setattr__(self, *a):
        raise AttributeError("MassDecomposition is immutable")


def total_mass(mu):
    return mu.mass


def hellinger_sq(mu0, mu1):
    """Squared Hellinger distance: sum over the union of supports of
    (sqrt w0 - sqrt w1)^2."""
    if mu0.dim != mu1.dim:
        raise ValueError("dimension mismatch")
    if mu0.is_zero() and mu1.is_zero():
        return 0.0
    pts = np.concatenate([mu0.points, mu1.points], axis=0)
    w0 = np.concatenate([mu0.weights, np.zeros(len(mu1))])
    w1 = np.concatenate([np.zeros(len(mu0)), mu1.weights])
    order = _lexorder(pts)
    pts, w0, w1 = pts[order], w0[order], w1[order]
    new = np.ones(len(pts), dtype=bool)
    new[1:] = np.any(pts[1:] != pts[:-1], axis=1)
    groups = np.cumsum(new) - 1
    a = np.zeros(groups[-1] + 1)
    b = np.zeros(groups[-1] + 1)
    np.add.at(a, groups, w0)
    np.add.at(b, groups, w1)
    return float(np.sum((np.sqrt(a) - np.sqrt(b)) ** 2))


def cost_matrix_sq(mu0, mu1):
    """Pairwise squared Euclidean distances between the supports."""
    out = np.zeros((len(mu0), len(mu1)))
    for k in range(mu0.points.shape[1]):
        diff = np.subtract.outer(mu0.points[:, k], mu1.points[:, k])
        diff *= diff
        out += diff
    return out


def wasserstein_sq(mu0, mu1, support_cap=WASSERSTEIN_SUPPORT_CAP):
    """Exact extended Wasserstein-2 cost; +inf when total masses differ.

    Dense LP on the transport polytope (supports are small by contract).
    """
    if mu0.dim != mu1.dim:
        raise ValueError("dimension mismatch")
    if len(mu0) > support_cap or len(mu1) > support_cap:
        raise ValueError(f"support size exceeds cap {support_cap}")
    m0, m1 = mu0.mass, mu1.mass
    if abs(m0 - m1) > EQUAL_MASS_RTOL * max(m0, m1, 1.0):
        return np.inf
    if mu0.is_zero():
        return 0.0
    # rescale to a common mass so the LP marginals are exactly feasible
    w0 = mu0.weights
    w1 = mu1.weights * (m0 / m1)
    c = cost_matrix_sq(mu0, mu1)
    n0, n1 = len(w0), len(w1)
    a_eq = np.zeros((n0 + n1, n0 * n1))
    for i in range(n0):
        a_eq[i, i * n1 : (i + 1) * n1] = 1.0
    for j in range(n1):
        a_eq[n0 + j, j::n1] = 1.0
    res = linprog(
        c.ravel(),
        A_eq=a_eq[:-1],  # one marginal constraint is redundant
        b_eq=np.concatenate([w0, w1])[:-1],
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def dilate(mu, lam):
    """Push forward by x -> lam * x (the spatial dilation T^lam)."""
    if lam <= 0:
        raise ValueError("dilation factor must be positive")
    return DiscreteMeasure(lam * mu.points, mu.weights, dim=mu.dim)


def pushforward(mu, mapping, dim=None):
    """Image measure under a coordinate transform; colliding atoms merge.

    mapping acts on an (n, d) array of points and returns an (n, d') array
    (or is applied row-wise if it returns 1-D output for a single row).
    """
    if mu.is_zero():
        return DiscreteMeasure(np.empty((0, dim or mu.dim)), [], dim=dim or mu.dim)
    out = np.asarray(mapping(mu.points), dtype=float)
    out = np.atleast_2d(out)
    if out.shape[0] != len(mu):
        out = np.stack([np.atleast_1d(mapping(p)) for p in mu.points])
    return DiscreteMeasure(out, mu.weights, dim=out.shape[1])


def decompose(mu):
    """J(mu) = (N(mu), mu M); the zero measure maps to (zero flag, 0)."""
    if mu.is_zero():
        return MassDecomposition(mu, 0.0, True)
    m = mu.mass
    return MassDecomposition(DiscreteMeasure(mu.points, mu.weights / m, dim=mu.dim), m, False)


def recompose(dec):
    if dec.is_zero:
        return DiscreteMeasure(np.empty((0, dec.shape.dim)), [], dim=dec.shape.dim)
    return DiscreteMeasure(dec.shape.points, dec.shape.weights * dec.mass, dim=dec.shape.dim)


# ---------------------------------------------------------------------------
# I/O:  {"dim": d, "points": [[...]], "weights": [...]}  /  CSV x1..xd,w
# ---------------------------------------------------------------------------

def measure_to_json(mu):
    return {
        "dim": mu.dim,
        "points": mu.points.tolist(),
        "weights": mu.weights.tolist(),
    }


def measure_from_json(obj):
    if not isinstance(obj, dict):
        raise ValueError("measure record must be a JSON object")
    for field in ("dim", "points", "weights"):
        if field not in obj:
            raise ValueError(f"measure record missing field '{field}'")
    try:
        dim = int(obj["dim"])
    except (TypeError, ValueError):
        raise ValueError("field 'dim' must be an integer")
    if dim <= 0:
        raise ValueError("field 'dim' must be positive")
    try:
        return DiscreteMeasure(obj["points"], obj["weights"], dim=dim)
    except ValueError as e:
        raise ValueError(f"invalid 'points'/'weights': {e}")


def load_measure(path):
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".csv"):
        return measure_from_csv(text)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed JSON in {path}: {e.msg} (line {e.lineno})")
    return measure_from_json(obj)


def save_measure(mu, path):
    if path.endswith(".csv"):
        with open(path, "w") as fh:
            fh.write(measure_to_csv(mu))
    else:
        with open(path, "w") as fh:
            json.dump(measure_to_json(mu), fh)


def measure_to_csv(mu):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([f"x{i + 1}" for i in range(mu.dim)] + ["w"])
    for p, w in zip(mu.points, mu.weights):
        writer.writerow([repr(float(v)) for v in p] + [repr(float(w))])
    return buf.getvalue()


def measure_from_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty CSV measure file")
    header = rows[0]
    if header[-1] != "w":
        raise ValueError("CSV measure header must end with column 'w'")
    dim = len(header) - 1
    pts, ws = [], []
    for k, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != dim + 1:
            raise ValueError(f"CSV row {k} has {len(row)} fields, expected {dim + 1}")
        try:
            vals = [float(v) for v in row]
        except ValueError:
            raise ValueError(f"CSV row {k} has a non-numeric field")
        pts.append(vals[:dim])
        ws.append(vals[dim])
    if not pts:
        return DiscreteMeasure(np.empty((0, dim)), [], dim=dim)
    return DiscreteMeasure(pts, ws, dim=dim)
