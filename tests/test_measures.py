import numpy as np
import pytest
from itertools import combinations

from hkgeo.measures import (
    DiscreteMeasure,
    cost_matrix_sq,
    decompose,
    dilate,
    hellinger_sq,
    measure_from_csv,
    measure_from_json,
    measure_to_csv,
    measure_to_json,
    pushforward,
    recompose,
    total_mass,
    wasserstein_sq,
)


def w2_bruteforce(mu0, mu1):
    """Independent oracle: enumerate basic feasible solutions (vertices) of
    the transport polytope; exact for supports <= 4."""
    n0, n1 = len(mu0), len(mu1)
    w0, w1 = mu0.weights, mu1.weights
    if abs(w0.sum() - w1.sum()) > 1e-12 * max(w0.sum(), w1.sum(), 1.0):
        return np.inf
    diff = mu0.points[:, None, :] - mu1.points[None, :, :]
    cost = np.sum(diff * diff, axis=2)
    cells = [(i, j) for i in range(n0) for j in range(n1)]
    best = np.inf
    m = n0 + n1 - 1
    for sel in combinations(cells, m):
        a = np.zeros((n0 + n1, m))
        for k, (i, j) in enumerate(sel):
            a[i, k] = 1.0
            a[n0 + j, k] = 1.0
        b = np.concatenate([w0, w1])
        g, *_ = np.linalg.lstsq(a, b, rcond=None)
        if np.allclose(a @ g, b, atol=1e-10) and np.all(g >= -1e-12):
            best = min(best, sum(gk * cost[i, j] for gk, (i, j) in zip(g, sel)))
    return best


def random_measure(rng, n, dim=2, wlo=0.1, whi=2.0, scale=1.0):
    return DiscreteMeasure(rng.normal(0, scale, (n, dim)), rng.uniform(wlo, whi, n))


class TestDiscreteMeasure:
    def test_atom_merging_sums_weights(self):
        mu = DiscreteMeasure([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]], [1.0, 0.5, 2.0])
        assert len(mu) == 2
        assert total_mass(mu) == pytest.approx(3.5)
        idx = np.argwhere((mu.points == [1.0, 2.0]).all(axis=1))[0, 0]
        assert mu.weights[idx] == pytest.approx(3.0)

    def test_zero_weights_dropped_and_empty_valid(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [0.0, 2.0])
        assert len(mu) == 1
        empty = DiscreteMeasure(np.empty((0, 3)), [], dim=3)
        assert empty.is_zero() and total_mass(empty) == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([[0.0]], [-1.0])

    def test_immutability(self):
        mu = DiscreteMeasure([[0.0]], [1.0])
        with pytest.raises(AttributeError):
            mu.dim = 2
        with pytest.raises(ValueError):
            mu.weights[0] = 5.0


class TestHellinger:
    def test_identical(self):
        mu = DiscreteMeasure([[0.0, 1.0]], [3.0])
        assert hellinger_sq(mu, mu) == 0.0

    def test_shared_atom(self):
        a = DiscreteMeasure([[1.0]], [4.0])
        b = DiscreteMeasure([[1.0]], [1.0])
        assert hellinger_sq(a, b) == pytest.approx(1.0)

    def test_mutually_singular(self):
        a = DiscreteMeasure([[0.0]], [1.7])
        b = DiscreteMeasure([[1.0]], [0.4])
        assert hellinger_sq(a, b) == pytest.approx(2.1)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m0 = random_measure(rng, rng.integers(1, 5))
            m1 = random_measure(rng, rng.integers(1, 5))
            m2 = random_measure(rng, rng.integers(1, 5))
            d01 = np.sqrt(hellinger_sq(m0, m1))
            d10 = np.sqrt(hellinger_sq(m1, m0))
            d02 = np.sqrt(hellinger_sq(m0, m2))
            d12 = np.sqrt(hellinger_sq(m1, m2))
            assert d01 == pytest.approx(d10, abs=1e-10)
            assert d01 <= d02 + d12 + 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hellinger_sq(DiscreteMeasure([[0.0]], [1.0]), DiscreteMeasure([[0.0, 0.0]], [1.0]))


class TestCostMatrix:
    def test_matches_broadcast_reference_exactly(self):
        # one axis at a time adds the squares in the order of the (n0, n1, d)
        # broadcast sum, so the result is the same to the last bit
        rng = np.random.default_rng(40)
        for dim in (1, 2, 3, 5):
            m0, m1 = random_measure(rng, 30, dim, scale=3.0), random_measure(rng, 40, dim)
            diff = m0.points[:, None, :] - m1.points[None, :, :]
            np.testing.assert_array_equal(cost_matrix_sq(m0, m1), np.sum(diff * diff, axis=2))
        empty = DiscreteMeasure(np.empty((0, 2)), [], dim=2)
        assert cost_matrix_sq(empty, random_measure(rng, 3)).shape == (0, 3)


class TestWasserstein:
    def test_two_diracs(self):
        a = DiscreteMeasure([[0.0, 0.0]], [0.5])
        b = DiscreteMeasure([[3.0, 4.0]], [0.5])
        assert wasserstein_sq(a, b) == pytest.approx(25.0 * 0.5)

    def test_unequal_mass_infinite(self):
        a = DiscreteMeasure([[0.0]], [1.0])
        b = DiscreteMeasure([[0.0]], [2.0])
        assert wasserstein_sq(a, b) == np.inf

    def test_two_atom_frozen_instance(self):
        # value computed by the brute-force vertex oracle
        a = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [0.3, 0.7])
        b = DiscreteMeasure([[0.0, 1.0], [1.0, 1.0]], [0.6, 0.4])
        assert wasserstein_sq(a, b) == pytest.approx(1.3, abs=1e-9)
        assert w2_bruteforce(a, b) == pytest.approx(1.3, abs=1e-9)

    def test_matches_bruteforce_small_supports(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n0, n1 = rng.integers(1, 5, 2)
            m0 = random_measure(rng, n0)
            w = rng.uniform(0.1, 1.0, n1)
            w *= m0.mass / w.sum()
            m1 = DiscreteMeasure(rng.normal(0, 1, (n1, 2)), w)
            assert wasserstein_sq(m0, m1) == pytest.approx(w2_bruteforce(m0, m1), abs=1e-9)

    def test_support_cap(self):
        rng = np.random.default_rng(0)
        big = random_measure(rng, 65)
        with pytest.raises(ValueError):
            wasserstein_sq(big, big)


class TestDilatePushforward:
    def test_dilate_moves_atoms_keeps_mass(self):
        mu = DiscreteMeasure([[1.0, -2.0]], [0.7])
        nu = dilate(mu, 3.0)
        assert np.allclose(nu.points, [[3.0, -6.0]])
        assert nu.mass == pytest.approx(mu.mass)

    def test_dilate_rejects_nonpositive(self):
        mu = DiscreteMeasure([[1.0]], [1.0])
        with pytest.raises(ValueError):
            dilate(mu, 0.0)

    def test_pushforward_identity_and_constant(self):
        rng = np.random.default_rng(5)
        mu = random_measure(rng, 6)
        same = pushforward(mu, lambda p: p)
        assert same.allclose(mu)
        const = pushforward(mu, lambda p: np.zeros_like(p))
        assert len(const) == 1
        assert const.mass == pytest.approx(mu.mass)


class TestDecompose:
    def test_single_atom(self):
        dec = decompose(DiscreteMeasure([[2.0]], [3.0]))
        assert dec.mass == pytest.approx(3.0)
        assert not dec.is_zero
        assert dec.shape.mass == pytest.approx(1.0)

    def test_zero_measure_flag(self):
        dec = decompose(DiscreteMeasure(np.empty((0, 2)), [], dim=2))
        assert dec.is_zero and dec.mass == 0.0

    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            mu = random_measure(rng, rng.integers(1, 8))
            back = recompose(decompose(mu))
            assert np.array_equal(back.points, mu.points)
            assert np.allclose(back.weights, mu.weights, rtol=1e-15)


class TestIO:
    def test_json_roundtrip(self):
        rng = np.random.default_rng(2)
        mu = random_measure(rng, 5, dim=3)
        back = measure_from_json(measure_to_json(mu))
        assert back.allclose(mu)

    def test_csv_roundtrip(self):
        rng = np.random.default_rng(2)
        mu = random_measure(rng, 4)
        back = measure_from_csv(measure_to_csv(mu))
        assert back.allclose(mu)

    def test_malformed_json_reports_field(self):
        with pytest.raises(ValueError, match="weights"):
            measure_from_json({"dim": 2, "points": [[0.0, 0.0]]})
        with pytest.raises(ValueError, match="dim"):
            measure_from_json({"dim": "x", "points": [], "weights": []})
