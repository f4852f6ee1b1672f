"""Tests for the blossom maximum-weight matching.

Cross-validated against ``networkx`` (whose implementation follows the same
classic formulation) and against brute force on small instances.
"""


import networkx as nx
import numpy as np
import pytest

from repro.core.matching import (
    greedy_matching,
    matching_weight,
    max_weight_matching,
    max_weight_perfect_matching,
)
from repro.errors import MatchingError


def brute_force_perfect(weights):
    """Optimal perfect matching by exhaustive search (n <= 10)."""
    n = weights.shape[0]

    def best(remaining):
        if not remaining:
            return 0.0, []
        first, *rest = remaining
        best_w, best_pairs = -np.inf, None
        for k, partner in enumerate(rest):
            w, pairs = best(rest[:k] + rest[k + 1 :])
            w += weights[first, partner]
            if w > best_w:
                best_w, best_pairs = w, pairs + [(first, partner)]
        return best_w, best_pairs

    return best(list(range(n)))


class TestSmallExact:
    def test_single_edge(self):
        assert max_weight_matching([(0, 1, 5)]) == [1, 0]

    def test_prefers_heavier_edge(self):
        mate = max_weight_matching([(0, 1, 1), (1, 2, 10)])
        assert mate[1] == 2 and mate[0] == -1

    def test_augmenting_path(self):
        # Path 0-1-2-3: take outer edges (total 12) not middle (10).
        edges = [(0, 1, 6), (1, 2, 10), (2, 3, 6)]
        mate = max_weight_matching(edges)
        assert mate == [1, 0, 3, 2]

    def test_blossom_triangle(self):
        # Odd cycle forces blossom handling.
        edges = [(0, 1, 8), (1, 2, 8), (0, 2, 8), (2, 3, 10)]
        mate = max_weight_matching(edges)
        assert mate[2] == 3
        assert mate[0] == 1

    def test_maxcardinality_forces_full_matching(self):
        edges = [(0, 1, 100), (1, 2, 1), (2, 3, 1), (0, 3, 1)]
        mate = max_weight_matching(edges, maxcardinality=True)
        assert -1 not in mate

    def test_rejects_self_loop(self):
        with pytest.raises(MatchingError):
            max_weight_matching([(1, 1, 5)])

    def test_empty_edges(self):
        assert max_weight_matching([]) == []


class TestAgainstBruteForce:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_perfect_matching_optimal(self, n, rng):
        for _ in range(15):
            w = rng.integers(0, 50, (n, n)).astype(float)
            w = (w + w.T) / 2
            np.fill_diagonal(w, 0)
            pairs = max_weight_perfect_matching(w)
            opt, _ = brute_force_perfect(w)
            assert matching_weight(w, pairs) == pytest.approx(opt)


class TestAgainstNetworkx:
    @pytest.mark.parametrize("trial", range(25))
    def test_random_sparse_graphs(self, trial):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(3, 14))
        edges = [
            (i, j, int(rng.integers(0, 30)))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.6
        ]
        if not edges:
            return
        g = nx.Graph()
        g.add_weighted_edges_from(edges)
        for maxcard in (False, True):
            mate = max_weight_matching(edges, maxcard)
            mine = sum(
                w for (i, j, w) in edges if mate[i] == j
            )
            ref_pairs = nx.max_weight_matching(g, maxcardinality=maxcard)
            ref = sum(g[a][b]["weight"] for a, b in ref_pairs)
            assert mine == ref

    @pytest.mark.parametrize("n", [16, 32])
    def test_complete_graphs_float_weights(self, n):
        rng = np.random.default_rng(n)
        w = rng.random((n, n)) * 100
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0)
        pairs = max_weight_perfect_matching(w)
        g = nx.Graph()
        for i in range(n):
            for j in range(i + 1, n):
                g.add_edge(i, j, weight=w[i, j])
        ref = sum(
            g[a][b]["weight"] for a, b in nx.max_weight_matching(g, maxcardinality=True)
        )
        assert matching_weight(w, pairs) == pytest.approx(ref)


class TestPerfectMatchingApi:
    def test_covers_all_vertices(self, rng):
        w = rng.random((12, 12))
        w = (w + w.T) / 2
        pairs = max_weight_perfect_matching(w)
        assert sorted(v for p in pairs for v in p) == list(range(12))

    def test_pairs_ordered(self, rng):
        w = rng.random((8, 8))
        w = (w + w.T) / 2
        assert all(i < j for i, j in max_weight_perfect_matching(w))

    def test_rejects_odd_n(self):
        with pytest.raises(MatchingError):
            max_weight_perfect_matching(np.zeros((3, 3)))

    def test_rejects_asymmetric(self):
        w = np.zeros((4, 4))
        w[0, 1] = 5
        with pytest.raises(MatchingError):
            max_weight_perfect_matching(w)

    def test_empty(self):
        assert max_weight_perfect_matching(np.zeros((0, 0))) == []

    def test_all_zero_weights_still_perfect(self):
        pairs = max_weight_perfect_matching(np.zeros((6, 6)))
        assert len(pairs) == 3


class TestGreedy:
    def test_greedy_takes_heaviest_first(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 10
        w[2, 3] = w[3, 2] = 1
        assert set(greedy_matching(w)) == {(0, 1), (2, 3)}

    def test_greedy_at_least_half_optimal(self, rng):
        for _ in range(20):
            w = rng.random((10, 10))
            w = (w + w.T) / 2
            np.fill_diagonal(w, 0)
            opt = matching_weight(w, max_weight_perfect_matching(w))
            grd = matching_weight(w, greedy_matching(w))
            assert grd >= 0.5 * opt - 1e-9

    def test_greedy_is_perfect(self, rng):
        w = rng.random((8, 8))
        w = (w + w.T) / 2
        pairs = greedy_matching(w)
        assert sorted(v for p in pairs for v in p) == list(range(8))

    def test_greedy_rejects_odd(self):
        with pytest.raises(MatchingError):
            greedy_matching(np.zeros((5, 5)))


def _random_symmetric_int(rng, n, hi):
    m = rng.integers(0, hi, size=(n, n)).astype(float)
    m = np.triu(m, 1)
    return m + m.T


def test_perfect_matching_n64_is_optimal():
    """n=64 perfect matching: full cover, at least the greedy weight."""
    rng = np.random.default_rng(17)
    n = 64
    m = _random_symmetric_int(rng, n, 50)
    pairs = max_weight_perfect_matching(m)
    assert len(pairs) == n // 2
    assert sorted(t for p in pairs for t in p) == list(range(n))
    # optimal ≥ greedy (greedy is a 1/2-approximation)
    assert matching_weight(m, pairs) >= matching_weight(m, greedy_matching(m))
