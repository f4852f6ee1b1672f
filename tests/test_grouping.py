"""Tests for hierarchical group formation (Eq. 1)."""

import numpy as np
import pytest

from repro.core.grouping import build_hierarchy, group_matrix, pair_groups
from repro.errors import MappingError
from repro.workloads.patterns import chain_pattern, neighbor_pairs_pattern


class TestGroupMatrix:
    def test_eq1_for_pairs(self):
        """H[(x,y),(z,k)] = M[x,z] + M[x,k] + M[y,z] + M[y,k]."""
        m = np.arange(16, dtype=float).reshape(4, 4)
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0)
        h = group_matrix(m, [(0, 1), (2, 3)])
        expected = m[0, 2] + m[0, 3] + m[1, 2] + m[1, 3]
        assert h[0, 1] == expected == h[1, 0]

    def test_diagonal_zeroed(self):
        m = neighbor_pairs_pattern(4, 10)
        h = group_matrix(m, [(0, 1), (2, 3)])
        assert h[0, 0] == 0 and h[1, 1] == 0

    def test_singleton_groups_identity(self):
        m = chain_pattern(4)
        h = group_matrix(m, [(0,), (1,), (2,), (3,)])
        assert np.allclose(h, m)

    def test_rejects_duplicate_membership(self):
        with pytest.raises(MappingError):
            group_matrix(np.zeros((4, 4)), [(0, 1), (1, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(MappingError):
            group_matrix(np.zeros((4, 4)), [(0, 9)])


class TestPairGroups:
    def test_pairs_heavy_partners(self):
        m = neighbor_pairs_pattern(8, 10)
        merged = pair_groups(m, [(t,) for t in range(8)])
        assert sorted(tuple(sorted(g)) for g in merged) == [
            (0, 1), (2, 3), (4, 5), (6, 7),
        ]

    def test_member_order_preserves_tree(self):
        m = neighbor_pairs_pattern(4, 10)
        pairs = pair_groups(m, [(t,) for t in range(4)])
        quads = pair_groups(m, pairs)
        assert len(quads) == 1 and len(quads[0]) == 4
        # The first two members form one level-1 pair, the last two the other.
        first, second = set(quads[0][:2]), set(quads[0][2:])
        assert first in ({0, 1}, {2, 3}) and second in ({0, 1}, {2, 3})

    def test_rejects_odd_group_count(self):
        with pytest.raises(MappingError):
            pair_groups(np.zeros((3, 3)), [(0,), (1,), (2,)])


class TestBuildHierarchy:
    def test_grows_to_target(self):
        m = chain_pattern(16)
        groups = build_hierarchy(m, 4)
        assert len(groups) == 4 and all(len(g) == 4 for g in groups)

    def test_target_one_is_identity(self):
        m = chain_pattern(4)
        assert build_hierarchy(m, 1) == [(0,), (1,), (2,), (3,)]

    def test_chain_pairs_adjacent(self):
        m = chain_pattern(8)
        pairs = build_hierarchy(m, 2)
        for g in pairs:
            assert abs(g[0] - g[1]) == 1

    def test_custom_start(self):
        m = neighbor_pairs_pattern(8)
        start = [(0, 1), (2, 3), (4, 5), (6, 7)]
        groups = build_hierarchy(m, 4, start=start)
        assert len(groups) == 2

    def test_rejects_non_power_ratio(self):
        with pytest.raises(MappingError):
            build_hierarchy(chain_pattern(12), 3)

    def test_rejects_mixed_start_sizes(self):
        with pytest.raises(MappingError):
            build_hierarchy(chain_pattern(4), 4, start=[(0,), (1, 2), (3,)])

    def test_rejects_shrinking(self):
        with pytest.raises(MappingError):
            build_hierarchy(chain_pattern(4), 1, start=[(0, 1), (2, 3)])


def _random_symmetric_int(rng, n, hi):
    m = rng.integers(0, hi, size=(n, n)).astype(float)
    m = np.triu(m, 1)
    return m + m.T


def test_group_matrix_fold_matches_indicator_product():
    """Equal-size gather-fold equals the indicator matmul exactly on ints."""
    rng = np.random.default_rng(11)
    for n, size in ((16, 2), (32, 4), (64, 8)):
        comm = _random_symmetric_int(rng, n, 100)
        perm = rng.permutation(n)
        groups = [tuple(perm[i: i + size].tolist()) for i in range(0, n, size)]
        fast = group_matrix(comm, groups)
        g = len(groups)
        indicator = np.zeros((g, n))
        for a, members in enumerate(groups):
            indicator[a, list(members)] = 1.0
        ref = indicator @ comm @ indicator.T
        np.fill_diagonal(ref, 0.0)
        assert np.array_equal(fast, ref)


def test_group_matrix_still_validates_members():
    comm = np.zeros((4, 4))
    with pytest.raises(MappingError):
        group_matrix(comm, [(0, 1), (2, 9)])
    with pytest.raises(MappingError):
        group_matrix(comm, [(0, 1), (1, 2)])


def test_build_hierarchy_unchanged_semantics():
    """Pairing rounds still produce the documented pairing-tree encoding."""
    rng = np.random.default_rng(2)
    n = 16
    comm = _random_symmetric_int(rng, n, 30)
    groups = build_hierarchy(comm, 4)
    assert len(groups) == 4 and all(len(g) == 4 for g in groups)
    assert sorted(t for g in groups for t in g) == list(range(n))
    # one round of pairing halves the group count
    assert len(pair_groups(comm, groups)) == 2
