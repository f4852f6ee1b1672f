"""Sparse <-> dense communication-matrix bit-parity.

:class:`~repro.graphs.sparse.SparseCommMatrix` promises the exact float
results of the dense backend — not approximately, *bit for bit* — for every
mutation path (``add``, ``add_events`` small and large, ``merge`` both
directions, ``decay``) and every read-side view built on them.  The
differential suite here drives both backends through identical operation
sequences at a sweep of densities and compares digests; the stateful
model-checking companion lives in ``tests/model/test_sparse_model.py``.
"""

import numpy as np
import pytest

from repro.core.commmatrix import CommunicationMatrix
from repro.core.manager import SpcdConfig, matrix_digest
from repro.engine.settings import RunSettings
from repro.engine.simulator import EngineConfig, Simulator
from repro.errors import ConfigurationError
from repro.graphs.sparse import SparseCommMatrix, make_comm_matrix
from repro.workloads.npb import make_npb


def _random_ops(rng, n, n_ops):
    """A reproducible mixed-operation script (shared by both backends)."""
    ops = []
    for _ in range(n_ops):
        kind = rng.integers(0, 5)
        if kind == 0:
            ops.append(("add", int(rng.integers(n)), int(rng.integers(n)),
                        float(rng.integers(1, 6))))
        elif kind == 1:  # small add_events (interleaved scalar branch)
            ops.append(("events", int(rng.integers(n)),
                        rng.integers(0, n, size=int(rng.integers(1, 8)))))
        elif kind == 2:  # large add_events (two-dispatch branch)
            ops.append(("events", int(rng.integers(n)),
                        rng.integers(0, n, size=int(rng.integers(9, 40)))))
        elif kind == 3:
            ops.append(("decay", float(rng.uniform(0.5, 1.0))))
        else:
            ops.append(("add", int(rng.integers(n)), int(rng.integers(n)), 1.0))
    return ops


def _apply(matrix, ops):
    for op in ops:
        if op[0] == "add":
            matrix.add(op[1], op[2], op[3])
        elif op[0] == "events":
            matrix.add_events(op[1], op[2])
        else:
            matrix.decay(op[1])


@pytest.mark.parametrize("n,n_ops", [(4, 50), (16, 200), (64, 400)])
def test_digest_parity_across_densities(n, n_ops):
    rng = np.random.default_rng(n * 1000 + n_ops)
    ops = _random_ops(rng, n, n_ops)
    dense, sparse = CommunicationMatrix(n), SparseCommMatrix(n)
    _apply(dense, ops)
    _apply(sparse, ops)
    assert matrix_digest(sparse) == matrix_digest(dense)
    assert np.array_equal(sparse.matrix, dense.matrix)


class TestConstruction:
    def test_from_data_matches_dense(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 5, size=(8, 8)).astype(float)
        data = (data + data.T) / 2
        np.fill_diagonal(data, 0.0)
        assert matrix_digest(SparseCommMatrix(8, data)) == matrix_digest(
            CommunicationMatrix(8, data)
        )

    def test_rejects_asymmetric_data(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ConfigurationError):
            SparseCommMatrix(2, bad)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ConfigurationError):
            SparseCommMatrix(0)

    def test_factory_honours_gate(self):
        assert isinstance(make_comm_matrix(4, sparse=True), SparseCommMatrix)
        dense = make_comm_matrix(4)
        assert isinstance(dense, CommunicationMatrix)
        assert not isinstance(dense, SparseCommMatrix)


class TestMergeParity:
    def _pair(self, seed, n=12):
        rng = np.random.default_rng(seed)
        ops = _random_ops(rng, n, 120)
        dense, sparse = CommunicationMatrix(n), SparseCommMatrix(n)
        _apply(dense, ops)
        _apply(sparse, ops)
        return dense, sparse

    @pytest.mark.parametrize("scale", [1.0, 0.25, 3.0])
    def test_sparse_merge_sparse(self, scale):
        d1, s1 = self._pair(1)
        d2, s2 = self._pair(2)
        d1.merge(d2, scale)
        s1.merge(s2, scale)
        assert matrix_digest(s1) == matrix_digest(d1)

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_sparse_merge_dense_and_reverse(self, scale):
        d1, s1 = self._pair(3)
        d2, s2 = self._pair(4)
        # sparse absorbing a dense other
        ref = d1.copy().merge(d2, scale)
        assert matrix_digest(s1.copy().merge(d2, scale)) == matrix_digest(ref)
        # dense absorbing a sparse other (inherited fast path reads ._m)
        assert matrix_digest(d1.copy().merge(s2, scale)) == matrix_digest(ref)

    def test_merge_order_independent_for_integer_matrices(self):
        shards = []
        for seed in range(4):
            s = SparseCommMatrix(8)
            rng = np.random.default_rng(seed)
            for _ in range(40):
                s.add(int(rng.integers(8)), int(rng.integers(8)), 1.0)
            shards.append(s)
        fwd = SparseCommMatrix(8)
        for s in shards:
            fwd.merge(s)
        rev = SparseCommMatrix(8)
        for s in reversed(shards):
            rev.merge(s)
        assert matrix_digest(fwd) == matrix_digest(rev)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            SparseCommMatrix(4).merge(SparseCommMatrix(5))


class TestReadSideViews:
    def _pair(self):
        rng = np.random.default_rng(9)
        ops = _random_ops(rng, 10, 150)
        dense, sparse = CommunicationMatrix(10), SparseCommMatrix(10)
        _apply(dense, ops)
        _apply(sparse, ops)
        return dense, sparse

    def test_inherited_views_agree(self):
        dense, sparse = self._pair()
        assert sparse.total() == dense.total()
        assert sparse.nnz() == dense.nnz()
        assert sparse.density() == dense.density()
        assert np.array_equal(sparse.partners(), dense.partners())
        assert sparse.heterogeneity() == dense.heterogeneity()
        assert sparse.correlation(dense) == pytest.approx(1.0)

    def test_row_items_matches_dense_rows(self):
        dense, sparse = self._pair()
        for i in range(10):
            got = dict(sparse.row_items(i))
            want = {j: v for j, v in enumerate(dense.matrix[i]) if v != 0.0}
            assert got == want

    def test_csv_round_trip(self, tmp_path):
        dense, sparse = self._pair()
        sparse.to_csv(tmp_path / "s.csv")
        dense.to_csv(tmp_path / "d.csv")
        assert (tmp_path / "s.csv").read_text() == (tmp_path / "d.csv").read_text()

    def test_copy_reset_decay_zero(self):
        _, sparse = self._pair()
        clone = sparse.copy()
        assert isinstance(clone, SparseCommMatrix)
        assert matrix_digest(clone) == matrix_digest(sparse)
        clone.add(0, 1, 5.0)
        assert matrix_digest(clone) != matrix_digest(sparse)  # deep copy
        clone.decay(0.0)
        assert clone.total() == 0.0
        sparse.reset()
        assert sparse.nnz() == 0 and sparse.total() == 0.0

    def test_decay_validation(self):
        with pytest.raises(ConfigurationError):
            SparseCommMatrix(4).decay(1.5)


class TestEndToEnd:
    def test_sparse_run_digest_identical_to_dense(self):
        """SpcdConfig.sparse_matrix flips storage only: same detection, same run."""
        cfg = EngineConfig(steps=80, batch_size=64)
        dense = Simulator(make_npb("CG", 8), "spcd", seed=11, config=cfg,
                          settings=RunSettings()).run()
        sparse = Simulator(make_npb("CG", 8), "spcd", seed=11, config=cfg,
                           settings=RunSettings(),
                           spcd_config=SpcdConfig(sparse_matrix=True)).run()
        assert dense.exec_time_s == sparse.exec_time_s
        assert np.array_equal(dense.detected_matrix.matrix,
                              sparse.detected_matrix.matrix)

    def test_detector_uses_sparse_backend_when_asked(self):
        from repro.core.spcd import SpcdDetector

        det = SpcdDetector(8, sparse_matrix=True)
        assert isinstance(det.matrix, SparseCommMatrix)
