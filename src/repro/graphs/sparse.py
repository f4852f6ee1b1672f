"""Sparse communication-matrix backend.

:class:`SparseCommMatrix` stores only the nonzero cells (a symmetric
dict-of-rows layout, the mutable precursor of CSR) behind the exact
:class:`~repro.core.commmatrix.CommunicationMatrix` interface.  Power-law
communication at 128-1024 threads fills well under 10% of the dense matrix,
so the detection hot path (``add_events``) and the scalable mapper touch
``O(nnz)`` cells instead of ``O(n^2)``.

**Bit-parity discipline** (the same contract the REPRO_SLOW_SPCD engine
follows): every mutation applies the *same float operations in the same
order* as the dense backend — ``add``/``add_events`` accumulate cell by
cell exactly as ``np.add.at`` does, ``merge`` adds per cell, ``decay``
multiplies per cell — so fold/merge/digest/CSV results are bit-identical
to the dense backend at any density (pinned by the sparse-backend parity
tests and the stateful model in ``tests/model/test_sparse_model.py``).
Read-side analytics (``partners``, ``correlation``, ``total`` ...) are
inherited: they run on the lazily materialised dense view, which holds
exactly the dense backend's payload.

``SpcdConfig.sparse_matrix`` selects this backend for the SPCD detector;
everything downstream — ``ShardedShareTable`` folding, ``repro.serve``, the
oracle — keeps working untouched because only the storage behind the
interface changes.
"""

from __future__ import annotations

import numpy as np

from repro.core.commmatrix import CommunicationMatrix
from repro.errors import ConfigurationError

__all__ = ["SparseCommMatrix", "make_comm_matrix"]


class SparseCommMatrix(CommunicationMatrix):
    """Symmetric zero-diagonal communication counts, stored sparsely."""

    def __init__(self, n_threads: int, data: np.ndarray | None = None) -> None:
        if n_threads <= 0:
            raise ConfigurationError("need at least one thread")
        self.n = n_threads
        #: per-row ``{col: value}`` dicts; both directions of every cell are
        #: stored, mirroring the dense backend's full symmetric array
        self._rows: list[dict[int, float]] = [dict() for _ in range(n_threads)]
        self._dense: np.ndarray | None = None
        if data is not None:
            data = np.asarray(data, dtype=np.float64)
            if data.shape != (n_threads, n_threads):
                raise ConfigurationError(f"matrix shape {data.shape} != ({n_threads},)*2")
            if not np.allclose(data, data.T):
                raise ConfigurationError("communication matrix must be symmetric")
            rows, cols = np.nonzero(data)
            vals = data[rows, cols]
            for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
                if i != j:
                    self._rows[i][j] = v

    # -- dense view ---------------------------------------------------------
    def _materialise(self) -> np.ndarray:
        if self._dense is None:
            m = np.zeros((self.n, self.n), dtype=np.float64)
            for i, row in enumerate(self._rows):
                if row:
                    idx = np.fromiter(row.keys(), dtype=np.int64, count=len(row))
                    vals = np.fromiter(row.values(), dtype=np.float64, count=len(row))
                    m[i, idx] = vals
            self._dense = m
        return self._dense

    @property
    def _m(self) -> np.ndarray:  # type: ignore[override]
        """Dense materialisation — feeds every inherited read-side method."""
        return self._materialise()

    # -- mutation -----------------------------------------------------------
    def add(self, i: int, j: int, amount: float = 1.0) -> None:
        """Record *amount* of communication between threads *i* and *j*."""
        if i == j:
            return
        i, j = int(i), int(j)
        rows = self._rows
        rows[i][j] = rows[i].get(j, 0.0) + amount
        rows[j][i] = rows[j].get(i, 0.0) + amount
        self._dense = None

    def add_events(self, i: int, partners: np.ndarray) -> None:
        """Record one unit event between *i* and every thread in *partners*.

        Replays exactly the dense backend's accumulation order: the small
        branch interleaves row/column additions per partner, the large
        branch applies all row-*i* additions first, then all column
        additions — matching its two ``np.add.at`` dispatches, so repeated
        partners round bit-identically even after :meth:`decay` left
        fractions.
        """
        i = int(i)
        rows = self._rows
        row_i = rows[i]
        if len(partners) <= 8:
            for j in partners.tolist() if hasattr(partners, "tolist") else partners:
                j = int(j)
                if j != i:
                    row_i[j] = row_i.get(j, 0.0) + 1.0
                    rj = rows[j]
                    rj[i] = rj.get(i, 0.0) + 1.0
            self._dense = None
            return
        partners = np.asarray(partners, dtype=np.int64)
        partners = partners[partners != i]
        if partners.size == 0:
            return
        plist = partners.tolist()
        for j in plist:
            row_i[j] = row_i.get(j, 0.0) + 1.0
        for j in plist:
            rj = rows[j]
            rj[i] = rj.get(i, 0.0) + 1.0
        self._dense = None

    def merge(self, other: CommunicationMatrix, scale: float = 1.0) -> "SparseCommMatrix":
        """Accumulate *other* into this matrix in place; returns ``self``.

        Cell-for-cell the dense backend's ``self += scale * other``; a dense
        *other* contributes its nonzero cells (adding an exact zero is the
        identity the dense path performs explicitly).
        """
        if other.n != self.n:
            raise ConfigurationError("matrices must have the same size")
        if isinstance(other, SparseCommMatrix):
            items = enumerate(other._rows)
            for i, row in items:
                mine = self._rows[i]
                for j, v in row.items():
                    mine[j] = mine.get(j, 0.0) + (v if scale == 1.0 else scale * v)
        else:
            om = other.matrix
            rows, cols = np.nonzero(om)
            vals = om[rows, cols]
            for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
                mine = self._rows[i]
                mine[j] = mine.get(j, 0.0) + (v if scale == 1.0 else scale * v)
        self._dense = None
        return self

    def decay(self, factor: float) -> None:
        """Multiply everything by *factor* (aging for dynamic detection)."""
        if not 0.0 <= factor <= 1.0:
            raise ConfigurationError("decay factor must be in [0, 1]")
        for row in self._rows:
            for j in row:
                row[j] = row[j] * factor
        self._dense = None

    def reset(self) -> None:
        """Zero the matrix."""
        for row in self._rows:
            row.clear()
        self._dense = None

    def copy(self) -> "SparseCommMatrix":
        """Deep copy (stays sparse)."""
        out = SparseCommMatrix(self.n)
        out._rows = [dict(row) for row in self._rows]
        return out

    # -- sparse-only views --------------------------------------------------
    def nnz(self) -> int:
        """Stored nonzero off-diagonal cells (both triangles counted)."""
        return sum(1 for row in self._rows for v in row.values() if v != 0.0)

    def row_items(self, i: int) -> "list[tuple[int, float]]":
        """Nonzero ``(partner, amount)`` cells of row *i*, unordered.

        The scalable mapper consumes the matrix through this accessor, so
        its per-decision work is ``O(nnz)``, never ``O(n^2)``.
        """
        return [(j, v) for j, v in self._rows[i].items() if v != 0.0]


def make_comm_matrix(n_threads: int, *, sparse: bool = False) -> CommunicationMatrix:
    """Communication-matrix factory honouring ``SpcdConfig.sparse_matrix``."""
    return SparseCommMatrix(n_threads) if sparse else CommunicationMatrix(n_threads)
