"""Cross-backend spatial parity: bit-identical artifacts and traces.

The spatial vocabulary extends the backend contract to the point-cloud
front-end: whatever backend realizes the kernels (NumPy blocks, fused
sequential numba, prange numba-parallel, or their interpreted twins), the
kd-tree arrays, the :class:`~repro.spatial.emst.KNNArtifact`, the EMST edge
list and the downstream HDBSCAN dendrogram parents must be bit-identical to
the numpy reference -- in both index-dtype regimes -- and the emitted
:class:`~repro.parallel.machine.KernelRecord` traces must match record for
record (fusion is backend-internal).
"""

from __future__ import annotations

import numpy as np
import pytest

from backend_fixtures import backend_params, dtype_regime, dtype_regime_params
from repro.hdbscan import hdbscan
from repro.parallel import use_backend
from repro.parallel.machine import CostModel, tracking
from repro.spatial import KDTree, emst, knn_graph


def _cloud(rng, n: int = 400) -> np.ndarray:
    """Adversarial mix: duplicates, collinear runs, two dense blobs."""
    pts = rng.random((n, 2))
    pts[: n // 8] = pts[0]                      # duplicate block
    pts[n // 8: n // 4, 1] = 0.25               # collinear run
    pts[n // 4: n // 2] = pts[n // 4: n // 2] * 0.05 + 2.0   # far blob
    return pts


def _trace(model: CostModel) -> list[tuple]:
    return [(r.name, r.category, r.work, r.phase) for r in model.records]


def _run_spatial(pts: np.ndarray, mpts: int):
    model = CostModel()
    with tracking(model):
        art = knn_graph(pts, 8, leaf_size=32)
        result = emst(pts, mpts=mpts, knn=art)
    return art, result, _trace(model)


@pytest.mark.parametrize("regime", dtype_regime_params())
@pytest.mark.parametrize("backend", backend_params())
class TestSpatialParity:
    def test_tree_arrays_identical(self, backend, regime, rng):
        pts = _cloud(rng)
        with dtype_regime(regime), use_backend("numpy"):
            ref = KDTree.build(pts, leaf_size=16)
        with dtype_regime(regime), use_backend(backend):
            got = KDTree.build(pts, leaf_size=16)
        for field in ("indices", "split_dim", "split_val", "left", "right",
                      "start", "end", "box_lo", "box_hi"):
            r, g = getattr(ref, field), getattr(got, field)
            assert g.dtype == r.dtype, field
            assert np.array_equal(g, r), field

    @pytest.mark.parametrize("mpts", [1, 4])
    def test_knn_artifact_and_emst_identical(self, backend, regime, mpts, rng):
        pts = _cloud(rng)
        with dtype_regime(regime), use_backend("numpy"):
            ref_art, ref_mst, ref_trace = _run_spatial(pts, mpts)
        with dtype_regime(regime), use_backend(backend):
            art, mst, trace = _run_spatial(pts, mpts)
        assert art.ids.dtype == ref_art.ids.dtype
        assert np.array_equal(art.dists, ref_art.dists)
        assert np.array_equal(art.ids, ref_art.ids)
        for field in ("u", "v", "w", "core"):
            assert np.array_equal(getattr(mst, field),
                                  getattr(ref_mst, field)), field
        assert mst.n_rounds == ref_mst.n_rounds
        assert mst.n_pair_visits == ref_mst.n_pair_visits
        assert trace == ref_trace

    def test_hdbscan_parents_and_weight_identical(self, backend, regime, rng):
        """The PR acceptance bar: identical dendrogram parents and MST
        total weight across every registered backend."""
        pts = _cloud(rng, n=300)
        with dtype_regime(regime), use_backend("numpy"):
            ref = hdbscan(pts, mpts=4, min_cluster_size=5)
        with dtype_regime(regime), use_backend(backend):
            got = hdbscan(pts, mpts=4, min_cluster_size=5)
        assert np.array_equal(got.dendrogram.parent, ref.dendrogram.parent)
        assert got.mst.w.sum() == ref.mst.w.sum()
        assert np.array_equal(got.labels, ref.labels)

    @pytest.mark.parametrize("seed", [1385, 1484])
    def test_knn_identical_on_scaled_grid(self, backend, regime, seed):
        """Non-integer grids in d >= 3: rounded d2 plus box-corner ties.
        The NumPy box bound must round like the fused kernels' in-order
        sums, or it prunes neighbors they keep."""
        r = np.random.default_rng(seed)
        d = int(r.integers(3, 7))
        step = r.choice([0.1, 0.3, 0.7, 1.1, 0.01])
        pts = r.integers(0, 6, size=(int(r.integers(60, 300)), d)) * step
        queries = r.integers(-3, 9, size=(40, d)) * step
        k, leaf_size = int(r.integers(1, 12)), int(r.integers(2, 20))
        out = {}
        for name in ("numpy", backend):
            with dtype_regime(regime), use_backend(name):
                tree = KDTree.build(pts, leaf_size=leaf_size)
                out[name] = [tree.query_knn(q, k) for q in (queries, pts)]
        for (rd, ri), (gd, gi) in zip(out["numpy"], out[backend]):
            assert np.array_equal(gd, rd)
            assert np.array_equal(gi, ri)
