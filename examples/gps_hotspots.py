"""Clustering GPS trajectory points: the dendrogram-bound regime.

The paper's introduction argues that on large low-dimensional data (GPS
locations, Table 2's Ngsimlocation3) the dendrogram step dominates HDBSCAN*.
This example reproduces that situation end-to-end on NGSIM-like synthetic
vehicle positions: it clusters congestion hotspots, then compares the
PANDORA dendrogram against the sequential union-find baseline on the exact
same MST -- the comparison that motivates the whole paper.

Run:  python examples/gps_hotspots.py
"""

import time

import numpy as np

from repro import dendrogram_bottomup, pandora
from repro.data import ngsim_like
from repro.hdbscan import hdbscan
from repro.perf import mpoints_per_sec


def main() -> None:
    n = 40_000
    print(f"simulating {n:,} vehicle GPS positions on 6 roads ...")
    points = ngsim_like(n, seed=11)

    # --- end-to-end clustering -------------------------------------------
    result = hdbscan(points, mpts=4, min_cluster_size=100)
    sizes = np.sort(result.flat.cluster_sizes())[::-1]
    print(f"hotspot clusters: {result.n_clusters} "
          f"(largest: {sizes[:5].tolist()}), "
          f"noise {result.flat.noise_fraction:.1%}")
    print("phases:", {k: f"{v:.2f}s" for k, v in result.phase_seconds.items()})

    # --- the paper's core comparison on the same MST ----------------------
    mst = result.mst
    print("\ndendrogram construction on the same MST "
          f"({mst.n_edges:,} edges, skewness "
          f"{result.dendrogram.skewness:.0f}):")

    t0 = time.perf_counter()
    ref = dendrogram_bottomup(mst.u, mst.v, mst.w, len(points))
    t_uf = time.perf_counter() - t0

    t0 = time.perf_counter()
    dend, stats = pandora(mst.u, mst.v, mst.w, len(points))
    t_pan = time.perf_counter() - t0

    assert np.array_equal(dend.parent, ref.parent), "algorithms disagree!"
    print(f"  union-find (sequential): {t_uf:.3f}s "
          f"= {mpoints_per_sec(n, t_uf):6.1f} MPts/s")
    print(f"  PANDORA   (vectorized) : {t_pan:.3f}s "
          f"= {mpoints_per_sec(n, t_pan):6.1f} MPts/s "
          f"({t_uf / t_pan:.1f}x)")
    print(f"  identical dendrograms verified "
          f"({stats.n_levels} contraction levels: {stats.level_sizes})")


if __name__ == "__main__":
    main()
