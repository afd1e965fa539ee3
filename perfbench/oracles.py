"""Reference answers the benchmark checks the program's outputs against."""

from __future__ import annotations

import numpy as np


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def mutual_reachability_mst_weight(points: np.ndarray, mpts: int) -> float:
    """Total weight of the mutual-reachability MST, by dense Prim.

    Independent of the library: the core distance is the distance to the
    ``mpts``-th nearest neighbour counting the point itself, and the MST
    weight is unique even when edge weights tie.
    """
    n = points.shape[0]
    core = np.empty(n)
    for s in range(0, n, 256):
        d2 = _sq_dists(points[s:s + 256], points)
        core[s:s + 256] = np.sqrt(np.partition(d2, mpts - 1, axis=1)[:, mpts - 1])
    done = np.zeros(n, dtype=bool)
    best = np.full(n, np.inf)
    j, total = 0, 0.0
    for _ in range(n - 1):
        done[j] = True
        d = np.sqrt(_sq_dists(points[j:j + 1], points)[0])
        np.maximum(d, core, out=d)
        np.maximum(d, core[j], out=d)
        np.minimum(best, d, out=best)
        best[done] = np.inf
        j = int(np.argmin(best))
        total += best[j]
    return total


def weight_matches(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-9 * max(1.0, abs(want))
