"""Seeded workload inputs.

The benchmark makes every input itself, from ``--seed`` alone, so the
program under test receives only generated arrays and the same seed always
gives the same inputs.  Nothing here calls the library.
"""

from __future__ import annotations

import numpy as np


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def point_clouds(seed: int, count: int, n: int, centers: int = 6,
                 noise: float = 0.1) -> list[np.ndarray]:
    """``count`` 2-d clouds of ``n`` points: equal-sized Gaussian blobs of
    unequal spread over a uniform background, the shape HDBSCAN* is meant
    for.  The blobs sit on a jittered ring so that they rarely merge, which
    keeps the cost of one cloud close to that of another."""
    clouds = []
    n_noise = int(n * noise)
    which = np.arange(n - n_noise) % centers
    for i in range(count):
        rng = _rng(seed, 1, i)
        angle = rng.uniform(0, 2 * np.pi) + np.arange(centers) * 2 * np.pi / centers
        mid = 15.0 * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        mid += rng.uniform(-2.0, 2.0, size=mid.shape)
        spread = rng.permutation(np.linspace(0.6, 2.0, centers))
        blob = mid[which] + rng.normal(size=(which.size, 2)) * spread[which, None]
        back = rng.uniform(-22.0, 22.0, size=(n_noise, 2))
        pts = np.concatenate([blob, back])
        clouds.append(np.ascontiguousarray(pts[rng.permutation(n)]))
    return clouds


def _shuffle_edges(rng, child, parent, w, n):
    """Relabel vertices, shuffle edge order and endpoint orientation."""
    label = rng.permutation(n)
    u, v = label[child], label[parent]
    flip = rng.random(u.size) < 0.5
    u, v = np.where(flip, v, u), np.where(flip, u, v)
    order = rng.permutation(u.size)
    return (np.ascontiguousarray(u[order]), np.ascontiguousarray(v[order]),
            np.ascontiguousarray(w[order]))


def spanning_trees(seed: int, count: int, m: int
                   ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``count`` weighted trees of ``m`` edges, alternating two shapes.

    Even inputs are random recursive trees with heavily tied weights
    (balanced dendrograms, tie-breaking exercised); odd inputs are
    caterpillars whose weights rise along the spine, which gives the long
    skewed dendrogram chains of the paper's hardest datasets.
    """
    trees = []
    child = np.arange(1, m + 1)
    for i in range(count):
        rng = _rng(seed, 2, i)
        if i % 2 == 0:
            parent = (rng.random(m) * child).astype(np.int64)
            levels = max(2, m // 16)
            w = rng.integers(0, levels, size=m) / levels
        else:
            on_spine = rng.random(m) < 0.9
            parent = np.where(on_spine, child - 1,
                              (rng.random(m) * child).astype(np.int64))
            w = child / m + rng.normal(scale=0.02, size=m)
        trees.append(_shuffle_edges(rng, child, parent, w, m + 1))
    return trees
