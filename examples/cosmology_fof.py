"""Friends-of-friends halo finding on a synthetic cosmology snapshot.

The paper's motivating workload (Figure 1): astronomers run FoF / HDBSCAN*
on N-body particle snapshots (HACC).  This example generates a
Soneira-Peebles hierarchical particle distribution -- the classical synthetic
stand-in for cosmological clustering -- finds halos at several linking
lengths, and prints a halo mass function, exactly the analysis a cosmologist
would run on the real thing.

The linking-length sweep reuses ONE Euclidean MST: FoF at linking length b is
a single-linkage dendrogram cut at b, so the sweep costs one dendrogram cut
per b instead of a full re-clustering -- the practical payoff of the
hierarchy the paper accelerates.

Run:  python examples/cosmology_fof.py
"""

import time

import numpy as np

from repro import pandora
from repro.data import hacc_like
from repro.spatial import emst


def main() -> None:
    n = 30_000
    print(f"generating {n:,} particles (Soneira-Peebles + uniform field) ...")
    particles = hacc_like(n, seed=7)

    t0 = time.perf_counter()
    mst = emst(particles, mpts=1)
    t_mst = time.perf_counter() - t0

    t0 = time.perf_counter()
    dend, stats = pandora(mst.u, mst.v, mst.w, len(particles))
    t_dendro = time.perf_counter() - t0
    print(f"EMST {t_mst:.2f}s ({mst.n_rounds} Boruvka rounds), "
          f"dendrogram {t_dendro:.3f}s ({stats.n_levels} contraction levels, "
          f"skewness {dend.skewness:.0f})")

    # mean interparticle spacing sets the natural linking-length scale
    volume = np.prod(particles.max(axis=0) - particles.min(axis=0))
    spacing = (volume / n) ** (1 / 3)
    print(f"mean interparticle spacing: {spacing:.2f}")

    print(f"\n{'b/spacing':>10} {'halos>=10':>10} {'largest':>9} "
          f"{'in halos':>9}")
    for frac in (0.1, 0.2, 0.3, 0.5):
        b = frac * spacing
        labels = dend.cut(b)
        sizes = np.bincount(labels)
        halos = sizes[sizes >= 10]
        in_halos = halos.sum() / n
        print(f"{frac:>10.2f} {len(halos):>10,} {sizes.max():>9,} "
              f"{in_halos:>8.1%}")

    # halo mass function at the standard b = 0.2 spacing
    labels = dend.cut(0.2 * spacing)
    sizes = np.bincount(labels)
    sizes = sizes[sizes >= 10]
    print("\nhalo mass function (b = 0.2 spacing):")
    edges = [10, 20, 50, 100, 200, 500, 1000, 10**9]
    for lo, hi in zip(edges, edges[1:]):
        count = int(((sizes >= lo) & (sizes < hi)).sum())
        label = f"{lo}-{hi - 1}" if hi < 10**9 else f">={lo}"
        print(f"  {label:>10}: {count} halos")


if __name__ == "__main__":
    main()
