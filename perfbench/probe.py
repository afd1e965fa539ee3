"""Set-up probe: ``python3 perfbench/probe.py <workload>``, run from the root
of a checkout, in a fresh interpreter.

Prints the seconds from before the library is imported until it has
answered one small request of the workload's kind: import, lazy
initialisation, and for ``serve`` the start of the worker processes.  This
is the set-up a user pays once per process, and what ``setup_s`` reports.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(workload: str) -> float:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import numpy as np

    from repro import Engine, pandora
    from repro.hdbscan.pipeline import hdbscan

    rng = np.random.default_rng(0)
    m = 64
    u = np.arange(1, m + 1)
    v = (rng.random(m) * u).astype(np.int64)
    w = rng.random(m)
    if workload == "hdbscan":
        hdbscan(rng.normal(size=(m, 2)), mpts=4)
    elif workload == "dendrogram":
        pandora(u, v, w)
    elif workload == "serve":
        engine = Engine(executor="process", shards=2)
        try:
            engine.fit_many([(u, v, w)])
            return time.perf_counter() - T0
        finally:
            engine.shutdown()
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return time.perf_counter() - T0


if __name__ == "__main__":
    print(main(sys.argv[1]))
