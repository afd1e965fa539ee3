"""Merge every ``BENCH_*.json`` artifact into one perf-trajectory summary.

The nightly workflow runs the full-size benchmark suite and then this
script, so the job log ends with a single table of the headline number
from each artifact -- the repo's performance trajectory at a glance,
without opening any JSON.  Deliberately dependency-free (stdlib only): it
must run before the package installs and on artifacts downloaded outside
the repo.

Usage::

    python benchmarks/trajectory.py [--dir benchmarks] [--json out.json]

Unknown or partial artifacts degrade to a generic line rather than
failing: the trajectory must keep printing as benchmarks evolve.
"""

from __future__ import annotations

import argparse
import glob
import json
import os

_DIR = os.path.dirname(os.path.abspath(__file__))


def _get(d: dict, *path, default=None):
    for key in path:
        if not isinstance(d, dict) or key not in d:
            return default
        d = d[key]
    return d


def _fmt(value, suffix: str = "") -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3g}{suffix}"
    return f"{value}{suffix}"


def _headline(name: str, data: dict) -> list[tuple[str, str]]:
    """(metric, value) headline rows for one artifact, best-effort."""
    bench = data.get("bench", name)
    if bench == "sort":
        sizes = data.get("sizes", {})
        largest = _get(sizes, max(sizes, key=lambda s: int(s)), default={}) \
            if sizes else {}
        return [
            ("canonical radix vs lexsort (largest n)",
             _fmt(_get(largest, "backends", "numpy", "canonical", "speedup"),
                  "x")),
            ("e2e sort-phase speedup / sort fraction",
             f"{_fmt(_get(largest, 'e2e_numpy', 'sort_phase_speedup'), 'x')}"
             f" / {_fmt(_get(largest, 'e2e_numpy', 'radix', 'sort_fraction'))}"),
        ]
    if bench == "backends":
        return [
            ("numba total speedup vs numpy",
             _fmt(_get(data, "numba_speedup_vs_numpy", "total"), "x")),
            ("numpy sort fraction",
             _fmt(_get(data, "variants", "numpy", "sort_fraction"))),
        ]
    if bench == "engine":
        return [
            ("batched multi-mpts vs naive loop",
             _fmt(_get(data, "multi_mpts", "speedup"), "x")),
            ("pool vs serial (legacy recording)",
             _fmt(_get(data, "serving", "pool_vs_serial"), "x")),
        ]
    if bench == "serving":
        backend = data.get("backend", "?")
        return [
            (f"fit_many 4-worker scaling [{backend}]",
             _fmt(_get(data, "scaling_vs_1_worker", "4"), "x")),
            (f"fit_many 8-worker scaling [{backend}]",
             _fmt(_get(data, "scaling_vs_1_worker", "8"), "x")),
        ]
    if bench == "spatial":
        n = _get(data, "n_points")
        return [
            (f"hdbscan e2e seconds [numpy, n={_fmt(n)}]",
             _fmt(_get(data, "backends", "numpy", "hdbscan_e2e", "best"),
                  "s")),
            ("numba-parallel e2e speedup vs numpy",
             _fmt(_get(data, "speedup_vs_numpy", "numba-parallel"), "x")),
        ]
    # Unknown artifact: surface its scalar fields rather than failing.
    scalars = [(k, _fmt(v)) for k, v in sorted(data.items())
               if isinstance(v, (int, float, str))][:3]
    return scalars or [("(no scalar headline)", "-")]


def collect(directory: str) -> list[dict]:
    rows = []
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        name = os.path.basename(path)
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            rows.append({"artifact": name, "metric": "(unreadable)",
                         "value": str(exc)})
            continue
        scale = "smoke" if name.endswith("_smoke.json") else "full"
        for metric, value in _headline(name, data):
            rows.append({"artifact": name, "scale": scale,
                         "metric": metric, "value": value})
    return rows


def render(rows: list[dict]) -> str:
    headers = ["artifact", "scale", "metric", "value"]
    table = [[str(r.get(h, "-")) for h in headers] for r in rows]
    widths = [max(len(h), *(len(row[i]) for row in table)) if table else len(h)
              for i, h in enumerate(headers)]
    sep = "-" * (sum(widths) + 2 * (len(headers) - 1))
    lines = ["Perf trajectory (headline numbers from every BENCH artifact)",
             "  ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths))
              for row in table]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", default=_DIR,
                        help="directory holding BENCH_*.json artifacts")
    parser.add_argument("--json", default=None,
                        help="also write the merged rows to this JSON file")
    args = parser.parse_args(argv)
    rows = collect(args.dir)
    print(render(rows))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
