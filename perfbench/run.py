"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hdbscan --seed 1 --seconds 10 --trace 0

It runs one workload of ``BENCHMARK.json`` against the library source in
``src/`` of that checkout, checks every output, and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  It exits non-zero, printing no result, when the library
source is absent.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = HERE / ".traces"

# Set-up is probed in fresh interpreters, this many before the timed loop
# and as many after it, and the median kept: a shared machine's slow
# stretches last seconds to minutes, so probes far apart in time disagree
# less between runs.
SETUP_PROBES = 3


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_library() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def _setup_probes(workload: str) -> list[float]:
    runs = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        runs.append(float(proc.stdout.strip().splitlines()[-1]))
    return runs


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _write_trace(args, layers: dict, spans: list) -> None:
    """Keep the run's layer table, its environment and the spans of its
    last request in ``perfbench/.traces/``."""
    import numpy

    from repro.parallel.backend import get_backend

    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "env": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                "numpy": numpy.__version__, "backend": get_backend().name,
                "machine": platform.machine()},
        "layers": layers,
        "spans": spans,
    }, indent=1))


def main(argv: list[str] | None = None) -> int:
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_library()
    sys.path.insert(0, str(HERE))
    import workloads

    probes = [] if args.trace else _setup_probes(args.workload)
    out = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                             bool(args.trace))
    if not out.latencies:
        sys.exit("perfbench: every request failed")
    if args.trace:
        # Every per-layer metric is printed; layers this workload does not
        # pass through read zero.
        out.layers["request.mean_ms"] = statistics.fmean(out.latencies) * 1e3
        values = {m["name"]: out.layers.get(m["name"], 0.0)
                  for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        _write_trace(args, values, out.spans)
    else:
        values = {
            "p90_ms": _percentile(out.latencies, 0.9) * 1e3,
            "setup_s": statistics.median(probes + _setup_probes(args.workload)),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if set(values) != set(units):
            sys.exit("perfbench: BENCHMARK.json end_to_end list out of step")
    print(json.dumps({
        "correct": bool(out.correct and out.attempted > 0),
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
