"""Smoke-run every perfbench workload and fail on a broken result.

Runs ``perfbench/run.py`` for each workload in ``BENCHMARK.json``, once
untraced (``--trace 0``) and once traced (``--trace 1``), and checks the
last output line, the JSON result:

* ``correct`` is true and ``failed`` is 0;
* every metric the spec names is present;
* the traced ``hdbscan`` run reports ``knn.query_ms``,
  ``emst.leaf_pairs_ms``, ``emst.traverse_ms`` and ``extract.condense_ms``
  above zero -- the layer trace rebinds library functions by name, so a
  rename would otherwise zero a layer silently;
* the traced ``hdbscan`` and ``dendrogram`` runs report
  ``pandora.sort_ms``, ``pandora.contraction_ms`` and
  ``pandora.expansion_ms`` above zero -- those come from
  ``PandoraStats.phase_detail``, the library's plan timings, which a break
  in the plan's timing path would zero silently;
* the traced ``serve`` run reports ``serve.shard_ms`` and the same three
  PANDORA layers above zero -- both come from the span each shard worker
  ships back with its result, so a transport that stopped shipping it
  would otherwise move shard time into ``serve.transport_ms`` silently.

Usage (from the repository root)::

    python tools/perfbench_smoke.py [--seconds 3] [--seed 1]

Exit status 0 when every run passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Traced layers that must read above zero, per workload.
_PANDORA_LAYERS = (
    "pandora.sort_ms", "pandora.contraction_ms", "pandora.expansion_ms",
)
NONZERO_LAYERS = {
    "hdbscan": ("knn.query_ms", "emst.leaf_pairs_ms", "emst.traverse_ms",
                "extract.condense_ms", *_PANDORA_LAYERS),
    "dendrogram": _PANDORA_LAYERS,
    "serve": ("serve.shard_ms", *_PANDORA_LAYERS),
}


def check(workload: str, trace: int, result: dict, spec: dict) -> list[str]:
    """Problems with one run's JSON result (empty when it passes)."""
    problems = []
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if result.get("failed") != 0:
        problems.append(f"failed = {result.get('failed')}")
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    metrics = result.get("metrics", {})
    problems += [f"metric {n} missing" for n in names if n not in metrics]
    if trace:
        for name in NONZERO_LAYERS.get(workload, ()):
            if not metrics.get(name, {}).get("value", 0) > 0:
                problems.append(f"{name} is not > 0")
    return problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=3.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, *spec["command"][1:], "--workload",
                   workload, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
            problems = check(workload, trace, result, spec)
            if proc.returncode:
                problems.insert(0, f"exit status {proc.returncode}")
            status = "FAIL " + "; ".join(problems) if problems else "ok"
            print(f"{workload:<11} trace={trace}  {status}")
            if problems:
                failed = True
                sys.stderr.write(proc.stderr[-2000:])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
