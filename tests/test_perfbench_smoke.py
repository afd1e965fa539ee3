"""The perfbench smoke checker (``tools/perfbench_smoke.py``) must reject
the results it promises to reject; CI relies on it."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location(
        "perfbench_smoke", REPO / "tools" / "perfbench_smoke.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def _result(trace: int, **overrides) -> dict:
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    out = {"correct": True, "attempted": 10, "failed": 0,
           "metrics": {n: {"value": 1.0, "unit": "ms"} for n in names}}
    out.update(overrides)
    return out


def test_accepts_a_good_result():
    smoke = _load()
    for trace in (0, 1):
        assert smoke.check("hdbscan", trace, _result(trace), SPEC) == []


def test_rejects_incorrect_failed_and_missing():
    smoke = _load()
    assert smoke.check("serve", 0, _result(0, correct=False), SPEC)
    assert smoke.check("serve", 0, _result(0, failed=2), SPEC)
    assert smoke.check("serve", 0, _result(0, metrics={}), SPEC)
    assert smoke.check("serve", 0, {}, SPEC)


def test_rejects_a_zeroed_knn_layer():
    smoke = _load()
    bad = _result(1)
    bad["metrics"]["knn.query_ms"]["value"] = 0.0
    assert smoke.check("hdbscan", 1, bad, SPEC) == ["knn.query_ms is not > 0"]
    # Other workloads never run kNN: a zero there is expected.
    assert smoke.check("dendrogram", 1, bad, SPEC) == []


def test_rejects_zeroed_emst_layers():
    """The trace also rebinds the EMST traversal and its leaf-pair kernel
    by name: a zero there means a rename broke the trace."""
    smoke = _load()
    for layer in ("emst.leaf_pairs_ms", "emst.traverse_ms"):
        bad = _result(1)
        bad["metrics"][layer]["value"] = 0.0
        assert smoke.check("hdbscan", 1, bad, SPEC) == [f"{layer} is not > 0"]
        assert smoke.check("serve", 1, bad, SPEC) == []


def test_rejects_zeroed_plan_timing_layers():
    """The PANDORA layers come from the library's plan timings
    (``PandoraStats.phase_detail``) and ``extract.condense`` from a rebound
    function: a zero there means the timing path or a rename broke."""
    smoke = _load()
    pandora_layers = ("pandora.sort_ms", "pandora.contraction_ms",
                      "pandora.expansion_ms")
    for layer in (*pandora_layers, "extract.condense_ms"):
        bad = _result(1)
        bad["metrics"][layer]["value"] = 0.0
        assert smoke.check("hdbscan", 1, bad, SPEC) == [f"{layer} is not > 0"]
        want = [f"{layer} is not > 0"] if layer in pandora_layers else []
        assert smoke.check("dendrogram", 1, bad, SPEC) == want
        assert smoke.check("serve", 1, bad, SPEC) == want


def test_rejects_a_zeroed_serve_shard_layer():
    """``serve.shard_ms`` comes from the span each shard worker ships back
    with its result: a zero there means the transport dropped it."""
    smoke = _load()
    bad = _result(1)
    bad["metrics"]["serve.shard_ms"]["value"] = 0.0
    assert smoke.check("serve", 1, bad, SPEC) == ["serve.shard_ms is not > 0"]
    assert smoke.check("dendrogram", 1, bad, SPEC) == []
    assert smoke.check("serve", 0, _result(0), SPEC) == []
