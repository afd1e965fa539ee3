"""Every example script must run end-to-end (trimmed sizes via monkeypatch
where needed -- the scripts themselves stay user-scale)."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    path = EXAMPLES / name
    assert path.exists(), f"missing example {name}"
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out


def shrink(monkeypatch, name: str, n_max: int) -> list[int]:
    """Cap the point count ``n`` of the ``repro.data`` function ``name``
    (the name the examples import) and return the list of sizes it ran
    with."""
    import inspect

    import repro.data as data

    original = getattr(data, name)
    signature = inspect.signature(original)
    sizes: list[int] = []

    def capped(*args, **kw):
        bound = signature.bind(*args, **kw)
        bound.arguments["n"] = min(bound.arguments["n"], n_max)
        sizes.append(bound.arguments["n"])
        return original(*bound.args, **bound.kwargs)

    monkeypatch.setattr(data, name, capped)
    return sizes


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "found" in out and "clusters" in out
        assert "dendrogram" in out

    def test_image_segmentation(self, capsys):
        out = run_example("image_segmentation.py", capsys)
        assert "segments" in out

    def test_device_model(self, capsys, monkeypatch):
        sizes = shrink(monkeypatch, "load_dataset", 5000)
        out = run_example("device_model.py", capsys)
        assert "MI250X" in out
        assert "extrapolated" in out
        assert sizes == [5000]

    def test_cosmology_fof(self, capsys, monkeypatch):
        # The example imports ``hacc_like`` from ``repro.data``: patch that
        # name, and check the shrink really took effect.
        sizes = shrink(monkeypatch, "hacc_like", 5000)
        out = run_example("cosmology_fof.py", capsys)
        assert "halo mass function" in out
        assert sizes == [5000]

    def test_gps_hotspots(self, capsys, monkeypatch):
        sizes = shrink(monkeypatch, "ngsim_like", 5000)
        out = run_example("gps_hotspots.py", capsys)
        assert "identical dendrograms verified" in out
        assert sizes == [5000]
