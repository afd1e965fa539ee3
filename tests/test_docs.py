"""Documentation suite hygiene: the checker in ``tools/check_docs.py``
must pass (every required page present, every relative link target on
disk, every runnable fenced python block executing cleanly), and its own
failure detection must actually detect failures."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_suite_is_clean(capsys):
    checker = _load_checker()
    src = str(REPO / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    status = checker.main()
    out = capsys.readouterr().out
    assert status == 0, f"docs check failed:\n{out}"
    # Every required page was actually checked, not skipped.
    assert f"checked {len(checker.DOC_FILES)} files: ok" in out


def test_required_pages_exist():
    checker = _load_checker()
    assert set(checker.REQUIRED) == {
        "README.md",
        "docs/architecture.md",
        "docs/serving.md",
        "docs/observability.md",
        "docs/benchmarks.md",
    }
    for name in checker.REQUIRED:
        assert (REPO / name).exists(), name


def test_checker_catches_broken_link(tmp_path):
    checker = _load_checker()
    page = tmp_path / "page.md"
    page.write_text("see [missing](no/such/file.md)\n", encoding="utf-8")
    errors = checker.check_links(page, page.read_text())
    assert len(errors) == 1 and "broken link" in errors[0]


def test_checker_catches_failing_block(tmp_path):
    checker = _load_checker()
    text = "```python\nraise RuntimeError('boom')\n```\n"
    page = tmp_path / "page.md"
    page.write_text(text, encoding="utf-8")
    errors = checker.run_blocks(page, text)
    assert len(errors) == 1 and "boom" in errors[0]
    # no-run blocks are skipped
    assert checker.run_blocks(
        page, "```python no-run\nraise RuntimeError('x')\n```\n"
    ) == []


def test_checker_catches_missing_artifact_key(tmp_path):
    checker = _load_checker()
    text = (
        "### `BENCH_serving.json` — `bench_serving.py`\n\n"
        "| block | contents |\n|---|---|\n"
        "| `by_workers` | present |\n"
        "| `process_pool.supervisor_overhead` | present, nested |\n"
        "| `process_pool.no_such_block` | missing |\n"
        "\n### `BENCH_engine.json` — `bench_engine.py`\n\nNo table.\n"
    )
    page = tmp_path / "page.md"
    page.write_text(text, encoding="utf-8")
    errors = checker.check_artifact_keys(page, text)
    assert len(errors) == 2
    assert "no key 'process_pool.no_such_block'" in errors[0]
    assert "BENCH_engine.json has no | block | contents | table" in errors[1]
