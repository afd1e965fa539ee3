#!/usr/bin/env python
"""Docs hygiene checker: link targets + executable fenced code blocks.

Three checks over README.md and every ``docs/*.md`` file, so the docs
suite cannot rot:

1. **Links.**  Every relative markdown link target (``[text](path)`` and
   bare ``<path>`` reference-style targets) must exist on disk, anchors
   stripped.  External (``http``/``https``/``mailto``) links are not
   fetched -- CI must not depend on the network -- but their syntax is
   validated.
2. **Fenced python blocks.**  Every ```` ```python ```` block is executed
   in a fresh namespace with ``src/`` on ``sys.path``, unless the fence
   carries a ``no-run`` marker (```` ```python no-run ````) for
   illustrative fragments (device code, CLI transcripts).  Blocks run
   with the repository root as the working directory.
3. **Artifact keys.**  Every section headed ``### `BENCH_<name>.json` ...``
   must hold a ``| block | contents |`` table, and the first-column key of
   every row (a backticked dotted path such as ``serving.parity``) must
   exist in the committed ``benchmarks/BENCH_<name>.json``.

Exit status is non-zero on any failure; failures are listed one per line
as ``file:line: message``.  Run it locally with::

    python tools/check_docs.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
#: The documentation suite the repo commits to (missing file = failure);
#: any extra docs/*.md files are picked up and checked too.
REQUIRED = [
    "README.md",
    "docs/architecture.md",
    "docs/serving.md",
    "docs/observability.md",
    "docs/benchmarks.md",
]
DOC_FILES = sorted(
    {*REQUIRED,
     *(p.relative_to(REPO).as_posix() for p in (REPO / "docs").glob("*.md"))}
)

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE_RE = re.compile(r"^```(\w+)?([^\n]*)$")
_ARTIFACT_RE = re.compile(r"^#{1,6} `(BENCH_\w+\.json)`")
_ROW_KEY_RE = re.compile(r"^\|\s*`([^`]+)`\s*\|")


def _rel(path: Path) -> str:
    try:
        return str(path.relative_to(REPO))
    except ValueError:
        return str(path)


def check_links(path: Path, text: str) -> list[str]:
    errors: list[str] = []
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in _LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if target.startswith("#"):
                continue  # intra-document anchor
            rel = target.split("#", 1)[0]
            if not rel:
                continue
            resolved = (path.parent / rel).resolve()
            if not resolved.exists():
                errors.append(f"{_rel(path)}:{lineno}: "
                              f"broken link target {target!r}")
    return errors


def extract_python_blocks(text: str) -> list[tuple[int, str, bool]]:
    """``(start_line, source, runnable)`` for every fenced python block."""
    blocks: list[tuple[int, str, bool]] = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        match = _FENCE_RE.match(lines[i].strip())
        if match and (match.group(1) or "").lower() == "python":
            runnable = "no-run" not in (match.group(2) or "")
            start = i + 1
            body: list[str] = []
            i += 1
            while i < len(lines) and not lines[i].strip().startswith("```"):
                body.append(lines[i])
                i += 1
            blocks.append((start + 1, "\n".join(body), runnable))
        i += 1
    return blocks


def run_blocks(path: Path, text: str) -> list[str]:
    errors: list[str] = []
    for lineno, source, runnable in extract_python_blocks(text):
        if not runnable:
            continue
        namespace: dict = {"__name__": "__docs__"}
        try:
            code = compile(source, f"{path.name}:{lineno}", "exec")
            exec(code, namespace)
        except Exception as exc:
            errors.append(
                f"{_rel(path)}:{lineno}: python block failed: "
                f"{type(exc).__name__}: {exc}"
            )
    return errors


def _has_key(data, dotted: str) -> bool:
    for part in dotted.split("."):
        if not isinstance(data, dict) or part not in data:
            return False
        data = data[part]
    return True


def check_artifact_keys(path: Path, text: str) -> list[str]:
    """Every ``| `key` | ...`` row under a ``BENCH_*.json`` heading must
    name a dotted key path present in that committed artifact."""
    errors: list[str] = []
    sections: list[tuple[int, str, list[tuple[int, str]]]] = []
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip().startswith("```"):
            in_fence = not in_fence
        if in_fence:
            continue
        if line.startswith("#"):
            match = _ARTIFACT_RE.match(line)
            sections.append((lineno, match.group(1), []) if match
                            else (lineno, "", []))
            continue
        row = _ROW_KEY_RE.match(line.strip())
        if row and sections and sections[-1][1]:
            sections[-1][2].append((lineno, row.group(1)))
    for lineno, name, rows in sections:
        if not name:
            continue
        if not rows:
            errors.append(f"{_rel(path)}:{lineno}: section for {name} "
                          "has no | block | contents | table")
            continue
        try:
            data = json.loads(
                (REPO / "benchmarks" / name).read_text(encoding="utf-8")
            )
        except (OSError, ValueError) as exc:
            errors.append(f"{_rel(path)}:{lineno}: cannot read {name}: {exc}")
            continue
        for row_line, key in rows:
            if not _has_key(data, key):
                errors.append(f"{_rel(path)}:{row_line}: {name} has no "
                              f"key {key!r}")
    return errors


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    import os

    os.chdir(REPO)
    failures: list[str] = []
    checked = 0
    for name in DOC_FILES:
        path = Path(name) if Path(name).is_absolute() else REPO / name
        if not path.exists():
            failures.append(f"{name}: missing documentation file")
            continue
        text = path.read_text(encoding="utf-8")
        failures.extend(check_links(path, text))
        failures.extend(run_blocks(path, text))
        failures.extend(check_artifact_keys(path, text))
        checked += 1
    for failure in failures:
        print(failure)
    print(f"checked {checked} files: "
          f"{'FAIL' if failures else 'ok'} ({len(failures)} problems)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
