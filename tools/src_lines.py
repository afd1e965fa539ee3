#!/usr/bin/env python
"""Count the raw and code lines of the library source tree (``src/``).

Raw lines are every line of every ``.py`` file.  A *code line* is a
non-blank line that is neither a comment-only line nor part of a docstring
(the string literal that opens a module, class or function body); lines
inside other multi-line strings count as code.  ROADMAP aim 2 asks every
change to report the net change of these counts::

    python tools/src_lines.py                # the working tree
    python tools/src_lines.py --base HEAD~1  # also that git revision, and the delta

The revision is read with ``git archive``, so the working tree is never
touched.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tarfile
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = "src"

_NON_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count_lines(text: str) -> tuple[int, int]:
    """``(raw, code)`` line counts of one Python source text."""
    lines = text.splitlines()
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(node, _DOC_OWNERS) and body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            code.difference_update(
                range(body[0].lineno, body[0].end_lineno + 1)
            )
    return len(lines), sum(1 for i in code if lines[i - 1].strip())


def _total(sources) -> tuple[int, int]:
    raw = code = 0
    for text in sources:
        r, c = count_lines(text)
        raw += r
        code += c
    return raw, code


def count_tree(root: Path) -> tuple[int, int]:
    """Counts over every ``.py`` file under ``root``."""
    return _total(p.read_text() for p in sorted(root.rglob("*.py")))


def count_revision(rev: str, repo: Path = REPO) -> tuple[int, int]:
    """Counts over ``src/`` at git revision ``rev``."""
    blob = subprocess.run(
        ["git", "archive", rev, SRC], cwd=repo, check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        return _total(
            tar.extractfile(m).read().decode()
            for m in tar.getmembers()
            if m.isfile() and m.name.endswith(".py")
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REV",
                        help="also count src/ at this git revision")
    args = parser.parse_args(argv)
    raw, code = count_tree(REPO / SRC)
    print(f"working tree: {raw:,} raw, {code:,} code lines")
    if args.base:
        base_raw, base_code = count_revision(args.base)
        print(f"{args.base}: {base_raw:,} raw, {base_code:,} code lines")
        print(f"delta: {raw - base_raw:+,} raw, {code - base_code:+,} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
