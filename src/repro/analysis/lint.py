"""reprolint driver: file discovery, suppression handling, CLI.

One lint runs both rule families: the RL autodiff-misuse rules
(:mod:`.rules`) and the DT determinism rules
(:mod:`.determinism.rules`).

Usage::

    repro lint [paths ...]          # via the main CLI
    reprolint [paths ...]           # console script
    python -m repro.analysis.lint   # module form

Exit status is 0 when no diagnostics were emitted, 1 otherwise (2 on
usage errors).  Suppress a single line with::

    something.data = x  # reprolint: disable=RL001
    risky_line()        # reprolint: disable          (all rules)
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import Iterable, Sequence

from .determinism.rules import DT_RULES
from .rules import RULES, Context, Rule

__all__ = ["Diagnostic", "LINT_RULES", "lint_source", "lint_paths", "main"]

#: Every rule ``repro lint`` runs by default.
LINT_RULES: list[Rule] = [*RULES, *DT_RULES]

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable(?:=([A-Za-z0-9_,\s]+))?")

# Modules allowed to touch Tensor internals (`.data` / `.grad`) directly.
_ENGINE_PREFIXES = ("repro/nn/", "repro/analysis/")

_TEST_DIRS = {"tests", "test", "benchmarks"}


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding, formatted as ``path:line:col: CODE message [name]``."""

    path: str
    line: int
    col: int
    code: str
    name: str
    message: str

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: {self.code} "
                f"{self.message} [{self.name}]")


def _classify(path: str) -> Context:
    posix = PurePosixPath(path.replace("\\", "/"))
    parts = set(posix.parts)
    stem = posix.name
    is_test = bool(parts & _TEST_DIRS) or stem.startswith("test_") or stem == "conftest.py"
    is_engine = any(prefix in str(posix) for prefix in _ENGINE_PREFIXES)
    return Context(path=str(posix), is_src=not is_test, is_engine=is_engine)


def _suppressed(lines: list[str], lineno: int, code: str) -> bool:
    if not (1 <= lineno <= len(lines)):
        return False
    match = _SUPPRESS_RE.search(lines[lineno - 1])
    if match is None:
        return False
    listed = match.group(1)
    if listed is None:
        return True  # bare `disable` silences every rule on the line
    return code in {c.strip().upper() for c in listed.split(",")}


def lint_source(source: str, path: str = "<string>",
                rules: Sequence[Rule] | None = None) -> list[Diagnostic]:
    """Lint one module's source text; returns diagnostics sorted by line."""
    ctx = _classify(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Diagnostic(path, exc.lineno or 1, exc.offset or 0,
                           "RL000", "syntax-error", f"could not parse: {exc.msg}")]
    lines = source.splitlines()
    diagnostics: list[Diagnostic] = []
    for rule in rules if rules is not None else LINT_RULES:
        if rule.src_only and not ctx.is_src:
            continue
        if rule.engine_exempt and ctx.is_engine:
            continue
        for node, message in rule.check(tree, ctx):
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
            if _suppressed(lines, line, rule.code):
                continue
            diagnostics.append(Diagnostic(ctx.path, line, col,
                                          rule.code, rule.name, message))
    diagnostics.sort(key=lambda d: (d.line, d.col, d.code))
    return diagnostics


def _discover(paths: Iterable[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(
                f for f in p.rglob("*.py")
                if "__pycache__" not in f.parts
                and not any(part.startswith(".") for part in f.parts)))
        elif p.suffix == ".py":
            files.append(p)
        elif not p.exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return files


def lint_paths(paths: Iterable[str]) -> list[Diagnostic]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    diagnostics: list[Diagnostic] = []
    for file in _discover(paths):
        diagnostics.extend(lint_source(file.read_text(encoding="utf-8"), str(file)))
    return diagnostics


def _print_rules() -> None:
    for rule in LINT_RULES:
        scope = "src-only" if rule.src_only else "src+tests"
        extra = ", engine-exempt" if rule.engine_exempt else ""
        print(f"{rule.code}  {rule.name:<24} {rule.description} ({scope}{extra})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="Static autodiff-misuse and determinism lint for the "
                    "repro codebase")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        _print_rules()
        return 0

    try:
        diagnostics = lint_paths(args.paths)
    except FileNotFoundError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2

    for diag in diagnostics:
        print(diag.format())
    if diagnostics:
        files = len({d.path for d in diagnostics})
        print(f"reprolint: {len(diagnostics)} issue(s) in {files} file(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
