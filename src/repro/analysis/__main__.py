"""CLI of the invariant lint engine.

Usage::

    python -m repro.analysis src/repro            # whole tree, all checkers
    python -m repro.analysis --select TWIN src/repro
    python -m repro.analysis --list-rules
    python -m repro.analysis --format json src/repro

Exit status 0 means no findings; 1 means findings were reported; 2 means
the engine itself could not run (bad paths, syntax errors).  The engine is
pure stdlib, so this command runs on a bare interpreter without the
package's dependencies installed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis import all_rules, checker_registry, run_analysis


def _default_paths() -> List[str]:
    """Analysis roots from ``[tool.repro-analysis] paths`` in pyproject.toml.

    Falls back to ``src/repro`` when the table (or ``tomllib``, absent on
    3.10) is unavailable, so the CLI stays pure stdlib on every supported
    interpreter.
    """
    fallback = ["src/repro"]
    pyproject = Path("pyproject.toml")
    if not pyproject.is_file():
        return fallback
    try:
        import tomllib
    except ImportError:  # pragma: no cover - python 3.10
        return fallback
    try:
        with open(pyproject, "rb") as handle:
            config = tomllib.load(handle)
    except (OSError, tomllib.TOMLDecodeError):
        return fallback
    paths = config.get("tool", {}).get("repro-analysis", {}).get("paths")
    if isinstance(paths, list) and all(isinstance(p, str) for p in paths):
        return paths or fallback
    return fallback


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Repo-specific invariant lint engine (pure ast/stdlib).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=_default_paths(),
        help=(
            "package directories or files to analyse (default: the "
            "[tool.repro-analysis] paths table of pyproject.toml, "
            "or src/repro)"
        ),
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="SEL",
        help=(
            "only run the named checkers or rule families; accepts checker "
            "names (twin-parity), rule prefixes (TWIN) or ids (TWIN002); "
            "repeatable"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered checker and rule, then exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="findings output format (default: text)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        registry = checker_registry()
        for name in sorted(registry):
            print(name)
            for rule, description in sorted(registry[name].rules.items()):
                print(f"  {rule}  {description}")
        return 0
    paths = [Path(p) for p in args.paths]
    try:
        findings = run_analysis(paths, select=args.select)
    except (FileNotFoundError, SyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "path": f.path,
                        "line": f.line,
                        "col": f.col,
                        "rule": f.rule,
                        "message": f.message,
                    }
                    for f in findings
                ],
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.render())
        total = len(findings)
        rules = all_rules()
        checkers = len(checker_registry())
        if total:
            print(f"\n{total} finding(s) across {checkers} checkers.")
        else:
            print(
                f"ok: {checkers} checkers, {len(rules)} rules, no findings."
            )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
