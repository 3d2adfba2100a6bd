"""Repo-specific static analysis: the invariant lint engine.

The codebase rests on three load-bearing conventions that ordinary test
suites only catch at runtime, long after the offending edit:

* **twin parity** — every registered vectorised kernel and its pure-python
  twin keep their signature, defaults and docstring ``Contract:`` lines
  aligned (rules ``TWIN001``–``TWIN004``).
* **zero materialisation** — the array/snapshot query path must never
  statically reach a dict-graph constructor or ``.thaw()``
  (rules ``MAT001``–``MAT003``).
* **snapshot dtypes** — snapshot segments are explicit fixed-width
  little-endian, exception handling is narrow, and read-only memory maps
  are never written in place (rules ``SNAP001``–``SNAP004``).

The engine is pure ``ast``/stdlib — it runs (and is CI-smoked) without
installing the package's dependencies.  Run it locally with ``python -m repro.analysis src/repro``; see
``docs/invariants.md`` for the rule catalogue.
"""

from __future__ import annotations

from repro.analysis.core import (
    AnalysisConfig,
    Checker,
    Finding,
    Module,
    Project,
    TwinPair,
    all_rules,
    checker_registry,
    register_checker,
    run_analysis,
)

# Importing the checker modules registers them with the registry.
from repro.analysis.checkers import (  # noqa: F401  (imported for side effects)
    materialisation,
    snapshot_dtype,
    twin_parity,
)

__all__ = [
    "AnalysisConfig",
    "Checker",
    "Finding",
    "Module",
    "Project",
    "TwinPair",
    "all_rules",
    "checker_registry",
    "register_checker",
    "run_analysis",
]
