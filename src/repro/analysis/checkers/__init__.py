"""The built-in invariant checkers.

Importing this package registers every checker with the engine registry;
third-party (or test-fixture) checkers register themselves with
:func:`repro.analysis.core.register_checker`.
"""

from __future__ import annotations

from repro.analysis.checkers import (  # noqa: F401  (registration side effects)
    materialisation,
    snapshot_dtype,
    twin_parity,
)

__all__ = ["materialisation", "snapshot_dtype", "twin_parity"]
