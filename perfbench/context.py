"""What a workload gets to run with, and what it hands back."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Hashable, List, Set


@dataclass
class Context:
    checkout: Path  # root of the checkout; the program is imported from src/
    work: Path  # scratch directory inside the checkout, removed afterwards
    log: Path  # stdout/stderr of every child process
    seed: int
    seconds: float
    trace: bool


@dataclass
class Outcome:
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: Set[Hashable] = field(default_factory=set)
    notes: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, op: Hashable, what: str) -> None:
        """Mark one attempted operation failed (refused, errored or wrong)."""
        if op not in self.failures and len(self.failures) < 20:
            self.notes.append(f"FAILED {op}: {what}")
        self.failures.add(op)
