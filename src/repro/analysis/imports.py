"""Import-target resolution onto project modules."""

from __future__ import annotations

from typing import Optional

from repro.analysis.core import Project


def normalise_target(project: Project, target: str) -> Optional[str]:
    """Map an import target onto a project module name, if it names one.

    ``from repro.graph.csr import freeze`` targets ``repro.graph.csr``;
    ``from repro.graph import csr`` targets ``repro.graph`` but *may* bind
    the submodule — both spellings resolve to the deepest project module
    matching a prefix of ``target``.
    """
    parts = target.split(".")
    for end in range(len(parts), 0, -1):
        name = ".".join(parts[:end])
        if name in project:
            return name
    return None


__all__ = ["normalise_target"]
