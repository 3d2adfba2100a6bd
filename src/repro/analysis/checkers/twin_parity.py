"""TWIN — kernel ↔ pure-python twin parity.

Vectorised kernels whose pure-python counterpart also runs in production
(the dict backend, lazy level conversion, maintenance patches, sequential
builds) form registered twin pairs that the agreement suites compare
element-wise at runtime.  The twins must also stay
*structurally* aligned, or the runtime comparison silently starts testing
two different things.  Driven by the explicit registry in
:mod:`repro.analysis.contracts`:

* ``TWIN001`` — a registered function is missing (renamed, moved, deleted).
* ``TWIN002`` — the shared parameter sequences disagree once the declared
  aliases and representation-only parameters are accounted for.
* ``TWIN003`` — a shared parameter's default value differs between sides.
* ``TWIN004`` — the docstring ``Contract:`` lines differ or are missing;
  each pair states its shared semantics in identical words on both sides.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from repro.analysis.core import (
    AnalysisConfig,
    Checker,
    Finding,
    Module,
    Project,
    TwinPair,
    register_checker,
)


def _parameters(node: ast.AST) -> List[Tuple[str, Optional[str]]]:
    """``(name, default source)`` for every parameter, in call order."""
    args = node.args  # type: ignore[attr-defined]
    params: List[Tuple[str, Optional[str]]] = []
    positional = list(args.posonlyargs) + list(args.args)
    defaults: List[Optional[ast.expr]] = [None] * (
        len(positional) - len(args.defaults)
    ) + list(args.defaults)
    for arg, default in zip(positional, defaults):
        params.append((arg.arg, ast.unparse(default) if default is not None else None))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        params.append((arg.arg, ast.unparse(default) if default is not None else None))
    return [(name, default) for name, default in params if name not in ("self", "cls")]


def _contract_lines(node: ast.AST) -> List[str]:
    doc = ast.get_docstring(node)  # type: ignore[arg-type]
    if not doc:
        return []
    lines: List[str] = []
    for raw in doc.splitlines():
        line = raw.strip()
        if line.startswith("Contract:"):
            lines.append(line)
    return lines


@register_checker
class TwinParityChecker(Checker):
    name = "twin-parity"
    rules = {
        "TWIN001": "registered twin function is missing",
        "TWIN002": "kernel/twin shared parameter sequences diverge",
        "TWIN003": "kernel/twin default values diverge",
        "TWIN004": "kernel/twin docstring Contract: lines diverge or are missing",
    }

    def check(self, project: Project, config: AnalysisConfig) -> List[Finding]:
        findings: List[Finding] = []
        for pair in config.twin_registry:
            findings.extend(self._check_pair(project, pair))
        return findings

    def _check_pair(self, project: Project, pair: TwinPair) -> List[Finding]:
        findings: List[Finding] = []
        sides: Dict[str, Optional[Tuple[Module, ast.AST]]] = {
            "kernel": project.find_function(pair.kernel),
            "twin": project.find_function(pair.twin),
        }
        if sides["kernel"] is None and sides["twin"] is None:
            return [
                Finding(
                    path=pair.kernel.split(":", 1)[0],
                    line=1,
                    col=0,
                    rule="TWIN001",
                    message=(
                        f"twin registry pairs {pair.kernel!r} with "
                        f"{pair.twin!r} but neither side exists"
                    ),
                )
            ]
        for role, located in sides.items():
            if located is None:
                ref = pair.kernel if role == "kernel" else pair.twin
                module, node = sides["twin"] or sides["kernel"]
                findings.append(
                    self.finding(
                        module,
                        node,
                        "TWIN001",
                        f"twin registry names {ref!r} but it does not "
                        "exist; update the registry or restore the "
                        "function",
                    )
                )
        if sides["kernel"] is None or sides["twin"] is None:
            return findings

        kernel_module, kernel_node = sides["kernel"]
        twin_module, twin_node = sides["twin"]

        if pair.signature:
            findings.extend(
                self._check_signature(
                    pair, kernel_module, kernel_node, twin_node
                )
            )
        findings.extend(
            self._check_contract(pair, kernel_module, kernel_node, twin_module, twin_node)
        )
        return findings

    def _check_signature(
        self,
        pair: TwinPair,
        kernel_module: Module,
        kernel_node: ast.AST,
        twin_node: ast.AST,
    ) -> List[Finding]:
        findings: List[Finding] = []
        aliases = dict(pair.aliases)
        kernel_params = [
            (aliases.get(name, name), default)
            for name, default in _parameters(kernel_node)
            if name not in pair.kernel_only
        ]
        twin_params = [
            (name, default)
            for name, default in _parameters(twin_node)
            if name not in pair.twin_only
        ]
        kernel_names = [name for name, _ in kernel_params]
        twin_names = [name for name, _ in twin_params]
        if kernel_names != twin_names:
            findings.append(
                self.finding(
                    kernel_module,
                    kernel_node,
                    "TWIN002",
                    f"{pair.kernel!r} and {pair.twin!r} disagree on their "
                    f"shared parameters: kernel has {kernel_names}, twin has "
                    f"{twin_names} (after aliases "
                    f"{dict(pair.aliases)!r})",
                )
            )
            return findings
        twin_defaults = dict(twin_params)
        for name, default in kernel_params:
            if twin_defaults.get(name) != default:
                findings.append(
                    self.finding(
                        kernel_module,
                        kernel_node,
                        "TWIN003",
                        f"parameter {name!r} defaults diverge between "
                        f"{pair.kernel!r} ({default!r}) and {pair.twin!r} "
                        f"({twin_defaults.get(name)!r})",
                    )
                )
        return findings

    def _check_contract(
        self,
        pair: TwinPair,
        kernel_module: Module,
        kernel_node: ast.AST,
        twin_module: Module,
        twin_node: ast.AST,
    ) -> List[Finding]:
        kernel_lines = _contract_lines(kernel_node)
        twin_lines = _contract_lines(twin_node)
        if not kernel_lines or not twin_lines:
            missing_module, missing_node, ref = (
                (kernel_module, kernel_node, pair.kernel)
                if not kernel_lines
                else (twin_module, twin_node, pair.twin)
            )
            return [
                self.finding(
                    missing_module,
                    missing_node,
                    "TWIN004",
                    f"{ref!r} has no docstring 'Contract:' line; each twin "
                    "states the shared semantics verbatim on both sides",
                )
            ]
        if kernel_lines != twin_lines:
            return [
                self.finding(
                    kernel_module,
                    kernel_node,
                    "TWIN004",
                    f"docstring Contract: lines diverge between "
                    f"{pair.kernel!r} ({kernel_lines}) and {pair.twin!r} "
                    f"({twin_lines})",
                )
            ]
        return []
