"""Core of the invariant lint engine: modules, findings, checker registry.

Everything here is deliberately pure ``ast`` + stdlib so the engine itself
stays importable (and runnable) without the package's dependencies.  A
:class:`Project` is a parsed view of one or more python package trees with
dotted-name resolution; checkers consume it and emit :class:`Finding`
records tagged with stable rule ids.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Type


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a file position.

    Ordered by ``(path, line, col, rule)`` so reports are deterministic.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class Module:
    """One parsed source module of the analysed tree."""

    name: str
    path: Path
    tree: ast.Module
    source: str

    @property
    def display_path(self) -> str:
        return self.path.as_posix()


class Project:
    """A set of parsed modules keyed by dotted module name.

    ``roots`` are the directories (or single files) handed to the engine.
    A directory containing ``__init__.py`` is treated as a package whose
    dotted name is derived by walking up while parent directories remain
    packages — handing the engine ``src/repro`` therefore yields module
    names rooted at ``repro`` exactly as the import system would see them.
    """

    def __init__(self, modules: Mapping[str, Module]) -> None:
        self._modules: Dict[str, Module] = dict(modules)

    @classmethod
    def load(cls, paths: Sequence[Path]) -> "Project":
        modules: Dict[str, Module] = {}
        for root in paths:
            root = Path(root)
            if root.is_file():
                name = _module_name_for(root)
                modules[name] = _parse_module(name, root)
                continue
            if not root.is_dir():
                raise FileNotFoundError(f"no such file or directory: {root}")
            for path in sorted(root.rglob("*.py")):
                name = _module_name_for(path)
                modules[name] = _parse_module(name, path)
        return cls(modules)

    # ------------------------------------------------------------------ #
    def __contains__(self, name: str) -> bool:
        return name in self._modules

    def get(self, name: str) -> Optional[Module]:
        return self._modules.get(name)

    def modules(self) -> List[Module]:
        return [self._modules[name] for name in sorted(self._modules)]

    def module_names(self) -> List[str]:
        return sorted(self._modules)

    def resolve_relative(self, module: Module, level: int, target: Optional[str]) -> str:
        """Resolve a relative ``from ... import`` to a dotted module name."""
        parts = module.name.split(".")
        # ``from . import x`` inside a package __init__ resolves against the
        # package itself; inside a plain module against its parent package.
        if module.path.name == "__init__.py":
            base = parts[: len(parts) - (level - 1)] if level > 1 else parts
        else:
            base = parts[: len(parts) - level]
        if target:
            base = base + target.split(".")
        return ".".join(base)

    def find_function(self, dotted: str) -> Optional[Tuple[Module, ast.AST]]:
        """Locate ``module:qualname`` (``pkg.mod:Class.func`` or ``pkg.mod:func``)."""
        if ":" not in dotted:
            return None
        module_name, qualname = dotted.split(":", 1)
        module = self.get(module_name)
        if module is None:
            return None
        node: ast.AST = module.tree
        for part in qualname.split("."):
            found = None
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ) and child.name == part:
                    found = child
                    break
            if found is None:
                return None
            node = found
        return module, node


def _module_name_for(path: Path) -> str:
    """Derive the dotted module name of ``path`` from package ``__init__`` files."""
    path = path.resolve()
    if path.name == "__init__.py":
        parts: List[str] = []
        directory = path.parent
    else:
        parts = [path.stem]
        directory = path.parent
    while (directory / "__init__.py").exists():
        parts.insert(0, directory.name)
        directory = directory.parent
    return ".".join(parts) if parts else path.stem


def _parse_module(name: str, path: Path) -> Module:
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:  # surface with the offending path, then stop
        raise SyntaxError(f"{path}: {exc}") from exc
    return Module(name=name, path=path, tree=tree, source=source)


# ---------------------------------------------------------------------- #
# configuration
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class TwinPair:
    """One kernel ↔ pure-python twin contract.

    ``kernel``/``twin`` are ``module:qualname`` references.  ``aliases`` maps
    kernel parameter names to their twin spellings (``num_u`` ↔
    ``num_upper``); ``kernel_only``/``twin_only`` declare the representation
    parameters each side legitimately has alone (the CSR handle, the dict
    stores).  With ``signature=False`` only the docstring ``Contract:`` lines
    are compared — for twins whose alignment is structural, not positional.
    """

    kernel: str
    twin: str
    aliases: Mapping[str, str] = field(default_factory=dict)
    kernel_only: Tuple[str, ...] = ()
    twin_only: Tuple[str, ...] = ()
    signature: bool = True


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything the checkers are parameterised by.

    The defaults (see :mod:`repro.analysis.contracts`) describe the real
    repository; tests swap in fixture-sized configs to prove each rule
    fires.  Keeping the knobs in one frozen object means a checker can never
    silently depend on global state.
    """

    # twin parity
    twin_registry: Tuple[TwinPair, ...] = ()

    # materialisation
    materialisation_entry_points: Tuple[str, ...] = ()
    materialisation_dispatch: Tuple[str, ...] = ()
    materialisation_banned_calls: Tuple[str, ...] = ()
    materialisation_banned_attrs: Tuple[str, ...] = ()
    materialisation_pruned: Mapping[str, str] = field(default_factory=dict)

    # snapshot dtype / hygiene
    snapshot_modules: Tuple[str, ...] = ()
    snapshot_exception_modules: Tuple[str, ...] = ()
    snapshot_readonly_modules: Tuple[str, ...] = ()
    snapshot_mapped_factories: Tuple[str, ...] = ("segment", "read")
    snapshot_inplace_guarded_calls: Tuple[str, ...] = ("patch_level_arrays",)


# ---------------------------------------------------------------------- #
# checker registry
# ---------------------------------------------------------------------- #


class Checker:
    """Base class of one invariant checker.

    Subclasses declare ``name`` (the CLI selector) and ``rules`` (stable id →
    one-line description) and implement :meth:`check`.
    """

    name: str = ""
    rules: Mapping[str, str] = {}

    def check(self, project: Project, config: AnalysisConfig) -> List[Finding]:
        raise NotImplementedError

    # Helper shared by all checkers.
    @staticmethod
    def finding(module: Module, node: ast.AST, rule: str, message: str) -> Finding:
        return Finding(
            path=module.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
        )


_REGISTRY: Dict[str, Type[Checker]] = {}


def register_checker(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if not cls.name:
        raise ValueError(f"checker {cls.__name__} must declare a name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate checker name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def checker_registry() -> Dict[str, Type[Checker]]:
    return dict(_REGISTRY)


def all_rules() -> Dict[str, str]:
    """Every registered rule id with its description."""
    rules: Dict[str, str] = {}
    for cls in _REGISTRY.values():
        rules.update(cls.rules)
    return rules


def run_analysis(
    paths: Sequence[Path],
    config: Optional[AnalysisConfig] = None,
    select: Optional[Iterable[str]] = None,
    project: Optional[Project] = None,
) -> List[Finding]:
    """Run the selected checkers and return sorted findings.

    ``select`` names checkers (``twin-parity``) or rule prefixes/ids
    (``TWIN``, ``MAT002``); ``None`` runs everything.  ``config`` defaults to
    the repository contracts.
    """
    if config is None:
        from repro.analysis.contracts import default_config

        config = default_config()
    if project is None:
        project = Project.load(paths)
    wanted = None if select is None else {s for s in select}
    findings: List[Finding] = []
    for name in sorted(_REGISTRY):
        cls = _REGISTRY[name]
        if wanted is not None and name not in wanted:
            # A selector may also be a rule id or rule-family prefix.
            if not any(
                any(rule.startswith(sel) for sel in wanted) for rule in cls.rules
            ):
                continue
        checker = cls()
        batch = checker.check(project, config)
        if wanted is not None and name not in wanted:
            batch = [
                f
                for f in batch
                if any(f.rule.startswith(sel) for sel in wanted)
            ]
        findings.extend(batch)
    return sorted(findings)


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
