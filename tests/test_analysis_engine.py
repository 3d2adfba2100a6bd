"""The invariant lint engine: every rule fires on its seeded fixture.

Each checker gets a known-bad fixture package (asserting exact rule ids and
file/line spans) and a known-good analog (asserting silence).  The suite
also pins the two global properties the engine exists for: the real tree is
clean under the repository contracts, and the engine runs end to end with
numpy blocked.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import AnalysisConfig, TwinPair, run_analysis
from repro.analysis.__main__ import main as cli_main

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"


def _line(path: Path, needle: str) -> int:
    """1-based line of the first source line containing ``needle``."""
    for lineno, text in enumerate(path.read_text().splitlines(), 1):
        if needle in text:
            return lineno
    raise AssertionError(f"{needle!r} not found in {path}")


def _spans(findings):
    """Findings reduced to comparable ``(filename, line, rule)`` spans."""
    return sorted((Path(f.path).name, f.line, f.rule) for f in findings)


# --------------------------------------------------------------------- #
# twin-parity
# --------------------------------------------------------------------- #


def _twin_config(kernel: str, twin: str, **kwargs) -> AnalysisConfig:
    pair = TwinPair(
        kernel=f"twin_fixtures.pairs:{kernel}",
        twin=f"twin_fixtures.pairs:{twin}",
        **kwargs,
    )
    return AnalysisConfig(twin_registry=(pair,))


class TestTwinParity:
    ROOT = FIXTURES / "twin_fixtures"

    def _run(self, kernel, twin, **kwargs):
        config = _twin_config(kernel, twin, **kwargs)
        return run_analysis([self.ROOT], config=config)

    def test_aligned_pair_is_clean(self):
        assert self._run("kernel_ok", "twin_ok") == []

    def test_aliases_absorb_renames(self):
        findings = self._run(
            "kernel_alias", "twin_alias", aliases={"num_u": "num_upper"}
        )
        assert findings == []

    def test_representation_params_are_excluded(self):
        findings = self._run(
            "kernel_repr", "twin_repr", kernel_only=("csr",), twin_only=("lists",)
        )
        assert findings == []

    def test_twin001_missing_function(self):
        findings = self._run("kernel_missing", "twin_gone")
        assert _spans(findings) == [
            ("pairs.py", _line(self.ROOT / "pairs.py", "def kernel_missing"), "TWIN001")
        ]
        assert "twin_fixtures.pairs:twin_gone" in findings[0].message

    def test_twin001_both_sides_missing(self):
        config = AnalysisConfig(
            twin_registry=(
                TwinPair(kernel="twin_fixtures.nope:a", twin="twin_fixtures.nope:b"),
            )
        )
        findings = run_analysis([self.ROOT], config=config)
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("TWIN001", "twin_fixtures.nope", 1)
        ]

    def test_twin002_parameter_divergence(self):
        findings = self._run("kernel_params", "twin_params")
        assert _spans(findings) == [
            ("pairs.py", _line(self.ROOT / "pairs.py", "def kernel_params"), "TWIN002")
        ]
        assert "offset" in findings[0].message and "delta" in findings[0].message

    def test_twin003_default_divergence(self):
        findings = self._run("kernel_default", "twin_default")
        assert _spans(findings) == [
            ("pairs.py", _line(self.ROOT / "pairs.py", "def kernel_default"), "TWIN003")
        ]

    def test_twin004_contract_divergence(self):
        findings = self._run("kernel_contract", "twin_contract")
        assert _spans(findings) == [
            ("pairs.py", _line(self.ROOT / "pairs.py", "def kernel_contract"), "TWIN004")
        ]

    def test_twin004_missing_contract_line(self):
        # Signature comparison off: only the Contract: line is required, and
        # ``entry`` (a fixture function without one) must be reported.
        config = AnalysisConfig(
            twin_registry=(
                TwinPair(
                    kernel="twin_fixtures.pairs:kernel_ok",
                    twin="mat_good.path:entry",
                    signature=False,
                ),
            )
        )
        findings = run_analysis([self.ROOT, FIXTURES / "mat_good"], config=config)
        assert [f.rule for f in findings] == ["TWIN004"]
        assert "mat_good.path:entry" in findings[0].message


# --------------------------------------------------------------------- #
# materialisation
# --------------------------------------------------------------------- #

_MAT_BANNED = dict(
    materialisation_banned_calls=("BipartiteGraph", "_graph_from_edge_arrays"),
    materialisation_banned_attrs=("thaw",),
)


class TestMaterialisation:
    ROOT = FIXTURES / "mat_bad"

    def test_bad_entry_reaches_all_three_rules(self):
        config = AnalysisConfig(
            materialisation_entry_points=("mat_bad.path:entry",), **_MAT_BANNED
        )
        findings = run_analysis([self.ROOT], config=config)
        graph_py = self.ROOT / "graph.py"
        path_py = self.ROOT / "path.py"
        assert _spans(findings) == [
            ("graph.py", _line(graph_py, "return BipartiteGraph()"), "MAT001"),
            ("path.py", _line(path_py, "graph = BipartiteGraph()"), "MAT001"),
            ("path.py", _line(path_py, "graph.thaw()"), "MAT002"),
            ("path.py", _line(path_py, "return _graph_from_edge_arrays"), "MAT003"),
        ]
        # Every finding carries the full static call chain from the entry.
        for finding in findings:
            assert "mat_bad.path:entry" in finding.message

    def test_pruned_function_stops_traversal(self):
        config = AnalysisConfig(
            materialisation_entry_points=("mat_bad.path:entry",),
            materialisation_pruned={"mat_bad.path:_assemble": "fixture prune"},
            **_MAT_BANNED,
        )
        assert run_analysis([self.ROOT], config=config) == []

    def test_missing_entry_point_is_reported(self):
        config = AnalysisConfig(
            materialisation_entry_points=("mat_bad.path:missing_entry",),
            **_MAT_BANNED,
        )
        findings = run_analysis([self.ROOT], config=config)
        assert [f.rule for f in findings] == ["MAT001"]
        assert "does not exist" in findings[0].message

    def test_good_package_is_clean(self):
        config = AnalysisConfig(
            materialisation_entry_points=("mat_good.path:entry",), **_MAT_BANNED
        )
        assert run_analysis([FIXTURES / "mat_good"], config=config) == []


# --------------------------------------------------------------------- #
# snapshot-dtype
# --------------------------------------------------------------------- #


def _snap_config(module: str) -> AnalysisConfig:
    return AnalysisConfig(
        snapshot_modules=(module,),
        snapshot_exception_modules=(module,),
        snapshot_readonly_modules=(module,),
    )


class TestSnapshotDtype:
    def test_bad_module_fires_every_rule(self):
        root = FIXTURES / "snap_bad"
        store = root / "store.py"
        findings = run_analysis(
            [root], config=_snap_config("snap_bad.store"), select=["snapshot-dtype"]
        )
        assert _spans(findings) == [
            ("store.py", _line(store, "dtype=int"), "SNAP001"),
            ("store.py", _line(store, 'astype("long")'), "SNAP001"),
            ("store.py", _line(store, "dtype=np.intp"), "SNAP001"),
            ("store.py", _line(store, "except:"), "SNAP002"),
            ("store.py", _line(store, "except Exception:"), "SNAP002"),
            ("store.py", _line(store, "arr[0] = 1"), "SNAP003"),
            ("store.py", _line(store, "arr[1] += 1"), "SNAP003"),
            ("store.py", _line(store, "return patch_level_arrays"), "SNAP004"),
        ]

    def test_good_module_is_clean(self):
        findings = run_analysis(
            [FIXTURES / "snap_good"],
            config=_snap_config("snap_good.store"),
            select=["SNAP"],
        )
        assert findings == []


# --------------------------------------------------------------------- #
# the real tree and the CLI
# --------------------------------------------------------------------- #


class TestRealTree:
    def test_repository_is_clean_under_the_contracts(self):
        assert run_analysis([SRC]) == []


class TestCli:
    @pytest.fixture
    def snap_contracts(self, monkeypatch):
        # The CLI always runs the repository contracts; point them at the
        # seeded snapshot fixture so its findings carry real file spans.
        monkeypatch.setattr(
            "repro.analysis.contracts.default_config",
            lambda: _snap_config("snap_bad.store"),
        )
        return FIXTURES / "snap_bad"

    def test_clean_tree_exits_zero(self, capsys):
        assert cli_main([str(SRC)]) == 0
        out = capsys.readouterr().out
        assert "no findings" in out

    def test_findings_exit_one_and_render_spans(self, capsys, snap_contracts):
        assert cli_main(["--select", "SNAP", str(snap_contracts)]) == 1
        out = capsys.readouterr().out
        assert "SNAP001" in out and "SNAP003" in out
        line = _line(snap_contracts / "store.py", "arr[0] = 1")
        assert f"store.py:{line}:4" in out

    def test_json_format_is_parseable(self, capsys, snap_contracts):
        assert cli_main(["--select", "SNAP", "--format", "json", str(snap_contracts)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert {entry["rule"] for entry in payload} >= {"SNAP001", "SNAP003"}
        assert all({"path", "line", "col", "rule", "message"} <= set(e) for e in payload)

    def test_bad_path_exits_two(self, capsys):
        assert cli_main([str(REPO / "no" / "such" / "tree")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_list_rules_names_all_eleven(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        rules = (
            "TWIN001", "TWIN002", "TWIN003", "TWIN004",
            "MAT001", "MAT002", "MAT003",
            "SNAP001", "SNAP002", "SNAP003", "SNAP004",
        )
        for rule in rules:
            assert rule in out
        listed = [line.split()[0] for line in out.splitlines() if line.startswith("  ")]
        assert sorted(listed) == sorted(rules)

    def test_select_by_rule_id(self, capsys, snap_contracts):
        assert cli_main(["--select", "SNAP003", str(snap_contracts)]) == 1
        out = capsys.readouterr().out
        assert "SNAP003" in out and "SNAP001" not in out

    def test_default_paths_come_from_pyproject(self, tmp_path):
        # With no path arguments the CLI analyses the roots named in
        # [tool.repro-analysis] of the cwd's pyproject.toml.  The repository
        # twin registry names functions the fixture tree lacks, so TWIN001
        # fires there — and only there: src/repro itself is clean.
        fixture = (FIXTURES / "twin_fixtures").as_posix()
        (tmp_path / "pyproject.toml").write_text(
            f'[tool.repro-analysis]\npaths = ["{fixture}"]\n'
        )
        env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--select", "TWIN"],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
        )
        if sys.version_info < (3, 11):  # no tomllib: falls back to src/repro
            assert proc.returncode == 2
        else:
            assert proc.returncode == 1
            assert "TWIN001" in proc.stdout


class TestEnginePurity:
    """The engine is pure ast/stdlib: it must run with numpy blocked."""

    def _run_blocked(self, *argv: str) -> subprocess.CompletedProcess:
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"  # makes 'import numpy' raise
            "from repro.analysis.__main__ import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}
        return subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO,
        )

    def test_full_run_over_the_real_tree_without_numpy(self):
        result = self._run_blocked(str(SRC))
        assert result.returncode == 0, result.stderr
        assert "no findings" in result.stdout
