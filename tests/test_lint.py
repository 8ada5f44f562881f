"""Tests for :mod:`repro.lint` (rules RPL001-RPL006), the metric
catalog, and the catalog-sync check.

Rule tests compile positive/negative snippets from strings through
:func:`repro.lint.lint_source`; the self-hosting tests run the real
linter over the repository's own ``src/`` tree.
"""

import json
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    REPORT_SCHEMA_VERSION,
    all_rules,
    apply_baseline,
    collect_files,
    lint_paths,
    lint_source,
    load_baseline,
    render_json,
    render_text,
    write_baseline,
)
from repro.lint.baseline import BaselineError, fingerprint
from repro.lint.cli import LintExit
from repro.lint.cli import main as lint_main
from repro.lint.core import PARSE_ERROR
from repro.obs import catalog

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def run_rule(code, source, path="src/repro/somewhere/mod.py"):
    """Diagnostics of one rule over an in-memory snippet."""
    diags, suppressed = lint_source(path, source, active=frozenset({code}))
    return diags, suppressed


def codes(diags):
    return [d.code for d in diags]


# ----------------------------------------------------------------------
# registry / core
# ----------------------------------------------------------------------
class TestCore:
    def test_registered_rule_codes(self):
        registered = [r.code for r in all_rules()]
        assert registered == [
            "RPL001",
            "RPL002",
            "RPL003",
            "RPL005",
            "RPL006",
            "RPL007",
            "RPL100",
            "RPL101",
            "RPL102",
        ]

    def test_syntax_error_becomes_rpl000(self):
        diags, _ = lint_source("bad.py", "def broken(:\n")
        assert codes(diags) == [PARSE_ERROR]
        assert "does not parse" in diags[0].message

    def test_diagnostic_format_is_clickable(self):
        diags, _ = run_rule("RPL001", "try:\n    x()\nexcept Exception:\n    pass\n")
        line = diags[0].format()
        assert line.startswith("src/repro/somewhere/mod.py:3:")
        assert "RPL001" in line

    def test_collect_files_skips_hidden_and_pycache(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "b.py").write_text("x = 1\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "c.py").write_text("x = 1\n")
        (tmp_path / "keep").mkdir()
        (tmp_path / "keep" / "d.py").write_text("x = 1\n")
        found = collect_files([str(tmp_path)])
        names = [Path(p).name for p in found]
        assert names == ["a.py", "d.py"]

    def test_collect_files_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            collect_files(["definitely/not/here"])

    def test_unknown_select_code_raises(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        with pytest.raises(ValueError, match="unknown rule code"):
            lint_paths([str(tmp_path)], select=["RPL999"])


# ----------------------------------------------------------------------
# RPL001 — broad except
# ----------------------------------------------------------------------
class TestRPL001:
    def test_flags_swallowing_broad_except(self):
        diags, _ = run_rule(
            "RPL001", "try:\n    x()\nexcept Exception:\n    pass\n"
        )
        assert codes(diags) == ["RPL001"]

    def test_flags_bare_except(self):
        diags, _ = run_rule("RPL001", "try:\n    x()\nexcept:\n    pass\n")
        assert codes(diags) == ["RPL001"]

    def test_flags_broad_member_of_tuple(self):
        diags, _ = run_rule(
            "RPL001",
            "try:\n    x()\nexcept (ValueError, Exception):\n    pass\n",
        )
        assert codes(diags) == ["RPL001"]

    def test_reraise_is_clean(self):
        diags, _ = run_rule(
            "RPL001", "try:\n    x()\nexcept Exception:\n    raise\n"
        )
        assert diags == []

    def test_classify_exception_is_clean(self):
        src = (
            "try:\n"
            "    x()\n"
            "except Exception as exc:\n"
            "    info = classify_exception(exc)\n"
        )
        diags, _ = run_rule("RPL001", src)
        assert diags == []

    def test_narrow_except_is_clean(self):
        diags, _ = run_rule(
            "RPL001", "try:\n    x()\nexcept ValueError:\n    pass\n"
        )
        assert diags == []

    def test_raise_inside_nested_def_does_not_count(self):
        src = (
            "try:\n"
            "    x()\n"
            "except Exception:\n"
            "    def later():\n"
            "        raise ValueError('no')\n"
        )
        diags, _ = run_rule("RPL001", src)
        assert codes(diags) == ["RPL001"]


# ----------------------------------------------------------------------
# RPL002 — metric catalog
# ----------------------------------------------------------------------
class TestRPL002:
    def test_flags_unknown_literal_metric(self):
        diags, _ = run_rule("RPL002", "metrics.inc('bogus.metric', 1)\n")
        assert codes(diags) == ["RPL002"]
        assert "bogus.metric" in diags[0].message

    def test_known_metric_is_clean(self):
        diags, _ = run_rule("RPL002", "metrics.inc('cache.hits')\n")
        assert diags == []

    def test_placeholder_family_is_clean(self):
        diags, _ = run_rule(
            "RPL002", "metrics.timed('pipeline.feature.eigenvalues')\n"
        )
        assert diags == []

    def test_fstring_with_known_prefix_is_clean(self):
        diags, _ = run_rule(
            "RPL002", "metrics.timed(f'jobs.{job.type}')\n"
        )
        assert diags == []

    def test_fstring_with_unknown_prefix_is_flagged(self):
        diags, _ = run_rule(
            "RPL002", "metrics.timed(f'bogus.{job.type}')\n"
        )
        assert codes(diags) == ["RPL002"]

    def test_registry_module_is_exempt(self):
        diags, _ = lint_source(
            "src/repro/obs/registry.py",
            "metrics.inc('bogus.metric')\n",
            active=frozenset({"RPL002"}),
        )
        assert diags == []

    def test_module_level_timed_helper_is_checked(self):
        diags, _ = run_rule("RPL002", "timed('bogus.section')\n")
        assert codes(diags) == ["RPL002"]


# ----------------------------------------------------------------------
# RPL003 — exit codes
# ----------------------------------------------------------------------
class TestRPL003:
    def test_flags_sys_exit_literal(self):
        diags, _ = run_rule("RPL003", "import sys\nsys.exit(1)\n")
        assert codes(diags) == ["RPL003"]

    def test_flags_return_literal_in_main(self):
        diags, _ = run_rule("RPL003", "def main():\n    return 2\n")
        assert codes(diags) == ["RPL003"]

    def test_flags_return_literal_in_cmd_function(self):
        diags, _ = run_rule("RPL003", "def _cmd_query(args):\n    return 0\n")
        assert codes(diags) == ["RPL003"]

    def test_flags_raise_system_exit_literal(self):
        diags, _ = run_rule("RPL003", "raise SystemExit(3)\n")
        assert codes(diags) == ["RPL003"]

    def test_enum_member_is_clean(self):
        src = (
            "import sys\n"
            "def main():\n"
            "    return ExitCode.OK\n"
            "sys.exit(main())\n"
        )
        diags, _ = run_rule("RPL003", src)
        assert diags == []

    def test_return_literal_elsewhere_is_clean(self):
        diags, _ = run_rule("RPL003", "def helper():\n    return 2\n")
        assert diags == []

    def test_bool_literal_not_treated_as_exit_code(self):
        diags, _ = run_rule("RPL003", "def main():\n    return True\n")
        assert diags == []


# ----------------------------------------------------------------------
# RPL005 — picklable handlers
# ----------------------------------------------------------------------
class TestRPL005:
    def test_flags_lambda_register(self):
        diags, _ = run_rule(
            "RPL005", "runner.register('t', lambda job: None)\n"
        )
        assert codes(diags) == ["RPL005"]

    def test_flags_lambda_in_handlers_dict(self):
        diags, _ = run_rule(
            "RPL005", "r = JobRunner(q, {'t': lambda job: None})\n"
        )
        assert codes(diags) == ["RPL005"]

    def test_flags_lambda_pool_factory(self):
        diags, _ = run_rule("RPL005", "pool = WorkerPool(lambda: handler)\n")
        assert codes(diags) == ["RPL005"]

    def test_flags_lambda_submitted(self):
        diags, _ = run_rule("RPL005", "pool.submit(lambda: 1)\n")
        assert codes(diags) == ["RPL005"]

    def test_flags_nested_function_handler(self):
        src = (
            "def setup(runner):\n"
            "    def handle(job):\n"
            "        return None\n"
            "    runner.register('t', handle)\n"
        )
        diags, _ = run_rule("RPL005", src)
        assert codes(diags) == ["RPL005"]
        assert "handle" in diags[0].message

    def test_module_level_handler_is_clean(self):
        src = (
            "def handle(job):\n"
            "    return None\n"
            "def setup(runner):\n"
            "    runner.register('t', handle)\n"
        )
        diags, _ = run_rule("RPL005", src)
        assert diags == []

    def test_dataclass_instance_is_clean(self):
        diags, _ = run_rule(
            "RPL005",
            "r = JobRunner(q, {'re-extract': ReextractHandler(db)})\n",
        )
        assert diags == []

    def test_reextract_handler_is_picklable(self):
        from repro.jobs import ReextractHandler

        handler = ReextractHandler(database=None)
        clone = pickle.loads(pickle.dumps(handler))
        assert isinstance(clone, ReextractHandler)


# ----------------------------------------------------------------------
# RPL006 — taxonomy raises in pipeline stages
# ----------------------------------------------------------------------
class TestRPL006:
    @pytest.mark.parametrize(
        "pkg", ["voxel", "skeleton", "features", "geometry"]
    )
    def test_flags_bare_valueerror_in_stage(self, pkg):
        diags, _ = lint_source(
            f"src/repro/{pkg}/mod.py",
            "raise ValueError('bad')\n",
            active=frozenset({"RPL006"}),
        )
        assert codes(diags) == ["RPL006"]

    def test_flags_runtimeerror_too(self):
        diags, _ = lint_source(
            "src/repro/skeleton/mod.py",
            "raise RuntimeError('bad')\n",
            active=frozenset({"RPL006"}),
        )
        assert codes(diags) == ["RPL006"]

    def test_taxonomy_raise_is_clean(self):
        diags, _ = lint_source(
            "src/repro/voxel/mod.py",
            "raise InvalidParameterError('bad', code='usage.x')\n",
            active=frozenset({"RPL006"}),
        )
        assert diags == []

    def test_outside_stage_packages_not_flagged(self):
        diags, _ = lint_source(
            "src/repro/search/mod.py",
            "raise ValueError('fine here')\n",
            active=frozenset({"RPL006"}),
        )
        assert diags == []

    def test_invalid_parameter_error_is_still_valueerror(self):
        from repro.robust.errors import InvalidParameterError, ReproError

        exc = InvalidParameterError("nope")
        assert isinstance(exc, ValueError)
        assert isinstance(exc, ReproError)
        assert exc.stage == "usage"
        assert exc.code == "usage.invalid_parameter"


# ----------------------------------------------------------------------
# RPL007 — no internal callers of the multi_step mode shim
# ----------------------------------------------------------------------
class TestRPL007:
    def test_flags_search_request_construction(self):
        diags, _ = run_rule(
            "RPL007",
            "SearchRequest(query=1, mode='multi_step', steps=[('a', 3)])\n",
        )
        assert codes(diags) == ["RPL007"]

    def test_flags_search_method_call(self):
        diags, _ = run_rule(
            "RPL007",
            "client.search(shape_id=1, mode='multi_step')\n",
        )
        assert codes(diags) == ["RPL007"]

    def test_cascade_mode_is_clean(self):
        diags, _ = run_rule(
            "RPL007",
            "SearchRequest(query=1, mode='cascade')\n",
        )
        assert diags == []

    def test_dynamic_mode_is_exempt(self):
        # Protocol decoders thread a client-sent mode through a variable;
        # only literal shim construction is the project's own debt.
        diags, _ = run_rule(
            "RPL007",
            "mode = payload.get('mode')\nSearchRequest(query=1, mode=mode)\n",
        )
        assert diags == []

    def test_other_calls_with_mode_kw_are_exempt(self):
        diags, _ = run_rule(
            "RPL007",
            "open_thing(path, mode='multi_step')\n",
        )
        assert diags == []


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    SRC = "try:\n    x()\nexcept Exception:{comment}\n    pass\n"

    def test_same_line_suppression(self):
        src = self.SRC.format(
            comment="  # repro-lint: disable=RPL001 -- boundary"
        )
        diags, suppressed = run_rule("RPL001", src)
        assert diags == []
        assert suppressed == 1

    def test_line_above_suppression(self):
        src = (
            "try:\n"
            "    x()\n"
            "# repro-lint: disable=RPL001 -- boundary\n"
            "except Exception:\n"
            "    pass\n"
        )
        diags, suppressed = run_rule("RPL001", src)
        assert diags == []
        assert suppressed == 1

    def test_disable_all(self):
        src = self.SRC.format(comment="  # repro-lint: disable=all")
        diags, suppressed = run_rule("RPL001", src)
        assert diags == []
        assert suppressed == 1

    def test_wrong_code_does_not_suppress(self):
        src = self.SRC.format(comment="  # repro-lint: disable=RPL006")
        diags, suppressed = run_rule("RPL001", src)
        assert codes(diags) == ["RPL001"]
        assert suppressed == 0

    def test_distant_comment_does_not_suppress(self):
        src = (
            "# repro-lint: disable=RPL001\n"
            "y = 1\n"
            "try:\n"
            "    x()\n"
            "except Exception:\n"
            "    pass\n"
        )
        diags, _ = run_rule("RPL001", src)
        assert codes(diags) == ["RPL001"]

    def test_parse_error_cannot_be_suppressed(self):
        diags, _ = lint_source(
            "bad.py", "def broken(:  # repro-lint: disable=all\n"
        )
        assert codes(diags) == [PARSE_ERROR]


# ----------------------------------------------------------------------
# reporters + CLI
# ----------------------------------------------------------------------
class TestReportersAndCli:
    def _violations_tree(self, tmp_path):
        """One seeded violation of each of the six AST rules."""
        stage = tmp_path / "voxel"
        stage.mkdir()
        (stage / "bad_stage.py").write_text("raise ValueError('x')\n")
        (tmp_path / "bad_rest.py").write_text(
            "import sys\n"
            "try:\n"
            "    x()\n"
            "except Exception:\n"
            "    pass\n"
            "metrics.inc('bogus.metric')\n"
            "sys.exit(1)\n"
            "runner.register('t', lambda job: None)\n"
            "SearchRequest(query=1, mode='multi_step')\n"
        )
        return tmp_path

    def test_seeded_violations_hit_every_ast_rule(self, tmp_path):
        report = lint_paths([str(self._violations_tree(tmp_path))])
        assert sorted(report.counts_by_code()) == [
            "RPL001",
            "RPL002",
            "RPL003",
            "RPL005",
            "RPL006",
            "RPL007",
        ]

    def test_json_reporter_schema(self, tmp_path):
        report = lint_paths([str(self._violations_tree(tmp_path))])
        payload = json.loads(render_json(report))
        assert payload["version"] == REPORT_SCHEMA_VERSION
        assert payload["ok"] is False
        assert payload["files_checked"] == 2
        assert isinstance(payload["suppressed"], int)
        assert set(payload["counts"]) == {
            "RPL001", "RPL002", "RPL003", "RPL005", "RPL006", "RPL007",
        }
        for diag in payload["diagnostics"]:
            assert set(diag) == {"code", "path", "line", "col", "message"}
            assert diag["line"] >= 1

    def test_text_reporter_mentions_counts(self, tmp_path):
        report = lint_paths([str(self._violations_tree(tmp_path))])
        text = render_text(report)
        assert "RPL001: 1" in text
        assert "file:" not in text  # diagnostics are path:line:col

    def test_select_restricts_rules(self, tmp_path):
        tree = self._violations_tree(tmp_path)
        report = lint_paths([str(tree)], select=["RPL007"])
        assert set(report.counts_by_code()) == {"RPL007"}

    def test_ignore_drops_rules(self, tmp_path):
        tree = self._violations_tree(tmp_path)
        report = lint_paths([str(tree)], ignore=["RPL001", "RPL006"])
        assert set(report.counts_by_code()) == {
            "RPL002", "RPL003", "RPL005", "RPL007",
        }

    def test_cli_exit_codes(self, tmp_path, capsys):
        tree = self._violations_tree(tmp_path)
        assert lint_main([str(tree)]) == LintExit.FINDINGS
        capsys.readouterr()
        clean = tmp_path / "clean"
        clean.mkdir()
        (clean / "ok.py").write_text("x = 1\n")
        assert lint_main([str(clean)]) == LintExit.OK
        capsys.readouterr()
        assert lint_main(["no/such/path"]) == LintExit.USAGE
        capsys.readouterr()
        assert lint_main(["--select", "RPL999", str(clean)]) == LintExit.USAGE

    def test_cli_json_output(self, tmp_path, capsys):
        tree = self._violations_tree(tmp_path)
        code = lint_main([str(tree), "--format", "json"])
        assert code == LintExit.FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == LintExit.OK
        out = capsys.readouterr().out
        for rule_code in ("RPL001", "RPL006"):
            assert rule_code in out

    def test_three_dess_lint_subcommand(self, tmp_path, capsys):
        from repro.cli import ExitCode, main as cli_main

        tree = self._violations_tree(tmp_path)
        assert cli_main(["lint", str(tree)]) == ExitCode.LINT_FINDINGS
        capsys.readouterr()
        clean = tmp_path / "clean2"
        clean.mkdir()
        (clean / "ok.py").write_text("x = 1\n")
        assert cli_main(["lint", str(clean)]) == ExitCode.OK


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------
class TestBaseline:
    LEAKY = "def f(path):\n    h = open(path)\n    return 1\n"

    def _report(self, tmp_path, name="leaky.py"):
        target = tmp_path / name
        target.write_text(self.LEAKY)
        return lint_paths([str(target)], select=["RPL102"])

    def test_write_is_deterministic_and_sorted(self, tmp_path):
        report = self._report(tmp_path)
        out = tmp_path / "base.json"
        assert write_baseline(str(out), report.diagnostics) == 1
        first = out.read_text()
        assert first.endswith("\n")
        write_baseline(str(out), list(reversed(report.diagnostics)))
        assert out.read_text() == first

    def test_apply_filters_and_counts(self, tmp_path):
        report = self._report(tmp_path)
        assert len(report.diagnostics) == 1
        out = tmp_path / "base.json"
        write_baseline(str(out), report.diagnostics)
        fresh = self._report(tmp_path)
        apply_baseline(fresh, load_baseline(str(out)))
        assert fresh.diagnostics == []
        assert fresh.baselined == 1

    def test_fingerprint_ignores_line_numbers(self, tmp_path):
        report = self._report(tmp_path)
        out = tmp_path / "base.json"
        write_baseline(str(out), report.diagnostics)
        # Shift the finding down two lines: same fingerprint, still
        # baselined (messages are line-free by design).
        (tmp_path / "leaky.py").write_text("# pad\n# pad\n" + self.LEAKY)
        shifted = lint_paths(
            [str(tmp_path / "leaky.py")], select=["RPL102"]
        )
        apply_baseline(shifted, load_baseline(str(out)))
        assert shifted.diagnostics == []
        assert shifted.baselined == 1

    def test_new_finding_is_not_absorbed(self, tmp_path):
        report = self._report(tmp_path)
        out = tmp_path / "base.json"
        write_baseline(str(out), report.diagnostics)
        (tmp_path / "other.py").write_text(
            "def g(path):\n    s = open(path)\n    return 2\n"
        )
        fresh = lint_paths([str(tmp_path)], select=["RPL102"])
        apply_baseline(fresh, load_baseline(str(out)))
        assert len(fresh.diagnostics) == 1
        assert "other.py" in fresh.diagnostics[0].path

    def test_relative_and_absolute_paths_fingerprint_alike(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        report_abs = self._report(tmp_path)
        report_rel = lint_paths(["leaky.py"], select=["RPL102"])
        assert [fingerprint(d) for d in report_abs.diagnostics] == [
            fingerprint(d) for d in report_rel.diagnostics
        ]

    @pytest.mark.parametrize(
        "content",
        [
            "not json at all",
            '{"version": 99, "findings": []}',
            '{"version": 1, "findings": "nope"}',
            '{"version": 1, "findings": [{"code": "RPL100"}]}',
        ],
    )
    def test_malformed_baseline_raises(self, tmp_path, content):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        with pytest.raises(BaselineError):
            load_baseline(str(bad))

    def test_missing_baseline_raises(self, tmp_path):
        with pytest.raises(BaselineError):
            load_baseline(str(tmp_path / "nope.json"))

    def test_cli_baseline_roundtrip(self, tmp_path, capsys):
        target = tmp_path / "leaky.py"
        target.write_text(self.LEAKY)
        base = tmp_path / "base.json"
        assert lint_main([str(target)]) == LintExit.FINDINGS
        capsys.readouterr()
        assert (
            lint_main([str(target), "--baseline-write", str(base)])
            == LintExit.OK
        )
        assert "wrote 1 baseline entry" in capsys.readouterr().out
        assert (
            lint_main([str(target), "--baseline", str(base)]) == LintExit.OK
        )
        assert "1 baselined" in capsys.readouterr().out

    def test_cli_missing_baseline_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        code = lint_main(
            [str(target), "--baseline", str(tmp_path / "absent.json")]
        )
        assert code == LintExit.USAGE
        capsys.readouterr()

    def test_cli_json_reports_baselined(self, tmp_path, capsys):
        target = tmp_path / "leaky.py"
        target.write_text(self.LEAKY)
        base = tmp_path / "base.json"
        lint_main([str(target), "--baseline-write", str(base)])
        capsys.readouterr()
        code = lint_main(
            [str(target), "--baseline", str(base), "--format", "json"]
        )
        assert code == LintExit.OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["baselined"] == 1

    def test_three_dess_lint_baseline_passthrough(self, tmp_path, capsys):
        from repro.cli import ExitCode, main as cli_main

        target = tmp_path / "leaky.py"
        target.write_text(self.LEAKY)
        base = tmp_path / "base.json"
        assert (
            cli_main(["lint", str(target), "--baseline-write", str(base)])
            == ExitCode.OK
        )
        capsys.readouterr()
        assert (
            cli_main(["lint", str(target), "--baseline", str(base)])
            == ExitCode.OK
        )


# ----------------------------------------------------------------------
# exit-code enum
# ----------------------------------------------------------------------
class TestExitCodeEnum:
    def test_documented_values(self):
        from repro.cli import ExitCode

        assert ExitCode.OK == 0
        assert ExitCode.LINT_FINDINGS == 1
        assert ExitCode.USAGE == 2
        assert ExitCode.DATA == 3
        assert ExitCode.INTERNAL == 4
        assert ExitCode.QUARANTINED == 5
        assert ExitCode.INTEGRITY == 6
        assert ExitCode.JOBS_FAILED == 7

    def test_legacy_aliases_preserved(self):
        from repro import cli

        assert cli.EXIT_OK == cli.ExitCode.OK
        assert cli.EXIT_INTEGRITY == cli.ExitCode.INTEGRITY
        assert cli.EXIT_JOBS_FAILED == 7


# ----------------------------------------------------------------------
# self-hosting + catalog sync (the acceptance gates)
# ----------------------------------------------------------------------
class TestSelfHosting:
    def test_src_is_clean_against_committed_baseline(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        report = lint_paths([str(SRC), str(REPO_ROOT / "tests" / "faults.py")])
        baseline = load_baseline(str(REPO_ROOT / "lint-baseline.json"))
        apply_baseline(report, baseline)
        assert report.files_checked > 100
        assert report.diagnostics == [], render_text(report)
        # The baseline grandfathers exactly the known registry fast-path
        # findings; anything else in it would be silently absorbed debt.
        assert report.baselined == len(baseline)
        assert {code for code, _, _ in baseline} == {"RPL100"}

    def test_flow_rules_have_no_unbaselined_src_findings(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        report = lint_paths(
            [str(SRC)], select=["RPL100", "RPL101", "RPL102"]
        )
        apply_baseline(
            report, load_baseline(str(REPO_ROOT / "lint-baseline.json"))
        )
        assert report.diagnostics == [], render_text(report)

    def test_examples_and_benchmarks_are_clean(self):
        report = lint_paths(
            [str(REPO_ROOT / "examples"), str(REPO_ROOT / "benchmarks")]
        )
        assert report.diagnostics == [], render_text(report)


class TestCatalogSync:
    def test_every_emitted_metric_is_declared(self):
        # RPL002 *is* the AST sweep: zero findings over src/ means every
        # literal or prefix-resolvable metric name is in the catalog.
        report = lint_paths([str(SRC)], select=["RPL002"])
        assert report.diagnostics == [], render_text(report)

    def test_docs_table_is_in_sync(self):
        assert catalog.docs_in_sync(str(REPO_ROOT / "docs" / "OBSERVABILITY.md"))

    def test_known_and_unknown_names(self):
        assert catalog.is_known_metric("cache.hits")
        assert catalog.is_known_metric("pipeline.feature.eigenvalues")
        assert catalog.is_known_metric("jobs.re-extract")
        assert not catalog.is_known_metric("bogus.metric")
        assert catalog.matches_metric_prefix("jobs.")
        assert catalog.matches_metric_prefix("")  # fully dynamic: allowed
        assert not catalog.matches_metric_prefix("bogus.")

    def test_catalog_entries_are_well_formed(self):
        kinds = {"counter", "gauge", "histogram", "derived"}
        names = [spec.name for spec in catalog.CATALOG]
        assert len(names) == len(set(names)), "duplicate catalog names"
        for spec in catalog.CATALOG:
            assert spec.kind in kinds, spec.name
            assert spec.meaning
            assert spec.section in catalog.SECTION_ORDER

    def test_stale_docs_detected_and_rewritten(self, tmp_path):
        docs = tmp_path / "OBS.md"
        docs.write_text(
            "# header\n\n"
            f"{catalog.BEGIN_MARKER}\nstale stuff\n{catalog.END_MARKER}\n\n"
            "tail\n"
        )
        assert not catalog.docs_in_sync(str(docs))
        assert catalog.main(["--check", str(docs)]) == 1
        assert catalog.update_docs(str(docs)) is True
        assert catalog.docs_in_sync(str(docs))
        assert catalog.main(["--check", str(docs)]) == 0
        assert catalog.update_docs(str(docs)) is False
        text = docs.read_text()
        assert text.startswith("# header")
        assert text.rstrip().endswith("tail")

    def test_missing_markers_is_an_error(self, tmp_path):
        docs = tmp_path / "OBS.md"
        docs.write_text("no markers here\n")
        assert catalog.main(["--check", str(docs)]) == 2


# ----------------------------------------------------------------------
# mypy gate (runs only where mypy is installed, e.g. CI)
# ----------------------------------------------------------------------
@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_gate_on_strict_modules():
    result = subprocess.run(
        [
            "mypy",
            "-p", "repro.obs",
            "-p", "repro.robust",
            "-p", "repro.jobs",
            "-p", "repro.lint",
            "-m", "repro.search.api",
        ],
        cwd=str(REPO_ROOT),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
