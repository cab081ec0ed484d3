"""Engine behavior: file discovery, module naming, report aggregation."""

from pathlib import Path

from repro.lint import all_rules, lint_paths, lint_source, resolve_codes
from repro.lint.context import module_name_for
from repro.lint.engine import iter_python_files


class TestRegistry:
    def test_per_file_rules_registered(self):
        codes = [rule.code for rule in all_rules()]
        assert codes == [
            "RL001",
            "RL002",
            "RL003",
            "RL004",
            "RL005",
            "RL006",
            "RL007",
            "RL012",
        ]

    def test_codes_and_names_unique(self):
        rules = all_rules()
        assert len({r.code for r in rules}) == len(rules)
        assert len({r.name for r in rules}) == len(rules)

    def test_select_filters(self):
        rules = resolve_codes(select=["RL003"])
        assert [r.code for r in rules] == ["RL003"]

    def test_ignore_filters(self):
        rules = resolve_codes(ignore=["RL006"])
        assert "RL006" not in [r.code for r in rules]
        assert len(rules) == 7

    def test_unknown_code_raises(self):
        import pytest

        with pytest.raises(ValueError):
            resolve_codes(select=["RL999"])


class TestModuleNaming:
    def test_package_file(self, tmp_path):
        pkg = tmp_path / "mypkg" / "sub"
        pkg.mkdir(parents=True)
        (tmp_path / "mypkg" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        target = pkg / "mod.py"
        target.write_text("x = 1\n")
        assert module_name_for(target) == "mypkg.sub.mod"

    def test_standalone_file_has_no_module(self, tmp_path):
        target = tmp_path / "script.py"
        target.write_text("x = 1\n")
        assert module_name_for(target) is None

    def test_repo_module_names(self):
        assert module_name_for(Path("src/repro/sim/engine.py")) == "repro.sim.engine"


class TestFileDiscovery:
    def test_skips_pycache_and_sorts(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("x = 1\n")
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        found = [p.name for p in iter_python_files([tmp_path])]
        assert found == ["a.py", "b.py"]

    def test_explicit_non_python_file_ignored(self, tmp_path):
        txt = tmp_path / "snippet.txt"
        txt.write_text("x = 1\n")
        assert list(iter_python_files([txt])) == []


class TestReports:
    def test_parse_error_reported_not_raised(self):
        report = lint_source("def broken(:\n")
        assert report.findings == []
        assert len(report.errors) == 1
        assert report.exit_code == 1

    def test_clean_report_exit_zero(self):
        report = lint_source("X = 1\n")
        assert report.exit_code == 0

    def test_lint_paths_aggregates(self, tmp_path):
        (tmp_path / "one.py").write_text("import random\nrandom.random()\n")
        (tmp_path / "two.py").write_text("X = 1\n")
        report = lint_paths([tmp_path])
        assert report.files_checked == 2
        assert [f.code for f in report.findings] == ["RL001"]

    def test_findings_sorted_deterministically(self, tmp_path):
        (tmp_path / "z.py").write_text("import random\nrandom.random()\n")
        (tmp_path / "a.py").write_text("import random\nrandom.random()\n")
        report = lint_paths([tmp_path])
        paths = [f.path for f in report.findings]
        assert paths == sorted(paths)
