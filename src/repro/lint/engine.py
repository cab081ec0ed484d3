"""File discovery and rule execution.

:func:`lint_source` checks one source string; :func:`lint_paths` walks
files and directories, skipping caches and hidden directories.  Both
apply suppression comments and return findings in deterministic sorted
order.

Both entry points optionally run whole-program **semantic rules**
(:mod:`repro.lint.semantic`): per-file rules see one AST at a time,
semantic rules see the whole parsed project.  Semantic findings anchor
at concrete source locations, so the same per-line suppression comments
apply — the engine filters each semantic finding through the suppression
table of its anchor file.  :func:`lint_paths` additionally accepts an
:class:`~repro.lint.semantic.cache.AnalysisCache`: per-file results
replay by content hash, the semantic result replays by whole-project
fingerprint, and a warm run with no edits does no parsing at all.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.context import FileContext, collect_import_aliases, module_name_for
from repro.lint.findings import Finding
from repro.lint.registry import Rule, all_rules
from repro.lint.semantic.base import SemanticRule
from repro.lint.semantic.cache import AnalysisCache, content_hash, ruleset_signature
from repro.lint.semantic.project import build_project
from repro.lint.suppressions import Suppressions, parse_suppressions

__all__ = ["LintReport", "iter_python_files", "lint_source", "lint_paths"]

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "venv", "node_modules", ".mypy_cache"}


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    #: Files that could not be parsed: ``(path, error message)``.
    errors: list[tuple[str, str]] = field(default_factory=list)
    #: Findings absorbed by a committed baseline (not in ``findings``).
    baselined: int = 0

    @property
    def exit_code(self) -> int:
        """0 when clean, 1 on findings or parse errors."""
        return 1 if (self.findings or self.errors) else 0

    def merge(self, other: "LintReport") -> None:
        """Fold ``other``'s counts and findings into this report."""
        self.findings.extend(other.findings)
        self.files_checked += other.files_checked
        self.suppressed += other.suppressed
        self.errors.extend(other.errors)
        self.baselined += other.baselined

    def sort(self) -> None:
        """Sort findings into the canonical (path, line, col, code) order."""
        self.findings.sort()


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Yield ``.py`` files under ``paths`` in sorted, deterministic order.

    Directories are walked recursively; cache and VCS directories are
    skipped.  Non-Python files given explicitly are ignored (so globs may
    be passed verbatim).
    """
    for path in paths:
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in sub.parts):
                    yield sub
        elif path.suffix == ".py":
            yield path


def _semantic_pass(
    rules: Iterable[SemanticRule],
    contexts: list[FileContext],
    sources: dict[str, str],
) -> tuple[list[Finding], int]:
    """Run semantic rules over parsed contexts, applying suppressions."""
    project = build_project(contexts)
    suppression_tables: dict[str, Suppressions] = {}
    findings: list[Finding] = []
    suppressed = 0
    for rule in rules:
        for finding in rule.check(project):
            table = suppression_tables.get(finding.path)
            if table is None and finding.path in sources:
                table = parse_suppressions(sources[finding.path])
                suppression_tables[finding.path] = table
            if table is not None and table.is_suppressed(finding.line, finding.code):
                suppressed += 1
            else:
                findings.append(finding)
    return findings, suppressed


def lint_source(
    source: str,
    *,
    path: str = "<string>",
    module: str | None = None,
    rules: Iterable[Rule] | None = None,
    semantic_rules: Iterable[SemanticRule] | None = None,
) -> LintReport:
    """Lint one source string and return its report.

    ``module`` scopes package-restricted rules (e.g. RL002 only runs on
    ``repro.sim`` / ``repro.core``); leave it ``None`` for standalone
    snippets, which count as in-scope for every rule.  ``semantic_rules``
    runs whole-program rules against the single-file project — fixture
    tests exercise cross-file analyzers this way.
    """
    report = LintReport(files_checked=1)
    try:
        tree = ast.parse(source, filename=path)
    except (SyntaxError, ValueError) as exc:
        report.errors.append((path, f"parse error: {exc}"))
        return report
    ctx = FileContext(
        path=path,
        tree=tree,
        source=source,
        module=module,
        aliases=collect_import_aliases(tree),
    )
    suppressions = parse_suppressions(source)
    active = list(rules) if rules is not None else all_rules()
    for rule in active:
        if not rule.applies_to(ctx):
            continue
        for finding in rule.check(ctx):
            if suppressions.is_suppressed(finding.line, finding.code):
                report.suppressed += 1
            else:
                report.findings.append(finding)
    if semantic_rules is not None:
        sem_findings, sem_suppressed = _semantic_pass(
            semantic_rules, [ctx], {path: source}
        )
        report.findings.extend(sem_findings)
        report.suppressed += sem_suppressed
    report.sort()
    return report


def lint_paths(
    paths: Sequence[str | Path],
    *,
    rules: Iterable[Rule] | None = None,
    semantic_rules: Iterable[SemanticRule] | None = None,
    cache: AnalysisCache | None = None,
) -> LintReport:
    """Lint every Python file under ``paths`` and return the merged report.

    With a ``cache``, unchanged files replay their recorded results and —
    when the whole input set is unchanged — the semantic pass replays
    from the project fingerprint without parsing anything.  The caller
    owns persistence (:meth:`AnalysisCache.save`).
    """
    active = list(rules) if rules is not None else all_rules()
    semantic_active = list(semantic_rules) if semantic_rules is not None else None
    file_sig = ruleset_signature(active)

    report = LintReport()
    sources: dict[str, str] = {}
    modules: dict[str, str | None] = {}
    digests: dict[str, str] = {}
    for file_path in iter_python_files([Path(p) for p in paths]):
        path = str(file_path)
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            report.errors.append((path, f"read error: {exc}"))
            report.files_checked += 1
            continue
        sources[path] = source
        modules[path] = module_name_for(file_path)
        digests[path] = content_hash(source)

    for path, source in sources.items():
        if cache is not None:
            replay = cache.get_file(path, digests[path], file_sig)
            if replay is not None:
                findings, suppressed, errors = replay
                report.findings.extend(findings)
                report.suppressed += suppressed
                report.errors.extend(errors)
                report.files_checked += 1
                continue
        file_report = lint_source(
            source, path=path, module=modules[path], rules=active
        )
        if cache is not None:
            cache.put_file(
                path,
                digests[path],
                file_sig,
                file_report.findings,
                file_report.suppressed,
                file_report.errors,
            )
        report.merge(file_report)

    if semantic_active is not None:
        sem_sig = ruleset_signature(semantic_active)
        fingerprint = AnalysisCache.project_fingerprint(sorted(digests.items()))
        replay_sem = (
            cache.get_semantic(fingerprint, sem_sig) if cache is not None else None
        )
        if replay_sem is not None:
            sem_findings, sem_suppressed = replay_sem
        else:
            contexts = []
            for path, source in sources.items():
                try:
                    contexts.append(
                        FileContext.from_source(
                            source, path=path, module=modules[path]
                        )
                    )
                except (SyntaxError, ValueError):
                    continue  # the per-file pass already reported it
            sem_findings, sem_suppressed = _semantic_pass(
                semantic_active, contexts, sources
            )
            if cache is not None:
                cache.put_semantic(fingerprint, sem_sig, sem_findings, sem_suppressed)
        report.findings.extend(sem_findings)
        report.suppressed += sem_suppressed

    report.sort()
    return report
