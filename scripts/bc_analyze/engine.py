"""Analysis orchestration: file collection, rule scopes, suppression, output."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bc_analyze import RULE_EXEMPT_PREFIXES, RULE_SCOPES, RULES, __version__
from bc_analyze.model import Finding
from bc_analyze.rules_capture import check_l3
from bc_analyze.rules_conventions import (
    check_c1,
    check_h1,
    check_h2,
    check_h3,
    check_h4,
    check_h5,
)
from bc_analyze.rules_determinism import check_d1, check_d2, check_d3
from bc_analyze.rules_graph import check_g1
from bc_analyze.source import SourceFile, load_source

DEFAULT_PATHS = ["src", "tests", "bench", "examples"]

#: The analyzer's own fixtures: skipped by a walk that starts outside them,
#: and test data for every rule when they are named explicitly.
FIXTURES = "tests/analysis_tool/fixtures/"

#: The SourceFile symbol tables D1 also reads across files.
D1_TABLES = ("unordered_vars", "unordered_fns",
             "unordered_element_containers", "ordered_vars", "ordered_fns")

#: Every rule except D1, which needs the cross-file name tables.
PER_FILE_CHECKS = {
    "D2": check_d2,
    "D3": check_d3,
    "G1": check_g1,
    "L3": check_l3,
    "C1": check_c1,
    "H1": check_h1,
    "H2": check_h2,
    "H3": check_h3,
    "H4": check_h4,
    "H5": check_h5,
}


def collect_files(repo_root: Path, paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for arg in paths:
        p = Path(arg) if Path(arg).is_absolute() else repo_root / arg
        if p.is_dir():
            inside = (relpath(p, repo_root) + "/").startswith(FIXTURES)
            skip = () if inside else (FIXTURES,)
            files.extend(
                f for f in sorted(p.rglob("*.hpp")) + sorted(p.rglob("*.cpp"))
                if not relpath(f, repo_root).startswith(skip))
        elif p.is_file():
            files.append(p)
        else:
            print(f"bc-analyze: no such path: {arg}", file=sys.stderr)
            sys.exit(2)
    return files


def relpath(path: Path, repo_root: Path) -> str:
    try:
        return path.resolve().relative_to(repo_root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def applies(rule: str, rel: str) -> bool:
    if rel.startswith(RULE_EXEMPT_PREFIXES.get(rule, ())):
        return False
    scope = RULE_SCOPES.get(rule)
    return scope is None or rel.startswith(scope + (FIXTURES,))


class Analysis:
    def __init__(self, repo_root: Path, files: list[Path]):
        known = set(RULES)
        self.sources: list[SourceFile] = [
            load_source(f, relpath(f, repo_root), known) for f in files]
        # Cross-file name tables, from the files D1 polices only: member
        # declarations live in headers while the loops that iterate them
        # live in .cpp files.
        self.d1_sources = {sf.rel: sf for sf in self.sources
                           if applies("D1", sf.rel)}
        self.tables = {attr: set().union(*(getattr(sf, attr)
                                           for sf in self.d1_sources.values()))
                       for attr in D1_TABLES}

    def _companion(self, sf: SourceFile) -> SourceFile | None:
        """The .hpp for a .cpp (and vice versa): member declarations live in
        the header while the loops that use them live in the
        implementation file, so the pair shares one symbol table."""
        if sf.rel.endswith(".cpp"):
            return self.d1_sources.get(sf.rel[:-4] + ".hpp")
        if sf.rel.endswith(".hpp"):
            return self.d1_sources.get(sf.rel[:-4] + ".cpp")
        return None

    def d1_findings(self, sf: SourceFile) -> list[Finding]:
        # A name some file declares as an ordered container (or an accessor
        # returning one) does not inherit unordered-ness across files.
        comp = self._companion(sf)

        def merged(attr: str) -> set[str]:
            out = set(getattr(sf, attr))
            if comp is not None:
                out |= getattr(comp, attr)
            return out

        g = self.tables
        l_unordered = merged("unordered_vars")
        l_ordered = merged("ordered_vars") - l_unordered
        names = l_unordered | (
            g["unordered_vars"] - g["ordered_vars"] - l_ordered)
        fns = merged("unordered_fns") | (
            g["unordered_fns"] - g["ordered_fns"] - merged("ordered_fns"))
        subs = (merged("unordered_element_containers")
                | g["unordered_element_containers"])
        return check_d1(sf, names, fns, subs)

    def rule_findings(self) -> list[Finding]:
        findings: list[Finding] = []
        for sf in self.sources:
            if sf.rel in self.d1_sources:
                findings.extend(self.d1_findings(sf))
            for rule, check in PER_FILE_CHECKS.items():
                if applies(rule, sf.rel):
                    findings.extend(check(sf))
        return findings

    def apply_suppressions(
            self, findings: list[Finding]) -> list[Finding]:
        by_file: dict[str, SourceFile] = {sf.rel: sf for sf in self.sources}
        kept: list[Finding] = []
        for f in findings:
            sf = by_file.get(f.path)
            sup = None
            if sf is not None:
                sup = next(
                    (s for s in sf.suppressions if s.covers(f.rule, f.line)),
                    None)
            if sup is not None:
                sup.used = True
                continue
            kept.append(f)
        return kept

    def suppression_findings(self) -> list[Finding]:
        """Rejected markers, and markers whose rule no longer fires
        anywhere on their target line. Neither can be suppressed."""
        out: list[Finding] = []
        for sf in self.sources:
            for lineno, why in sf.bad_suppressions:
                out.append(Finding(
                    rule="SUP", slug="bad-suppression", path=sf.rel,
                    line=lineno, message=why))
            for s in sf.suppressions:
                if s.used:
                    continue
                out.append(Finding(
                    rule="SUP", slug="stale-suppression", path=sf.rel,
                    line=s.marker_line,
                    message=(f"stale suppression: allow("
                             f"{','.join(s.rules)}) matches no finding on"
                             f" line {s.target_line} any more — delete the"
                             " marker (stale markers silently blind the"
                             " analyzer when code moves)"),
                ))
        return out


def _dedupe(findings: list[Finding]) -> list[Finding]:
    seen: set[tuple] = set()
    out: list[Finding] = []
    for f in sorted(findings, key=Finding.sort_key):
        key = (f.path, f.line, f.rule)
        if key in seen:
            continue
        seen.add(key)
        out.append(f)
    return out


def analyze(repo_root: Path, paths: list[str]) -> tuple[list[Finding], int, int]:
    """Runs every rule over `paths` (relative to `repo_root`). Returns the
    surviving findings, the number of files and of honored suppressions."""
    files = collect_files(repo_root, paths)
    analysis = Analysis(repo_root, files)
    findings = analysis.apply_suppressions(analysis.rule_findings())
    findings = _dedupe(findings + analysis.suppression_findings())
    n_sup = sum(
        1 for sf in analysis.sources for s in sf.suppressions if s.used)
    return findings, len(files), n_sup


def list_rules() -> str:
    lines = ["bc-analyze rule catalogue:"]
    for rule, slug in RULES.items():
        notes = []
        if rule in RULE_SCOPES:
            notes.append(f"scope: {', '.join(RULE_SCOPES[rule])}")
        if rule in RULE_EXEMPT_PREFIXES:
            notes.append(f"exempt: {', '.join(RULE_EXEMPT_PREFIXES[rule])}")
        suffix = f"  ({'; '.join(notes)})" if notes else ""
        lines.append(f"  {rule:4} {slug}{suffix}")
    lines.append(
        "suppress with: // bc-analyze: allow(<rule>[,<rule>]) -- <reason>")
    return "\n".join(lines)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bc_analyze.py",
        description=("BarterCast repository linter: determinism (D1-D3),"
                     " dense-index encapsulation (G1), stored callback"
                     " captures (L3), the single thread (C1) and the house"
                     " conventions (H1-H5)"))
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to analyze (default:"
                             f" {' '.join(DEFAULT_PATHS)}, skipping"
                             f" {FIXTURES})")
    parser.add_argument("--github", action="store_true",
                        help="emit GitHub annotation commands")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--version", action="version",
                        version=f"bc-analyze {__version__}")
    return parser


def run(argv: list[str], repo_root: Path) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.list_rules:
        print(list_rules())
        return 0

    findings, n_files, n_sup = analyze(repo_root, args.paths or DEFAULT_PATHS)
    for f in findings:
        print(f.github() if args.github else f.human())
    summary = (f"bc-analyze: {len(findings)} finding(s) in {n_files}"
               f" files ({n_sup} suppression(s) honored)")
    if not findings:
        summary = summary.replace("0 finding(s)", "OK, 0 findings")
    print(summary, file=sys.stderr)
    return 1 if findings else 0
