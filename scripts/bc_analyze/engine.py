"""Analysis orchestration: file collection, rule stages, suppression, output."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bc_analyze import RULES, RULE_EXEMPT_PREFIXES, __version__
from bc_analyze.callgraph import Program
from bc_analyze.model import Finding
from bc_analyze.rules_capture import check_l3
from bc_analyze.rules_concurrency import check_c2
from bc_analyze.rules_dataflow import (
    check_c4,
    check_c5,
    check_d4,
    check_p1,
    extra_d4_sources,
)
from bc_analyze.rules_determinism import check_d1, check_d2, check_d3
from bc_analyze.rules_graph import check_g1
from bc_analyze.source import SourceFile, load_source

DEFAULT_PATHS = ["src", "bench", "examples"]


def collect_files(repo_root: Path, paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for arg in paths:
        p = Path(arg) if Path(arg).is_absolute() else repo_root / arg
        if p.is_dir():
            files.extend(sorted(p.rglob("*.hpp")))
            files.extend(sorted(p.rglob("*.cpp")))
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


def _exempt(rule: str, rel: str) -> bool:
    return any(rel.startswith(p) for p in RULE_EXEMPT_PREFIXES.get(rule, ()))


class Analysis:
    def __init__(self, repo_root: Path):
        self.repo_root = repo_root
        self.sources: list[SourceFile] = []
        # Cross-file name tables: member declarations live in headers while
        # the loops that iterate them live in .cpp files.
        self.global_unordered: set[str] = set()
        self.global_unordered_fns: set[str] = set()
        self.global_subscript: set[str] = set()
        self.global_ordered: set[str] = set()
        self.global_ordered_fns: set[str] = set()

    def load(self, files: list[Path]) -> None:
        known = set(RULES)
        for f in files:
            sf = load_source(f, relpath(f, self.repo_root), known)
            self.sources.append(sf)
            self.global_unordered |= sf.unordered_vars
            self.global_unordered_fns |= sf.unordered_fns
            self.global_subscript |= sf.unordered_element_containers
            self.global_ordered |= sf.ordered_vars
            self.global_ordered_fns |= sf.ordered_fns

    def _companion(self, sf: SourceFile) -> SourceFile | None:
        """The .hpp for a .cpp (and vice versa): member declarations live in
        the header while the loops that use them live in the
        implementation file, so the pair shares one symbol table."""
        by_rel = {s.rel: s for s in self.sources}
        if sf.rel.endswith(".cpp"):
            return by_rel.get(sf.rel[:-4] + ".hpp")
        if sf.rel.endswith(".hpp"):
            return by_rel.get(sf.rel[:-4] + ".cpp")
        return None

    def run_token_rules(self) -> list[Finding]:
        # A name some file declares as an ordered container (or an accessor
        # returning one) does not inherit unordered-ness across files.
        xfile_unordered = self.global_unordered - self.global_ordered
        xfile_unordered_fns = (self.global_unordered_fns
                               - self.global_ordered_fns)
        findings: list[Finding] = []
        for sf in self.sources:
            comp = self._companion(sf)

            def merged(attr: str, c=comp, s=sf) -> set[str]:
                out = set(getattr(s, attr))
                if c is not None:
                    out |= getattr(c, attr)
                return out

            l_unordered = merged("unordered_vars")
            l_ordered = merged("ordered_vars") - l_unordered
            d1_names = l_unordered | (xfile_unordered - l_ordered)
            d1_fns = (merged("unordered_fns")
                      | (xfile_unordered_fns - merged("ordered_fns")))
            d1_subs = (merged("unordered_element_containers")
                       | self.global_subscript)
            per_rule = {
                "D1": lambda s=sf: check_d1(s, d1_names, d1_fns, d1_subs),
                "D2": lambda s=sf: check_d2(s),
                "D3": lambda s=sf: check_d3(s),
                "C2": lambda s=sf: check_c2(s),
                "G1": lambda s=sf: check_g1(s),
                "L3": lambda s=sf: check_l3(s),
            }
            for rule, run in per_rule.items():
                if _exempt(rule, sf.rel):
                    continue
                findings.extend(run())
            for lineno, why in sf.bad_suppressions:
                findings.append(Finding(
                    rule="SUP", slug="bad-suppression", path=sf.rel,
                    line=lineno, message=why))
        return findings

    def run_interprocedural_rules(
            self, surviving: list[Finding]) -> list[Finding]:
        """Dataflow rules D4/P1/C4/C5 over the whole-program call graph.

        `surviving` are the post-suppression intraprocedural findings:
        the D1/D2/D3 ones among them seed the D4 taint pass (a suppressed
        source carries a written proof that its value cannot escape, so it
        does not taint callers)."""
        program = Program(self.sources)
        sources = [(f.path, f.line, RULES[f.rule])
                   for f in surviving if f.rule in ("D1", "D2", "D3")]
        for sf in self.sources:
            if not _exempt("D4", sf.rel):
                sources.extend(extra_d4_sources(sf))
        findings: list[Finding] = []
        findings.extend(check_d4(program, sources, _exempt))
        findings.extend(check_p1(program, _exempt))
        findings.extend(check_c4(program, _exempt))
        findings.extend(check_c5(program, _exempt))
        return findings

    def stale_suppression_findings(self) -> list[Finding]:
        """Markers whose rule no longer fires anywhere on their target
        line. Run after every rule stage has had its chance to use them."""
        out: list[Finding] = []
        for sf in self.sources:
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

    def apply_suppressions(
            self, findings: list[Finding]) -> list[Finding]:
        by_file: dict[str, SourceFile] = {sf.rel: sf for sf in self.sources}
        kept: list[Finding] = []
        for f in findings:
            if f.rule == "SUP":
                kept.append(f)  # bad markers cannot be suppressed
                continue
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


def list_rules() -> str:
    lines = ["bc-analyze rule catalogue:"]
    for rule, slug in RULES.items():
        exempt = RULE_EXEMPT_PREFIXES.get(rule, ())
        suffix = f"  (exempt: {', '.join(exempt)})" if exempt else ""
        lines.append(f"  {rule:4} {slug}{suffix}")
    lines.append(
        "suppress with: // bc-analyze: allow(<rule>[,<rule>]) -- <reason>")
    return "\n".join(lines)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bc_analyze.py",
        description=("BarterCast project-invariant analyzer: determinism"
                     " (D1-D4), dense-index encapsulation (G1), hot-path"
                     " allocation (P1), lock discipline (C2, C4, C5) and"
                     " engine callback captures (L3)"))
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to analyze"
                             " (default: src bench examples)")
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

    files = collect_files(repo_root, args.paths or DEFAULT_PATHS)
    analysis = Analysis(repo_root)
    analysis.load(files)

    # Suppress the intraprocedural findings first: the survivors seed the
    # D4 taint pass, then the interprocedural findings get their own
    # suppression pass, and only then can a marker be declared stale.
    findings = analysis.apply_suppressions(analysis.run_token_rules())
    interproc = analysis.run_interprocedural_rules(findings)
    findings.extend(analysis.apply_suppressions(interproc))
    findings.extend(analysis.stale_suppression_findings())
    findings = _dedupe(findings)

    for f in findings:
        print(f.github() if args.github else f.human())
    n_sup = sum(
        1 for sf in analysis.sources for s in sf.suppressions if s.used)
    summary = (f"bc-analyze: {len(findings)} finding(s) in {len(files)}"
               f" files ({n_sup} suppression(s) honored)")
    if not findings:
        summary = summary.replace("0 finding(s)", "OK, 0 findings")
    print(summary, file=sys.stderr)
    return 1 if findings else 0
