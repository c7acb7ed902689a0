#!/usr/bin/env python3
"""Self-tests for scripts/bc_analyze.py and the C1/C3 greps in
scripts/check_conventions.py.

Runs both CLIs against the checked-in fixtures and asserts exact rule IDs
and file:line anchors, the suppression policy (well-formed markers silence
findings, malformed/reason-less markers are rejected AND leave the target
finding alive), output formats, and exit codes. Registered with ctest as
`bc_analyze_selftest`; runs under plain unittest, no third-party
dependencies.
"""

import re
import subprocess
import sys
import unittest
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TESTS_DIR.parent.parent
ANALYZER = REPO_ROOT / "scripts" / "bc_analyze.py"
CONVENTIONS = REPO_ROOT / "scripts" / "check_conventions.py"
FIXTURES = TESTS_DIR / "fixtures"

FINDING_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<rule>[\w-]+)")
GITHUB_RE = re.compile(
    r"^::error file=(?P<path>[^,]+),line=(?P<line>\d+),"
    r"title=bc-analyze (?P<rule>\w+) [\w-]+::")


def run_script(script, *args):
    return subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, cwd=REPO_ROOT)


def run_analyzer(*args):
    return run_script(ANALYZER, *args)


def findings_of(proc, pattern=FINDING_RE):
    out = set()
    for line in proc.stdout.splitlines():
        m = pattern.match(line)
        if m:
            path = m.group("path").replace("\\", "/")
            out.add((Path(path).name, int(m.group("line")), m.group("rule")))
    return out


class BadFixtures(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.proc = run_analyzer(str(FIXTURES / "bad"))
        cls.findings = findings_of(cls.proc)
        cls.lines = cls.proc.stdout.splitlines()

    def _line(self, anchor):
        return next(l for l in self.lines if anchor in l)

    def test_exit_code_is_one(self):
        self.assertEqual(self.proc.returncode, 1, self.proc.stdout)

    def test_exact_findings(self):
        expected = {
            ("d1_unordered.cpp", 13, "D1"),
            ("d1_unordered.cpp", 16, "D1"),
            ("d1_unordered.cpp", 19, "D1"),
            ("d2_wallclock.cpp", 6, "D2"),
            ("d2_wallclock.cpp", 11, "D2"),
            ("d3_random.cpp", 6, "D3"),
            ("d3_random.cpp", 7, "D3"),
            ("d3_random.cpp", 12, "D3"),
            ("c2_unguarded.cpp", 16, "C2"),
            ("c2_unguarded.cpp", 17, "C2"),
            ("g1_indexleak.cpp", 4, "G1"),
            ("g1_indexleak.cpp", 8, "G1"),
            ("g1_indexleak.cpp", 9, "G1"),
            ("g1_indexleak.cpp", 10, "G1"),
            ("l3_capture.cpp", 16, "L3"),
            ("l3_capture.cpp", 17, "L3"),
            ("sup_bad.cpp", 7, "SUP"),
            ("sup_bad.cpp", 10, "D1"),
            ("sup_bad.cpp", 14, "SUP"),
            ("sup_bad.cpp", 17, "D1"),
            ("sup_stale.cpp", 11, "SUP"),
            # Interprocedural dataflow rules (whole-program call graph).
            ("d4_taint.cpp", 20, "D1"),
            ("d4_taint.cpp", 44, "D4"),
            ("p1_hotalloc.cpp", 13, "P1"),
            ("p1_hotalloc.cpp", 29, "P1"),
            ("p1_shard_lookup.cpp", 22, "P1"),
            ("c4_lockblock.cpp", 15, "C4"),
            ("c4_lockblock.cpp", 20, "C4"),
            ("c4_lockblock.cpp", 25, "C4"),
            ("c4_lockblock.cpp", 30, "C4"),
            ("c5_lockorder.cpp", 11, "C5"),
            ("c5_lockorder.cpp", 16, "C5"),
        }
        self.assertEqual(self.findings, expected)

    def test_reasonless_suppression_is_called_out(self):
        self.assertIn("reason", self._line("sup_bad.cpp:7:"))

    def test_rejected_suppression_does_not_silence_target(self):
        self.assertIn(("sup_bad.cpp", 10, "D1"), self.findings)
        self.assertIn(("sup_bad.cpp", 17, "D1"), self.findings)

    # The interprocedural rules must carry their evidence chain in the
    # message: a bare file:line is not actionable when the defect lives two
    # calls away.
    def test_d4_reports_call_chain_and_source(self):
        line = self._line("d4_taint.cpp:44:")
        self.assertIn("bartercast::evaluate -> graph::collect"
                      " -> graph::FlowGraph::nodes", line)
        self.assertIn("d4_taint.cpp:20", line)

    def test_p1_transitive_names_the_allocating_callee(self):
        line = self._line("p1_hotalloc.cpp:29:")
        self.assertIn("helper_that_allocates", line)
        self.assertIn("p1_hotalloc.cpp:19", line)

    def test_c4_transitive_names_the_blocking_callee(self):
        line = self._line("c4_lockblock.cpp:30:")
        self.assertIn("Registry::emit", line)
        self.assertIn("c4_lockblock.cpp:33", line)

    def test_c5_cycle_edges_name_both_mutexes(self):
        for anchor in ("c5_lockorder.cpp:11:", "c5_lockorder.cpp:16:"):
            line = self._line(anchor)
            self.assertIn("a_", line)
            self.assertIn("b_", line)

    def test_l3_names_the_sink_and_the_capture(self):
        line = self._line("l3_capture.cpp:17:")
        self.assertIn("schedule_after", line)
        self.assertIn("`&sent`", line)


class GoodFixtures(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.proc = run_analyzer(str(FIXTURES / "good"))

    def test_exit_code_is_zero(self):
        self.assertEqual(self.proc.returncode, 0,
                         self.proc.stdout + self.proc.stderr)

    def test_no_findings(self):
        self.assertEqual(findings_of(self.proc), set())

    def test_suppressions_are_honored(self):
        self.assertIn("3 suppression(s) honored", self.proc.stderr)


class GithubOutput(unittest.TestCase):
    def test_annotations_match_human_findings(self):
        human = findings_of(run_analyzer(str(FIXTURES / "bad")))
        gh_proc = run_analyzer(str(FIXTURES / "bad"), "--github")
        gh = findings_of(gh_proc, GITHUB_RE)
        self.assertEqual(gh, human)
        self.assertEqual(gh_proc.returncode, 1)


class CliBehavior(unittest.TestCase):
    def test_list_rules(self):
        proc = run_analyzer("--list-rules")
        self.assertEqual(proc.returncode, 0)
        for rule in ("D1", "D2", "D3", "D4", "G1", "P1", "C2", "C4", "C5",
                     "L3", "SUP"):
            self.assertIn(rule, proc.stdout)

    def test_only_the_four_options_are_accepted(self):
        for flag in ("--sarif", "--jobs", "--no-cache", "--frontend"):
            self.assertEqual(run_analyzer(flag, "x").returncode, 2, flag)

    def test_missing_path_is_infra_error(self):
        proc = run_analyzer("no/such/dir")
        self.assertEqual(proc.returncode, 2)

    def test_repo_sources_are_clean(self):
        # The tree gate: src/, bench/ and examples/ must stay at zero
        # findings. Any new violation needs a fix or a reasoned suppression.
        proc = run_analyzer()
        self.assertEqual(
            proc.returncode, 0,
            "bc-analyze found new violations:\n" + proc.stdout)


class ConventionsConcurrencyGreps(unittest.TestCase):
    """C1 (raw-primitive) and C3 (detached-execution) in
    check_conventions.py, run against a fixture tree laid out like the
    repository so the rule scope (src/ outside src/util/concurrency/,
    bench/, examples/; never tests/) is exercised too."""

    def test_exact_findings(self):
        sys.path.insert(0, str(CONVENTIONS.parent))
        import check_conventions
        root = FIXTURES / "conventions"
        checker = check_conventions.Checker(root)
        for path in check_conventions.collect(root, ["src", "tests"]):
            checker.check_file(path)
        findings = set()
        for line in checker.findings:
            m = FINDING_RE.match(line)
            findings.add((Path(m.group("path")).name, int(m.group("line")),
                          m.group("rule")))
        self.assertEqual(findings, {
            ("c1_rawthread.cpp", 8, "raw-primitive"),
            ("c1_rawthread.cpp", 9, "raw-primitive"),
            ("c1_rawthread.cpp", 10, "raw-primitive"),
            ("c1_rawthread.cpp", 13, "raw-primitive"),
            ("c3_detach.cpp", 7, "raw-primitive"),
            ("c3_detach.cpp", 7, "detached-execution"),
            ("c3_detach.cpp", 8, "detached-execution"),
        })

    def test_repo_tree_is_clean(self):
        proc = run_script(CONVENTIONS)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
