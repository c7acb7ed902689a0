#!/usr/bin/env python3
"""Self-tests for scripts/bc_analyze.py, the repository's one linter.

Runs the CLI against the checked-in fixtures and asserts exact rule IDs
and file:line anchors, the suppression policy (well-formed markers silence
findings, malformed/reason-less markers are rejected AND leave the target
finding alive), output formats, the rule catalogue and exit codes. The rule
scopes are exercised in-process on the `conventions` fixture tree, which is
laid out like the repository and analyzed as its own root. The last case
is the tree gate. Registered with ctest as `bc_analyze_selftest`; runs
under plain unittest, no third-party dependencies.
"""

import re
import subprocess
import sys
import unittest
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TESTS_DIR.parent.parent
ANALYZER = REPO_ROOT / "scripts" / "bc_analyze.py"
FIXTURES = TESTS_DIR / "fixtures"

sys.path.insert(0, str(ANALYZER.parent))
from bc_analyze.engine import DEFAULT_PATHS, analyze  # noqa: E402

FINDING_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<rule>\w+)")
GITHUB_RE = re.compile(
    r"^::error file=(?P<path>[^,]+),line=(?P<line>\d+),"
    r"title=bc-analyze (?P<rule>\w+) [\w-]+::")


def run_analyzer(*args):
    return subprocess.run([sys.executable, str(ANALYZER), *args],
                          capture_output=True, text=True, cwd=REPO_ROOT)


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
            ("d1_pointer_order.cpp", 9, "D1"),
            ("d1_pointer_order.cpp", 12, "D1"),
            ("d1_pointer_order.cpp", 16, "D1"),
            ("d1_unordered.cpp", 13, "D1"),
            ("d1_unordered.cpp", 16, "D1"),
            ("d1_unordered.cpp", 19, "D1"),
            ("d1_unordered.cpp", 29, "D1"),
            ("d2_wallclock.cpp", 6, "D2"),
            ("d2_wallclock.cpp", 11, "D2"),
            ("d3_random.cpp", 6, "D3"),
            ("d3_random.cpp", 7, "D3"),
            ("d3_random.cpp", 12, "D3"),
            ("d3_random.cpp", 16, "D3"),
            ("d3_random.cpp", 17, "D3"),
            ("h_asserts.cpp", 1, "H2"),
            ("h_asserts.cpp", 8, "H1"),
            ("h_header.hpp", 1, "H3"),
            ("h_header.hpp", 6, "H4"),
            ("h_header.hpp", 7, "H4"),
            ("h_header.hpp", 9, "H5"),
            ("h_pragma_late.hpp", 3, "H3"),
            ("l3_capture.cpp", 16, "L3"),
            ("l3_capture.cpp", 17, "L3"),
            ("l3_delivery_capture.cpp", 17, "L3"),
            ("sup_bad.cpp", 7, "SUP"),
            ("sup_bad.cpp", 10, "D1"),
            ("sup_bad.cpp", 14, "SUP"),
            ("sup_bad.cpp", 17, "D1"),
            ("sup_stale.cpp", 11, "SUP"),
        }
        self.assertEqual(self.findings, expected)

    def test_reasonless_suppression_is_called_out(self):
        self.assertIn("reason", self._line("sup_bad.cpp:7:"))

    def test_rejected_suppression_does_not_silence_target(self):
        self.assertIn(("sup_bad.cpp", 10, "D1"), self.findings)
        self.assertIn(("sup_bad.cpp", 17, "D1"), self.findings)

    def test_l3_names_the_sink_and_the_capture(self):
        line = self._line("l3_capture.cpp:17:")
        self.assertIn("schedule_after", line)
        self.assertIn("`&sent`", line)

    def test_l3_sees_the_overlay_delivery_callback(self):
        line = self._line("l3_delivery_capture.cpp:17:")
        self.assertIn("schedule_delivery", line)
        self.assertIn("`&records, &inbox`", line)


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
        self.assertIn("2 suppression(s) honored", self.proc.stderr)


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
        self.assertEqual(proc.stdout, """\
bc-analyze rule catalogue:
  D1   unordered-iteration  (scope: src/, bench/, examples/)
  D2   wall-clock  (scope: src/, bench/, examples/; exempt: src/obs/)
  D3   unseeded-random  (exempt: src/util/rng.hpp, src/util/rng.cpp)
  L3   escaping-capture  (scope: src/, bench/, examples/)
  C1   raw-primitive  (scope: src/, bench/, examples/)
  H1   raw-assert  (exempt: src/util/assert.hpp)
  H2   assert-include  (exempt: src/util/assert.hpp)
  H3   pragma-once
  H4   include-style
  H5   using-namespace
  SUP  bad-suppression
suppress with: // bc-analyze: allow(<rule>[,<rule>]) -- <reason>
""")

    def test_only_the_four_options_are_accepted(self):
        for flag in ("--sarif", "--jobs", "--no-cache", "--frontend"):
            self.assertEqual(run_analyzer(flag, "x").returncode, 2, flag)

    def test_missing_path_is_infra_error(self):
        proc = run_analyzer("no/such/dir")
        self.assertEqual(proc.returncode, 2)


class RuleScopes(unittest.TestCase):
    """The `conventions` tree as its own root: C1 and D1 police src/ but
    not tests/, and a declaration under tests/ does not reach D1's
    cross-file name tables."""

    def test_exact_findings(self):
        findings, _, _ = analyze(FIXTURES / "conventions", ["src", "tests"])
        self.assertEqual({(Path(f.path).name, f.line, f.rule)
                          for f in findings}, {
            ("c1_rawthread.cpp", 8, "C1"),
            ("c1_rawthread.cpp", 9, "C1"),
            ("c1_rawthread.cpp", 10, "C1"),
            ("c1_rawthread.cpp", 13, "C1"),
            ("c1_rawthread.cpp", 17, "C1"),
            ("c3_detach.cpp", 7, "C1"),
            ("c3_detach.cpp", 8, "C1"),
            ("thread_owner.cpp", 5, "C1"),
        })


class TreeGate(unittest.TestCase):
    def test_repository_is_clean(self):
        # The default walk covers src, tests, bench and examples, minus the
        # fixtures; any new violation needs a fix or a reasoned suppression.
        proc = run_analyzer()
        self.assertEqual(proc.returncode, 0,
                         "bc-analyze found new violations:\n" + proc.stdout)
        walked = [f for d in DEFAULT_PATHS
                  for f in (REPO_ROOT / d).rglob("*.[ch]pp")
                  if FIXTURES not in f.parents]
        self.assertIn(f"0 findings in {len(walked)} files", proc.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
