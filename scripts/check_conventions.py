#!/usr/bin/env python3
"""Repo-convention linter for the BarterCast tree.

Enforces the conventions clang-tidy cannot express:

  raw-assert       no raw assert(): use BC_ASSERT / BC_ASSERT_MSG (always on)
                   or BC_DASSERT (debug only) from util/assert.hpp
  libc-rand        no std::rand / rand() / srand(): all randomness must flow
                   through util/rng.hpp so runs stay seed-deterministic
  assert-include   files calling BC_ASSERT* / BC_DASSERT must include
                   "util/assert.hpp" themselves (no transitive reliance)
  pragma-once      every header starts its preprocessor life with #pragma once
  include-style    project headers are included as "module/file.hpp" (quoted,
                   rooted at src/), never <module/file.hpp> or "../relative"
  using-namespace  no using-namespace directives in headers
  raw-primitive    (C1) no std::mutex/std::thread/std::atomic/
                   std::condition_variable (or their lock/semaphore/future
                   relatives): only the annotated bc::util wrappers in
                   src/util/concurrency/ are covered by Clang's thread-safety
                   analysis
  detached-execution
                   (C3) no `.detach()` and no std::async: detached work
                   escapes deterministic teardown; use bc::util::ThreadPool,
                   whose destructor joins

raw-primitive and detached-execution apply to src/ (outside
src/util/concurrency/), bench/ and examples/; tests may use raw threads.

Usage: scripts/check_conventions.py [paths...]   (default: src tests bench examples)
Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATHS = ["src", "tests", "bench", "examples"]

sys.path.insert(0, str(REPO_ROOT / "scripts"))
from bc_analyze.source import scrub_line  # noqa: E402

# Top-level project include roots (directories under src/).
PROJECT_MODULES = sorted(
    p.name for p in (REPO_ROOT / "src").iterdir() if p.is_dir()
)

RAW_ASSERT_RE = re.compile(r"(?<![\w.])assert\s*\(")
LIBC_RAND_RE = re.compile(r"std::s?rand\b|(?<![\w:.])s?rand\s*\(")
BC_ASSERT_USE_RE = re.compile(r"\bBC_D?ASSERT(?:_MSG)?\s*\(")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+([<"])([^">]+)[">]')
USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\s+")
RAW_PRIMITIVE_RE = re.compile(
    r"\bstd::(?:mutex|recursive_mutex|recursive_timed_mutex|timed_mutex"
    r"|shared_mutex|shared_timed_mutex"
    r"|lock_guard|scoped_lock|unique_lock|shared_lock"
    r"|thread|jthread"
    r"|atomic(?:_[a-z0-9_]+)?"
    r"|condition_variable(?:_any)?"
    r"|counting_semaphore|binary_semaphore|barrier|latch"
    r"|call_once|once_flag"
    r"|promise|future|shared_future|packaged_task)\b"
)
DETACH_RE = re.compile(r"\.\s*detach\s*\(|\bstd::async\b")

# Path prefixes allowed to break specific rules.
EXEMPT = {
    "raw-assert": ("src/util/assert.hpp",),
    "assert-include": ("src/util/assert.hpp",),
    # bc-analyze's intentionally-bad fixture exercises rule D3 with libc
    # rand(); it is analyzer test data, never compiled into the project.
    "libc-rand": ("tests/analysis_tool/fixtures/bad/d3_random.cpp",),
    "raw-primitive": ("src/util/concurrency/",),
}
# Rules that apply only under these path prefixes.
SCOPE = {
    "raw-primitive": ("src/", "bench/", "examples/"),
    "detached-execution": ("src/", "bench/", "examples/"),
}


class Checker:
    def __init__(self, root: Path) -> None:
        self.root = root
        self.findings: list[str] = []

    def rel(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.root.resolve()).as_posix()
        except ValueError:
            return path.as_posix()

    def fail(self, rule: str, path: Path, lineno: int, message: str) -> None:
        rel = self.rel(path)
        if rel.startswith(EXEMPT.get(rule, ())):
            return
        if rule in SCOPE and not rel.startswith(SCOPE[rule]):
            return
        self.findings.append(f"{rel}:{lineno}: [{rule}] {message}")

    def check_file(self, path: Path) -> None:
        is_header = path.suffix == ".hpp"
        text = path.read_text(encoding="utf-8")
        raw_lines = text.splitlines()

        code_lines: list[str] = []
        in_block = False
        for line in raw_lines:
            code, _, in_block = scrub_line(line, in_block)
            code_lines.append(code)

        uses_bc_assert = False
        includes_assert_hpp = False
        saw_pragma_once = False
        saw_preprocessor_or_code = False

        for lineno, (code, raw) in enumerate(
            zip(code_lines, raw_lines), start=1
        ):
            stripped = code.strip()

            if is_header and stripped == "#pragma once":
                if saw_preprocessor_or_code:
                    self.fail(
                        "pragma-once", path, lineno,
                        "#pragma once must precede all other code",
                    )
                saw_pragma_once = True
            if stripped and stripped != "#pragma once":
                saw_preprocessor_or_code = True

            if RAW_ASSERT_RE.search(code) and "static_assert" not in code:
                self.fail(
                    "raw-assert", path, lineno,
                    "raw assert(); use BC_ASSERT / BC_DASSERT from"
                    ' "util/assert.hpp"',
                )

            if LIBC_RAND_RE.search(code):
                self.fail(
                    "libc-rand", path, lineno,
                    "libc rand/srand breaks seeded determinism; use"
                    ' bc::Rng from "util/rng.hpp"',
                )

            for m in RAW_PRIMITIVE_RE.finditer(code):
                self.fail(
                    "raw-primitive", path, lineno,
                    f"raw concurrency primitive `{m.group(0)}`; use"
                    " bc::util::Mutex/LockGuard/CondVar/ThreadPool/"
                    "RelaxedCounter, which the thread-safety analysis covers",
                )
            for m in DETACH_RE.finditer(code):
                self.fail(
                    "detached-execution", path, lineno,
                    f"detached execution `{m.group(0).strip()}`; run the"
                    " work on bc::util::ThreadPool, whose destructor joins",
                )

            if BC_ASSERT_USE_RE.search(code) and "#define" not in code:
                uses_bc_assert = True

            # Includes are matched on the raw line: the scrubber blanks the
            # quoted path as if it were a string literal.
            m = INCLUDE_RE.match(raw)
            if m:
                kind, target = m.group(1), m.group(2)
                if target == "util/assert.hpp":
                    includes_assert_hpp = True
                top = target.split("/", 1)[0]
                if kind == "<" and top in PROJECT_MODULES:
                    self.fail(
                        "include-style", path, lineno,
                        f"project header <{target}> must use quotes",
                    )
                if kind == '"' and target.startswith(("./", "../")):
                    self.fail(
                        "include-style", path, lineno,
                        f'relative include "{target}"; include project headers'
                        " rooted at src/ (e.g. \"util/ids.hpp\")",
                    )

            if is_header and USING_NAMESPACE_RE.match(stripped):
                self.fail(
                    "using-namespace", path, lineno,
                    "using-namespace directive in a header leaks into every"
                    " includer",
                )

        if is_header and not saw_pragma_once:
            self.fail("pragma-once", path, 1, "header is missing #pragma once")

        if uses_bc_assert and not includes_assert_hpp:
            self.fail(
                "assert-include", path, 1,
                'file uses BC_ASSERT/BC_DASSERT but does not include'
                ' "util/assert.hpp" itself',
            )


def collect(root: Path, paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for arg in paths:
        p = (root / arg) if not Path(arg).is_absolute() else Path(arg)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.hpp")))
            files.extend(sorted(p.rglob("*.cpp")))
        elif p.is_file():
            files.append(p)
        else:
            print(f"check_conventions: no such path: {arg}", file=sys.stderr)
            sys.exit(2)
    return files


def main(argv: list[str]) -> int:
    files = collect(REPO_ROOT, argv[1:] or DEFAULT_PATHS)
    checker = Checker(REPO_ROOT)
    for f in files:
        checker.check_file(f)
    for finding in checker.findings:
        print(finding)
    if checker.findings:
        print(
            f"check_conventions: {len(checker.findings)} finding(s) in"
            f" {len(files)} files",
            file=sys.stderr,
        )
        return 1
    print(f"check_conventions: OK ({len(files)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
