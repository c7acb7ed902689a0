"""Repository conventions: C1 and H1-H5.

C1 raw-primitive: the process runs on one thread (DESIGN.md section 10),
   so no thread, thread_local or shared-state primitive may appear; run
   independent work as separate processes instead.
H1 raw-assert: assert() vanishes under NDEBUG; BC_ASSERT is always on and
   BC_DASSERT states that the check is debug-only.
H2 assert-include: a file that uses the BC_ASSERT family includes
   "util/assert.hpp" itself instead of relying on a transitive include.
H3 pragma-once: every header starts its preprocessor life with #pragma once.
H4 include-style: project headers are included quoted and rooted at src/.
H5 using-namespace: a using-namespace directive in a header leaks into
   every includer.
"""

from __future__ import annotations

import re
from pathlib import Path

from bc_analyze.model import Finding
from bc_analyze.source import SourceFile

#: Top-level include roots: the module directories under src/.
PROJECT_MODULES = frozenset(
    p.name for p in (Path(__file__).resolve().parents[2] / "src").iterdir()
    if p.is_dir())

RAW_PRIMITIVE_RE = re.compile(
    r"\bstd::(?:mutex|recursive_mutex|recursive_timed_mutex|timed_mutex"
    r"|shared_mutex|shared_timed_mutex"
    r"|lock_guard|scoped_lock|unique_lock|shared_lock"
    r"|thread|jthread"
    r"|atomic(?:_[a-z0-9_]+)?"
    r"|condition_variable(?:_any)?"
    r"|counting_semaphore|binary_semaphore|barrier|latch"
    r"|call_once|once_flag"
    r"|async|promise|future|shared_future|packaged_task)\b"
    r"|\.\s*detach\s*\(|\bthread_local\b"
)
RAW_ASSERT_RE = re.compile(r"(?<![\w.])assert\s*\(")
BC_ASSERT_USE_RE = re.compile(r"\bBC_D?ASSERT(?:_MSG)?\s*\(")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+([<"])([^">]+)[">]')
USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\s+")


def _finding(rule: str, slug: str, sf: SourceFile, line: int,
             message: str) -> Finding:
    return Finding(rule=rule, slug=slug, path=sf.rel, line=line,
                   message=message)


def check_c1(sf: SourceFile) -> list[Finding]:
    return [
        _finding("C1", "raw-primitive", sf, lineno,
                 f"concurrency primitive `{m.group(0).strip()}`; the"
                 " simulator is single-threaded by design (DESIGN.md"
                 " section 10): run independent work as separate"
                 " processes instead")
        for lineno, code in enumerate(sf.code_lines, start=1)
        for m in RAW_PRIMITIVE_RE.finditer(code)
    ]


def check_h1(sf: SourceFile) -> list[Finding]:
    return [
        _finding("H1", "raw-assert", sf, lineno,
                 'raw assert(); use BC_ASSERT / BC_DASSERT from'
                 ' "util/assert.hpp"')
        for lineno, code in enumerate(sf.code_lines, start=1)
        if RAW_ASSERT_RE.search(code) and "static_assert" not in code
    ]


def check_h2(sf: SourceFile) -> list[Finding]:
    # A macro body that mentions BC_ASSERT is not a use.
    uses = any(BC_ASSERT_USE_RE.search(code) and "#define" not in code
               for code in sf.code_lines)
    # Includes are matched on the raw line: the scrubber blanks the quoted
    # path as if it were a string literal.
    includes = any(m and m.group(2) == "util/assert.hpp"
                   for m in map(INCLUDE_RE.match, sf.raw_lines))
    if not uses or includes:
        return []
    return [_finding("H2", "assert-include", sf, 1,
                     'file uses BC_ASSERT/BC_DASSERT but does not include'
                     ' "util/assert.hpp" itself')]


def check_h3(sf: SourceFile) -> list[Finding]:
    if not sf.rel.endswith(".hpp"):
        return []
    out: list[Finding] = []
    seen_code = seen_pragma = False
    for lineno, code in enumerate(sf.code_lines, start=1):
        stripped = code.strip()
        if stripped == "#pragma once":
            if seen_code:
                out.append(_finding("H3", "pragma-once", sf, lineno,
                                    "#pragma once must precede all other"
                                    " code"))
            seen_pragma = True
        elif stripped:
            seen_code = True
    if not seen_pragma:
        out.append(_finding("H3", "pragma-once", sf, 1,
                            "header is missing #pragma once"))
    return out


def check_h4(sf: SourceFile) -> list[Finding]:
    out: list[Finding] = []
    for lineno, raw in enumerate(sf.raw_lines, start=1):
        m = INCLUDE_RE.match(raw)
        if not m:
            continue
        kind, target = m.group(1), m.group(2)
        if kind == "<" and target.split("/", 1)[0] in PROJECT_MODULES:
            out.append(_finding("H4", "include-style", sf, lineno,
                                f"project header <{target}> must use"
                                " quotes"))
        elif kind == '"' and target.startswith(("./", "../")):
            out.append(_finding("H4", "include-style", sf, lineno,
                                f'relative include "{target}"; include'
                                " project headers rooted at src/ (e.g."
                                ' "util/ids.hpp")'))
    return out


def check_h5(sf: SourceFile) -> list[Finding]:
    if not sf.rel.endswith(".hpp"):
        return []
    return [
        _finding("H5", "using-namespace", sf, lineno,
                 "using-namespace directive in a header leaks into every"
                 " includer")
        for lineno, code in enumerate(sf.code_lines, start=1)
        if USING_NAMESPACE_RE.match(code)
    ]
