"""Lock-discipline rule C2.

The tree's entire concurrency surface is bc::util (src/util/concurrency/):
an annotated Mutex/LockGuard/CondVar family, relaxed atomic counters, and a
deterministic ThreadPool. Clang's -Wthread-safety checks the members that
carry a BC_GUARDED_BY annotation; it cannot see a member that is missing
one. C2 closes that gap.

C2 unguarded-shared-member: a class that owns a bc::util::Mutex is a class
   whose state is shared across threads; every mutable data member it
   declares must say which lock protects it (BC_GUARDED_BY /
   BC_PT_GUARDED_BY) or be a concurrency primitive that is safe by itself
   (Mutex, CondVar, ThreadPool, RelaxedCounter, RelaxedBool).

The raw-primitive (C1) and detached-execution (C3) greps live in
scripts/check_conventions.py.
"""

from __future__ import annotations

import re

from bc_analyze.model import Finding
from bc_analyze.source import SourceFile, match_paren

CLASS_RE = re.compile(r"\b(class|struct)\s+([A-Za-z_]\w*)[^;{()]*\{")
OWNS_MUTEX_RE = re.compile(r"\b(?:bc::)?(?:util::)?Mutex\s+[A-Za-z_]\w*_\b")
GUARD_RE = re.compile(r"\bBC(?:_PT)?_GUARDED_BY\s*\(")
#: Members that are safe to share without a guard annotation: the lock
#: itself, the condvar bound to it, a pool (internally synchronized), and
#: the relaxed atomics.
SAFE_MEMBER_TYPE_RE = re.compile(
    r"\b(?:bc::)?(?:util::)?(?:Mutex|CondVar|ThreadPool|RelaxedCounter"
    r"|RelaxedBool)\b"
)
#: Statement prefixes that are not mutable data members.
NON_MEMBER_PREFIX_RE = re.compile(
    r"^\s*(?:using|typedef|friend|static|constexpr|const\s|enum|template)\b"
)
#: A declaration statement's tail: convention-named member (trailing `_`),
#: optional guard annotation, optional array extent / default initializer.
MEMBER_TAIL_RE = re.compile(
    r"([A-Za-z_]\w*_)\s*(?:\[[^\]]*\]\s*)?"
    r"(?:BC(?:_PT)?_GUARDED_BY\s*\([^)]*\)\s*)?(?:=[^;]*)?$"
)


def _blank_nested_braces(body: str) -> str:
    """Blanks every brace group in a class body (method bodies, nested
    types, brace initializers) with spaces, preserving offsets, so a
    depth-0 `;` split yields exactly the member/method declarations."""
    out = []
    depth = 0
    for c in body:
        if c == "{":
            depth += 1
            out.append(" ")
        elif c == "}":
            depth = max(0, depth - 1)
            out.append(" ")
        else:
            out.append(c if depth == 0 else " ")
    return "".join(out)


def _strip_labels(stmt: str) -> str:
    """Drops access-specifier labels glued to the front of a statement."""
    return re.sub(r"^\s*(?:public|protected|private)\s*:", "", stmt)


def check_c2(sf: SourceFile) -> list[Finding]:
    out: list[Finding] = []
    code = sf.code
    for cm in CLASS_RE.finditer(code):
        # `enum class X {` declares scoped-enum constants, not members.
        prefix = code[max(0, cm.start() - 8):cm.start()]
        if re.search(r"\benum\s*$", prefix):
            continue
        open_idx = cm.end() - 1
        close_idx = match_paren(code, open_idx, "}")
        if close_idx < 0:
            continue
        body_start = open_idx + 1
        body = _blank_nested_braces(code[body_start:close_idx])
        if not OWNS_MUTEX_RE.search(body):
            continue
        # Depth-0 split: every fragment is one declaration (methods keep
        # only their signature after brace blanking and never match the
        # member tail below).
        start = 0
        for i, c in enumerate(body + ";"):
            if c != ";":
                continue
            stmt = _strip_labels(body[start:i])
            stmt_start = start
            start = i + 1
            tail = MEMBER_TAIL_RE.search(stmt.rstrip())
            if tail is None:
                continue
            if NON_MEMBER_PREFIX_RE.match(stmt.strip()):
                continue
            if GUARD_RE.search(stmt) or SAFE_MEMBER_TYPE_RE.search(stmt):
                continue
            name = tail.group(1)
            name_off = body_start + stmt_start + stmt.rstrip().rindex(name)
            out.append(Finding(
                rule="C2", slug="unguarded-shared-member", path=sf.rel,
                line=sf.line_at(name_off),
                message=(f"member `{name}` of Mutex-owning class"
                         f" `{cm.group(2)}` has no BC_GUARDED_BY: a class"
                         " that owns a bc::util::Mutex shares state across"
                         " threads, so every mutable member must name the"
                         " lock that protects it (or carry a reasoned"
                         " suppression proving it is single-threaded)"),
            ))
    return out
