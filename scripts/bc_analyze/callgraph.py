"""Whole-program symbol index, call graph and per-function CFG-lite.

This is the interprocedural layer of bc-analyze. It stays on the token
frontend's scrubbed-code model (source.py): a brace-tracking scanner walks
each file once and recovers

  * function definitions with namespace/class-qualified names and body
    extents (lambda bodies are attributed to their enclosing function),
  * call sites (free, qualified and member calls) resolved against the
    program-wide symbol index by qualified-name suffix, and
  * a CFG-lite per function: loop-body ranges, so rules can ask for the
    loop nesting depth of any offset.

Like the rest of the token frontend it is heuristic by design: it
recognizes the shapes that occur in this clang-format-ed tree and errs
toward *not* inventing structure it cannot classify. The dataflow rules
built on top (rules_dataflow.py) only ever traverse edges between known
definitions, so an unresolved call simply ends the walk.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from bc_analyze.source import SourceFile, match_open, match_paren

# Keywords that look like calls (`while (...)`) or precede bodies.
CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch"}
PLAIN_BLOCK_KEYWORDS = {"do", "else", "try"}
NOT_CALLS = CONTROL_KEYWORDS | PLAIN_BLOCK_KEYWORDS | {
    "return", "sizeof", "alignof", "alignas", "decltype", "typeid",
    "new", "delete", "throw", "co_return", "co_await", "co_yield",
    "assert", "defined",
}

NAMESPACE_RE = re.compile(
    r"(?:^|\n)\s*(?:inline\s+)?namespace(?:\s+([\w:]+))?\s*$")
CLASS_RE = re.compile(
    r"\b(?:class|struct|union)\s+(?:BC_\w+\s*(?:\([^)]*\)\s*)?)?"
    r"([A-Za-z_]\w*)"
)
LAMBDA_INTRO_RE = re.compile(r"\[[^\[\]]*\]\s*(?:\([^()]*\)\s*)?"
                             r"(?:mutable\s*)?(?:noexcept\s*)?"
                             r"(?:->\s*[\w:<>,&*\s]+?)?\s*$")
CALL_RE = re.compile(r"(?<![\w.:>])((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)"
                     r"\s*\(")
MEMBER_CALL_RE = re.compile(r"(?:\.|->)\s*([A-Za-z_]\w*)\s*\(")
MACRO_NAME_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")
LOOP_KEYWORD_RE = re.compile(r"\b(for|while|do)\b")

#: Root namespaces that can never name project code: a call written
#: `std::to_string(...)` must not fall back to a project `to_string`.
FOREIGN_NAMESPACES = frozenset({"std", "boost", "absl", "fmt", "testing"})


@dataclass
class FunctionDef:
    """One function definition recovered from the token model."""

    name: str  # last component, e.g. "nodes"
    qualname: str  # e.g. "bc::graph::FlowGraph::nodes"
    rel: str  # repo-relative path of the defining file
    start: int  # offset of the `{` opening the body in SourceFile.code
    end: int  # offset of the matching `}`
    start_line: int = 0
    end_line: int = 0
    loop_ranges: list[tuple[int, int]] = field(default_factory=list)
    calls: list[tuple[str, int]] = field(default_factory=list)  # (name, off)

    def body(self, code: str) -> str:
        return code[self.start + 1:self.end]

    def loop_depth_at(self, offset: int) -> int:
        return sum(1 for lo, hi in self.loop_ranges if lo <= offset < hi)


def _word_before(code: str, idx: int) -> tuple[str, int]:
    """Identifier ending just before `idx` (skipping trailing spaces);
    returns (word, start_index_of_word). Empty word when none."""
    j = idx
    while j > 0 and code[j - 1] in " \t\n":
        j -= 1
    k = j
    while k > 0 and (code[k - 1].isalnum() or code[k - 1] == "_"):
        k -= 1
    return code[k:j], k


def _decl_head(code: str, brace_idx: int) -> str:
    """The declaration text owning the `{` at brace_idx: everything after
    the previous statement/brace boundary."""
    start = brace_idx - 1
    limit = max(0, brace_idx - 600)
    while start > limit and code[start] not in ";}{":
        start -= 1
    return code[start + 1:brace_idx] if code[start] in ";}{" else \
        code[start:brace_idx]


def _function_name_before(code: str, idx: int) -> tuple[str, int] | None:
    """Parses a (possibly qualified) function name whose parameter-list
    `(` sits at `idx`; walks backward over `::` segments. Returns
    (qualified_name, start_index) or None."""
    name_parts: list[str] = []
    j = idx
    while True:
        word, k = _word_before(code, j)
        if not word:
            # operator overloads: `operator==`, `operator()`, ...
            m = re.search(r"operator\s*[^\s\w]{0,3}\s*$", code[max(0, j - 16):j])
            if m and not name_parts:
                return ("operator", max(0, j - 16) + m.start())
            return None
        name_parts.insert(0, word)
        # A `::` immediately before the word extends the qualification.
        p = k
        while p > 0 and code[p - 1] in " \t\n":
            p -= 1
        if p >= 2 and code[p - 2:p] == "::":
            j = p - 2
            # `~` destructor names: keep walking for the class component.
            continue
        if p >= 1 and code[p - 1] == "~":
            k = p - 1
        return ("::".join(name_parts), k)


def _classify_brace(code: str, i: int) -> tuple[str, str, int]:
    """Classifies the `{` at offset i.

    Returns (kind, name, name_offset) with kind one of "namespace",
    "class", "enum", "fn", "lambda", "block". `name` is meaningful for
    namespace/class/fn.
    """
    head = _decl_head(code, i)
    m = NAMESPACE_RE.search(head)
    if m:
        return ("namespace", m.group(1) or "", i)
    if re.search(r"\benum\b", head):
        return ("enum", "", i)
    # Class heads contain no parameter list except attribute macros; a
    # function head always ends with `)` + qualifiers. Reject heads whose
    # tail after the class name contains a bare `(`.
    cm = CLASS_RE.search(head)
    if cm is not None and "(" not in head[cm.end():]:
        return ("class", cm.group(1), i)
    j = i - 1
    while j >= 0 and code[j] in " \t\n":
        j -= 1
    if j < 0:
        return ("block", "", i)
    # `do {`, `else {`, `try {`
    word, _ = _word_before(code, j + 1)
    if word in PLAIN_BLOCK_KEYWORDS:
        return ("block", "", i)
    guard = 0
    while guard < 32:
        guard += 1
        c = code[j]
        if c == ")":
            p = match_open(code, j, "(", ")")
            if p <= 0:
                return ("block", "", i)
            word, ws = _word_before(code, p)
            if word in CONTROL_KEYWORDS:
                return ("block", "", i)
            if word == "noexcept":
                j = ws - 1
                while j >= 0 and code[j] in " \t\n":
                    j -= 1
                continue
            if not word:
                q = p - 1
                while q >= 0 and code[q] in " \t\n":
                    q -= 1
                if q >= 0 and code[q] == "]":
                    return ("lambda", "", i)
                return ("block", "", i)
            # Constructor initializer list: `X(...) : a_(1), b_(2) {` — the
            # `)` seen here belongs to an initializer; keep walking left.
            k = ws - 1
            while k >= 0 and code[k] in " \t\n":
                k -= 1
            if k >= 0 and code[k] == "," :
                j = k - 1
                continue
            if k >= 0 and code[k] == ":" and not (k >= 1 and code[k - 1] == ":"):
                j = k - 1
                while j >= 0 and code[j] in " \t\n":
                    j -= 1
                continue
            named = _function_name_before(code, p)
            if named is None:
                return ("block", "", i)
            return ("fn", named[0], named[1])
        if c == "}":
            # Brace-init member in a ctor list: `..., c_{y} {`.
            q = match_open(code, j, "{", "}")
            if q <= 0:
                return ("block", "", i)
            word, ws = _word_before(code, q)
            if not word:
                return ("block", "", i)
            k = ws - 1
            while k >= 0 and code[k] in " \t\n":
                k -= 1
            if k >= 0 and code[k] in ",:" and not (code[k] == ":" and k >= 1
                                                   and code[k - 1] == ":"):
                j = k - 1 if code[k] == "," else k - 1
                while j >= 0 and code[j] in " \t\n":
                    j -= 1
                continue
            return ("block", "", i)
        if c == "]":
            # `[captures] {` lambda with no parameter list.
            tail = code[max(0, i - 200):i]
            if LAMBDA_INTRO_RE.search(tail):
                return ("lambda", "", i)
            return ("block", "", i)
        if c in "=,(":
            return ("block", "", i)  # brace initializer inside an expression
        # Trailing return type or qualifier words (`const`, `override`,
        # `final`, `-> Type`): scan left for the parameter list.
        word, ws = _word_before(code, j + 1)
        if word in ("const", "override", "final", "mutable"):
            j = ws - 1
            while j >= 0 and code[j] in " \t\n":
                j -= 1
            continue
        if word and j >= 0:
            # Possibly a trailing return type `-> bc::Bytes {`; look for
            # the arrow to the left within the head.
            arrow = head.rfind("->")
            if arrow >= 0:
                head_start = i - len(head)
                j = head_start + arrow - 1
                while j >= 0 and code[j] in " \t\n":
                    j -= 1
                continue
        return ("block", "", i)
    return ("block", "", i)


@dataclass
class _Scope:
    kind: str
    name: str


def scan_functions(sf: SourceFile) -> list[FunctionDef]:
    """All function definitions in one file; lambda bodies stay part of
    their enclosing function."""
    code = sf.code
    out: list[FunctionDef] = []
    stack: list[_Scope] = []
    fn_stack: list[FunctionDef] = []

    for i, c in enumerate(code):
        if c == "{":
            kind, name, _ = _classify_brace(code, i)
            # A nested "fn" inside an open function body is in practice a
            # lambda or a local-struct method; its code stays part of the
            # enclosing function.
            if kind == "fn" and fn_stack:
                kind = "lambda"
            stack.append(_Scope(kind, name))
            if kind == "fn":
                ns = [s.name for s in stack[:-1]
                      if s.kind in ("namespace", "class") and s.name]
                qual = "::".join(ns + [name]) if ns else name
                fn = FunctionDef(
                    name=name.rsplit("::", 1)[-1], qualname=qual, rel=sf.rel,
                    start=i, end=len(code), start_line=sf.line_at(i))
                fn_stack.append(fn)
        elif c == "}":
            if not stack:
                continue
            scope = stack.pop()
            if scope.kind == "fn" and fn_stack:
                fn = fn_stack.pop()
                fn.end = i
                fn.end_line = sf.line_at(i)
                out.append(fn)
    # Unterminated functions (scanner confusion): drop rather than guess.
    out.sort(key=lambda f: f.start)
    return out


# --- CFG-lite: loops ---------------------------------------------------------


def _annotate_loops(fn: FunctionDef, code: str) -> None:
    body_start, body_end = fn.start + 1, fn.end
    for m in LOOP_KEYWORD_RE.finditer(code, body_start, body_end):
        kw = m.group(1)
        i = m.end()
        while i < body_end and code[i] in " \t\n":
            i += 1
        if kw in ("for", "while"):
            if i >= body_end or code[i] != "(":
                continue
            close = match_paren(code, i)
            if close < 0 or close >= body_end:
                continue
            # `while (...)` terminating a do-loop: `} while (cond);`
            j = close + 1
            while j < body_end and code[j] in " \t\n":
                j += 1
            if j < body_end and code[j] == ";" and kw == "while":
                continue
            if j < body_end and code[j] == "{":
                end = match_paren(code, j, "}")
                fn.loop_ranges.append((j, end if end > 0 else body_end))
            else:  # single-statement body
                k = code.find(";", j, body_end)
                fn.loop_ranges.append((j, k if k > 0 else body_end))
        else:  # do { ... } while (...)
            if i < body_end and code[i] == "{":
                end = match_paren(code, i, "}")
                fn.loop_ranges.append((i, end if end > 0 else body_end))


def _annotate_calls(fn: FunctionDef, code: str) -> None:
    body_start, body_end = fn.start + 1, fn.end
    seen: set[tuple[str, int]] = set()
    for m in CALL_RE.finditer(code, body_start, body_end):
        name = re.sub(r"\s+", "", m.group(1))
        base = name.rsplit("::", 1)[-1]
        if base in NOT_CALLS or MACRO_NAME_RE.match(base):
            continue
        key = (name, m.start())
        if key not in seen:
            seen.add(key)
            fn.calls.append((name, m.start()))
    for m in MEMBER_CALL_RE.finditer(code, body_start, body_end):
        name = m.group(1)
        if name in NOT_CALLS or MACRO_NAME_RE.match(name):
            continue
        key = (name, m.start(1))
        if key not in seen:
            seen.add(key)
            fn.calls.append((name, m.start(1)))
    fn.calls.sort(key=lambda c: c[1])


# --- whole-program model -----------------------------------------------------


@dataclass
class CallSite:
    caller: FunctionDef
    callee: FunctionDef
    offset: int  # offset of the callee name in the caller's file
    line: int


class Program:
    """Symbol index + call graph over every analyzed SourceFile."""

    def __init__(self, sources: list[SourceFile]):
        self.sources = sources
        self.by_rel: dict[str, SourceFile] = {sf.rel: sf for sf in sources}
        self.functions: list[FunctionDef] = []
        self.by_base: dict[str, list[FunctionDef]] = {}
        for sf in sources:
            fns = scan_functions(sf)
            for fn in fns:
                _annotate_loops(fn, sf.code)
                _annotate_calls(fn, sf.code)
            self.functions.extend(fns)
        for fn in self.functions:
            self.by_base.setdefault(fn.name, []).append(fn)
        # Resolved call edges, computed once.
        self.callsites: list[CallSite] = []
        self.calls_from: dict[int, list[CallSite]] = {}
        self.calls_to: dict[int, list[CallSite]] = {}
        for fn in self.functions:
            sf = self.by_rel[fn.rel]
            for name, off in fn.calls:
                for callee in self.resolve(name):
                    if callee is fn and name == fn.name:
                        # Direct self-recursion adds nothing to any of the
                        # propagation passes; skip the edge.
                        continue
                    site = CallSite(caller=fn, callee=callee, offset=off,
                                    line=sf.line_at(off))
                    self.callsites.append(site)
                    self.calls_from.setdefault(id(fn), []).append(site)
                    self.calls_to.setdefault(id(callee), []).append(site)

    def resolve(self, name: str) -> list[FunctionDef]:
        """Definitions a call to `name` may reach: exact qualified-suffix
        matches when qualified, else every definition sharing the base
        name. Calls explicitly qualified into a foreign root namespace
        (std::, boost::, ...) never resolve to project functions — the
        base-name fallback must not alias `std::to_string` to a project
        `Table::to_string`."""
        base = name.rsplit("::", 1)[-1]
        cands = self.by_base.get(base, [])
        if "::" not in name or not cands:
            return cands
        root = name.split("::", 1)[0]
        if root in FOREIGN_NAMESPACES:
            return []
        suffix = name
        exact = [f for f in cands
                 if f.qualname == suffix or f.qualname.endswith("::" + suffix)]
        return exact or cands

    def function_at_line(self, rel: str, line: int) -> FunctionDef | None:
        for fn in self.functions:
            if fn.rel == rel and fn.start_line <= line <= fn.end_line:
                return fn
        return None
