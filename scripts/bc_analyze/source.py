"""Token-level model of one C++ source file.

This is deliberately a *heuristic* frontend: it scrubs comments and string
literals, then recognizes the declaration and expression shapes that
actually occur in this tree (clang-format-ed, convention-checked code).
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field
from pathlib import Path

from bc_analyze.model import Suppression

# --- comment/string scrubbing ----------------------------------------------


def scrub_line(line: str, in_block: bool) -> tuple[str, str, bool]:
    """Blanks string/char literal contents and removes comments.

    Returns (code, comment_text, still_in_block). Column positions in
    `code` are NOT preserved past a removed comment; rules only report
    line numbers. `comment_text` is the concatenated comment content of the
    line (used for suppression markers).
    """
    code: list[str] = []
    comment: list[str] = []
    i = 0
    n = len(line)
    state = "block" if in_block else "code"
    while i < n:
        c = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                comment.append(line[i + 2:])
                break
            if c == "/" and nxt == "*":
                state = "block"
                i += 2
                continue
            if c == '"':
                state = "string"
                code.append(c)
                i += 1
                continue
            if c == "'":
                state = "char"
                code.append(c)
                i += 1
                continue
            code.append(c)
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
            else:
                comment.append(c)
                i += 1
        elif state == "string":
            if c == "\\":
                i += 2
                continue
            if c == '"':
                state = "code"
                code.append(c)
            i += 1
        else:  # char literal
            if c == "\\":
                i += 2
                continue
            if c == "'":
                state = "code"
                code.append(c)
            i += 1
    return "".join(code), "".join(comment), state == "block"


def match_angle(text: str, open_idx: int) -> int:
    """Index just past the `>` matching the `<` at open_idx, or -1."""
    depth = 0
    i = open_idx
    n = len(text)
    while i < n:
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{":
            return -1  # statement ended: was a comparison, not a template
        i += 1
    return -1


def match_paren(text: str, open_idx: int) -> int:
    """Index of the `)` matching the `(` at open_idx, or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


# --- declaration scanning ---------------------------------------------------

UNORDERED_RE = re.compile(r"\bstd::unordered_(?:map|set)\s*<")
VECTOR_OF_UNORDERED_RE = re.compile(
    r"\bstd::(?:vector|array|deque)\s*<\s*std::unordered_(?:map|set)\s*<"
)
ORDERED_CONTAINER_RE = re.compile(
    r"\bstd::(?:vector|map|set|multimap|multiset|deque|list|array|span)\s*<"
)
#: Non-templated project types with deterministic iteration order:
#: graph::EdgeView wraps a span over a node's sorted neighbour ids.
ORDERED_PLAIN_RE = re.compile(r"\b(?:graph\s*::\s*)?(EdgeView)\b")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")
SUPPRESS_RE = re.compile(
    r"bc-analyze:\s*allow\s*\(([^)]*)\)\s*(?:--\s*(.*\S))?\s*$"
)


@dataclass
class SourceFile:
    path: Path  # absolute
    rel: str  # repo-relative, forward slashes
    raw_lines: list[str] = field(default_factory=list)
    code_lines: list[str] = field(default_factory=list)
    comment_lines: list[str] = field(default_factory=list)
    suppressions: list[Suppression] = field(default_factory=list)
    bad_suppressions: list[tuple[int, str]] = field(default_factory=list)
    # heuristic symbol tables (identifier names)
    unordered_vars: set[str] = field(default_factory=set)
    unordered_fns: set[str] = field(default_factory=set)
    unordered_element_containers: set[str] = field(default_factory=set)
    ordered_vars: set[str] = field(default_factory=set)  # deterministic kinds
    ordered_fns: set[str] = field(default_factory=set)
    # joined scrubbed code with line lookup
    code: str = ""
    _line_starts: list[int] = field(default_factory=list)

    def line_at(self, offset: int) -> int:
        """1-based line number of a character offset into self.code."""
        return bisect.bisect_right(self._line_starts, offset)


def _parse_suppressions(sf: SourceFile, known_rules: set[str]) -> None:
    for lineno, comment in enumerate(sf.comment_lines, start=1):
        # Prose may mention the tool by name; only `bc-analyze:` starts a
        # marker.
        if "bc-analyze:" not in comment:
            continue
        m = SUPPRESS_RE.search(comment.strip())
        if not m:
            sf.bad_suppressions.append(
                (lineno,
                 "malformed bc-analyze marker; expected"
                 " `bc-analyze: allow(<rules>) -- <reason>`"))
            continue
        rules = tuple(
            r.strip().upper() for r in m.group(1).split(",") if r.strip())
        reason = (m.group(2) or "").strip()
        unknown = [r for r in rules if r not in known_rules]
        if not rules or unknown:
            sf.bad_suppressions.append(
                (lineno, f"unknown rule(s) in allow(): {', '.join(unknown) or '<empty>'}"))
            continue
        if not reason:
            sf.bad_suppressions.append(
                (lineno,
                 "suppression without a reason; append `-- <why this is safe>`"))
            continue
        # A comment-only line suppresses the next line that has code; an
        # end-of-line comment suppresses its own line.
        target = lineno
        if not sf.code_lines[lineno - 1].strip():
            target = lineno + 1
            while (target <= len(sf.code_lines)
                   and not sf.code_lines[target - 1].strip()):
                target += 1
        sf.suppressions.append(
            Suppression(path=sf.rel, marker_line=lineno, target_line=target,
                        rules=rules, reason=reason))


def _scan_declarations(sf: SourceFile) -> None:
    code = sf.code
    # Containers *of* unordered containers: iterating the outer container is
    # fine, but subscripting it yields an unordered container.
    for m in VECTOR_OF_UNORDERED_RE.finditer(code):
        outer_open = code.index("<", m.start())
        close = match_angle(code, outer_open)
        if close < 0:
            continue
        named = _decl_name_after(code, close)
        if named and named[0] == "var":
            sf.unordered_element_containers.add(named[1])
    for m in UNORDERED_RE.finditer(code):
        open_idx = m.end() - 1
        close = match_angle(code, open_idx)
        if close < 0:
            continue
        # When this unordered type is nested inside another template
        # argument list (e.g. the value type of an outer map) no declared
        # name follows the closing `>`, so _decl_name_after returns None
        # and the outer scan picks up the declaration instead.
        named = _decl_name_after(code, close)
        if not named:
            continue
        kind, ident = named
        if kind == "fn":
            sf.unordered_fns.add(ident)
        else:
            sf.unordered_vars.add(ident)
    # Deterministically ordered containers: declarations recorded so a name
    # that is unordered in some *other* file is vetoed here (and globally
    # ambiguous names can be dropped from the cross-file table). Functions
    # returning ordered containers (vector, sorted span, ...) are tracked
    # the same way so e.g. a span-returning accessor does not inherit
    # unordered-ness from an identically named accessor elsewhere.
    for m in ORDERED_CONTAINER_RE.finditer(code):
        open_idx = code.index("<", m.start())
        close = match_angle(code, open_idx)
        if close < 0:
            continue
        named = _decl_name_after(code, close)
        if named and named[0] == "var":
            sf.ordered_vars.add(named[1])
        elif named and named[0] == "fn":
            sf.ordered_fns.add(named[1])
    for m in ORDERED_PLAIN_RE.finditer(code):
        named = _decl_name_after(code, m.end())
        if named and named[0] == "var":
            sf.ordered_vars.add(named[1])
        elif named and named[0] == "fn":
            sf.ordered_fns.add(named[1])


def _decl_name_after(code: str, idx: int):
    """Identifier declared right after a type ending at `idx`.

    Returns ("var", name), ("fn", name) for a function returning the type,
    or None when the type ends mid-expression (nested template argument,
    cast, template parameter, ...).
    """
    n = len(code)
    i = idx
    while i < n and code[i] in " \t\n":
        i += 1
    if i < n and code[i] in "&*":
        i += 1
        while i < n and code[i] in " \t\n":
            i += 1
    m = IDENT_RE.match(code, i)
    if not m:
        return None
    ident = m.group(0)
    if ident in ("const", "noexcept", "override", "final"):
        return None
    j = m.end()
    while j < n and code[j] in " \t\n":
        j += 1
    nxt = code[j] if j < n else ""
    if nxt == "(":
        return ("fn", ident)
    if nxt in ";=,{)" or code[j:j + 2] == "[]":
        return ("var", ident)
    return None


def load_source(path: Path, rel: str, known_rules: set[str]) -> SourceFile:
    text = path.read_text(encoding="utf-8", errors="replace")
    sf = SourceFile(path=path, rel=rel)
    in_block = False
    for line in text.splitlines():
        code, comment, in_block = scrub_line(line, in_block)
        sf.raw_lines.append(line)
        sf.code_lines.append(code)
        sf.comment_lines.append(comment)
    sf.code = "\n".join(sf.code_lines)
    starts = [0]
    for line in sf.code_lines[:-1]:
        starts.append(starts[-1] + len(line) + 1)
    sf._line_starts = starts  # offset of each line's first character
    _parse_suppressions(sf, known_rules)
    _scan_declarations(sf)
    return sf


def final_identifier(expr: str) -> str | None:
    """Base identifier a range/cast expression resolves to, heuristically.

    `m.entries_` -> entries_;  `graph.out_edges(p)` -> out_edges;
    `first_served[p]` -> first_served;  `(*node).views_` -> views_.
    """
    expr = expr.strip()
    while expr and expr[0] in "(*&":
        expr = expr[1:].strip()
    while expr and expr.endswith(")") and not IDENT_RE.fullmatch(expr):
        # strip one balanced trailing (...) group, remembering it was a call
        open_idx = match_open(expr, len(expr) - 1, "(", ")")
        if open_idx <= 0:
            break
        expr = expr[:open_idx].rstrip()
    while expr.endswith("]"):
        open_idx = match_open(expr, len(expr) - 1, "[", "]")
        if open_idx <= 0:
            break
        expr = expr[:open_idx].rstrip()
    ids = IDENT_RE.findall(expr)
    return ids[-1] if ids else None


def match_open(text: str, close_idx: int, opener: str, closer: str) -> int:
    depth = 0
    for i in range(close_idx, -1, -1):
        c = text[i]
        if c == closer:
            depth += 1
        elif c == opener:
            depth -= 1
            if depth == 0:
                return i
    return -1
