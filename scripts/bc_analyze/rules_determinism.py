"""Determinism rules D1-D3.

D1 unordered-iteration: every peer must derive the same subjective graph
   and byte-identical exports from the same inputs, across runs *and*
   across standard-library implementations. std::unordered_map/set
   iteration order is implementation-defined, so code that needs an order
   keeps an ordered container (or collects and sorts, with a suppression
   explaining the total order). An order or hash over pointer
   values is reported too: addresses differ between runs and machines.
D2 wall-clock: simulation state must depend only on Engine time, never on
   the host clock, or replays stop being bit-identical.
D3 unseeded-random: all randomness flows through the seeded bc::Rng;
   std::random_device, libc rand and ad-hoc <random> engines break seeded
   replay.
"""

from __future__ import annotations

import re

from bc_analyze.model import Finding
from bc_analyze.source import (
    SourceFile,
    final_identifier,
    match_paren,
)

# --- D1 ---------------------------------------------------------------------

FOR_RE = re.compile(r"\bfor\s*\(")
BEGIN_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*c?begin\s*\(")
PTR_ORDER_RE = re.compile(
    r"\bstd::less\s*<[^<>]*\*\s*>|\bstd::hash\s*<[^<>]*\*\s*>"
    r"|\breinterpret_cast\s*<\s*(?:std::)?u?intptr_t\s*>")


def _range_for_findings(sf: SourceFile, unordered_names: set[str],
                        unordered_fns: set[str],
                        subscript_containers: set[str]) -> list[Finding]:
    out: list[Finding] = []
    code = sf.code
    for m in FOR_RE.finditer(code):
        open_idx = m.end() - 1
        close_idx = match_paren(code, open_idx)
        if close_idx < 0:
            continue
        header = code[open_idx + 1:close_idx]
        colon = _top_level_colon(header)
        if colon < 0:
            continue  # classic for loop; .begin() scan covers iterator loops
        range_expr = header[colon + 1:].strip()
        base = final_identifier(range_expr)
        if base is None:
            continue
        subscripted = range_expr.rstrip().endswith("]") or "[" in range_expr
        hit = (base in unordered_names
               or (base in unordered_fns and "(" in range_expr)
               or (base in subscript_containers and subscripted))
        if not hit:
            continue
        line = sf.line_at(m.start())
        out.append(Finding(
            rule="D1", slug="unordered-iteration", path=sf.rel, line=line,
            message=(f"range-for over unordered container `{base}`:"
                     " iteration order is implementation-defined; keep an"
                     " ordered container, or suppress with a reason proving"
                     " order cannot reach selection, reputation, or"
                     " serialized output (e.g. the keys are sorted after)"),
        ))
    return out


def _iterator_findings(sf: SourceFile,
                       unordered_names: set[str]) -> list[Finding]:
    out: list[Finding] = []
    for lineno, code in enumerate(sf.code_lines, start=1):
        for m in BEGIN_RE.finditer(code):
            if m.group(1) in unordered_names:
                out.append(Finding(
                    rule="D1", slug="unordered-iteration", path=sf.rel,
                    line=lineno,
                    message=(f"iterator walk of unordered container"
                             f" `{m.group(1)}` via .begin(): order is"
                             " implementation-defined; keep an ordered"
                             " container or suppress with a reason"),
                ))
    return out


def _pointer_order_findings(sf: SourceFile) -> list[Finding]:
    return [
        Finding(rule="D1", slug="unordered-iteration", path=sf.rel,
                line=lineno,
                message=(f"pointer-order `{m.group(0).strip()}`: addresses"
                         " differ between runs and machines, so an order or"
                         " hash over them is not reproducible; key on a"
                         " stable id"))
        for lineno, code in enumerate(sf.code_lines, start=1)
        for m in PTR_ORDER_RE.finditer(code)
    ]


def _top_level_colon(header: str) -> int:
    """Offset of the range-for `:` in a for-header, skipping `::`."""
    depth = 0
    i = 0
    n = len(header)
    while i < n:
        c = header[i]
        if c in "(<[{":
            depth += 1
        elif c in ")>]}":
            depth -= 1
        elif c == ":" and depth == 0:
            if i + 1 < n and header[i + 1] == ":":
                i += 2
                continue
            if i > 0 and header[i - 1] == ":":
                i += 1
                continue
            if i > 0 and header[i - 1] == "?":  # ternary, not range-for
                i += 1
                continue
            return i
        i += 1
    return -1


def check_d1(sf: SourceFile, names: set[str], fns: set[str],
             subs: set[str]) -> list[Finding]:
    """`names`/`fns`/`subs` are the engine-merged effective tables:
    file-local + companion-header declarations, plus the cross-file table
    minus names this file (or its companion) declares as an ordered
    container."""
    return (_range_for_findings(sf, names, fns, subs)
            + _iterator_findings(sf, names)
            + _pointer_order_findings(sf))


# --- D2 ---------------------------------------------------------------------

WALL_CLOCK_RE = re.compile(
    r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)"
    r"|(?<![\w.:>])(?:time|clock|gettimeofday|clock_gettime|localtime"
    r"|gmtime|mktime|timespec_get)\s*\("
)


def check_d2(sf: SourceFile) -> list[Finding]:
    out = []
    for lineno, code in enumerate(sf.code_lines, start=1):
        for m in WALL_CLOCK_RE.finditer(code):
            out.append(Finding(
                rule="D2", slug="wall-clock", path=sf.rel, line=lineno,
                message=(f"wall-clock source `{m.group(0).strip()}` outside"
                         " src/obs/: simulation code must use Engine time so"
                         " runs replay bit-identically"),
            ))
    return out


# --- D3 ---------------------------------------------------------------------

RANDOM_RE = re.compile(
    r"std::random_device"
    r"|std::(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine"
    r"|ranlux(?:24|48)(?:_base)?|knuth_b)\b"
    r"|\bstd::s?rand\b|(?<![\w:.])s?rand\s*\("
)


def check_d3(sf: SourceFile) -> list[Finding]:
    out = []
    for lineno, code in enumerate(sf.code_lines, start=1):
        for m in RANDOM_RE.finditer(code):
            out.append(Finding(
                rule="D3", slug="unseeded-random", path=sf.rel, line=lineno,
                message=(f"randomness source `{m.group(0).strip()}` outside"
                         " src/util/rng.*: all randomness must flow through"
                         " the seeded bc::Rng for reproducible runs"),
            ))
    return out
