"""Interprocedural rules D4 and P1 (callgraph.py + dataflow.py).

D4 determinism-taint   a nondeterminism source (surviving D1/D2/D3 finding,
                       pointer-order/pointer-hash) reaches a
                       reputation / gossip / persistence sink through the
                       call graph. Sanctioned laundering points — the
                       seeded Rng, sorted_view snapshots, src/obs/ — cut
                       the taint. Fires only across function boundaries:
                       the intraprocedural case is D1-D3's job.
P1 hot-path-allocation heap allocation or container growth inside a loop
                       of a BC_OBS_SCOPE-instrumented hot function, or a
                       call from such a loop into a function that
                       (transitively) allocates. The compile-time
                       guardrail for the batched/SIMD maxflow work.
"""

from __future__ import annotations

import re

from bc_analyze.callgraph import FunctionDef, Program
from bc_analyze.dataflow import (
    chain_of,
    reach_chain,
    taint_callers,
    transitive_union,
)
from bc_analyze.model import Finding
from bc_analyze.source import SourceFile

# --- shared body scanners ----------------------------------------------------

ALLOC_RE = re.compile(
    r"\bnew\b(?!\s*\()"
    r"|\bstd::make_(?:unique|shared)\b"
    r"|(?<![\w:.])(?:malloc|calloc|realloc|strdup)\s*\("
)
CONTAINER_DECL_RE = re.compile(
    r"\b(?:std::)?(?:vector|deque|list|map|multimap|set|multiset"
    r"|unordered_map|unordered_set|basic_string|string|function)\s*<"
)
GROWTH_RE = re.compile(
    r"([A-Za-z_]\w*(?:\[[^\]]*\])?(?:\.[A-Za-z_]\w*)*?)\s*\.\s*"
    r"(push_back|emplace_back|emplace|emplace_front|push_front|insert"
    r"|append|resize|reserve)\s*\("
)
PTR_ORDER_RE = re.compile(
    r"\bstd::less\s*<[^<>]*\*\s*>|\bstd::hash\s*<[^<>]*\*\s*>"
    r"|\breinterpret_cast\s*<\s*(?:std::)?u?intptr_t\s*>")

HOT_MARKER = "BC_OBS_SCOPE"

#: Call targets that sanitize taint: the seeded Rng, key-sorted snapshots
#: and observability-only code (exempt from determinism rules by design).
LAUNDER_PREFIXES = (
    "src/obs/", "src/util/rng", "src/util/sorted_view", "src/util/logging",
)
LAUNDER_NAMES = {"sorted_view", "sorted_keys"}

#: Where taint must never arrive: the reputation pipeline (Eq. 1 maxflow
#: and everything bartercast::), gossip partner selection, persistence and
#: the wire codec.
SINK_PREFIXES = ("src/bartercast/", "src/gossip/")
SINK_QUAL_RE = re.compile(r"\b(?:bartercast|gossip)::")
SINK_NAME_RE = re.compile(r"^(?:max_flow_\w+|encode\w*|save\w*)$")


def _is_sink(fn: FunctionDef) -> bool:
    return (fn.rel.startswith(SINK_PREFIXES)
            or SINK_QUAL_RE.search(fn.qualname) is not None
            or SINK_NAME_RE.match(fn.name) is not None)


def _is_launder(fn: FunctionDef) -> bool:
    return fn.rel.startswith(LAUNDER_PREFIXES) or fn.name in LAUNDER_NAMES


def _alloc_sites(fn: FunctionDef, sf: SourceFile,
                 include_presize: bool = True) -> list[tuple[int, str]]:
    """(offset, description) of every allocation in fn's body. Container
    growth is exempt when the same function `.reserve()`s the receiver
    earlier (the sanctioned pre-size-then-fill pattern) — the reserve call
    itself still counts as an allocation site when `include_presize` is
    set (it is per-iteration cost inside a loop), but not for the
    transitive "this callee allocates"
    property: pre-size-then-fill is exactly what P1 asks callees to do."""
    code = sf.code
    body_start, body_end = fn.start + 1, fn.end
    out: list[tuple[int, str]] = []
    for m in ALLOC_RE.finditer(code, body_start, body_end):
        out.append((m.start(), f"`{m.group(0).strip()}`"))
    for m in CONTAINER_DECL_RE.finditer(code, body_start, body_end):
        # A declaration with an initializer allocates; a bare `vector<T> v;`
        # does not, and neither does a reference binding `vector<T>& v = ...`.
        dm = re.compile(r">\s*(&?)\s*([A-Za-z_]\w*)\s*([({=])").search(
            code, m.end() - 1, min(body_end, m.end() + 200))
        if dm and not dm.group(1) and dm.group(3) in "({=":
            out.append((m.start(),
                        f"construction of `{dm.group(2)}`"))
    reserved: dict[str, int] = {}
    growths: list[tuple[int, str, str]] = []
    for m in GROWTH_RE.finditer(code, body_start, body_end):
        recv, op = m.group(1), m.group(2)
        if op == "reserve":
            reserved.setdefault(recv, m.start())
            if include_presize:
                out.append((m.start(), f"`{recv}.reserve(...)`"))
        else:
            growths.append((m.start(), recv, op))
    for off, recv, op in growths:
        if recv in reserved and reserved[recv] < off:
            continue  # pre-sized: amortized growth is sanctioned
        out.append((off, f"`{recv}.{op}(...)`"))
    out.sort()
    return out


# --- D4 ----------------------------------------------------------------------


def check_d4(program: Program, sources: list[tuple[str, int, str]],
             exempt) -> list[Finding]:
    """`sources` are surviving intraprocedural nondeterminism findings
    (rel, line, kind) — D1/D2/D3 output plus the D4-only source scans.
    `exempt(rule, rel)` is the engine's path-exemption predicate."""
    seeds: dict[int, tuple[FunctionDef, str]] = {}
    for rel, line, kind in sources:
        fn = program.function_at_line(rel, line)
        if fn is None:
            continue
        desc = f"{kind} at {rel}:{line}"
        if id(fn) not in seeds:
            seeds[id(fn)] = (fn, desc)
    taint = taint_callers(program, seeds, _is_launder)
    out: list[Finding] = []
    for fn in program.functions:
        if id(fn) not in taint or not _is_sink(fn):
            continue
        if exempt("D4", fn.rel):
            continue
        state = taint[id(fn)]
        if state.site is None:
            continue  # source inside the sink itself: D1-D3 already fire
        chain = " -> ".join(chain_of(taint, fn))
        out.append(Finding(
            rule="D4", slug="determinism-taint", path=fn.rel,
            line=state.site.line,
            message=(f"nondeterminism reaches reputation/gossip sink"
                     f" `{fn.qualname}` through this call:"
                     f" {chain} [source: {state.source_desc}]; every peer"
                     " must compute identical results from identical"
                     " history (PAPER Eq. 1) — route the value through"
                     " bc::Rng / sorted_view, or fix the callee"),
        ))
    return out


def extra_d4_sources(sf: SourceFile) -> list[tuple[str, int, str]]:
    """D4-only nondeterminism sources with no intraprocedural rule:
    pointer-order/pointer-hash dependence."""
    out: list[tuple[str, int, str]] = []
    for lineno, code in enumerate(sf.code_lines, start=1):
        for m in PTR_ORDER_RE.finditer(code):
            out.append((sf.rel, lineno,
                        f"pointer-order `{m.group(0).strip()}`"))
    return out


# --- P1 ----------------------------------------------------------------------


def _allocates_direct(program: Program) -> dict[int, str]:
    """Transitive-seed evidence: functions that pay an allocation per call.
    Laundering targets (src/obs/, logging, the Rng) are excluded — they
    are no-ops when observability is disabled and never hot-path
    evidence — and so are bare `.reserve()` pre-sizes (see _alloc_sites)."""
    direct: dict[int, str] = {}
    for fn in program.functions:
        if _is_launder(fn):
            continue
        sf = program.by_rel[fn.rel]
        sites = _alloc_sites(fn, sf, include_presize=False)
        if sites:
            direct[id(fn)] = (f"{sites[0][1]} at"
                              f" {fn.rel}:{sf.line_at(sites[0][0])}")
    return direct


def check_p1(program: Program, exempt) -> list[Finding]:
    allocates = transitive_union(program, _allocates_direct(program))
    out: list[Finding] = []
    for fn in program.functions:
        sf = program.by_rel[fn.rel]
        if exempt("P1", fn.rel):
            continue
        if HOT_MARKER not in fn.body(sf.code):
            continue
        # Direct allocation inside a loop of the hot region.
        for off, desc in _alloc_sites(fn, sf):
            if fn.loop_depth_at(off) < 1:
                continue
            out.append(Finding(
                rule="P1", slug="hot-path-allocation", path=fn.rel,
                line=sf.line_at(off),
                message=(f"allocation {desc} inside a loop of hot function"
                         f" `{fn.qualname}` (BC_OBS_SCOPE region): hoist"
                         " the buffer out of the loop and reuse it, or"
                         " reserve up front — the maxflow/choker hot paths"
                         " must not hit the allocator per iteration"),
            ))
        # Calls from a loop into (transitively) allocating callees.
        for site in program.calls_from.get(id(fn), ()):
            if fn.loop_depth_at(site.offset) < 1:
                continue
            callee = site.callee
            if id(callee) not in allocates or _is_launder(callee):
                continue
            state = allocates[id(callee)]
            chain = " -> ".join(reach_chain(allocates, callee))
            out.append(Finding(
                rule="P1", slug="hot-path-allocation", path=fn.rel,
                line=site.line,
                message=(f"call from a loop of hot function"
                         f" `{fn.qualname}` reaches an allocation:"
                         f" {chain} [{state.what}]; hoist or pre-size the"
                         " buffer so the hot path stays allocation-free"),
            ))
    return out
