"""Fixed-point propagation passes over the call graph.

Two directions cover every interprocedural rule:

  * taint_callers — a property observed *inside* a function contaminates
    everything that (transitively) calls it: nondeterminism sources for
    rule D4. Propagation stops at sanctioned laundering points.
  * transitive_union — a property of a function's body is inherited *by*
    its callers as "reachable through a call": allocation for P1. Bounded
    by a hop limit so heuristic call-resolution noise cannot smear a
    property across the whole tree.

Both passes carry provenance so findings can print the actual
source-to-sink chain instead of a bare verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from bc_analyze.callgraph import CallSite, FunctionDef, Program


@dataclass
class Taint:
    """Why a function is tainted: either it contains the source itself
    (site is None) or a call site reaches a tainted callee."""

    source_desc: str  # e.g. "wall-clock at src/x.cpp:12"
    source_fn: FunctionDef
    site: CallSite | None  # the call in *this* function toward the source
    depth: int


def taint_callers(
        program: Program,
        seeds: dict[int, tuple[FunctionDef, str]],
        launder) -> dict[int, Taint]:
    """BFS from source functions up the caller graph.

    `seeds` maps id(fn) -> (fn, source description). `launder(callee)`
    returns True when calls *into* that function sanitize the value
    (sorted snapshots, the seeded Rng, observability-only code), cutting
    propagation. Returns id(fn) -> Taint for every reached function,
    including the seeds themselves (site=None).
    """
    taint: dict[int, Taint] = {}
    queue: list[FunctionDef] = []
    for fn, desc in seeds.values():
        taint[id(fn)] = Taint(source_desc=desc, source_fn=fn, site=None,
                              depth=0)
        queue.append(fn)
    head = 0
    while head < len(queue):
        fn = queue[head]
        head += 1
        state = taint[id(fn)]
        if launder(fn):
            continue  # a laundering point may contain sources; they stop here
        for site in program.calls_to.get(id(fn), ()):  # callers of fn
            caller = site.caller
            if id(caller) in taint:
                continue
            taint[id(caller)] = Taint(
                source_desc=state.source_desc, source_fn=state.source_fn,
                site=site, depth=state.depth + 1)
            queue.append(caller)
    return taint


def chain_of(taint: dict[int, Taint], fn: FunctionDef) -> list[str]:
    """Qualified-name path from `fn` down to the source function."""
    names = [fn.qualname]
    state = taint[id(fn)]
    guard = 0
    while state.site is not None and guard < 64:
        guard += 1
        nxt = state.site.callee
        names.append(nxt.qualname)
        state = taint[id(nxt)]
    return names


@dataclass
class Reach:
    """How a function reaches a property: directly (site is None, `what`
    describes the body evidence) or through a call chain."""

    what: str
    site: CallSite | None
    depth: int


def transitive_union(
        program: Program,
        direct: dict[int, str],
        max_depth: int = 3) -> dict[int, Reach]:
    """id(fn) -> Reach for every function that exhibits the property in
    its own body (`direct`, id(fn) -> evidence string) or reaches one that
    does within `max_depth` calls."""
    reach: dict[int, Reach] = {}
    queue: list[FunctionDef] = []
    for fn in program.functions:
        if id(fn) in direct:
            reach[id(fn)] = Reach(what=direct[id(fn)], site=None, depth=0)
            queue.append(fn)
    head = 0
    while head < len(queue):
        fn = queue[head]
        head += 1
        state = reach[id(fn)]
        if state.depth >= max_depth:
            continue
        for site in program.calls_to.get(id(fn), ()):
            caller = site.caller
            if id(caller) in reach:
                continue
            reach[id(caller)] = Reach(what=state.what, site=site,
                                      depth=state.depth + 1)
            queue.append(caller)
    return reach


def reach_chain(reach: dict[int, Reach], fn: FunctionDef) -> list[str]:
    names = [fn.qualname]
    state = reach[id(fn)]
    guard = 0
    while state.site is not None and guard < 64:
        guard += 1
        nxt = state.site.callee
        names.append(nxt.qualname)
        state = reach[id(nxt)]
    return names
