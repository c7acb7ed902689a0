"""bc-analyze: the BarterCast project-invariant analyzer.

Every rule here encodes an invariant of this project that no compiler
warning, sanitizer or clang-tidy check knows about. Generic C++ bug
classes (narrowing, float equality, overflow, dangling views, use after
move, ...) are left to those tools; DESIGN.md section 9 names the gate
that owns each one.

Rule catalogue (see DESIGN.md section 9):

  D1 unordered-iteration  iteration over std::unordered_map/unordered_set
                          must go through bc::util::sorted_view (or be
                          suppressed with a reason explaining why iteration
                          order cannot reach gossip selection, reputation
                          evaluation, or serialized output)
  D2 wall-clock           no wall-clock time sources outside src/obs/ and
                          src/util/logging.*; simulation code uses Engine
                          time so runs replay bit-identically
  D3 unseeded-random      no std::random_device / libc rand / std::<random>
                          engines outside src/util/rng.*; all randomness
                          flows through the seeded bc::Rng
  D4 determinism-taint    interprocedural: no call-graph path from a
                          nondeterminism source (surviving D1/D2/D3
                          finding, pointer order/hash) into a
                          reputation / gossip / persistence sink
                          (bartercast::, gossip::, max_flow_*, encode*).
                          Calls through src/util/rng, sorted_view and
                          src/obs/ launder the taint.
  G1 dense-index-leak     no graph::PeerIndex / NodeIndex / kNoNode (or
                          includes of graph/peer_index.hpp) outside
                          src/graph/: dense slots are recycled on
                          remove_node() and are not stable peer
                          identifiers; consumers use the PeerId API
  P1 hot-path-allocation  no heap allocation or unreserved container
                          growth inside loops of BC_OBS_SCOPE-instrumented
                          hot functions, directly or through calls: the
                          maxflow/choker hot paths must not hit the
                          allocator per iteration
  L3 escaping-capture     no lambda with a `&` capture passed to
                          Engine::schedule_at / schedule_after /
                          schedule_periodic: the engine stores the
                          callback, so it outlives the calling frame
  SUP bad-suppression     a `// bc-analyze: allow(...)` marker that names an
                          unknown rule or omits the mandatory `-- reason`,
                          or a stale marker whose rule no longer fires on
                          its target line

The process is single-threaded; the C1 (raw-primitive) grep in
scripts/check_conventions.py keeps it so.

Suppression syntax, on the offending line or a comment line directly above:

  // bc-analyze: allow(D1) -- result is fully re-sorted with a total order
  // bc-analyze: allow(D2,P1) -- wall-clock display only, never in sim state
"""

__version__ = "3.1"

RULES = {
    "D1": "unordered-iteration",
    "D2": "wall-clock",
    "D3": "unseeded-random",
    "D4": "determinism-taint",
    "G1": "dense-index-leak",
    "P1": "hot-path-allocation",
    "L3": "escaping-capture",
    "SUP": "bad-suppression",
}

#: Paths (relative to the repo root, prefix-matched) exempt per rule: the
#: sanctioned implementation of each facility lives here.
RULE_EXEMPT_PREFIXES = {
    "D1": ("src/util/sorted_view.hpp",),
    "D2": ("src/obs/", "src/util/logging.hpp", "src/util/logging.cpp"),
    "D3": ("src/util/rng.hpp", "src/util/rng.cpp"),
    # D4 exemptions apply to its *extra* source scan (pointer order) and to
    # sink files; the D1-D3-derived sources already honor those rules' own
    # exemptions.
    "D4": ("src/obs/", "src/util/logging.hpp", "src/util/logging.cpp"),
    "G1": ("src/graph/",),
}
