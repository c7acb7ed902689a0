"""bc-analyze: the BarterCast repository linter.

Every rule here is a per-file check of an invariant or convention of this
project that no compiler warning, sanitizer or clang-tidy check knows
about. Generic C++ bug classes (narrowing, float equality, overflow,
dangling views, use after move, ...) are left to those tools; DESIGN.md
section 9 names the gate that owns each one.

Rule catalogue (DESIGN.md section 9 gives each rule's invariant, scope
and fixtures):

  D1 unordered-iteration  hash-container iteration, or an order/hash over
                          pointer values
  D2 wall-clock           host clock outside src/obs/
  D3 unseeded-random      randomness not drawn from the seeded bc::Rng
                          (std::random_device, <random> engines, libc rand)
  L3 escaping-capture     `&` capture in a lambda passed to
                          Engine::schedule_at / _after / _periodic or
                          Overlay::schedule_delivery
  C1 raw-primitive        threads, thread_local, atomics, locks, async: the
                          process is single-threaded
  H1 raw-assert           assert() instead of BC_ASSERT / BC_DASSERT
  H2 assert-include       BC_ASSERT used without including "util/assert.hpp"
  H3 pragma-once          header that does not open with #pragma once
  H4 include-style        project header included <...> or by relative path
  H5 using-namespace      using-namespace directive in a header
  SUP bad-suppression     malformed, reason-less or unknown-rule marker, or
                          a stale one whose rule no longer fires on its line

Suppression syntax, on the offending line or a comment line directly above
(several rules separate with commas, `allow(D1,D2)`):

  // bc-analyze: allow(D1) -- result is fully re-sorted with a total order
"""

__version__ = "5.0"

RULES = {
    "D1": "unordered-iteration",
    "D2": "wall-clock",
    "D3": "unseeded-random",
    "L3": "escaping-capture",
    "C1": "raw-primitive",
    "H1": "raw-assert",
    "H2": "assert-include",
    "H3": "pragma-once",
    "H4": "include-style",
    "H5": "using-namespace",
    "SUP": "bad-suppression",
}

#: The trees (relative to the repo root, prefix-matched) a rule polices;
#: a rule missing here covers every tree of the walk. Tests may iterate
#: hash maps, read the clock and start threads.
RULE_SCOPES = {
    rule: ("src/", "bench/", "examples/")
    for rule in ("D1", "D2", "L3", "C1")
}

#: Paths (relative to the repo root, prefix-matched) exempt per rule: the
#: sanctioned implementation of each facility lives here.
RULE_EXEMPT_PREFIXES = {
    "D2": ("src/obs/",),
    "D3": ("src/util/rng.hpp", "src/util/rng.cpp"),
    "H1": ("src/util/assert.hpp",),
    "H2": ("src/util/assert.hpp",),
}
