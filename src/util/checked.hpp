// Checked and saturating int64 arithmetic for the Bytes accounting paths.
//
// BarterCast's mechanism is integer accounting: Bytes upload/download
// totals feed subjective-graph capacities, maxflow sums, and the Eq. 1
// arctan ratio. Signed overflow on any of those is UB and silently
// corrupts reputations. These helpers make the overflow policy explicit
// at each accumulation site:
//
//   * checked_add / checked_mul — the value is owner-local and a wrap
//     would be a program bug: BC_DASSERT in debug builds, well-defined
//     (wrapping-free, computed in unsigned space) result in release.
//   * saturating_add / saturating_sub — the value is influenced by remote
//     input (gossiped capacities, trace-file totals) that an adversary
//     can drive to extremes (Nielson et al.): clamp at the int64
//     endpoints instead of trusting the input to stay bounded.
//
// All are built on the compiler's __builtin_*_overflow primitives, which
// compile to a flag test around the plain instruction — cheap enough for
// the maxflow hot loops. The integer and asan-ubsan sanitizer builds abort on
// any overflow these helpers do not absorb.
#pragma once

#include <cstdint>
#include <limits>

#include "util/assert.hpp"

// Opt-out for functions whose unsigned wraparound is the algorithm (hash
// mixers, xoshiro state updates, rejection-sampling range math). Applied
// per function so the `integer` sanitizer preset (Clang's
// -fsanitize=integer, see CMakeLists.txt) stays no-recover everywhere
// else: a wrap outside an annotated mixer is still a hard CI failure.
#if defined(__clang__)
#define BC_NO_SANITIZE_INTEGER __attribute__((no_sanitize("integer")))
#else
#define BC_NO_SANITIZE_INTEGER
#endif

namespace bc::util {

/// a + b with a debug assert that the sum stays inside int64. In release
/// builds the wrapped two's-complement value is returned (computed by the
/// builtin without UB), so behavior is defined in every build type.
inline std::int64_t checked_add(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  const bool overflow = __builtin_add_overflow(a, b, &out);
  BC_DASSERT(!overflow && "checked_add: int64 overflow");
  static_cast<void>(overflow);
  return out;
}

/// a * b with a debug assert that the product stays inside int64.
inline std::int64_t checked_mul(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  const bool overflow = __builtin_mul_overflow(a, b, &out);
  BC_DASSERT(!overflow && "checked_mul: int64 overflow");
  static_cast<void>(overflow);
  return out;
}

/// a + b clamped to [INT64_MIN, INT64_MAX]. The clamp direction follows
/// the sign of the true sum: a positive overflow saturates at max, a
/// negative one at min.
inline std::int64_t saturating_add(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_add_overflow(a, b, &out)) {
    return b > 0 ? std::numeric_limits<std::int64_t>::max()
                 : std::numeric_limits<std::int64_t>::min();
  }
  return out;
}

/// a - b clamped to [INT64_MIN, INT64_MAX].
inline std::int64_t saturating_sub(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_sub_overflow(a, b, &out)) {
    return b < 0 ? std::numeric_limits<std::int64_t>::max()
                 : std::numeric_limits<std::int64_t>::min();
  }
  return out;
}

}  // namespace bc::util
