// Deterministic pseudo-random number generation.
//
// Every stochastic component of the simulator takes an explicit Rng (or a
// seed from which it derives one) so that a scenario config reproduces
// bit-identical runs. The generator is xoshiro256**, a small, fast,
// well-tested generator; seeding goes through splitmix64 as recommended by
// its authors.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/assert.hpp"
#include "util/checked.hpp"  // BC_NO_SANITIZE_INTEGER

namespace bc {

namespace detail {

/// For n = d * 2^s with d odd: `inverse` is d's inverse modulo 2^64 and
/// `quotient` is floor((2^64 - 1) / n). A 64-bit v is a multiple of n
/// exactly when rotr(v * inverse, s) <= quotient (Granlund-Montgomery exact
/// division): the product maps the multiples of n, and only them, onto
/// 0 .. quotient.
struct ExactDivisor {
  std::uint64_t inverse = 0;
  std::uint64_t quotient = 0;
};

/// Rng::one_in divides by no n below this. A tie count in bt::pick_piece is
/// at most the file's piece count, and the trace generator's largest file
/// has 1,536 pieces.
inline constexpr std::size_t kExactDivisors = 2048;

constexpr std::array<ExactDivisor, kExactDivisors> exact_divisor_table() {
  std::array<ExactDivisor, kExactDivisors> table{};
  for (std::uint64_t n = 1; n < kExactDivisors; ++n) {
    const std::uint64_t d = n >> std::countr_zero(n);
    std::uint64_t inverse = d;  // right in 3 bits: d * d == 1 (mod 8)
    for (int i = 0; i < 5; ++i) inverse *= 2 - d * inverse;  // doubles them
    table[n] = {inverse, ~std::uint64_t{0} / n};
  }
  return table;
}

/// Entry n serves n; entry 0 is unused. Constant-initialised (32 KB).
inline constexpr std::array<ExactDivisor, kExactDivisors> kExactDivisorTable =
    exact_divisor_table();

}  // namespace detail

/// xoshiro256** pseudo-random generator. Satisfies the essentials of
/// UniformRandomBitGenerator so it can also feed <random> distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the state via splitmix64 so that any 64-bit seed (including 0)
  /// yields a well-mixed state.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  BC_NO_SANITIZE_INTEGER void reseed(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s = z ^ (z >> 31);
    }
  }

  BC_NO_SANITIZE_INTEGER result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Derives an independent child generator; used to give each simulated
  /// peer its own stream so that adding a peer does not perturb others.
  Rng fork() { return Rng((*this)() ^ 0xa0761d6478bd642fULL); }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  BC_NO_SANITIZE_INTEGER std::int64_t uniform_int(std::int64_t lo,
                                                  std::int64_t hi) {
    BC_ASSERT(lo <= hi);
    // Width computed in unsigned space: hi - lo as int64 overflows for
    // spans past 2^63 (e.g. the full-range call), and the +1 wrapping to
    // zero for the full 64-bit span is the sentinel the branch below keys
    // on — both are the modular arithmetic this annotation opts into.
    const std::uint64_t range =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (range == 0) {  // full 64-bit range
      return static_cast<std::int64_t>((*this)());
    }
    // The sum lies in [lo, hi], but below(range) passes INT64_MAX for spans
    // past 2^63, so it is formed in unsigned space (no signed overflow).
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                     below(range));
  }

  /// Bernoulli draw with probability p of returning true.
  bool chance(double p) { return uniform() < p; }

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Normally distributed value (Box-Muller, one value per call).
  double normal(double mu, double sigma);

  /// Log-normal: exp(normal(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Pareto (power-law) value with minimum xm > 0 and shape alpha > 0.
  double pareto(double xm, double alpha);

  /// Zipf-like rank selection: picks an index in [0, n) with probability
  /// proportional to 1 / (rank+1)^s. O(n) per call; intended for setup code.
  std::size_t zipf(std::size_t n, double s);

  /// Uniformly selects an index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n) {
    BC_ASSERT(n > 0);
    return below(n);
  }

  /// index(n) == 0, from the same draws (the rejection redraws included),
  /// tested without a division for n below detail::kExactDivisors: the
  /// reservoir tie-break of bt::pick_piece makes one such draw per tie.
  BC_NO_SANITIZE_INTEGER bool one_in(std::size_t n) {
    BC_ASSERT(n > 0);
    if (n >= detail::kExactDivisors) return below(n) == 0;
    const detail::ExactDivisor& divisor = detail::kExactDivisorTable[n];
    // below()'s limit, max() - max() % n, without the division.
    const std::uint64_t limit = n * divisor.quotient;
    std::uint64_t v = 0;
    do {
      v = (*this)();
    } while (v >= limit);
    return std::rotr(v * divisor.inverse, std::countr_zero(n)) <=
           divisor.quotient;
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

  /// Samples up to k distinct elements from v (order not preserved in the
  /// sense of v; result order is random).
  template <typename T>
  std::vector<T> sample(const std::vector<T>& v, std::size_t k) {
    std::vector<T> pool = v;
    if (k >= pool.size()) {
      shuffle(pool);
      return pool;
    }
    std::vector<T> out;
    out.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = i + index(pool.size() - i);
      std::swap(pool[i], pool[j]);
      out.push_back(pool[i]);
    }
    return out;
  }

 private:
  /// Uniform integer in [0, range), range > 0. Draws at or above
  /// limit = max() - max() % range are redrawn, which removes the modulo
  /// bias. The limit exceeds max() - range, so only a draw past that needs
  /// it computed; the values and the stream are those of testing every draw.
  BC_NO_SANITIZE_INTEGER std::uint64_t below(std::uint64_t range) {
    std::uint64_t v = (*this)();
    if (v > max() - range) {
      const std::uint64_t limit = max() - max() % range;
      while (v >= limit) v = (*this)();
    }
    return v % range;
  }

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
};

}  // namespace bc
