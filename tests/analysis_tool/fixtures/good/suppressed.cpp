// bc-analyze fixture: well-formed suppressions silence their target line.
#include <chrono>
#include <unordered_map>

std::unordered_map<int, int> table;

int total() {
  int s = 0;
  // bc-analyze: allow(D1) -- integer sum; addition is commutative, order never escapes
  for (const auto& [k, v] : table) s += v;
  return s;
}

auto display_time() {
  // bc-analyze: allow(D2) -- fixture: wall-clock display only, never in sim state
  return std::chrono::system_clock::now();
}
