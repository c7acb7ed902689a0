// bc-analyze fixture: deterministic code that must produce zero findings.
#include <cstdint>
#include <map>

using Bytes = std::int64_t;

std::map<int, Bytes> ledger;  // ordered: iteration is deterministic

Bytes total() {
  Bytes s = 0;
  for (const auto& [peer, amount] : ledger) s += amount;
  return s;
}
