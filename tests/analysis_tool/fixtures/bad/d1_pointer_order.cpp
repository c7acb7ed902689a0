// bc-analyze fixture: orders and hashes over pointer values (rule D1):
// addresses differ between runs and machines.
// Expected findings are hard-coded in tests/analysis_tool/test_bc_analyze.py;
// keep line numbers stable when editing.
#include <cstdint>
#include <functional>
#include <set>

std::set<const int*, std::less<const int*>> by_address;  // line 9

std::size_t bucket_of(const int* p) {
  return std::hash<const int*>{}(p) % 16u;  // line 12
}

std::uintptr_t address_key(const int* p) {
  return reinterpret_cast<std::uintptr_t>(p);  // line 16
}
