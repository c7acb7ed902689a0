// bc-analyze fixture: tests may iterate hash containers (D1 covers src/,
// bench/ and examples/), and this declaration must not reach D1's
// cross-file name tables (see src/d1_scope.cpp).
#include <unordered_set>

std::unordered_set<int> values;

int sum() {
  int s = 0;
  for (int v : values) s += v;
  return s;
}
