// bc-analyze fixture: a raw assert() (rule H1), and BC_ASSERT used without
// this file's own include of "util/assert.hpp" (rule H2, reported at line 1).
// Expected findings are hard-coded in tests/analysis_tool/test_bc_analyze.py;
// keep line numbers stable when editing.
#include <cassert>

void check_positive(int x) {
  assert(x > 0);     // line 8: H1
  BC_ASSERT(x < 9);  // relies on a transitive include of util/assert.hpp
}
