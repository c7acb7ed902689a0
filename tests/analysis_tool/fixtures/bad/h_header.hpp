// bc-analyze fixture: a header without #pragma once (rule H3, reported at
// line 1), project headers included with angle brackets or a relative path
// (rule H4), and a using-namespace directive (rule H5).
// Expected findings are hard-coded in tests/analysis_tool/test_bc_analyze.py;
// keep line numbers stable when editing.
#include <util/ids.hpp>             // line 6: H4
#include "../graph/flow_graph.hpp"  // line 7: H4

using namespace std;  // line 9: H5
