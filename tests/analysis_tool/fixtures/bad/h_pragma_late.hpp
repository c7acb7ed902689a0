// bc-analyze fixture: #pragma once after other code (rule H3).
#include <vector>
#pragma once  // line 3: H3
