// bc-analyze fixture: comments may precede #pragma once (rule H3).
#pragma once

#include "util/ids.hpp"
