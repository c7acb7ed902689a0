// bc-analyze fixture: near misses of the convention rules; none may fire.
#include "util/ids.hpp"  // quoted and rooted at src/ (H4)

// A macro body that mentions BC_ASSERT is not a use (H2).
#define BC_EXPECT_POSITIVE(x) BC_ASSERT((x) > 0)

static_assert(sizeof(long) >= 4, "ledger counters need 32 bits");  // not H1
