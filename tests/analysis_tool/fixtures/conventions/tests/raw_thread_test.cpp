// bc-analyze fixture: tests/ is outside the raw-primitive scope, so
// a test may start a raw thread to provoke a race check.
#include <thread>

void race() { std::thread([] {}).join(); }
