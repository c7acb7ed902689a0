// check_conventions fixture: no directory under src/ is exempt from the
// raw-primitive rule (C1) any more, so a raw thread here is reported.
#include <thread>

void spawn() { std::thread([] {}).join(); }  // line 5: C1
