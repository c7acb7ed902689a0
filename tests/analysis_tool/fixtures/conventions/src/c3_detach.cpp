// bc-analyze fixture: detached and asynchronous execution, which the
// raw-primitive rule (C1) now covers too.
#include <future>
#include <thread>

void fire_and_forget() {
  std::thread([] {}).detach();            // line 7: C1 (thread, detach)
  auto f = std::async([] { return 1; });  // line 8: C1 (async)
}
