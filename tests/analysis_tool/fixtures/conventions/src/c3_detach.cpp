// check_conventions fixture: detached execution (rule detached-execution,
// C3). Line 7 also carries a raw-primitive finding for the std::thread.
#include <future>
#include <thread>

void fire_and_forget() {
  std::thread([] {}).detach();            // line 7: C1 + C3
  auto f = std::async([] { return 1; });  // line 8: C3
}
