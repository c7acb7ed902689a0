// L3 fixture: a lambda handed to an Engine::schedule_* call is stored and
// runs after the scheduling frame is gone, so it must not capture by
// reference. Expected findings are hard-coded in
// tests/analysis_tool/test_bc_analyze.py; keep line numbers stable.
#include <functional>

namespace sim {

class Engine {
 public:
  void schedule_after(double delay, std::function<void()> fn);
};

void arm_counters(Engine& engine) {
  long sent = 0;
  engine.schedule_after(1.0, [&] { ++sent; });               // line 16: L3
  engine.schedule_after(2.0, [n = 2, &sent] { sent += n; });  // line 17: L3
}

}  // namespace sim
