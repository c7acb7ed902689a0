// L3 counter-fixture: value captures are safe in a stored engine callback,
// and a by-reference capture is fine for a callback that runs before the
// call returns.
#include <functional>

namespace sim {

class Engine {
 public:
  void schedule_after(double delay, std::function<void()> fn);
};

void arm_by_value(Engine& engine, long sent) {
  engine.schedule_after(1.0, [sent] { (void)sent; });
}

long run_now(long sent) {
  auto bump = [&sent] { ++sent; };
  bump();
  return sent;
}

}  // namespace sim
