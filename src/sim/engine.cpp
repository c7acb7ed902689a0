#include "sim/engine.hpp"

#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace_writer.hpp"
#include "util/assert.hpp"

namespace bc::sim {

void Engine::push(Seconds t, EventFn fn, Seconds period) {
  BC_ASSERT_MSG(t >= now_, "cannot schedule events in the past");
  BC_ASSERT(fn != nullptr);
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{std::move(fn), period});
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = Slot{std::move(fn), period};
  }
  queue_.push(Event{t, next_id_++, slot});
}

void Engine::schedule_at(Seconds t, EventFn fn) {
  push(t, std::move(fn), 0.0);
}

void Engine::schedule_after(Seconds dt, EventFn fn) {
  BC_ASSERT(dt >= 0.0);
  push(now_ + dt, std::move(fn), 0.0);
}

void Engine::schedule_periodic(Seconds start, Seconds period, EventFn fn) {
  BC_ASSERT(period > 0.0);
  push(start, std::move(fn), period);
}

bool Engine::step() {
  if (queue_.empty()) return false;
  const Event ev = queue_.top();
  queue_.pop();
  BC_ASSERT(ev.time >= now_);
  now_ = ev.time;
  ++processed_;
  BC_OBS_SCOPE("sim.dispatch");
  static obs::Counter& dispatched =
      obs::Registry::instance().counter("sim.events_dispatched");
  dispatched.inc();
  Slot& slot = slots_[ev.slot];
  const Seconds period = slot.period;
  if (tracer_ != nullptr) {
    tracer_->instant(period > 0.0 ? "periodic" : "event", "engine", now_,
                     {{"id", std::to_string(ev.id)}});
  }
  EventFn fn = std::move(slot.fn);
  if (period > 0.0) {
    // Re-armed under its first id before it runs; the callback goes back
    // to its slot afterwards.
    queue_.push(Event{now_ + period, ev.id, ev.slot});
    fn();
    slots_[ev.slot].fn = std::move(fn);
  } else {
    free_slots_.push_back(ev.slot);
    fn();
  }
  return true;
}

void Engine::run_until(Seconds t_end) {
  BC_ASSERT(t_end >= now_);
  while (!queue_.empty() && queue_.top().time <= t_end) step();
  now_ = t_end;
}

std::optional<Seconds> Engine::next_event_time() const {
  if (queue_.empty()) return std::nullopt;
  return queue_.top().time;
}

}  // namespace bc::sim
