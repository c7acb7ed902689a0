// Discrete-event simulation engine.
//
// Single-threaded by design (see DESIGN.md): one Engine owns one simulated
// world. Every schedule_* call takes the next id, and events at equal
// timestamps run in id order (the order they were scheduled), which makes
// runs bit-identical for a given scenario seed. A periodic event keeps its
// first id for every firing. An engine's state is all its own: building
// one writes no process-global state. Given a tracer, it records one
// instant per dispatch (name "event" or "periodic", arg "id").
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "util/units.hpp"

namespace bc::obs {
class Tracer;
}  // namespace bc::obs

namespace bc::sim {

class Engine {
 public:
  using EventFn = std::function<void()>;

  /// `tracer`, when not null, records every dispatch; the engine does not
  /// own it.
  explicit Engine(obs::Tracer* tracer = nullptr) : tracer_(tracer) {}

  // Pinned in place: the overlay and scheduled callbacks refer to it.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  Engine(Engine&&) = delete;
  Engine& operator=(Engine&&) = delete;

  /// Current simulation time. Starts at 0.
  Seconds now() const { return now_; }

  /// Number of events executed so far.
  std::uint64_t events_processed() const { return processed_; }

  /// Schedules `fn` at absolute time `t` (>= now).
  void schedule_at(Seconds t, EventFn fn);

  /// Schedules `fn` after a delay `dt` (>= 0).
  void schedule_after(Seconds dt, EventFn fn);

  /// Schedules `fn` every `period` seconds (> 0), first firing at `start`
  /// (>= now), for as long as the run lasts. Each firing is re-armed
  /// before `fn` runs.
  void schedule_periodic(Seconds start, Seconds period, EventFn fn);

  /// Executes the next pending event, if any. Returns false when the queue
  /// has drained.
  bool step();

  /// Runs until the queue drains or simulation time would exceed `t_end`.
  /// Events scheduled exactly at `t_end` still run. Afterwards now()==t_end.
  void run_until(Seconds t_end);

  /// Timestamp of the earliest queued event, or nullopt when the queue is
  /// empty. Never earlier than now(): scheduling refuses events in the
  /// past, which the bc::check monotonicity audit re-verifies through this
  /// accessor.
  std::optional<Seconds> next_event_time() const;

 private:
  struct Event {
    Seconds time;
    std::uint64_t id;
    std::uint32_t slot;  // index into slots_
    // Ordering for the min-heap: earliest time first, then lowest id, so
    // same-time events run in the order they were scheduled.
    // </> instead of != keeps the exact-tie branch explicit.
    bool operator>(const Event& other) const {
      if (time > other.time) return true;
      if (time < other.time) return false;
      return id > other.id;
    }
  };

  /// A callback and, for a periodic event, its period (0 for one-shots).
  /// A one-shot's slot is freed for reuse when it runs; a periodic's is
  /// held for the whole run. A callback runs moved out of its slot, so the
  /// events it schedules may grow slots_ without moving it.
  struct Slot {
    EventFn fn;
    Seconds period = 0.0;
  };

  void push(Seconds t, EventFn fn, Seconds period);

  obs::Tracer* tracer_;
  std::uint64_t next_id_ = 1;
  Seconds now_ = 0.0;
  std::uint64_t processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace bc::sim
