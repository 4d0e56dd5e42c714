// The pre-calendar event queue: a std::priority_queue over (time, seq) with
// std::function callbacks keyed by event id. Superseded as the simulation
// driver by the calendar implementation in src/sim/event_queue.h, and kept —
// with its ordering semantics untouched — as the reference the determinism
// suite in event_queue_test.cc replays randomized schedule/cancel
// interleavings against, demanding bit-equal run order, fire times, and
// pending() counts.
//
// Do not "fix" or optimise this class; its value is being the old behavior.

#ifndef SSMC_TESTS_LEGACY_EVENT_QUEUE_H_
#define SSMC_TESTS_LEGACY_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/sim/clock.h"
#include "src/support/units.h"

namespace ssmc {

class LegacyEventQueue {
 public:
  using Callback = std::function<void()>;
  using EventId = uint64_t;

  explicit LegacyEventQueue(SimClock& clock) : clock_(clock) {}

  EventId ScheduleAt(SimTime at, Callback fn);
  EventId ScheduleAfter(Duration delay, Callback fn) {
    return ScheduleAt(clock_.now() + delay, std::move(fn));
  }

  bool Cancel(EventId id);

  void RunUntil(SimTime t);
  void RunAll();

  size_t pending() const { return heap_.size() - cancelled_.size(); }
  bool empty() const { return pending() == 0; }

  SimClock& clock() { return clock_; }

 private:
  struct Event {
    SimTime at;
    uint64_t seq;
    EventId id;
    // Ordering for a min-heap via std::greater.
    bool operator>(const Event& other) const {
      if (at != other.at) {
        return at > other.at;
      }
      return seq > other.seq;
    }
  };

  // Pops and runs the top event if it is due at or before `t`. Returns false
  // when nothing more is due.
  bool RunOneDue(SimTime t);

  SimClock& clock_;
  uint64_t next_seq_ = 0;
  uint64_t next_id_ = 1;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap_;
  // Callbacks keyed by event id; erased on run or cancel. A cancelled id stays
  // in the heap until popped, tracked in `cancelled_` for size accounting.
  std::vector<std::pair<EventId, Callback>> callbacks_;
  std::vector<EventId> cancelled_;

  Callback TakeCallback(EventId id);
};

}  // namespace ssmc

#endif  // SSMC_TESTS_LEGACY_EVENT_QUEUE_H_
