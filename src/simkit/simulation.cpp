#include "simkit/simulation.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace moon::sim {
namespace {
// Below this heap size tombstones are too cheap to be worth compacting.
constexpr std::size_t kCompactMin = 64;
}  // namespace

Simulation::Simulation(std::uint64_t seed) : rng_(seed) {}

EventId Simulation::schedule_at(Time t, Callback cb) {
  if (t < now_) throw std::logic_error("Simulation: scheduling into the past");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slots_.size() >= kSlotMask) {
      throw std::logic_error("Simulation: event slab exhausted");
    }
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.engaged = true;
  s.cb = std::move(cb);
  const EventId id = make_id(slot, s.gen);
  queue_.push_back(Entry{t, seq_++, id});
  std::push_heap(queue_.begin(), queue_.end(), std::greater<>{});
  ++live_events_;
  return id;
}

EventId Simulation::schedule_after(Duration delay, Callback cb) {
  if (delay < 0) throw std::logic_error("Simulation: negative delay");
  return schedule_at(now_ + delay, std::move(cb));
}

void Simulation::retire_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb.reset();
  s.engaged = false;
  ++s.gen;  // stale ids (tombstones, cancel-after-fire) can never match again
  free_slots_.push_back(slot);
  --live_events_;
}

void Simulation::cancel(EventId id) {
  if (!live(id)) return;
  retire_slot(slot_of(id));
  // The heap entry stays behind as a tombstone. When tombstones outnumber
  // live events, rebuild the heap from the live set so pop cost tracks what
  // is actually pending, not historical cancellation churn (heavy under the
  // flow network's cancel-and-rearm completion event).
  if (queue_.size() >= kCompactMin && queue_.size() > 2 * live_events_) {
    compact();
  }
}

void Simulation::compact() {
  std::erase_if(queue_, [this](const Entry& e) { return !live(e.id); });
  std::make_heap(queue_.begin(), queue_.end(), std::greater<>{});
}

void Simulation::pop_top() {
  std::pop_heap(queue_.begin(), queue_.end(), std::greater<>{});
  queue_.pop_back();
}

bool Simulation::is_pending(EventId id) const { return live(id); }

bool Simulation::step() {
  for (;;) {
    while (!queue_.empty() && !live(queue_.front().id)) {
      pop_top();  // tombstone from cancel()
    }
    if (queue_.empty()) {
      // Deferred end-of-timestamp work may produce further events at now().
      if (armed_hooks_ > 0) {
        run_flushes();
        continue;
      }
      return false;
    }
    const Entry top = queue_.front();
    if (top.time > now_ && armed_hooks_ > 0) {
      // The clock is about to advance: flush deferred work at the current
      // timestamp first (it may enqueue events at now(), handled next loop).
      run_flushes();
      continue;
    }
    pop_top();
    assert(top.time >= now_);
    now_ = top.time;
    // Move the callback out before invoking: it may schedule/cancel events
    // (including reusing this very slot), and must not observe itself as
    // still pending. The moved-out closure dies before step() returns, so
    // captures are destroyed before the next event runs.
    Callback cb = std::move(slots_[slot_of(top.id)].cb);
    retire_slot(slot_of(top.id));
    ++executed_;
    {
      Profiler::Scope profile(profiler_, Profiler::Key::kEventDispatch);
      cb();
    }
    return true;
  }
}

void Simulation::run_until(Time t) {
  for (;;) {
    while (!queue_.empty() && !live(queue_.front().id)) {
      pop_top();
    }
    if (queue_.empty() || queue_.front().time > t) {
      // Flush at the current timestamp before stopping; hooks may enqueue
      // events at <= t (e.g. a due flow completion), handled next loop.
      if (armed_hooks_ > 0) {
        run_flushes();
        continue;
      }
      break;
    }
    if (queue_.front().time > now_ && armed_hooks_ > 0) {
      // Flush here rather than in step(): a hook may cancel the front event
      // and re-arm it past `t`, so the horizon must be rechecked after it.
      run_flushes();
      continue;
    }
    step();
  }
  if (now_ < t) now_ = t;
}

void Simulation::run() {
  while (step()) {
  }
}

// ---- flush hooks -----------------------------------------------------------

Simulation::FlushHookId Simulation::add_flush_hook(FlushHook hook) {
  // Reuse a dead entry if any (components come and go in tests); otherwise
  // append. Hook order == registration order, which is deterministic.
  for (std::size_t i = 0; i < hooks_.size(); ++i) {
    if (!hooks_[i].alive) {
      hooks_[i] = Hook{std::move(hook), false, true};
      return i;
    }
  }
  hooks_.push_back(Hook{std::move(hook), false, true});
  return hooks_.size() - 1;
}

void Simulation::remove_flush_hook(FlushHookId id) {
  if (id >= hooks_.size() || !hooks_[id].alive) return;
  if (hooks_[id].armed) --armed_hooks_;
  hooks_[id] = Hook{};
}

void Simulation::arm_flush(FlushHookId id) {
  if (id >= hooks_.size() || !hooks_[id].alive) {
    throw std::logic_error("Simulation: arming unknown flush hook");
  }
  if (hooks_[id].armed) return;
  hooks_[id].armed = true;
  ++armed_hooks_;
}

void Simulation::run_flushes() {
  // One pass in registration order. A hook arming an earlier hook (or
  // itself) is caught by the callers' re-check loops, not by restarting the
  // pass — bounded work per call.
  for (std::size_t i = 0; i < hooks_.size() && armed_hooks_ > 0; ++i) {
    if (!hooks_[i].armed) continue;
    hooks_[i].armed = false;
    --armed_hooks_;
    // Run from a moved-out copy: the hook body may register or remove hooks
    // (vector reallocation / slot reuse), which must not relocate or
    // overwrite the closure mid-call.
    FlushHook fn = std::move(hooks_[i].fn);
    fn();
    if (i < hooks_.size() && hooks_[i].alive && !hooks_[i].fn) {
      // Still registered and the slot was not reused: restore the closure.
      hooks_[i].fn = std::move(fn);
    }
  }
}

}  // namespace moon::sim
