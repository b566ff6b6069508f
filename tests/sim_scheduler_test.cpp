#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace elephant::sim {
namespace {

TEST(Scheduler, StartsAtZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), Time::zero());
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(Time::milliseconds(30), [&] { order.push_back(3); });
  s.schedule_at(Time::milliseconds(10), [&] { order.push_back(1); });
  s.schedule_at(Time::milliseconds(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), Time::milliseconds(30));
}

TEST(Scheduler, SameTimeFifoOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(Time::milliseconds(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, ScheduleInIsRelative) {
  Scheduler s;
  Time fired = Time::zero();
  s.schedule_at(Time::milliseconds(10), [&] {
    s.schedule_in(Time::milliseconds(5), [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired, Time::milliseconds(15));
}

TEST(Scheduler, EventsMayScheduleMoreEvents) {
  Scheduler s;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) s.schedule_in(Time::microseconds(1), chain);
  };
  s.schedule_in(Time::microseconds(1), chain);
  s.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(s.now(), Time::microseconds(100));
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(Time::seconds(1), [&] { ++fired; });
  s.schedule_at(Time::seconds(3), [&] { ++fired; });
  s.run_until(Time::seconds(2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), Time::seconds(2));
  EXPECT_EQ(s.pending_events(), 1u);
}

TEST(Scheduler, RunUntilAdvancesToDeadlineWhenIdle) {
  Scheduler s;
  s.run_until(Time::seconds(5));
  EXPECT_EQ(s.now(), Time::seconds(5));
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  const EventId id = s.schedule_at(Time::milliseconds(1), [&] { fired = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelInvalidIdIsNoop) {
  Scheduler s;
  s.cancel(EventId{});
  s.cancel(EventId{999});
  bool fired = false;
  s.schedule_at(Time::milliseconds(1), [&] { fired = true; });
  s.run();
  EXPECT_TRUE(fired);
}

TEST(Scheduler, CancelOneOfManyAtSameInstant) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(Time::milliseconds(1), [&] { ++fired; });
  const EventId id = s.schedule_at(Time::milliseconds(1), [&] { fired += 100; });
  s.schedule_at(Time::milliseconds(1), [&] { ++fired; });
  s.cancel(id);
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, ExecutedEventsCounter) {
  Scheduler s;
  for (int i = 0; i < 5; ++i) s.schedule_in(Time::milliseconds(i + 1), [] {});
  s.run();
  EXPECT_EQ(s.executed_events(), 5u);
}

TEST(Scheduler, ClearDropsPending) {
  Scheduler s;
  bool fired = false;
  s.schedule_at(Time::milliseconds(1), [&] { fired = true; });
  s.clear();
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Scheduler, PendingCountExcludesCancelled) {
  Scheduler s;
  const EventId id = s.schedule_at(Time::milliseconds(1), [] {});
  s.schedule_at(Time::milliseconds(2), [] {});
  EXPECT_EQ(s.pending_events(), 2u);
  s.cancel(id);
  EXPECT_EQ(s.pending_events(), 1u);
}

// Regression: cancelling an id whose event already executed must be a no-op.
// The seed code inserted every cancelled id into the tombstone set without
// checking liveness, so stale cancels accumulated forever and made
// pending_events() (queue size minus tombstones, in size_t) wrap to huge
// values once tombstones outnumbered queued events.
TEST(Scheduler, CancelAfterExecutionDoesNotCorruptPendingCount) {
  Scheduler s;
  const EventId a = s.schedule_at(Time::milliseconds(1), [] {});
  const EventId b = s.schedule_at(Time::milliseconds(2), [] {});
  s.run();

  s.cancel(a);  // dead ids: both events already ran
  s.cancel(b);

  s.schedule_at(Time::milliseconds(3), [] {});
  EXPECT_EQ(s.pending_events(), 1u);  // seed: 1 - 2 wraps to SIZE_MAX
}

TEST(Scheduler, RepeatedStaleCancelsDoNotAccumulate) {
  Scheduler s;
  for (int round = 0; round < 50; ++round) {
    const EventId id = s.schedule_in(Time::microseconds(1), [] {});
    s.run();
    s.cancel(id);  // always after execution: must never leak a tombstone
    s.cancel(id);  // double-cancel of the same dead id, for good measure
  }
  EXPECT_EQ(s.pending_events(), 0u);
  s.schedule_in(Time::microseconds(1), [] {});
  EXPECT_EQ(s.pending_events(), 1u);
}

TEST(Scheduler, PendingReflectsEventLifecycle) {
  Scheduler s;
  const EventId id = s.schedule_at(Time::milliseconds(5), [] {});
  EXPECT_TRUE(s.pending(id));
  s.run();
  EXPECT_FALSE(s.pending(id));

  // A cancelled event stops being pending immediately.
  const EventId id2 = s.schedule_at(Time::milliseconds(10), [] {});
  s.cancel(id2);
  EXPECT_FALSE(s.pending(id2));

  // Ids that were never issued are not pending (and cancelling them is a
  // no-op even though their slots may be issued later).
  EXPECT_FALSE(s.pending(EventId{9999}));
  EXPECT_FALSE(s.pending(EventId{}));
}

TEST(Scheduler, PendingDistinguishesSameInstantEvents) {
  Scheduler s;
  // Three events at the same instant; the middle one checks liveness of
  // its neighbours mid-instant, exercising the seq watermark tie-break.
  EventId first{}, last{};
  bool first_pending_mid = true, last_pending_mid = false;
  first = s.schedule_at(Time::milliseconds(1), [] {});
  s.schedule_at(Time::milliseconds(1), [&] {
    first_pending_mid = s.pending(first);
    last_pending_mid = s.pending(last);
  });
  last = s.schedule_at(Time::milliseconds(1), [] {});
  s.run();
  EXPECT_FALSE(first_pending_mid);  // already executed at the same instant
  EXPECT_TRUE(last_pending_mid);    // not yet executed at the same instant
}

TEST(Scheduler, CancelledEventPurgeAdvancesWatermark) {
  Scheduler s;
  // A cancelled event at t=1 is purged (never executed). Ids from that
  // instant must still read as dead afterwards, and cancelling them again
  // must not leak tombstones.
  const EventId a = s.schedule_at(Time::milliseconds(1), [] {});
  s.schedule_at(Time::milliseconds(2), [] {});
  s.cancel(a);
  s.run();
  EXPECT_FALSE(s.pending(a));
  s.cancel(a);
  s.schedule_at(Time::milliseconds(3), [] {});
  EXPECT_EQ(s.pending_events(), 1u);
}

TEST(Scheduler, ClearInvalidatesOldIds) {
  Scheduler s;
  const EventId id = s.schedule_at(Time::milliseconds(1), [] {});
  s.clear();
  EXPECT_FALSE(s.pending(id));
  // Cancelling a pre-clear id must neither touch post-clear events nor leak
  // a tombstone (the epoch tag marks it dead outright).
  bool fired = false;
  s.schedule_at(Time::milliseconds(1), [&] { fired = true; });
  s.cancel(id);
  s.run();
  EXPECT_TRUE(fired);
}

// --- same-instant ordering contract ----------------------------------------
//
// The (at, seq) FIFO tie-break is an explicit API contract (see the class
// comment in sim/scheduler.hpp), not an implementation accident: components
// rely on it for deterministic same-tick behavior (delayed-ACK vs data
// timers, delay-line ranks), the model checker enumerates tie sets in seq
// order, and debug builds assert it per fired event. These tests pin it for
// every arming path.

TEST(Scheduler, SameTickTimersFireInArmOrder) {
  Scheduler s;
  std::vector<int> order;
  Scheduler::TimerHandle a, b, c;
  a.init(s, [&] { order.push_back(0); });
  b.init(s, [&] { order.push_back(1); });
  c.init(s, [&] { order.push_back(2); });
  // Armed for the same tick in the order a, b, c — created order must not
  // matter, armed order must.
  const Time tick = Time::milliseconds(7);
  a.rearm(tick);
  b.rearm(tick);
  c.rearm(tick);
  s.run_until(tick);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Scheduler, RearmMovesTimerToBackOfItsInstant) {
  Scheduler s;
  std::vector<int> order;
  Scheduler::TimerHandle a, b;
  a.init(s, [&] { order.push_back(0); });
  b.init(s, [&] { order.push_back(1); });
  const Time tick = Time::milliseconds(7);
  a.rearm(tick);
  b.rearm(tick);
  // Re-arming a for the same tick redraws its FIFO rank: it now fires after
  // b, exactly as cancel + re-schedule would have ordered it.
  a.rearm(tick);
  s.run_until(tick);
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(Scheduler, SameTickOneShotsAndTimersInterleaveInArmOrder) {
  Scheduler s;
  std::vector<int> order;
  Scheduler::TimerHandle t1, t2;
  t1.init(s, [&] { order.push_back(1); });
  t2.init(s, [&] { order.push_back(3); });
  const Time tick = Time::milliseconds(2);
  s.schedule_at(tick, [&] { order.push_back(0); });
  t1.rearm(tick);
  s.schedule_at(tick, [&] { order.push_back(2); });
  t2.rearm(tick);
  s.run_until(tick);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Scheduler, LazyRearmDoesNotFireAtTheOldInstant) {
  Scheduler s;
  std::vector<int> order;
  Scheduler::TimerHandle t;
  t.init(s, [&] { order.push_back(1); });
  t.rearm(Time::milliseconds(5));
  // Pushing the deadline out leaves a stale heap entry behind (lazy re-key);
  // the old instant must fire only the one-shot, the new instant the timer.
  t.rearm(Time::milliseconds(9));
  s.schedule_at(Time::milliseconds(5), [&] { order.push_back(0); });
  s.run_until(Time::milliseconds(5));
  EXPECT_EQ(order, (std::vector<int>{0}));
  s.run_until(Time::milliseconds(9));
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

// --- timer callbacks run in place -----------------------------------------
//
// A timer's callback executes from its slot's callback storage, which never
// moves. The captures below hold heap-allocated strings, so ASan reports any
// callback that is destroyed or relocated while it still runs.

/// Slot index encoded in an EventId (see EventId's layout comment).
std::uint64_t slot_of(EventId id) { return (id.value & 0xffffffffull) - 1; }

TEST(Scheduler, TimerDestroyedFromItsOwnCallbackIsReleasedAfterItReturns) {
  Scheduler s;
  auto timer = std::make_unique<Scheduler::TimerHandle>();
  EventId during;
  std::string seen;
  timer->init(s, [&, tag = std::string(48, 'x')] {
    timer.reset();  // destroys the handle whose callback is running
    during = s.schedule_in(Time::milliseconds(1), [] {});
    seen = tag;  // the capture is still alive
  });
  timer->rearm(Time::milliseconds(1));
  s.run_until(Time::milliseconds(1));
  EXPECT_EQ(timer, nullptr);
  EXPECT_EQ(seen, std::string(48, 'x'));
  // The running timer's slot 0 was not handed out from inside the callback...
  EXPECT_EQ(slot_of(during), 1u);
  // ...but was released once the callback returned.
  const EventId after = s.schedule_in(Time::milliseconds(1), [] {});
  EXPECT_EQ(slot_of(after), 0u);
  EXPECT_EQ(s.pending_events(), 2u);
  s.run();
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Scheduler, TimerCallbackMayGrowSlotStorageWhileItRuns) {
  Scheduler s;
  struct State {
    Scheduler& s;
    Scheduler::TimerHandle timer;
    int fires = 0;
    int shots = 0;
    std::string seen;
  } st{s};
  // One pointer plus a string: the capture sits in the callback's inline
  // buffer, so a callback storage that moved would move the running lambda.
  st.timer.init(s, [&st, tag = std::string(48, 'y')] {
    if (++st.fires == 1) {
      // Far more one-shots than one callback chunk holds: the slot array
      // reallocates and new callback chunks are added mid-callback.
      for (int i = 0; i < 1000; ++i) {
        st.s.schedule_in(Time::milliseconds(1), [&st] { ++st.shots; });
      }
      st.timer.rearm(st.s.now() + Time::milliseconds(2));
    }
    st.seen += tag;
  });
  st.timer.rearm(Time::milliseconds(1));
  s.run();
  EXPECT_EQ(st.fires, 2);
  EXPECT_EQ(st.shots, 1000);
  EXPECT_EQ(st.seen, std::string(96, 'y'));
  EXPECT_EQ(s.now(), Time::milliseconds(3));
  EXPECT_FALSE(st.timer.armed());
}

TEST(Scheduler, ImageRoundTripRestoresArmedIdleAndOneShotSlots) {
  Scheduler s;
  std::vector<int> order;
  Scheduler::TimerHandle armed;
  Scheduler::TimerHandle idle;
  armed.init(s, [&, tag = std::string(48, 'a')] { order.push_back(1); });
  idle.init(s, [&, tag = std::string(48, 'i')] { order.push_back(2); });
  armed.rearm(Time::milliseconds(3));
  s.schedule_at(Time::milliseconds(2), [&, tag = std::string(48, 'o')] { order.push_back(0); });
  const std::uint64_t hash = s.state_hash();
  const Scheduler::Image img = s.save_image();

  // Diverge: fire everything, arm the idle timer, and leave more one-shots
  // pending than one callback chunk holds.
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  idle.rearm(s.now() + Time::milliseconds(1));
  for (int i = 0; i < 300; ++i) s.schedule_in(Time::milliseconds(1), [&] { order.push_back(9); });

  for (int round = 0; round < 2; ++round) {  // one image, many restores
    s.restore_image(img);
    EXPECT_EQ(s.now(), Time::zero());
    EXPECT_EQ(s.state_hash(), hash);
    EXPECT_EQ(s.pending_events(), 2u);
    EXPECT_TRUE(armed.armed());
    EXPECT_EQ(armed.deadline(), Time::milliseconds(3));
    EXPECT_FALSE(idle.armed());
    order.clear();
    idle.rearm(Time::milliseconds(4));
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  }
}

}  // namespace
}  // namespace elephant::sim
