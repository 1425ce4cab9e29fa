// Tests for the discrete-event engine: clock semantics, determinism,
// spawn/join, failure propagation.
#include "simkit/engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "simkit/task.hpp"

namespace simkit {
namespace {

Task<void> record_at(Engine& eng, Duration dt, std::vector<double>& out,
                     double tag) {
  co_await eng.delay(dt);
  out.push_back(tag);
  out.push_back(eng.now());
}

TEST(Engine, StartsAtTimeZero) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0.0);
  EXPECT_TRUE(eng.idle());
}

TEST(Engine, DelayAdvancesClock) {
  Engine eng;
  std::vector<double> log;
  eng.spawn(record_at(eng, 2.5, log, 1.0));
  eng.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], 1.0);
  EXPECT_DOUBLE_EQ(log[1], 2.5);
}

TEST(Engine, EventsRunInTimeOrder) {
  Engine eng;
  std::vector<double> log;
  eng.spawn(record_at(eng, 3.0, log, 3.0));
  eng.spawn(record_at(eng, 1.0, log, 1.0));
  eng.spawn(record_at(eng, 2.0, log, 2.0));
  eng.run();
  ASSERT_EQ(log.size(), 6u);
  EXPECT_EQ(log[0], 1.0);
  EXPECT_EQ(log[2], 2.0);
  EXPECT_EQ(log[4], 3.0);
}

TEST(Engine, SimultaneousEventsRunInScheduleOrder) {
  Engine eng;
  std::vector<double> log;
  for (int i = 0; i < 8; ++i) {
    eng.spawn(record_at(eng, 1.0, log, static_cast<double>(i)));
  }
  eng.run();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(log[static_cast<std::size_t>(2 * i)], static_cast<double>(i));
  }
}

TEST(Engine, SequentialDelaysAccumulate) {
  Engine eng;
  double finish = -1.0;
  eng.spawn([](Engine& e, double& out) -> Task<void> {
    co_await e.delay(1.0);
    co_await e.delay(2.0);
    co_await e.delay(3.0);
    out = e.now();
  }(eng, finish));
  eng.run();
  EXPECT_DOUBLE_EQ(finish, 6.0);
}

TEST(Engine, JoinWaitsForCompletion) {
  Engine eng;
  std::vector<double> order;
  auto child = eng.spawn(record_at(eng, 5.0, order, 100.0), "child");
  eng.spawn([](Engine& e, ProcHandle h,
               std::vector<double>& out) -> Task<void> {
    co_await h.join();
    out.push_back(e.now());
  }(eng, child, order));
  eng.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 100.0);
  EXPECT_DOUBLE_EQ(order[2], 5.0);  // joiner resumed at child finish time
  EXPECT_TRUE(child.done());
  EXPECT_DOUBLE_EQ(child.finish_time(), 5.0);
}

TEST(Engine, JoinOnAlreadyFinishedProcessIsImmediate) {
  Engine eng;
  std::vector<double> log;
  auto child = eng.spawn(record_at(eng, 1.0, log, 0.0));
  double join_time = -1.0;
  eng.spawn([](Engine& e, ProcHandle h, double& out) -> Task<void> {
    co_await e.delay(10.0);
    co_await h.join();
    out = e.now();
  }(eng, child, join_time));
  eng.run();
  EXPECT_DOUBLE_EQ(join_time, 10.0);
}

TEST(Engine, UnjoinedFailureSurfacesFromRun) {
  Engine eng;
  eng.spawn([](Engine& e) -> Task<void> {
    co_await e.delay(1.0);
    throw std::runtime_error("boom");
  }(eng), "bomber");
  EXPECT_THROW(eng.run(), UnhandledProcessError);
}

TEST(Engine, UnjoinedFailureSurfacesFromRunWhile) {
  // A condition-driven loop (the platform and restart drivers) must not
  // drop a failure the way a bare step() loop does.
  Engine eng;
  bool finished = false;
  eng.spawn([](Engine& e) -> Task<void> {
    co_await e.delay(1.0);
    throw std::runtime_error("boom");
  }(eng), "bomber");
  eng.spawn([](Engine& e, bool& f) -> Task<void> {
    co_await e.delay(2.0);
    f = true;
  }(eng, finished));
  try {
    eng.run_while([&] { return !finished; });
    FAIL() << "run_while dropped the failure";
  } catch (const UnhandledProcessError& err) {
    EXPECT_EQ(err.process_name(), "bomber");
  }
  EXPECT_TRUE(finished);
  EXPECT_DOUBLE_EQ(eng.now(), 2.0);
}

TEST(Engine, RunWhileStopsAtTheCondition) {
  Engine eng;
  std::vector<double> log;
  eng.spawn(record_at(eng, 1.0, log, 1.0));
  eng.spawn(record_at(eng, 10.0, log, 10.0));
  eng.run_while([&] { return log.empty(); });  // no failure: no throw
  EXPECT_EQ(log, (std::vector<double>{1.0, 1.0}));  // tag, time
  EXPECT_DOUBLE_EQ(eng.now(), 1.0);
  EXPECT_FALSE(eng.idle());
  eng.run();  // drain the pending event so its frame is freed
}

TEST(Engine, JoinedFailureRethrowsInJoiner) {
  Engine eng;
  auto bad = eng.spawn([](Engine& e) -> Task<void> {
    co_await e.delay(1.0);
    throw std::runtime_error("boom");
  }(eng), "bomber");
  bool caught = false;
  eng.spawn([](Engine&, ProcHandle h, bool& c) -> Task<void> {
    try {
      co_await h.join();
    } catch (const std::runtime_error&) {
      c = true;
    }
  }(eng, bad, caught));
  eng.run();  // must not throw: the failure was consumed by the joiner
  EXPECT_TRUE(caught);
  EXPECT_TRUE(bad.failed());
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine eng;
  std::vector<double> log;
  eng.spawn(record_at(eng, 1.0, log, 1.0));
  eng.spawn(record_at(eng, 10.0, log, 10.0));
  const bool drained = eng.run_until(5.0);
  EXPECT_FALSE(drained);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_DOUBLE_EQ(eng.now(), 5.0);
  eng.run();
  EXPECT_EQ(log.size(), 4u);
  EXPECT_DOUBLE_EQ(eng.now(), 10.0);
}

TEST(Engine, ScheduleInThePastClampsOrAsserts) {
  // A past-time schedule is a caller bug (it reorders against
  // same-instant events): debug builds assert, release builds clamp to
  // now and count the clamp so benchmarks can prove they hit zero.
  auto run_past = [] {
    Engine eng;
    double observed = -1.0;
    eng.spawn([](Engine& e, double& out) -> Task<void> {
      co_await e.delay(4.0);
      co_await e.delay(-3.0);  // negative delay must not rewind the clock
      out = e.now();
    }(eng, observed));
    eng.run();
    return std::pair<double, std::uint64_t>{observed,
                                            eng.clamped_schedules()};
  };
#ifdef NDEBUG
  const auto [observed, clamped] = run_past();
  EXPECT_DOUBLE_EQ(observed, 4.0);
  EXPECT_EQ(clamped, 1u);
#else
  EXPECT_DEATH(run_past(), "past-time schedule");
#endif
}

TEST(Engine, DefaultConstructedHandleHasEmptyName) {
  // Regression: name() used to dereference a null state pointer.
  ProcHandle h;
  EXPECT_EQ(h.name(), "");
  EXPECT_FALSE(h.done());
  ProcHandle copy = h;  // copying a null handle must also be safe
  EXPECT_EQ(copy.name(), "");
}

TEST(Engine, SpawnedHandleReportsName) {
  Engine eng;
  ProcHandle h = eng.spawn([](Engine& e) -> Task<void> {
    co_await e.delay(1.0);
  }(eng), "worker.7");
  EXPECT_EQ(h.name(), "worker.7");
  eng.run();
  EXPECT_EQ(h.name(), "worker.7");  // survives process completion
}

TEST(Engine, CountsProcessedEvents) {
  Engine eng;
  std::vector<double> log;
  eng.spawn(record_at(eng, 1.0, log, 0.0));
  eng.run();
  EXPECT_GE(eng.events_processed(), 2u);  // spawn start + delay resume
}

TEST(Engine, ManyProcessesStressDeterminism) {
  auto run_once = [] {
    Engine eng;
    std::vector<double> log;
    for (int i = 0; i < 500; ++i) {
      eng.spawn(record_at(eng, (i * 7 % 13) * 0.1, log,
                          static_cast<double>(i)));
    }
    eng.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace simkit
