// Retry/backoff/fail-over recovery policy over the faulty file system.
#include "pario/resilient.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "hw/machine.hpp"
#include "pfs/fs.hpp"
#include "pfs/types.hpp"
#include "simkit/engine.hpp"

namespace pario {
namespace {

struct Rig {
  simkit::Engine eng;
  hw::Machine machine;
  pfs::StripedFs fs;
  explicit Rig(fault::Injector* injector = nullptr)
      : machine(eng, hw::MachineConfig::paragon_small(4, 2)),
        fs(machine, injector) {}
};

std::vector<std::byte> pattern(std::size_t n, int seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed * 131 + i * 7) & 0xFF);
  }
  return v;
}

// Transient errors + retries: the data still arrives intact, the retries
// show up in the stats, and the recovery costs strictly more simulated
// time than the fault-free run of the identical access sequence.
TEST(Resilient, TransientRetriesDeliverCorrectDataButCostTime) {
  const auto data = pattern(640 * 1024);  // 20 chunks: failures certain
  auto timed_read = [&data](fault::Injector* inj, RetryStats* stats,
                            std::vector<std::byte>* got) {
    Rig rig(inj);
    const pfs::FileId f = rig.fs.create("data", /*backed=*/true);
    rig.fs.poke(f, 0, data);
    rig.eng.spawn([](Rig& r, pfs::FileId f, RetryStats* stats,
                     std::vector<std::byte>* got) -> simkit::Task<void> {
      RetryPolicy policy;
      policy.max_attempts = 12;  // enough to outlast p=0.3 streaks
      for (std::uint64_t off = 0; off < got->size(); off += 32 * 1024) {
        const std::uint64_t len =
            std::min<std::uint64_t>(32 * 1024, got->size() - off);
        co_await resilient_pread(
            r.fs, r.machine.compute_node(0), f, off, len,
            std::span<std::byte>(*got).subspan(off, len), policy, stats);
      }
    }(rig, f, stats, got));
    rig.eng.run();
    return rig.eng.now();
  };

  std::vector<std::byte> clean_got(data.size());
  const simkit::Time clean = timed_read(nullptr, nullptr, &clean_got);
  EXPECT_EQ(clean_got, data);

  fault::InjectionPlan plan;
  plan.with_transient_errors(0.4);
  plan.seed = 99;
  fault::Injector inj(plan);
  RetryStats stats;
  std::vector<std::byte> faulty_got(data.size());
  const simkit::Time faulty = timed_read(&inj, &stats, &faulty_got);

  EXPECT_EQ(faulty_got, data) << "retried reads must deliver intact data";
  EXPECT_GT(stats.retries, 0u);
  EXPECT_EQ(stats.exhausted, 0u);
  EXPECT_GT(faulty, clean)
      << "recovery must cost simulated time (re-issues + backoff)";
}

// Node-down on the primary: the operation fails over to the replica file
// (different first server) and completes without exhausting the ladder.
TEST(Resilient, FailsOverToReplicaWhenPrimaryNodeIsDown) {
  fault::InjectionPlan plan;
  plan.crash_node(0, 0.0, 1e6);  // primary's server, down for the test
  fault::Injector inj(plan);
  Rig rig(&inj);
  // Sequential file ids land on different first servers (id % io_nodes);
  // both files fit one stripe, so each lives wholly on its first server.
  const pfs::FileId primary = rig.fs.create("state", true);    // node 0
  const pfs::FileId replica = rig.fs.create("state.m", true);  // node 1
  const auto data = pattern(4096, 5);
  rig.fs.poke(replica, 0, data);

  RetryStats stats;
  std::vector<std::byte> got(data.size());
  bool wrote = false;
  rig.eng.spawn([](Rig& r, pfs::FileId primary, pfs::FileId replica,
                   RetryStats& stats, std::span<std::byte> got,
                   bool& wrote) -> simkit::Task<void> {
    RetryPolicy policy;
    policy.max_attempts = 2;
    policy.replica = replica;
    co_await resilient_pread(r.fs, r.machine.compute_node(0), primary, 0,
                             got.size(), got, policy, &stats);
    // Writes mirror to the replica when the primary is unreachable.
    co_await resilient_pwrite(r.fs, r.machine.compute_node(0), primary,
                              8192, got.size(), got, policy, &stats);
    wrote = true;
  }(rig, primary, replica, stats, got, wrote));
  rig.eng.run();

  EXPECT_EQ(got, data) << "fail-over read must return the replica's bytes";
  EXPECT_TRUE(wrote);
  EXPECT_EQ(stats.failovers, 2u);
  EXPECT_EQ(stats.diverged_writes, 1u)
      << "the redirected write leaves the primary stale";
  EXPECT_EQ(stats.exhausted, 0u);
  std::vector<std::byte> mirrored(data.size());
  rig.fs.peek(replica, 8192, mirrored);
  EXPECT_EQ(mirrored, data);
}

// No replica and a dead node: the ladder runs dry and the typed error
// reaches the caller.
TEST(Resilient, ExhaustsAndRethrowsWithoutReplica) {
  fault::InjectionPlan plan;
  plan.crash_node(0, 0.0, 1e6);
  fault::Injector inj(plan);
  Rig rig(&inj);
  const pfs::FileId f = rig.fs.create("doomed");
  RetryStats stats;
  bool threw = false;
  rig.eng.spawn([](Rig& r, pfs::FileId f, RetryStats& stats,
                   bool& threw) -> simkit::Task<void> {
    RetryPolicy policy;
    policy.max_attempts = 3;
    try {
      co_await resilient_pwrite(r.fs, r.machine.compute_node(0), f, 0, 4096,
                                {}, policy, &stats);
    } catch (const pfs::IoError& e) {
      threw = true;
      EXPECT_EQ(e.kind(), pfs::IoErrorKind::kNodeDown);
    }
  }(rig, f, stats, threw));
  rig.eng.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.exhausted, 1u);
  EXPECT_GT(stats.backoff_time, 0.0);
}

// Nonsense policies are rejected synchronously at the call site — before
// any simulated time passes and regardless of whether the engine runs.
TEST(Resilient, PolicyValidationRejectsNonsense) {
  Rig rig;
  const pfs::FileId f = rig.fs.create("cfg");
  const hw::NodeId c = rig.machine.compute_node(0);

  RetryPolicy bad_attempts;
  bad_attempts.max_attempts = 0;
  EXPECT_THROW(resilient_pread(rig.fs, c, f, 0, 4096, {}, bad_attempts),
               std::invalid_argument);

  RetryPolicy bad_backoff;
  bad_backoff.backoff_ms = -1.0;
  EXPECT_THROW(resilient_pwrite(rig.fs, c, f, 0, 4096, {}, bad_backoff),
               std::invalid_argument);

  RetryPolicy bad_multiplier;
  bad_multiplier.backoff_multiplier = 0.5;
  EXPECT_THROW(resilient_pwritev(rig.fs, c, f, {WritePiece{0, 4096, 0}}, {},
                                 bad_multiplier),
               std::invalid_argument);

  RetryPolicy bad_hedge;
  bad_hedge.hedge_latency_multiple = -2.0;
  EXPECT_THROW(resilient_pread(rig.fs, c, f, 0, 4096, {}, bad_hedge),
               std::invalid_argument);

  // The boundary values are all legal.
  RetryPolicy edge;
  edge.max_attempts = 1;
  edge.backoff_ms = 0.0;
  edge.backoff_multiplier = 1.0;
  edge.hedge_latency_multiple = 0.0;
  EXPECT_NO_THROW(edge.validate());
}

TEST(HealthTracker, EwmaLatencyAndErrorDecay) {
  HealthParams p;
  p.latency_alpha = 0.5;
  p.error_halflife_s = 10.0;
  HealthTracker h(2, p);
  EXPECT_EQ(h.ewma_latency(0), 0.0);
  h.note_success(0, 0.0, 0.100);
  EXPECT_DOUBLE_EQ(h.ewma_latency(0), 0.100);  // first sample seeds
  h.note_success(0, 1.0, 0.300);
  EXPECT_DOUBLE_EQ(h.ewma_latency(0), 0.200);  // 0.5*0.1 + 0.5*0.3
  // Errors decay with the configured halflife.
  h.note_error(1, 0.0);
  EXPECT_DOUBLE_EQ(h.error_score(1, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.error_score(1, 10.0), 0.5);
  h.note_error(1, 10.0);
  EXPECT_DOUBLE_EQ(h.error_score(1, 10.0), 1.5);
  // The erroring server looks worse than the merely slow one.
  const std::vector<std::uint32_t> a{0};
  const std::vector<std::uint32_t> b{1};
  h.note_success(1, 10.0, 0.200);  // same EWMA as server 0
  EXPECT_EQ(h.pick_healthier(a, b, 10.0), 0u);
  // Slowest-leg estimate over a server set.
  const std::vector<std::uint32_t> both{0, 1};
  EXPECT_DOUBLE_EQ(h.expected_latency(both), 0.200);
}

// A read of a file whose disk is stuck gets hedged against the healthy
// replica once the tracker has latency samples, and the replica wins.
TEST(Resilient, HedgedReadWinsOverDegradedPrimary) {
  fault::InjectionPlan plan;
  // Every disk on node 0 sticks hard from t=50 on.
  for (std::uint32_t d = 0; d < 8; ++d) {
    plan.degrade_disk(0, d, 50.0, 1e6, 200.0);
  }
  fault::Injector inj(plan);
  Rig rig(&inj);
  // Single-stripe-unit reads: primary lives wholly on node 0, replica on 1.
  const pfs::FileId primary = rig.fs.create("hot", true);    // first = 0
  const pfs::FileId replica = rig.fs.create("hot.m", true);  // first = 1
  const auto data = pattern(48 * 1024, 3);
  for (std::uint64_t off = 0; off < 5 * 256 * 1024; off += 256 * 1024) {
    rig.fs.poke(primary, off, data);
    rig.fs.poke(replica, off, data);
  }
  HealthTracker health(rig.fs.io_node_count());
  std::vector<std::byte> got(data.size());
  rig.eng.spawn([](Rig& r, pfs::FileId primary, pfs::FileId replica,
                   HealthTracker& health,
                   std::span<std::byte> got) -> simkit::Task<void> {
    RetryPolicy policy;
    policy.replica = replica;
    policy.health = &health;
    policy.hedge_latency_multiple = 3.0;
    const hw::NodeId c = r.machine.compute_node(0);
    // Warm the tracker while everything is healthy (distinct offsets so
    // the I/O-node cache can't hide the disks).
    co_await resilient_pread(r.fs, c, primary, 0, got.size(), {}, policy);
    co_await resilient_pread(r.fs, c, replica, 256 * 1024, got.size(), {},
                             policy);
    co_await r.eng.delay(60.0 - r.eng.now());  // node 0 is now stuck
    co_await resilient_pread(r.fs, c, primary, 2 * 256 * 1024, got.size(),
                             got, policy);
  }(rig, primary, replica, health, got));
  rig.eng.run();
  EXPECT_EQ(got, data);
  EXPECT_GE(health.hedges_issued(), 1u);
  EXPECT_GE(health.hedge_wins(), 1u)
      << "the healthy replica must beat the stuck primary";
  EXPECT_EQ(health.hedge_losses(), 0u);
}

// A write that failed over leaves the primary stale; repair_divergences
// drains the ledger and rewrites the primary from the replica copy.
TEST(Resilient, RepairDivergencesHealsStalePrimary) {
  fault::InjectionPlan plan;
  plan.crash_node(0, 0.0, 10.0);
  fault::Injector inj(plan);
  Rig rig(&inj);
  const pfs::FileId primary = rig.fs.create("st", true);    // node 0
  const pfs::FileId replica = rig.fs.create("st.m", true);  // node 1
  const auto data = pattern(4096, 9);
  HealthTracker health(rig.fs.io_node_count());
  RetryStats stats;
  double repaired_at = -1.0;
  rig.eng.spawn([](Rig& r, pfs::FileId primary, pfs::FileId replica,
                   HealthTracker& health, RetryStats& stats,
                   std::span<const std::byte> data,
                   double& repaired_at) -> simkit::Task<void> {
    RetryPolicy policy;
    policy.replica = replica;
    policy.health = &health;
    const hw::NodeId c = r.machine.compute_node(0);
    co_await resilient_pwrite(r.fs, c, primary, 0, data.size(), data, policy,
                              &stats);
    EXPECT_EQ(health.pending_divergences(), 1u);
    co_await r.eng.delay(12.0 - r.eng.now());  // node 0 rebooted at t=10
    const simkit::Time t0 = r.eng.now();
    co_await repair_divergences(r.fs, c, health, policy, &stats);
    repaired_at = r.eng.now();
    EXPECT_GT(repaired_at, t0) << "repair moves real data, costing time";
  }(rig, primary, replica, health, stats, data, repaired_at));
  rig.eng.run();
  EXPECT_EQ(stats.diverged_writes, 1u);
  EXPECT_EQ(health.pending_divergences(), 0u);
  EXPECT_EQ(health.divergences_repaired(), 1u);
  std::vector<std::byte> back(data.size());
  rig.fs.peek(primary, 0, back);
  EXPECT_EQ(back, std::vector<std::byte>(data.begin(), data.end()));
}

}  // namespace
}  // namespace pario
