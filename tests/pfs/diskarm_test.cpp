// Tests for the FIFO/SCAN disk arm.
#include "pfs/diskarm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "simkit/engine.hpp"
#include "simkit/rng.hpp"

namespace pfs {
namespace {

hw::DiskParams slow_seek_disk() {
  hw::DiskParams p;
  p.name = "test";
  p.track_to_track_seek_ms = 1.0;
  p.average_seek_ms = 20.0;
  p.rpm = 6000.0;
  p.transfer_mb_per_s = 50.0;
  p.controller_overhead_ms = 0.1;
  p.capacity_bytes = 1ULL << 30;
  return p;
}

/// Submit requests at scattered positions while the arm is busy with an
/// initial request; record the order they get served.
std::vector<std::uint64_t> service_order(bool scan,
                                         std::vector<std::uint64_t> offs) {
  simkit::Engine eng;
  DiskArm arm(eng, slow_seek_disk(), scan);
  std::vector<std::uint64_t> order;
  // Occupy the arm first so all others queue.
  eng.spawn([](DiskArm& a, std::vector<std::uint64_t>& out)
                -> simkit::Task<void> {
    co_await a.serve(0, 4096, hw::AccessKind::kRead);
    out.push_back(0);
  }(arm, order));
  for (std::uint64_t off : offs) {
    eng.spawn([](simkit::Engine& e, DiskArm& a, std::uint64_t off,
                 std::vector<std::uint64_t>& out) -> simkit::Task<void> {
      co_await e.delay(1e-6);  // arrive after the arm is busy
      co_await a.serve(off, 4096, hw::AccessKind::kRead);
      out.push_back(off);
    }(eng, arm, off, order));
  }
  eng.run();
  order.erase(order.begin());  // drop the primer
  return order;
}

TEST(DiskArm, FifoServesInArrivalOrder) {
  const std::vector<std::uint64_t> offs = {900 << 20, 10 << 20, 500 << 20,
                                           50 << 20};
  EXPECT_EQ(service_order(false, offs), offs);
}

TEST(DiskArm, ScanServesInSweepOrder) {
  const std::vector<std::uint64_t> offs = {900 << 20, 10 << 20, 500 << 20,
                                           50 << 20};
  // Head starts near 0 after the primer: the upward sweep is sorted.
  EXPECT_EQ(service_order(true, offs),
            (std::vector<std::uint64_t>{10 << 20, 50 << 20, 500 << 20,
                                        900 << 20}));
}

TEST(DiskArm, ScanReversesAtTheEdge) {
  simkit::Engine eng;
  DiskArm arm(eng, slow_seek_disk(), true);
  std::vector<std::uint64_t> order;
  // Prime the head high, then submit below-and-above requests.
  eng.spawn([](DiskArm& a, std::vector<std::uint64_t>& out)
                -> simkit::Task<void> {
    co_await a.serve(800ull << 20, 4096, hw::AccessKind::kRead);
    out.push_back(800ull << 20);
  }(arm, order));
  for (std::uint64_t off : {900ull << 20, 100ull << 20, 300ull << 20}) {
    eng.spawn([](simkit::Engine& e, DiskArm& a, std::uint64_t off,
                 std::vector<std::uint64_t>& out) -> simkit::Task<void> {
      co_await e.delay(1e-6);
      co_await a.serve(off, 4096, hw::AccessKind::kRead);
      out.push_back(off);
    }(eng, arm, off, order));
  }
  eng.run();
  // Up to 900, then back down 300, 100.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{800ull << 20, 900ull << 20,
                                               300ull << 20,
                                               100ull << 20}));
}

TEST(DiskArm, ScanFinishesScatteredBatchFaster) {
  auto batch_time = [](bool scan) {
    simkit::Engine eng;
    DiskArm arm(eng, slow_seek_disk(), scan);
    // 32 requests in a deterministic shuffled order.
    for (int i = 0; i < 32; ++i) {
      const std::uint64_t off =
          (static_cast<std::uint64_t>(i) * 37 % 32) << 24;
      eng.spawn([](DiskArm& a, std::uint64_t off) -> simkit::Task<void> {
        co_await a.serve(off, 4096, hw::AccessKind::kRead);
      }(arm, off));
    }
    eng.run();
    return eng.now();
  };
  EXPECT_LT(batch_time(true), 0.7 * batch_time(false));
}

TEST(DiskArm, CountsServices) {
  simkit::Engine eng;
  DiskArm arm(eng, slow_seek_disk(), false);
  for (int i = 0; i < 5; ++i) {
    eng.spawn([](DiskArm& a, int i) -> simkit::Task<void> {
      co_await a.serve(static_cast<std::uint64_t>(i) * 1000, 512,
                      hw::AccessKind::kWrite);
    }(arm, i));
  }
  eng.run();
  EXPECT_EQ(arm.services(), 5u);
  EXPECT_EQ(arm.queue_length(), 0u);
}

// ------------------------------------------------- differential check --

/// The linear-scan arm the indexed queues replaced, kept as the service
/// order reference: FIFO scans for the lowest arrival seq, SCAN scans
/// for the nearest position in the sweep direction (first arrival wins
/// a position tie) and reverses when nothing remains ahead.
class ScanRefArm {
 public:
  ScanRefArm(simkit::Engine& eng, const hw::DiskParams& params, bool scan)
      : eng_(eng), model_(params), scan_(scan) {}

  simkit::Task<void> serve(std::uint64_t phys, std::uint64_t len,
                           hw::AccessKind kind) {
    co_await Acquire{*this, phys};
    co_await eng_.delay(model_.access(phys, len, kind, nullptr));
    release();
  }

 private:
  struct Waiter {
    std::uint64_t phys;
    std::uint64_t seq;
    std::coroutine_handle<> h;
  };
  struct Acquire {
    ScanRefArm& arm;
    std::uint64_t phys;
    bool await_ready() noexcept {
      if (!arm.busy_) {
        arm.busy_ = true;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      arm.queue_.push_back(Waiter{phys, arm.next_seq_++, h});
    }
    void await_resume() const noexcept {}
  };

  std::size_t pick_next() const {
    if (!scan_) {
      std::size_t best = 0;
      for (std::size_t i = 1; i < queue_.size(); ++i) {
        if (queue_[i].seq < queue_[best].seq) best = i;
      }
      return best;
    }
    const std::uint64_t head = model_.head_position();
    std::size_t best = queue_.size();
    if (sweep_up_) {
      std::uint64_t best_pos = std::numeric_limits<std::uint64_t>::max();
      for (std::size_t i = 0; i < queue_.size(); ++i) {
        if (queue_[i].phys >= head && queue_[i].phys < best_pos) {
          best_pos = queue_[i].phys;
          best = i;
        }
      }
      if (best != queue_.size()) return best;
      std::uint64_t max_pos = 0;
      for (std::size_t i = 0; i < queue_.size(); ++i) {
        if (queue_[i].phys >= max_pos) {
          max_pos = queue_[i].phys;
          best = i;
        }
      }
      return best;
    }
    std::uint64_t best_pos = 0;
    bool found = false;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      if (queue_[i].phys <= head && (!found || queue_[i].phys > best_pos)) {
        best_pos = queue_[i].phys;
        best = i;
        found = true;
      }
    }
    if (found) return best;
    std::uint64_t min_pos = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      if (queue_[i].phys <= min_pos) {
        min_pos = queue_[i].phys;
        best = i;
      }
    }
    return best;
  }

  void release() {
    if (queue_.empty()) {
      busy_ = false;
      return;
    }
    if (scan_) {
      const std::uint64_t head = model_.head_position();
      const bool any_up = std::any_of(
          queue_.begin(), queue_.end(),
          [&](const Waiter& w) { return w.phys >= head; });
      const bool any_down = std::any_of(
          queue_.begin(), queue_.end(),
          [&](const Waiter& w) { return w.phys <= head; });
      if (sweep_up_ && !any_up && any_down) sweep_up_ = false;
      if (!sweep_up_ && !any_down && any_up) sweep_up_ = true;
    }
    const std::size_t next = pick_next();
    const auto h = queue_[next].h;
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(next));
    eng_.schedule_at(eng_.now(), h);
  }

  simkit::Engine& eng_;
  hw::DiskModel model_;
  bool scan_;
  bool busy_ = false;
  bool sweep_up_ = true;
  std::uint64_t next_seq_ = 0;
  std::vector<Waiter> queue_;
};

struct Arrival {
  double t;
  std::uint64_t phys;
  std::uint64_t len;
};

struct Served {
  int id;
  double t;
  bool operator==(const Served&) const = default;
};

/// A random arrival stream on a coarse position grid: bursts of
/// same-instant arrivals, repeated positions, and lengths that land the
/// head exactly on other requests' positions (the phys == head ties).
std::vector<Arrival> random_stream(std::uint64_t seed, int n) {
  simkit::Rng rng(seed);
  constexpr std::uint64_t kGrid = 1ull << 20;
  std::vector<Arrival> out;
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    if (rng.uniform() < 0.3) t += 0.05 * rng.uniform();
    out.push_back({t, rng.uniform_int(24) * kGrid,
                   (1 + rng.uniform_int(3)) * kGrid});
  }
  return out;
}

/// Serve the stream on one arm; the service order (with start times).
template <class Arm>
std::vector<Served> serve_stream(bool scan, const std::vector<Arrival>& in) {
  simkit::Engine eng;
  Arm arm(eng, slow_seek_disk(), scan);
  std::vector<Served> out;
  for (int i = 0; i < static_cast<int>(in.size()); ++i) {
    eng.spawn_at(in[static_cast<std::size_t>(i)].t,
                 [](simkit::Engine& e, Arm& a, const Arrival& r, int id,
                    std::vector<Served>& o) -> simkit::Task<void> {
                   co_await a.serve(r.phys, r.len, hw::AccessKind::kRead);
                   o.push_back({id, e.now()});
                 }(eng, arm, in[static_cast<std::size_t>(i)], i, out));
  }
  eng.run();
  return out;
}

/// Direction changes in the served position sequence.
int reversals(const std::vector<Served>& order,
              const std::vector<Arrival>& in) {
  int n = 0, dir = 0;
  for (std::size_t i = 1; i < order.size(); ++i) {
    const std::uint64_t a = in[static_cast<std::size_t>(order[i - 1].id)].phys;
    const std::uint64_t b = in[static_cast<std::size_t>(order[i].id)].phys;
    const int d = b > a ? 1 : (b < a ? -1 : 0);
    if (d != 0 && dir != 0 && d != dir) ++n;
    if (d != 0) dir = d;
  }
  return n;
}

TEST(DiskArm, IndexedQueuesMatchLinearScanReference) {
  int scan_reversals = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::vector<Arrival> in = random_stream(seed, 400);
    for (const bool scan : {false, true}) {
      const std::vector<Served> got = serve_stream<DiskArm>(scan, in);
      const std::vector<Served> want = serve_stream<ScanRefArm>(scan, in);
      ASSERT_EQ(got.size(), in.size());
      ASSERT_EQ(got, want) << "seed " << seed << (scan ? " SCAN" : " FIFO");
      if (scan) scan_reversals += reversals(got, in);
    }
  }
  // The streams must actually exercise sweep reversals.
  EXPECT_GT(scan_reversals, 100);
}

}  // namespace
}  // namespace pfs
