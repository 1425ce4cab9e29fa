// Tests for topology geometry and endpoint-contention transfers.
#include "hw/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "simkit/engine.hpp"
#include "simkit/rng.hpp"

namespace hw {
namespace {

TEST(MeshTopology, ManhattanHops) {
  MeshTopology m(4, 14);
  EXPECT_EQ(m.hops(0, 0), 0u);
  EXPECT_EQ(m.hops(0, 3), 3u);   // same row
  EXPECT_EQ(m.hops(0, 4), 1u);   // next row
  EXPECT_EQ(m.hops(0, 55), 3u + 13u);  // opposite corner
  EXPECT_EQ(m.node_count(), 56u);
}

TEST(SwitchTopology, ConstantHops) {
  SwitchTopology s(80, 3);
  EXPECT_EQ(s.hops(0, 0), 0u);
  EXPECT_EQ(s.hops(0, 79), 3u);
  EXPECT_EQ(s.hops(5, 6), 3u);
}

NetParams fast_params() {
  NetParams p;
  p.link_mb_per_s = 100.0;
  p.per_hop_latency_us = 1.0;
  p.sw_overhead_us = 10.0;
  return p;
}

TEST(Network, UncontendedTransferTiming) {
  simkit::Engine eng;
  Network net(eng, std::make_unique<MeshTopology>(4, 4), fast_params());
  double done_at = -1.0;
  eng.spawn([](simkit::Engine& e, Network& n, double& out)
                -> simkit::Task<void> {
    co_await n.transfer(0, 3, 1'000'000);  // 3 hops, 1 MB
    out = e.now();
  }(eng, net, done_at));
  eng.run();
  // sw 10us + src serialization 10ms + 3us prop + dst serialization 10ms
  EXPECT_NEAR(done_at, 10e-6 + 0.01 + 3e-6 + 0.01, 1e-9);
}

TEST(Network, LocalTransferPaysOneCopy) {
  simkit::Engine eng;
  Network net(eng, std::make_unique<MeshTopology>(4, 4), fast_params());
  double done_at = -1.0;
  eng.spawn([](simkit::Engine& e, Network& n, double& out)
                -> simkit::Task<void> {
    co_await n.transfer(2, 2, 1'000'000);
    out = e.now();
  }(eng, net, done_at));
  eng.run();
  EXPECT_NEAR(done_at, 10e-6 + 0.01, 1e-9);
}

TEST(Network, ReceiverNicContentionSerializes) {
  // Many senders to one destination: completions must spread out by at
  // least the receiver serialization time each.
  simkit::Engine eng;
  Network net(eng, std::make_unique<MeshTopology>(4, 4), fast_params());
  std::vector<double> done;
  constexpr int kSenders = 6;
  for (int s = 0; s < kSenders; ++s) {
    eng.spawn([](simkit::Engine& e, Network& n, std::vector<double>& out,
                 NodeId src) -> simkit::Task<void> {
      co_await n.transfer(src, 15, 2'000'000);  // 20 ms at the NIC
      out.push_back(e.now());
    }(eng, net, done, static_cast<NodeId>(s)));
  }
  eng.run();
  ASSERT_EQ(done.size(), static_cast<std::size_t>(kSenders));
  std::sort(done.begin(), done.end());
  for (std::size_t i = 1; i < done.size(); ++i) {
    EXPECT_GE(done[i] - done[i - 1], 0.02 - 1e-9);
  }
  // Total time ~ kSenders * 20 ms: the shared endpoint is the bottleneck.
  EXPECT_GE(done.back(), kSenders * 0.02 - 1e-9);
}

TEST(Network, DisjointPairsProceedInParallel) {
  simkit::Engine eng;
  Network net(eng, std::make_unique<MeshTopology>(4, 4), fast_params());
  std::vector<double> done;
  eng.spawn([](simkit::Engine& e, Network& n, std::vector<double>& out)
                -> simkit::Task<void> {
    co_await n.transfer(0, 1, 2'000'000);
    out.push_back(e.now());
  }(eng, net, done));
  eng.spawn([](simkit::Engine& e, Network& n, std::vector<double>& out)
                -> simkit::Task<void> {
    co_await n.transfer(2, 3, 2'000'000);
    out.push_back(e.now());
  }(eng, net, done));
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  // Both finish at the uncontended time: ~40.011 ms.
  EXPECT_NEAR(done[0], done[1], 1e-9);
  EXPECT_LT(done[0], 0.05);
}

TEST(Network, BaseTransferTimeMatchesUncontendedRun) {
  simkit::Engine eng;
  Network net(eng, std::make_unique<MeshTopology>(4, 4), fast_params());
  const auto est = net.base_transfer_time(0, 5, 500'000);
  double done_at = -1.0;
  eng.spawn([](simkit::Engine& e, Network& n, double& out)
                -> simkit::Task<void> {
    co_await n.transfer(0, 5, 500'000);
    out = e.now();
  }(eng, net, done_at));
  eng.run();
  EXPECT_NEAR(done_at, est, 1e-9);
}

// The use_for-based transfer Network::transfer replaced: each NIC hold
// is a Resource::use_for sub-task.  Kept here as the reference the inline
// hold must match event for event.
simkit::Task<void> use_for_transfer(simkit::Engine& eng, Network& net,
                                    NodeId src, NodeId dst,
                                    std::uint64_t bytes) {
  co_await eng.delay(simkit::microseconds(net.params().sw_overhead_us));
  if (src == dst) {
    co_await eng.delay(net.serialization(bytes));
    co_return;
  }
  co_await net.nic(src).use_for(net.serialization(bytes));
  co_await eng.delay(net.propagation(src, dst));
  co_await net.nic(dst).use_for(net.serialization(bytes));
}

struct StreamResult {
  std::vector<double> finish;  // per transfer, in draw order
  std::uint64_t events = 0;
};

using TopoFactory = std::function<std::unique_ptr<Topology>()>;

/// A seeded stream of transfer chains on a 16-node machine: each chain
/// starts at a random instant and runs 1-4 back-to-back transfers.  Most
/// traffic converges on three hot receivers; about one transfer in eight
/// is local and one in six carries 0 bytes.
StreamResult run_stream(const TopoFactory& make_topo, std::uint64_t seed,
                        bool reference) {
  simkit::Engine eng;
  Network net(eng, make_topo(), fast_params());
  simkit::Rng rng(seed);
  struct Hop {
    NodeId src, dst;
    std::uint64_t bytes;
    std::size_t slot;
  };
  StreamResult out;
  std::size_t next_slot = 0;
  for (int chain = 0; chain < 60; ++chain) {
    std::vector<Hop> hops;
    const auto len = 1 + rng.uniform_int(4);
    for (std::uint64_t k = 0; k < len; ++k) {
      Hop h;
      h.src = static_cast<NodeId>(rng.uniform_int(16));
      if (rng.uniform_int(8) == 0) {
        h.dst = h.src;
      } else if (rng.uniform_int(4) != 0) {
        h.dst = static_cast<NodeId>(13 + rng.uniform_int(3));
      } else {
        h.dst = static_cast<NodeId>(rng.uniform_int(16));
      }
      h.bytes = rng.uniform_int(6) == 0 ? 0 : rng.uniform_int(200'000);
      h.slot = next_slot++;
      hops.push_back(h);
    }
    const double start = rng.uniform(0.0, 0.02);
    out.finish.resize(next_slot, -1.0);  // before any chain runs
    eng.spawn_at(start, [](simkit::Engine& e, Network& n,
                           std::vector<Hop> chain_hops, bool use_ref,
                           std::vector<double>& finish) -> simkit::Task<void> {
      for (const Hop& h : chain_hops) {
        if (use_ref) {
          co_await use_for_transfer(e, n, h.src, h.dst, h.bytes);
        } else {
          co_await n.transfer(h.src, h.dst, h.bytes);
        }
        finish[h.slot] = e.now();
      }
    }(eng, net, std::move(hops), reference, out.finish));
  }
  eng.run();
  out.events = eng.events_processed();
  for (double t : out.finish) EXPECT_GE(t, 0.0);  // every transfer ran
  return out;
}

TEST(Network, InlineNicHoldMatchesUseForReference) {
  const std::vector<std::pair<const char*, TopoFactory>> topos = {
      {"mesh", [] { return std::make_unique<MeshTopology>(4, 4); }},
      {"switch", [] { return std::make_unique<SwitchTopology>(16, 3); }},
  };
  for (const auto& [name, make_topo] : topos) {
    for (std::uint64_t seed : {1u, 7u, 42u}) {
      const StreamResult got = run_stream(make_topo, seed, false);
      const StreamResult want = run_stream(make_topo, seed, true);
      EXPECT_EQ(got.events, want.events) << name << " seed " << seed;
      ASSERT_EQ(got.finish.size(), want.finish.size());
      for (std::size_t i = 0; i < got.finish.size(); ++i) {
        EXPECT_EQ(got.finish[i], want.finish[i])
            << name << " seed " << seed << " transfer " << i;
      }
    }
  }
}

TEST(Network, TransferToUnknownNodeThrows) {
  simkit::Engine eng;
  Network net(eng, std::make_unique<MeshTopology>(4, 4), fast_params());
  int caught = 0;
  auto probe = [](Network& n, NodeId src, NodeId dst,
                  int& count) -> simkit::Task<void> {
    try {
      co_await n.transfer(src, dst, 100);
    } catch (const std::out_of_range&) {
      ++count;
    }
  };
  eng.spawn(probe(net, 0, 16, caught));   // destination out of range
  eng.spawn(probe(net, 16, 0, caught));   // source out of range
  eng.spawn(probe(net, 99, 99, caught));  // "local" on an unknown node
  eng.run();
  EXPECT_EQ(caught, 3);
  // A valid transfer on the same network still works afterwards.
  double done_at = -1.0;
  eng.spawn([](simkit::Engine& e, Network& n, double& out)
                -> simkit::Task<void> {
    co_await n.transfer(0, 15, 0);
    out = e.now();
  }(eng, net, done_at));
  eng.run();
  EXPECT_GT(done_at, 0.0);
}

}  // namespace
}  // namespace hw
