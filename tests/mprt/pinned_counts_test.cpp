// Pinned simulated cost of every collective: the engine's event count,
// the finish time and the number of point-to-point messages, at P = 7 and
// P = 32.  Host-side rewrites of the message path (the send and receive
// awaiters, the NIC holds in Network::transfer, the scratch a collective
// allocates) must leave all three exactly as they are; a change to one of
// these numbers is a change to the simulation, not to its host cost.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iomanip>
#include <vector>

#include "hw/machine.hpp"
#include "mprt/collectives.hpp"
#include "mprt/comm.hpp"
#include "simkit/engine.hpp"

namespace mprt {
namespace {

struct Counts {
  std::uint64_t events = 0;
  double now = 0.0;
  std::uint64_t msgs = 0;
};

/// Expected counts for one rank count.
struct Pin {
  int p;
  Counts want;
};

Counts run_case(int p, CollectiveTopology topo,
                const std::function<simkit::Task<void>(Comm&)>& body) {
  simkit::Engine eng;
  hw::Machine machine(eng, hw::MachineConfig::paragon_small(32, 2));
  Cluster cluster(machine, p);
  cluster.set_topology(topo);
  eng.spawn(cluster.run(body));
  eng.run();
  Counts got;
  got.events = eng.events_processed();
  got.now = eng.now();
  for (Rank r = 0; r < p; ++r) got.msgs += cluster.comm(r).messages_sent();
  return got;
}

void expect_pinned(const Counts& got, const Pin& pin) {
  EXPECT_EQ(got.events, pin.want.events) << "p=" << pin.p;
  EXPECT_DOUBLE_EQ(got.now, pin.want.now)
      << "p=" << pin.p << " now=" << std::setprecision(17) << got.now;
  EXPECT_EQ(got.msgs, pin.want.msgs) << "p=" << pin.p;
}

TEST(PinnedCounts, Barrier) {
  for (const Pin& pin : {Pin{7, {113, 0.00037194285714285723, 21}},
                         Pin{32, {804, 0.00049577142857142856, 160}}}) {
    const Counts got = run_case(
        pin.p, {}, [](Comm& c) -> simkit::Task<void> {
          // Staggered arrivals: early ranks wait in recv, late ones find
          // their messages already in the mailbox.
          co_await c.engine().delay(1e-4 * (c.rank() % 3));
          co_await barrier(c);
        });
    expect_pinned(got, pin);
  }
}

TEST(PinnedCounts, Bcast) {
  for (const Pin& pin : {Pin{7, {40, 0.00052482857142857142, 6}},
                         Pin{32, {189, 0.00088031428571428577, 31}}}) {
    const Counts got = run_case(
        pin.p, {}, [](Comm& c) -> simkit::Task<void> {
          std::vector<std::byte> buf(4096, std::byte{0});
          if (c.rank() == 3) buf.assign(buf.size(), std::byte{0x5A});
          co_await bcast(c, 3, buf.size(), buf);
          EXPECT_EQ(buf.back(), std::byte{0x5A});
        });
    expect_pinned(got, pin);
  }
}

TEST(PinnedCounts, Gatherv) {
  for (const Pin& pin : {Pin{7, {43, 8.7885714285714265e-05, 6}},
                         Pin{32, {218, 0.00077788571428571431, 31}}}) {
    const Counts got = run_case(
        pin.p, {}, [](Comm& c) -> simkit::Task<void> {
          // Rank 1 contributes nothing; odd ranks send timing-only blocks.
          const std::uint64_t bytes =
              c.rank() == 1 ? 0 : 100 * static_cast<std::uint64_t>(c.rank());
          std::vector<std::byte> pay;
          if (c.rank() % 2 == 0) pay.assign(bytes, std::byte{1});
          auto got = co_await gatherv(c, 2, bytes, pay);
          if (c.rank() == 2) {
            EXPECT_EQ(got.size(), static_cast<std::size_t>(c.size()));
          }
        });
    expect_pinned(got, pin);
  }
}

TEST(PinnedCounts, Allreduce) {
  for (const Pin& pin : {Pin{7, {72, 0.00028800000000000001, 12}},
                         Pin{32, {345, 0.00057800000000000028, 62}}}) {
    const Counts got = run_case(
        pin.p, {}, [](Comm& c) -> simkit::Task<void> {
          std::vector<double> v = {1.0, static_cast<double>(c.rank()), 2.0};
          co_await allreduce(c, v, ReduceOp::kSum);
          EXPECT_EQ(v[0], static_cast<double>(c.size()));
        });
    expect_pinned(got, pin);
  }
}

/// Uneven personalized blocks; rank 1 sends nothing, every third pair is
/// empty, and even ranks carry real bytes.
std::function<simkit::Task<void>(Comm&)> a2a_body() {
  return [](Comm& c) -> simkit::Task<void> {
    const int p = c.size();
    const auto pu = static_cast<std::size_t>(p);
    std::vector<std::uint64_t> send(pu, 0);
    std::vector<std::vector<std::byte>> store(pu);
    std::vector<std::span<const std::byte>> views(pu);
    for (int d = 0; d < p; ++d) {
      const auto du = static_cast<std::size_t>(d);
      if (c.rank() == 1 || (c.rank() + d) % 3 == 0) continue;
      send[du] = 64 * static_cast<std::uint64_t>((c.rank() * 7 + d) % 5 + 1);
      if (c.rank() % 2 == 0) {
        store[du].assign(send[du], static_cast<std::byte>(c.rank()));
        views[du] = store[du];
      }
    }
    std::size_t got = 0;
    RecvSink count = [&got](Message&) { ++got; };
    co_await alltoallv(c, send, views, count);
    EXPECT_EQ(got, pu);
  };
}

TEST(PinnedCounts, AlltoallvFlat) {
  for (const Pin& pin : {Pin{7, {219, 0.00043594285714285711, 49}},
                         Pin{32, {4730, 0.002090971428571428, 1024}}}) {
    expect_pinned(
        run_case(pin.p, {CollectiveTopology::Kind::kFlat, 0}, a2a_body()),
        pin);
  }
}

TEST(PinnedCounts, AlltoallvBruck) {
  for (const Pin& pin : {Pin{7, {110, 0.00023351428571428569, 21}},
                         Pin{32, {827, 0.00066271428571428568, 160}}}) {
    expect_pinned(
        run_case(pin.p, {CollectiveTopology::Kind::kBruck, 0}, a2a_body()),
        pin);
  }
}

TEST(PinnedCounts, AlltoallvTwoLevel) {
  for (const Pin& pin : {Pin{7, {79, 0.00044965714285714284, 14}},
                         Pin{32, {447, 0.0024083999999999985, 82}}}) {
    expect_pinned(
        run_case(pin.p, {CollectiveTopology::Kind::kTwoLevel, 0},
                 a2a_body()),
        pin);
  }
}

}  // namespace
}  // namespace mprt
