// Pinned simulated cost of collective two-phase I/O: the engine's event
// count, the finish time and the number of point-to-point messages for
// flat and hierarchical reads and writes, on a backed and on an unbacked
// file, at P = 7 and P = 32.  Fewer aggregators than ranks, and rank 3
// owns no pieces (an aggregator at one rank count, a plain rank at the
// other).  Scratch sizing and the shape of the extent table are host
// concerns: none of these numbers may move when they change.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iomanip>
#include <vector>

#include "hw/machine.hpp"
#include "mprt/comm.hpp"
#include "pario/twophase.hpp"
#include "pfs/fs.hpp"
#include "simkit/engine.hpp"

namespace pario {
namespace {

constexpr std::uint64_t kRec = 4096;
constexpr int kEmptyRank = 3;

struct Counts {
  std::uint64_t events = 0;
  double now = 0.0;
  std::uint64_t msgs = 0;
};

struct Pin {
  int p;
  Counts want;
};

/// 8 records per rank, owners drawn by a multiplicative hash; the empty
/// rank's records go to rank 0.
std::vector<Extent> pieces(int rank, int p) {
  std::vector<Extent> out;
  if (rank == kEmptyRank) return out;
  std::uint64_t buf = 0;
  const auto nrecs = static_cast<std::uint64_t>(8 * p);
  for (std::uint64_t i = 0; i < nrecs; ++i) {
    int owner = static_cast<int>((static_cast<unsigned>(i) * 2654435761u) %
                                 static_cast<unsigned>(p));
    if (owner == kEmptyRank) owner = 0;
    if (owner == rank) {
      out.push_back(Extent{i * kRec, kRec, buf});
      buf += kRec;
    }
  }
  return out;
}

std::byte pattern(std::uint64_t file_offset) {
  return static_cast<std::byte>((file_offset * 131) >> 7);
}

enum class Op { kRead, kWrite };

/// One collective call per rank on a fresh machine.  `hier` selects the
/// kTwoLevel topology (ceil(sqrt(P)) group leaders aggregate); the flat
/// path runs with P/2 aggregators.
Counts run_case(int p, bool hier, Op op, bool backed) {
  simkit::Engine eng;
  hw::Machine machine(eng, hw::MachineConfig::paragon_small(32, 2));
  pfs::StripedFs fs(machine);
  const pfs::FileId f = fs.create("pinned", backed);
  const auto nbytes = static_cast<std::uint64_t>(8 * p) * kRec;
  if (backed && op == Op::kRead) {
    std::vector<std::byte> image(nbytes);
    for (std::uint64_t i = 0; i < nbytes; ++i) image[i] = pattern(i);
    fs.poke(f, 0, image);
  }
  mprt::Cluster cluster(machine, p);
  if (hier) {
    cluster.set_topology({mprt::CollectiveTopology::Kind::kTwoLevel, 0});
  }
  TwoPhaseOptions opts;
  if (!hier) opts.aggregators = p / 2;
  const std::function<simkit::Task<void>(mprt::Comm&)> body =
      [&](mprt::Comm& c) -> simkit::Task<void> {
    auto mine = pieces(c.rank(), p);
    std::vector<std::byte> buf;
    if (backed) buf.resize(total_length(mine));
    if (op == Op::kWrite) {
      for (const auto& e : mine) {
        if (!backed) break;
        for (std::uint64_t k = 0; k < e.length; ++k) {
          buf[e.buf_offset + k] = pattern(e.file_offset + k);
        }
      }
      co_await TwoPhase::write(c, fs, f, mine, buf, nullptr, opts);
    } else {
      co_await TwoPhase::read(c, fs, f, mine, buf, nullptr, opts);
      for (const auto& e : mine) {
        if (!backed) break;
        EXPECT_EQ(buf[e.buf_offset], pattern(e.file_offset));
        EXPECT_EQ(buf[e.buf_offset + e.length - 1],
                  pattern(e.file_end() - 1));
      }
    }
  };
  eng.spawn(cluster.run(body));
  eng.run();
  if (backed && op == Op::kWrite) {
    std::vector<std::byte> image(nbytes);
    fs.peek(f, 0, image);
    for (std::uint64_t i = 0; i < nbytes; i += 997) {
      EXPECT_EQ(image[i], pattern(i)) << "offset " << i;
    }
  }
  Counts got;
  got.events = eng.events_processed();
  got.now = eng.now();
  for (int r = 0; r < p; ++r) got.msgs += cluster.comm(r).messages_sent();
  return got;
}

void check(bool hier, Op op, bool backed, std::initializer_list<Pin> pins) {
  for (const Pin& pin : pins) {
    const Counts got = run_case(pin.p, hier, op, backed);
    EXPECT_EQ(got.events, pin.want.events) << "p=" << pin.p;
    EXPECT_DOUBLE_EQ(got.now, pin.want.now)
        << "p=" << pin.p << " now=" << std::setprecision(17) << got.now;
    EXPECT_EQ(got.msgs, pin.want.msgs) << "p=" << pin.p;
  }
}

TEST(TwoPhasePinnedCounts, FlatReadBacked) {
  check(false, Op::kRead, true,
        {{7, {385, 0.045956426841476911, 67}},
         {32, {5536, 0.15775227692957608, 1117}}});
}
TEST(TwoPhasePinnedCounts, FlatReadUnbacked) {
  check(false, Op::kRead, false,
        {{7, {385, 0.045956426841476911, 67}},
         {32, {5536, 0.15775227692957608, 1117}}});
}
TEST(TwoPhasePinnedCounts, FlatWriteBacked) {
  check(false, Op::kWrite, true,
        {{7, {466, 0.049371786576508279, 88}},
         {32, {6198, 0.16490558739854069, 1277}}});
}
TEST(TwoPhasePinnedCounts, FlatWriteUnbacked) {
  check(false, Op::kWrite, false,
        {{7, {466, 0.049371786576508279, 88}},
         {32, {6198, 0.16490558739854069, 1277}}});
}
TEST(TwoPhasePinnedCounts, HierReadBacked) {
  check(true, Op::kRead, true,
        {{7, {282, 0.031402933333333334, 40}},
         {32, {1472, 0.16716250370403157, 226}}});
}
TEST(TwoPhasePinnedCounts, HierReadUnbacked) {
  check(true, Op::kRead, false,
        {{7, {282, 0.031402933333333334, 40}},
         {32, {1472, 0.16716250370403157, 226}}});
}
TEST(TwoPhasePinnedCounts, HierWriteBacked) {
  check(true, Op::kWrite, true,
        {{7, {292, 0.049732481814603519, 47}},
         {32, {1735, 0.17192258558651383, 304}}});
}
TEST(TwoPhasePinnedCounts, HierWriteUnbacked) {
  check(true, Op::kWrite, false,
        {{7, {292, 0.049732481814603519, 47}},
         {32, {1735, 0.17192258558651383, 304}}});
}

}  // namespace
}  // namespace pario
