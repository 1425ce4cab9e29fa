// Tests for two-phase collective I/O: byte-exactness against direct
// access and the performance property the paper exploits.
#include "pario/twophase.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "hw/machine.hpp"
#include "mprt/comm.hpp"
#include "pario/resilient.hpp"
#include "pfs/fs.hpp"
#include "simkit/engine.hpp"
#include "simkit/rng.hpp"

namespace pario {
namespace {

TEST(TwoPhaseHelpers, IntersectClipsAndRemaps) {
  std::vector<Extent> v{{0, 100, 0}, {150, 100, 100}};
  auto out = TwoPhase::intersect(v, 50, 200);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (Extent{50, 50, 50}));    // clipped head, buf follows
  EXPECT_EQ(out[1], (Extent{150, 50, 100}));  // clipped tail
}

TEST(TwoPhaseHelpers, IntersectEmptyWhenDisjoint) {
  std::vector<Extent> v{{0, 10, 0}};
  EXPECT_TRUE(TwoPhase::intersect(v, 100, 200).empty());
}

TEST(TwoPhaseHelpers, MergeRunsHandlesOverlapAndAdjacency) {
  std::vector<Extent> v{{0, 10, 0}, {10, 5, 0}, {20, 10, 0}, {25, 10, 0}};
  auto runs = TwoPhase::merge_runs(v);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].file_offset, 0u);
  EXPECT_EQ(runs[0].length, 15u);
  EXPECT_EQ(runs[1].file_offset, 20u);
  EXPECT_EQ(runs[1].length, 15u);
}

// Each of P ranks owns interleaved records of a shared file (the BTIO
// pattern).  Collective write then collective read must round-trip the
// exact bytes.
class TwoPhaseRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(TwoPhaseRoundTrip, WriteThenReadByteExact) {
  const int p = GetParam();
  simkit::Engine eng;
  hw::Machine machine(
      eng, hw::MachineConfig::paragon_small(static_cast<std::size_t>(p), 2));
  pfs::StripedFs fs(machine);
  const pfs::FileId f = fs.create("shared", /*backed=*/true);

  constexpr std::uint64_t kRec = 700;  // deliberately unaligned
  constexpr std::uint64_t kRecsPerRank = 24;
  auto fill = [](int rank, std::uint64_t i) {
    return static_cast<std::byte>((rank * 37 + static_cast<int>(i)) % 251);
  };

  std::vector<bool> ok(static_cast<std::size_t>(p), false);
  mprt::Cluster::execute(machine, p, [&](mprt::Comm& c)
                                         -> simkit::Task<void> {
    const int r = c.rank();
    // Rank r owns records r, r+P, r+2P, ...
    std::vector<Extent> mine;
    std::vector<std::byte> data(kRec * kRecsPerRank);
    for (std::uint64_t i = 0; i < kRecsPerRank; ++i) {
      const std::uint64_t rec_idx =
          static_cast<std::uint64_t>(r) + i * static_cast<std::uint64_t>(p);
      mine.push_back(Extent{rec_idx * kRec, kRec, i * kRec});
      for (std::uint64_t b = 0; b < kRec; ++b) {
        data[i * kRec + b] = fill(r, i * kRec + b);
      }
    }
    co_await TwoPhase::write(c, fs, f, mine, data);
    std::vector<std::byte> back(data.size(), std::byte{0xEE});
    co_await TwoPhase::read(c, fs, f, mine, back);
    ok[static_cast<std::size_t>(r)] = back == data;
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, TwoPhaseRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 7, 8));

TEST(TwoPhase, MatchesDirectWriteContent) {
  // Two-phase write must leave the file byte-identical to what direct
  // per-rank writes produce.
  constexpr int p = 4;
  constexpr std::uint64_t kRec = 512;
  constexpr std::uint64_t kRecs = 8;

  auto run = [&](bool collective) {
    simkit::Engine eng;
    hw::Machine machine(eng, hw::MachineConfig::paragon_small(p, 2));
    pfs::StripedFs fs(machine);
    const pfs::FileId f = fs.create("out", true);
    mprt::Cluster::execute(machine, p, [&](mprt::Comm& c)
                                           -> simkit::Task<void> {
      const int r = c.rank();
      std::vector<Extent> mine;
      std::vector<std::byte> data(kRec * kRecs);
      for (std::uint64_t i = 0; i < kRecs; ++i) {
        const std::uint64_t rec = static_cast<std::uint64_t>(r) + i * p;
        mine.push_back(Extent{rec * kRec, kRec, i * kRec});
        for (std::uint64_t b = 0; b < kRec; ++b) {
          data[i * kRec + b] = static_cast<std::byte>((rec + b) % 253);
        }
      }
      if (collective) {
        co_await TwoPhase::write(c, fs, f, mine, data);
      } else {
        for (std::uint64_t i = 0; i < kRecs; ++i) {
          co_await fs.pwrite(
              c.node(), f, mine[i].file_offset, kRec,
              std::span<const std::byte>(data).subspan(i * kRec, kRec));
        }
      }
    });
    std::vector<std::byte> whole(kRec * kRecs * p);
    fs.peek(f, 0, whole);
    return whole;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(TwoPhase, FewerIoCallsThanDirect) {
  constexpr int p = 8;
  constexpr std::uint64_t kRec = 2048;
  constexpr std::uint64_t kRecs = 32;
  simkit::Engine eng;
  hw::Machine machine(eng, hw::MachineConfig::paragon_small(p, 2));
  pfs::StripedFs fs(machine);
  const pfs::FileId f = fs.create("perf");
  TwoPhaseStats stats;
  mprt::Cluster::execute(machine, p, [&](mprt::Comm& c)
                                         -> simkit::Task<void> {
    std::vector<Extent> mine;
    for (std::uint64_t i = 0; i < kRecs; ++i) {
      mine.push_back(Extent{(static_cast<std::uint64_t>(c.rank()) + i * p) *
                                kRec,
                            kRec, i * kRec});
    }
    co_await TwoPhase::write(c, fs, f, mine, {}, &stats);
  });
  // The whole interleaved region is contiguous: P ranks x 1 run each,
  // versus P x kRecs direct calls.
  EXPECT_LE(stats.io_calls, static_cast<std::uint64_t>(p));
  EXPECT_EQ(stats.io_bytes, kRec * kRecs * p);
}

TEST(TwoPhase, FasterThanDirectForInterleavedAccess) {
  constexpr int p = 8;
  constexpr std::uint64_t kRec = 1024;  // small records: seek-dominated
  constexpr std::uint64_t kRecs = 64;
  auto run = [&](bool collective) {
    simkit::Engine eng;
    hw::Machine machine(eng, hw::MachineConfig::paragon_small(p, 2));
    pfs::StripedFs fs(machine);
    const pfs::FileId f = fs.create("perf2");
    return mprt::Cluster::execute(machine, p, [&](mprt::Comm& c)
                                                  -> simkit::Task<void> {
      std::vector<Extent> mine;
      for (std::uint64_t i = 0; i < kRecs; ++i) {
        mine.push_back(
            Extent{(static_cast<std::uint64_t>(c.rank()) + i * p) * kRec,
                   kRec, i * kRec});
      }
      if (collective) {
        co_await TwoPhase::write(c, fs, f, mine);
      } else {
        for (const auto& e : mine) {
          co_await fs.pwrite(c.node(), f, e.file_offset, e.length);
        }
      }
    });
  };
  const double direct = run(false);
  const double collective = run(true);
  EXPECT_LT(collective, direct * 0.5);
}

TEST(TwoPhase, EmptyPlansAreHarmless) {
  simkit::Engine eng;
  hw::Machine machine(eng, hw::MachineConfig::paragon_small(4, 2));
  pfs::StripedFs fs(machine);
  const pfs::FileId f = fs.create("empty");
  mprt::Cluster::execute(machine, 4, [&](mprt::Comm& c)
                                         -> simkit::Task<void> {
    co_await TwoPhase::write(c, fs, f, {});
    co_await TwoPhase::read(c, fs, f, {});
  });
  EXPECT_EQ(fs.file_size(f), 0u);
}

TEST(TwoPhase, UnevenContributionsWork) {
  // Rank 0 contributes nothing; rank P-1 contributes double.  (Exercises
  // empty-intersection paths and unaligned domain edges.)
  constexpr int p = 4;
  simkit::Engine eng;
  hw::Machine machine(eng, hw::MachineConfig::paragon_small(p, 2));
  pfs::StripedFs fs(machine);
  const pfs::FileId f = fs.create("uneven", true);
  std::vector<bool> ok(p, false);
  mprt::Cluster::execute(machine, p, [&](mprt::Comm& c)
                                         -> simkit::Task<void> {
    const int r = c.rank();
    std::vector<Extent> mine;
    std::vector<std::byte> data;
    if (r > 0) {
      const std::uint64_t n = (r == p - 1) ? 2000 : 1000;
      data.resize(n, static_cast<std::byte>(r));
      mine.push_back(Extent{static_cast<std::uint64_t>(r) * 10'000, n, 0});
    }
    co_await TwoPhase::write(c, fs, f, mine, data);
    std::vector<std::byte> back(data.size(), std::byte{0});
    co_await TwoPhase::read(c, fs, f, mine, back);
    ok[static_cast<std::size_t>(r)] = back == data;
  });
  for (int r = 0; r < p; ++r) EXPECT_TRUE(ok[static_cast<std::size_t>(r)]);
}

// The flat write lands each source's bytes in the aggregator's runs as
// they arrive.  Uneven, interleaved pieces (lengths 100..1299, gaps, each
// rank's buffer in reverse file order) with 3 aggregators for 7 ranks, and
// rank 2 — an aggregator — contributing nothing: the file must match
// direct pwrites byte for byte, rank 2 must still write its domain, and a
// collective read must give every rank its bytes back.
TEST(TwoPhase, FlatWriteStreamedAssemblyByteExact) {
  constexpr int p = 7;
  constexpr int kIdle = 2;
  constexpr std::uint64_t kRecs = 640;
  auto value = [](std::uint64_t off) {
    return static_cast<std::byte>((off * 131 + 7) % 251);
  };
  // Record i: [off_i, off_i + len_i), owned by (i * 5 + 3) % p unless that
  // is the idle rank.  Every seventh record is a hole nobody writes.
  struct Rec {
    std::uint64_t off, len;
    int owner;
  };
  std::vector<Rec> recs;
  std::uint64_t off = 0;
  for (std::uint64_t i = 0; i < kRecs; ++i) {
    const std::uint64_t len = 100 + (i * 397) % 1200;
    int owner = static_cast<int>((i * 5 + 3) % p);
    if (owner == kIdle) owner = (owner + 1) % p;
    if (i % 7 != 6) recs.push_back(Rec{off, len, owner});
    off += len;
  }
  const std::uint64_t file_bytes = off;
  ASSERT_GT(file_bytes, 3u * 64 * 1024);  // every aggregator owns a domain

  auto pieces_of = [&](int r) {
    std::vector<Extent> mine;
    std::uint64_t buf = 0;
    for (auto it = recs.rbegin(); it != recs.rend(); ++it) {
      if (it->owner != r) continue;
      mine.push_back(Extent{it->off, it->len, buf});
      buf += it->len;
    }
    return mine;
  };
  auto data_of = [&](const std::vector<Extent>& mine) {
    std::vector<std::byte> data(total_length(mine));
    for (const auto& e : mine) {
      for (std::uint64_t b = 0; b < e.length; ++b) {
        data[e.buf_offset + b] = value(e.file_offset + b);
      }
    }
    return data;
  };

  auto image = [&](bool collective, std::vector<TwoPhaseStats>* stats,
                   std::vector<bool>* read_ok) {
    simkit::Engine eng;
    hw::Machine machine(eng, hw::MachineConfig::paragon_small(p, 2));
    pfs::StripedFs fs(machine);
    const pfs::FileId f = fs.create("streamed", /*backed=*/true);
    mprt::Cluster::execute(machine, p, [&](mprt::Comm& c)
                                           -> simkit::Task<void> {
      const auto ru = static_cast<std::size_t>(c.rank());
      const auto mine = pieces_of(c.rank());
      const auto data = data_of(mine);
      if (!collective) {
        for (const auto& e : mine) {
          co_await fs.pwrite(c.node(), f, e.file_offset, e.length,
                             std::span<const std::byte>(data).subspan(
                                 e.buf_offset, e.length));
        }
        co_return;
      }
      TwoPhaseOptions opt;
      opt.aggregators = 3;
      co_await TwoPhase::write(c, fs, f, mine, data, &(*stats)[ru], opt);
      std::vector<std::byte> back(data.size(), std::byte{0xEE});
      co_await TwoPhase::read(c, fs, f, mine, back, nullptr, opt);
      (*read_ok)[ru] = back == data;
    });
    std::vector<std::byte> whole(file_bytes);
    fs.peek(f, 0, whole);
    return whole;
  };

  std::vector<TwoPhaseStats> stats(p);
  std::vector<bool> read_ok(p, false);
  const auto collective = image(true, &stats, &read_ok);
  const auto direct = image(false, nullptr, nullptr);
  EXPECT_EQ(collective, direct);
  EXPECT_TRUE(pieces_of(kIdle).empty());
  EXPECT_GT(stats[kIdle].io_bytes, 0u)
      << "the idle aggregator must still write other ranks' bytes";
  for (int r = 3; r < p; ++r) {
    EXPECT_EQ(stats[static_cast<std::size_t>(r)].io_calls, 0u)
        << "rank " << r << " is not an aggregator";
  }
  for (int r = 0; r < p; ++r) {
    EXPECT_TRUE(read_ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

// Regression: a backed-file collective read whose retry ladder runs dry
// breaks out of the I/O loop early, but the exchange phase still packs
// from EVERY run buffer.  The unread runs must be valid (zeroed) storage,
// not unsized vectors — previously a heap out-of-bounds read (ASan).
TEST(TwoPhase, FailedRetriedReadLeavesLaterRunsValid) {
  fault::InjectionPlan plan;
  plan.crash_node(0, 0.0, 1e6);  // both servers down: the first run's
  plan.crash_node(1, 0.0, 1e6);  // read fails, later runs stay unread
  fault::Injector inj(plan);
  simkit::Engine eng;
  hw::Machine machine(eng, hw::MachineConfig::paragon_small(2, 2));
  pfs::StripedFs fs(machine, &inj);
  const pfs::FileId f = fs.create("doomed", /*backed=*/true);
  std::vector<std::byte> content(64 * 1024, std::byte{0x5A});
  fs.poke(f, 0, content);

  RetryPolicy policy;
  policy.max_attempts = 2;
  RetryStats stats;
  TwoPhaseOptions opt;
  opt.retry = &policy;
  opt.retry_stats = &stats;

  std::vector<bool> threw(2, false);
  mprt::Cluster::execute(machine, 2, [&](mprt::Comm& c)
                                         -> simkit::Task<void> {
    const int r = c.rank();
    // 512-byte records on a 2 KB stride: every aggregator domain holds
    // several runs that merge_runs cannot coalesce, so a failure on the
    // first one leaves genuinely unread buffers behind.
    std::vector<Extent> mine;
    for (std::uint64_t i = 0; i < 16; ++i) {
      mine.push_back(Extent{(i * 2 + static_cast<std::uint64_t>(r)) * 2048,
                            512, i * 512});
    }
    std::vector<std::byte> back(16 * 512, std::byte{0xEE});
    try {
      co_await TwoPhase::read(c, fs, f, mine, back, nullptr, opt);
    } catch (const pfs::IoError&) {
      threw[static_cast<std::size_t>(r)] = true;
    }
  });
  // The stripe-aligned domain partition hands the whole (small) file to
  // rank 0, so only that aggregator does I/O and sees the error; rank 1
  // completes with discardable zeroes, which the failure agreement in the
  // caller (see ckpt::run) is responsible for coordinating.
  EXPECT_TRUE(threw[0]) << "exhausted retries must surface to the caller";
  EXPECT_GT(stats.exhausted, 0u);
}

}  // namespace
}  // namespace pario
