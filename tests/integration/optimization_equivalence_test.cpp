// Cross-optimization integrity: independent per-piece I/O and two-phase
// collective I/O must produce byte-identical file/buffer contents on the
// same scattered pattern — they only differ in cost.  Randomized
// patterns, multiple seeds (parameterized).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "hw/machine.hpp"
#include "mprt/comm.hpp"
#include "pario/twophase.hpp"
#include "pfs/fs.hpp"
#include "simkit/engine.hpp"
#include "simkit/rng.hpp"

namespace pario {
namespace {

constexpr int kProcs = 4;
constexpr std::uint64_t kFileSpan = 256 * 1024;

/// Random non-overlapping pieces for one rank: rank r owns byte i when
/// hash(i / grain) % P == r, grouped into extents.
std::vector<Extent> random_pieces(int rank, std::uint64_t seed) {
  simkit::Rng rng(seed);  // same stream on every rank: consistent ownership
  std::vector<Extent> out;
  std::uint64_t buf = 0;
  std::uint64_t pos = 0;
  while (pos < kFileSpan) {
    const std::uint64_t grain = 64 + rng.uniform_int(2048);
    const auto owner = static_cast<int>(rng.uniform_int(kProcs));
    const std::uint64_t len = std::min(grain, kFileSpan - pos);
    if (owner == rank) {
      out.push_back(Extent{pos, len, buf});
      buf += len;
    }
    pos += len;
  }
  return out;
}

std::vector<std::byte> rank_bytes(int rank, std::uint64_t n) {
  std::vector<std::byte> v(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((rank * 89 + i * 7 + 3) % 251);
  }
  return v;
}

class Equivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Equivalence, AllWriteStrategiesProduceTheSameFile) {
  const std::uint64_t seed = GetParam();
  enum class How { kDirect, kTwoPhase };
  auto run = [&](How how) {
    simkit::Engine eng;
    hw::Machine machine(eng, hw::MachineConfig::paragon_small(kProcs, 2));
    pfs::StripedFs fs(machine);
    const pfs::FileId f = fs.create("equiv", /*backed=*/true);
    mprt::Cluster::execute(machine, kProcs, [&](mprt::Comm& c)
                                                -> simkit::Task<void> {
      auto pieces = random_pieces(c.rank(), seed);
      auto data = rank_bytes(c.rank(), total_length(pieces));
      switch (how) {
        case How::kDirect:
          for (const auto& e : pieces) {
            co_await fs.pwrite(
                c.node(), f, e.file_offset, e.length,
                std::span<const std::byte>(data).subspan(e.buf_offset,
                                                         e.length));
          }
          break;
        case How::kTwoPhase:
          co_await TwoPhase::write(c, fs, f, pieces, data);
          break;
      }
    });
    std::vector<std::byte> whole(kFileSpan);
    fs.peek(f, 0, whole);
    return whole;
  };
  const auto direct = run(How::kDirect);
  EXPECT_EQ(run(How::kTwoPhase), direct);
}

TEST_P(Equivalence, AllReadStrategiesSeeTheSameBytes) {
  const std::uint64_t seed = GetParam() + 1000;
  simkit::Engine eng;
  hw::Machine machine(eng, hw::MachineConfig::paragon_small(kProcs, 2));
  pfs::StripedFs fs(machine);
  const pfs::FileId f = fs.create("equiv_r", /*backed=*/true);
  // Fill the file with a known pattern.
  std::vector<std::byte> content(kFileSpan);
  for (std::uint64_t i = 0; i < kFileSpan; ++i) {
    content[i] = static_cast<std::byte>((i * 131 + 17) % 253);
  }
  fs.poke(f, 0, content);

  int mismatches = 0;
  mprt::Cluster::execute(machine, kProcs, [&](mprt::Comm& c)
                                              -> simkit::Task<void> {
    auto pieces = random_pieces(c.rank(), seed);
    const std::uint64_t n = total_length(pieces);
    std::vector<std::byte> direct(n), collective(n);
    for (const auto& e : pieces) {
      co_await fs.pread(
          c.node(), f, e.file_offset, e.length,
          std::span<std::byte>(direct).subspan(e.buf_offset, e.length));
    }
    co_await TwoPhase::read(c, fs, f, pieces, collective);
    // Reference: gather from the known contents.
    std::vector<std::byte> want(n);
    for (const auto& e : pieces) {
      std::memcpy(want.data() + e.buf_offset,
                  content.data() + e.file_offset, e.length);
    }
    if (direct != want || collective != want) {
      ++mismatches;
    }
  });
  EXPECT_EQ(mismatches, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Equivalence,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u));

}  // namespace
}  // namespace pario
