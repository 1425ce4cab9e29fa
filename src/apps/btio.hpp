// apps/btio.hpp — the NAS BTIO benchmark (disk-based BT flow solver).
//
// BT solves 3-D Navier-Stokes on an n^3 grid (Class A: 64^3, Class B:
// 102^3) with 5 solution components per cell, and periodically appends
// the whole solution to a shared file.  With a sqrt(P) x sqrt(P)
// decomposition of the (y,z) plane, each process owns (n/q)^2 pencils,
// and every pencil is one contiguous x-row of n*5 doubles in the file —
// so the unoptimized code issues one seek+write pair per pencil (the
// paper: "the code contains a lot of seek operations").  The optimized
// version hands each rank's pencil extents to a single two-phase
// collective call per dump (paper §4.5).
#pragma once

#include <cstdint>

#include "apps/common.hpp"

namespace apps {

struct BtioConfig {
  char problem_class = 'A';  // 'A' = 64^3 (408.9 MB), 'B' = 102^3, 'C' = 162^3
  int nprocs = 16;           // must be a perfect square (paper x-axis)
  bool collective = false;   // two-phase I/O instead of seek+write
  /// BTIO's verification step: after the run, read the final solution
  /// dump back (collectively or pencil-by-pencil, matching `collective`).
  bool verify = false;
  int dumps = 40;            // solution dumps (Class A: 40 x ~10.5 MB)
  int steps_per_dump = 5;
  /// BT's implicit solver is expensive: block-tridiagonal sweeps in three
  /// directions, ~5000 flop/cell/step keeps I/O at the paper's "not as
  /// I/O dominant" share.
  double flops_per_cell_step = 5000.0;
  double scale = 1.0;  // scales the number of dumps for quick runs

  std::uint64_t grid_n() const {
    switch (problem_class) {
      case 'B': return 102;
      case 'C': return 162;
      default: return 64;
    }
  }
  std::uint64_t cell_bytes() const { return 5 * 8; }
  std::uint64_t dump_bytes() const {
    return grid_n() * grid_n() * grid_n() * cell_bytes();
  }
  int effective_dumps() const {
    return std::max(1, static_cast<int>(dumps * scale));
  }
};

RunResult run_btio(const BtioConfig& cfg);

}  // namespace apps
