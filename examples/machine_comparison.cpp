// machine_comparison — Paragon vs SP-2 on the same workload.
//
// Thakur, Gropp & Lusk (the paper's ref [11]) found the SP-2 faster on
// reads and the Paragon faster on writes — a consequence of the Paragon's
// write-behind PFS daemons vs PIOFS's synchronous writes.  This example
// runs an identical 8-process read pass and write pass on both machine
// models and shows the asymmetry falling out of the presets.
//
//   $ build/examples/machine_comparison
#include <cstdio>

#include "exp/table.hpp"
#include "hw/machine.hpp"
#include "mprt/collectives.hpp"
#include "mprt/comm.hpp"
#include "pfs/fs.hpp"
#include "simkit/engine.hpp"

namespace {

struct Times {
  double write;
  double read;
};

Times run_machine(bool sp2) {
  Times t{};
  for (int phase = 0; phase < 2; ++phase) {
    simkit::Engine eng;
    hw::Machine machine(eng, sp2 ? hw::MachineConfig::sp2(8)
                                 : hw::MachineConfig::paragon_large(8, 4));
    pfs::StripedFs fs(machine);
    const pfs::FileId f = fs.create("cmp");
    const double elapsed = mprt::Cluster::execute(
        machine, 8, [&](mprt::Comm& c) -> simkit::Task<void> {
          // Each rank streams 4 MB in 64 KB pieces, its own region.
          const std::uint64_t base =
              static_cast<std::uint64_t>(c.rank()) * (4 << 20);
          for (int i = 0; i < 64; ++i) {
            const std::uint64_t off = base + static_cast<std::uint64_t>(i) *
                                                 (64 << 10);
            if (phase == 0) {
              co_await fs.pwrite(c.node(), f, off, 64 << 10);
            } else {
              co_await fs.pread(c.node(), f, off, 64 << 10);
            }
          }
          co_await mprt::barrier(c);
        });
    (phase == 0 ? t.write : t.read) = elapsed;
  }
  return t;
}

}  // namespace

int main() {
  const Times paragon = run_machine(false);
  const Times sp2 = run_machine(true);

  expt::Table table({"machine", "8x4MB write (s)", "8x4MB cold read (s)",
                     "faster at"});
  table.add_row({"Paragon (4 io nodes, PFS)", expt::fmt("%.2f", paragon.write),
                 expt::fmt("%.2f", paragon.read),
                 paragon.write < paragon.read ? "writes" : "reads"});
  table.add_row({"SP-2 (4 io nodes, PIOFS)", expt::fmt("%.2f", sp2.write),
                 expt::fmt("%.2f", sp2.read),
                 sp2.write < sp2.read ? "writes" : "reads"});
  std::printf("Same workload, both platform models:\n%s\n",
              table.str().c_str());

  const bool asymmetry =
      (paragon.write / paragon.read) < (sp2.write / sp2.read);
  std::printf("Paragon comparatively better at writes, SP-2 at reads "
              "(paper ref [11]): %s\n",
              asymmetry ? "reproduced" : "NOT reproduced");
  return asymmetry ? 0 : 1;
}
