// ckpt/ckpt.hpp — coordinated checkpoint/restart over the striped FS.
//
// The paper studies where I/O time goes on a healthy machine; this engine
// answers the production question of what the I/O stack costs when the
// machine is NOT healthy.  A job is modelled as `steps` units of work per
// rank (compute plus a per-step I/O pattern derived from a real app —
// SCF 1.1's integral-file re-read, BTIO's collective solution dump).
// Every `ckpt_interval_steps`, all ranks write a coordinated checkpoint of
// their state through the existing two-phase collective path.  When an
// injected fault defeats the retry/backoff policy, the surviving ranks
// agree on the failure (an allreduce over the compute interconnect, which
// crashes of I/O nodes do not touch), the job waits out the outage, rolls
// back to the last committed checkpoint, re-reads it collectively, and
// re-executes the lost steps.
//
// The report splits the resilience overheads the way the classic optimal-
// checkpoint-interval analysis does: time writing checkpoints (grows as
// the interval shrinks), lost work re-executed after rollbacks (grows as
// the interval stretches), and time-to-recovery (outage wait + restart
// read).  `iosim run fault_ckpt` sweeps the interval against the fault
// rate to reproduce the interior-minimum tradeoff curve.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/injector.hpp"
#include "hw/machine.hpp"
#include "pario/extent.hpp"
#include "pario/resilient.hpp"
#include "pfs/fs.hpp"
#include "simkit/time.hpp"

namespace ckpt {

/// Checkpoint policy: {sync|async} write path x {full|incremental} data
/// selection.  The paper's thesis — software I/O techniques (overlap,
/// fewer/larger transfers) beat hardware scaling — applies verbatim to
/// checkpoint traffic: `kAsync` overlaps the drain with compute behind a
/// bounded staging buffer, `kIncremental` shrinks the volume to the
/// regions dirtied since the previous checkpoint.
struct Policy {
  enum class Write : std::uint8_t {
    kSync,   // ranks block inside the coordinated two-phase write
    kAsync,  // ranks stage a snapshot and a background task drains it
  };
  enum class Data : std::uint8_t {
    kFull,         // every checkpoint writes the whole rank state
    kIncremental,  // deltas between periodic full checkpoints
  };

  Write write = Write::kSync;
  Data data = Data::kFull;

  /// Job-wide staging budget for async snapshots, split evenly across
  /// ranks.  A snapshot that exceeds its rank's share degrades to
  /// blocking: the rank stages, then waits for its own drain to finish
  /// before computing on (so async never needs more memory than budgeted).
  std::uint64_t staging_budget_bytes = 64ULL << 20;

  /// In incremental mode every Nth checkpoint is full (the first always
  /// is); the deltas in between only cover regions dirtied since the
  /// previous checkpoint.  Restart replays full + consecutive deltas.
  int full_every = 4;

  bool is_sync_full() const noexcept {
    return write == Write::kSync && data == Data::kFull;
  }
  /// "sync_full" | "sync_incr" | "async_full" | "async_incr".
  std::string name() const;
  /// Inverse of name(); nullopt on anything else.
  static std::optional<Policy> parse(std::string_view s);
};

/// Per-step I/O issued by every rank between checkpoints.
enum class StepIo : std::uint8_t {
  kNone,            // compute-only steps
  kPrivateRead,     // re-read my private file each step (SCF's Fock build)
  kCollectiveDump,  // append a shared-file dump via two-phase I/O (BTIO)
};

struct Workload {
  std::string name = "synthetic";
  int nprocs = 8;
  int steps = 32;
  double flops_per_rank_step = 1e7;
  StepIo io = StepIo::kNone;
  std::uint64_t io_bytes_per_rank_step = 0;
  /// kPrivateRead reads in chunks of this size (the app's buffer tuple M).
  std::uint64_t io_chunk_bytes = 256 * 1024;
  /// When set, a one-time prologue writes the private files before the
  /// first step (SCF produces its integral file in iteration 1).  Not
  /// re-done after restarts — the data survives on disk.  When unset,
  /// kPrivateRead treats the files as pre-existing input and pays no
  /// prologue.
  bool prologue_writes_private = false;

  std::uint64_t state_bytes_per_rank = 1 << 20;  // checkpoint volume
  /// The checkpoint file interleaves each rank's state in this many
  /// pieces (round-robin by rank), so the collective write actually
  /// exercises the two-phase exchange.
  int state_pieces = 8;
  /// Content-backed checkpoint state: ranks keep real state buffers with
  /// a (rank, step)-derived pattern, and every restart verifies that the
  /// bytes read back match the checkpointed step.  Costs host RAM — meant
  /// for tests, not for paper-sized benches.
  bool backed_state = false;
  /// Fraction of the rank state dirtied by each step — a rotating window
  /// that advances deterministically with the step number, so dirty
  /// tracking is a pure function of (workload, step range).  1.0 (the
  /// default) rewrites everything and makes incremental checkpoints
  /// degenerate to full ones.
  double dirty_fraction_per_step = 1.0;
};

struct Options {
  /// Steps between coordinated checkpoints; 0 disables checkpointing
  /// (a failure then rolls back to the start of the job).
  int ckpt_interval_steps = 8;
  Policy policy;                     // write path x data selection
  pario::RetryPolicy retry;          // recovery policy for all job I/O
  /// Retry policy for async background drain writes.  max_attempts == 0
  /// (the default) inherits `retry` (without its replica — drains never
  /// fail over).  Tests use a weaker drain ladder to lose a delta without
  /// failing the foreground job.
  pario::RetryPolicy drain_retry{.max_attempts = 0};
  bool replicate_checkpoint = false; // mirror ckpt file for fail-over
                                     // (sync full checkpoints only)
  int max_restarts = 64;             // give up (completed=false) beyond

  /// Where checkpoint files (primary, mirror, async B buffer) live.
  /// kStriped (default) spreads them over the whole I/O partition —
  /// byte-identical to the pre-placement engine, but a scrubbing crash
  /// anywhere invalidates every copy.  The pinned placements confine each
  /// copy to one failure domain: kSameDomain puts primary AND mirror
  /// behind the same rack switch (the naive layout the bench indicts),
  /// kOtherDomain puts the mirror in the next domain so one rack's power
  /// event cannot take both copies.
  enum class Placement : std::uint8_t { kStriped, kSameDomain, kOtherDomain };
  Placement placement = Placement::kStriped;

  /// Health-aware recovery: maintain a pario::HealthTracker fed by all
  /// job I/O, pick the restore source by observed server health, hedge
  /// restore reads against the mirror (see hedge_latency_multiple), and
  /// re-mirror a scrub-invalidated copy from the surviving one after a
  /// restore (counted in Report::divergences_repaired).
  bool health_aware = false;
  /// Hedge multiple for restore reads when health_aware (see
  /// pario::RetryPolicy::hedge_latency_multiple); 0 disables hedging.
  double hedge_latency_multiple = 3.0;

  /// Bounded aggregator fan-in for checkpoint traffic at scale.  0 (the
  /// default) keeps the legacy shape: flat collectives, every rank doing
  /// file I/O, and one concurrent background drain stream per rank.
  /// N > 0 routes the coordinated checkpoint collectives over a two-level
  /// leader topology with ~N groups — the leaders aggregate the file I/O
  /// (see pario::TwoPhaseOptions::aggregators) — and caps concurrent
  /// async drain writers at N job-wide, so a thousand-rank job presents
  /// the I/O partition with N streams instead of P (DESIGN.md §16).
  int io_fan_in = 0;
};

struct Report {
  simkit::Duration exec_time = 0.0;     // end-to-end, including recoveries
  simkit::Duration ckpt_overhead = 0.0; // wall time ranks BLOCK for
                                        // checkpointing (sync: the write;
                                        // async: staging + budget waits)
  simkit::Duration lost_work = 0.0;     // productive time discarded by
                                        // rollbacks
  simkit::Duration recovery_time = 0.0; // outage wait + checkpoint re-reads
  int checkpoints = 0;                  // committed checkpoints (full+delta)
  int restarts = 0;
  std::uint64_t ckpt_bytes = 0;         // total checkpoint volume written
  bool completed = false;
  bool state_verified = true;           // meaningful when backed_state
  pario::RetryStats retry;              // aggregated over all job I/O

  // -- policy-dependent split (zero under sync_full) -----------------------
  Policy policy;                        // echo of the policy that ran
  int full_checkpoints = 0;             // committed fulls
  int delta_checkpoints = 0;            // committed deltas
  int dropped_checkpoints = 0;          // issued but never committed (failed
                                        // drain, broken chain, stale epoch)
  std::uint64_t delta_bytes = 0;        // bytes written by committed deltas
  simkit::Duration stage_wait = 0.0;    // rank-0 async waits for staging
                                        // space / the previous drain
  simkit::Duration drain_time = 0.0;    // summed background drain busy time
                                        // (overlapped with compute, NOT a
                                        // component of exec_time)

  // -- robustness split (zero unless scrubbing faults / health_aware) ------
  int lost_checkpoints = 0;             // committed checkpoints (fulls +
                                        // deltas) made unrestorable because
                                        // scrubbing crashes destroyed every
                                        // copy (a surviving mirror keeps the
                                        // checkpoint out of this count)
  int divergences_repaired = 0;         // scrub-invalidated copies re-mirrored
                                        // from the surviving one after restore
  std::uint64_t hedged_reads = 0;       // hedges issued during restores
  std::uint64_t hedge_wins = 0;         // hedges the mirror copy won

  /// exec time of a hypothetical fault-free, checkpoint-free run is
  /// exec_time - ckpt_overhead - lost_work - recovery_time minus retry
  /// backoff; the report keeps the pieces so benches can show the split.
};

/// Run the workload to completion (or to max_restarts) on the given
/// machine/file system.  `injector` may be null (fault-free run); when
/// set it must be the same injector the StripedFs was built with.
Report run(hw::Machine& machine, pfs::StripedFs& fs,
           fault::Injector* injector, Workload w, Options opt);

// -- dirty-region model (exposed for tests and restart replay) -------------

/// State-space regions (file_offset = offset into the rank's state,
/// buf_offset = position in a delta's packed payload) dirtied by steps
/// (from_step, to_step].  The rotating window makes consecutive steps
/// contiguous, so the union is one wrapped run: at most two extents, or
/// one covering the whole state once the window budget laps it.
std::vector<pario::Extent> dirty_extents(const Workload& w, int from_step,
                                         int to_step);

/// The step (<= at_step) whose window last covered state byte `i`; 0 means
/// never dirtied (initial state).  Drives backed-state verification of
/// full+delta chain restores.
int last_dirty_step(const Workload& w, int at_step, std::uint64_t i);

/// Young's [1974] first-order optimal checkpoint interval (productive
/// seconds between checkpoints): sqrt(2 * C * MTBF) for checkpoint cost C
/// and mean time between failures MTBF, both in seconds.  Accurate when
/// C << MTBF.
double young_interval(double ckpt_cost_s, double mtbf_s);

/// Daly's [2006] higher-order refinement of Young's formula:
///   t = sqrt(2*C*M) * [1 + (1/3)*sqrt(C/(2M)) + (1/9)*(C/(2M))] - C
/// for C < 2M, and t = M once checkpointing costs more than it saves.
/// `iosim run fault_ckpt --check` asserts the swept interior minimum
/// lands near this analytical optimum.
double young_daly_interval(double ckpt_cost_s, double mtbf_s);

}  // namespace ckpt
