// perfbench/replay.cpp — replays one benchmark workload's grid points
// through the simulator's public layer APIs.
//
// `iosim run <scenario>` reports one wall time for a whole scenario.  This
// tool rebuilds each grid point of that scenario from the same calls the
// scenario makes (hw::Machine, pfs::StripedFs, mprt::Cluster,
// sched::generate, the fault plan and injector), so set-up and run time
// can be split per layer from outside the program, and it reads the
// counters the program already records into its metrics registry.
//
//   iosim_replay setup <workload> <seed> <reps>
//       Builds every grid point's objects <reps> times without running
//       them and prints the per-layer set-up seconds of each repetition.
//   iosim_replay trace <workload> <seed>
//       Runs every grid point once with a metrics registry installed and
//       prints, per point, the table cells `iosim run` prints for it (the
//       replay-fidelity check compares them), plus host time in the run
//       loop and the exact per-layer counts summed over the points.
//
// Workloads: xl_collective (figure2_xl), platform_cache
// (platform_server_cache), platform_faults (platform_server_faults).  The
// point definitions mirror bench/bench_<scenario>.cpp at default flags;
// a mismatch shows up as a fidelity failure, not as silent drift.
//
// Output is one JSON object on stdout.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "exp/table.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "hw/machine.hpp"
#include "iosrv/config.hpp"
#include "metrics/metrics.hpp"
#include "mprt/comm.hpp"
#include "pario/health.hpp"
#include "pario/twophase.hpp"
#include "pfs/fs.hpp"
#include "sched/arrival.hpp"
#include "sched/platform.hpp"
#include "simkit/engine.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host seconds spent in each layer's set-up calls.
struct SetupTimes {
  double hw = 0.0;     // hw::Machine
  double pfs = 0.0;    // pfs::StripedFs (+ file create)
  double mprt = 0.0;   // mprt::Cluster (+ topology)
  double sched = 0.0;  // sched::generate
  double fault = 0.0;  // fault::InjectionPlan + fault::Injector

  double total() const { return hw + pfs + mprt + sched + fault; }
};

/// Runs `f` and adds its host duration to `acc`.
template <class F>
void timed(double& acc, F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  acc += seconds_since(t0);
}

/// One grid point's simulated outcome, keyed by the column names of the
/// scenario's table, formatted exactly as the scenario prints them.
struct Point {
  std::string name;
  std::vector<std::pair<std::string, std::string>> cells;
  double run_s = 0.0;  // host seconds in Engine::run / sched::run
  std::uint64_t events = 0;
  std::uint64_t clamped = 0;
};

/// Totals over a traced workload's points.
struct Trace {
  std::vector<Point> points;
  metrics::Registry reg;             // every point's registry, merged
  std::vector<double> read_spans;    // simulated TwoPhase::read durations
  std::map<std::string, double> sum; // additive simulated quantities
  double queue_depth_max = 0.0;
  double sched_run_s = 0.0;          // host seconds in sched::run
};

/// Largest disk queue depth any I/O node's sampled series recorded.
double queue_depth_max(const metrics::Registry& reg) {
  double m = 0.0;
  for (const auto& [name, ts] : reg.timeseries_map()) {
    if (name.size() < 12 ||
        name.compare(name.size() - 12, 12, ".queue_depth") != 0) {
      continue;
    }
    for (const metrics::Sample& s : ts.samples()) m = std::max(m, s.value);
  }
  return m;
}

// --- xl_collective: iosim run figure2_xl -----------------------------------

constexpr std::uint64_t kXlRecBytes = 64 * 1024;
constexpr std::uint64_t kXlTotalBytes = 128ULL << 20;
constexpr std::uint64_t kXlRecs = kXlTotalBytes / kXlRecBytes;
constexpr int kXlProcs[] = {1024, 1536, 2048};
struct XlCell {
  const char* name;
  bool hier;
  std::size_t io;
};
constexpr XlCell kXlCells[] = {{"flat/64io", false, 64},
                               {"hier/64io", true, 64},
                               {"flat/128io", false, 128},
                               {"hier/128io", true, 128}};
// figure2_xl's default scale 0.5 gives one step per point.
constexpr int kXlSteps = 1;

std::vector<pario::Extent> xl_pieces(int rank, int p, int step) {
  std::vector<pario::Extent> out;
  const std::uint64_t base = static_cast<std::uint64_t>(step) * kXlTotalBytes;
  std::uint64_t buf = 0;
  for (std::uint64_t i = static_cast<std::uint64_t>(rank); i < kXlRecs;
       i += static_cast<std::uint64_t>(p)) {
    out.push_back(pario::Extent{base + i * kXlRecBytes, kXlRecBytes, buf});
    buf += kXlRecBytes;
  }
  return out;
}

std::size_t xl_points() { return std::size(kXlProcs) * std::size(kXlCells); }

void xl_point(std::size_t i, SetupTimes& st, Trace* tr) {
  const int p = kXlProcs[i / std::size(kXlCells)];
  const XlCell& c = kXlCells[i % std::size(kXlCells)];
  metrics::Registry local;
  // The scenario installs a per-point registry even without --metrics
  // (it reads mprt.alltoall.msgs); set-up repetitions do the same.
  metrics::Scope scope(local);
  simkit::Engine eng;
  std::optional<hw::Machine> machine;
  timed(st.hw, [&] {
    machine.emplace(eng, hw::MachineConfig::paragon_xl(
                             static_cast<std::size_t>(p), c.io));
  });
  std::optional<pfs::StripedFs> fs;
  pfs::FileId f{};
  timed(st.pfs, [&] {
    fs.emplace(*machine);
    f = fs->create("xl_dump");
  });
  std::optional<mprt::Cluster> cluster;
  timed(st.mprt, [&] {
    cluster.emplace(*machine, p);
    if (c.hier) {
      cluster->set_topology({mprt::CollectiveTopology::Kind::kTwoLevel,
                             p / static_cast<int>(c.io)});
    }
  });
  if (!tr) return;

  const std::function<simkit::Task<void>(mprt::Comm&)> body =
      [&](mprt::Comm& cm) -> simkit::Task<void> {
    for (int s = 0; s < kXlSteps; ++s) {
      auto mine = xl_pieces(cm.rank(), p, s);
      const simkit::Time t0 = eng.now();
      co_await pario::TwoPhase::read(cm, *fs, f, std::move(mine));
      tr->read_spans.push_back(eng.now() - t0);
    }
  };
  Point pt;
  pt.name = std::to_string(p) + " " + c.name;
  eng.spawn(cluster->run(body));
  const Clock::time_point t0 = Clock::now();
  eng.run();
  pt.run_s = seconds_since(t0);
  pt.events = eng.events_processed();
  pt.clamped = eng.clamped_schedules();
  for (int r = 0; r < cluster->size(); ++r) {
    const mprt::Comm& cm = cluster->comm(r);
    tr->sum["mprt.msgs"] += static_cast<double>(cm.messages_sent());
    tr->sum["mprt.bytes"] += static_cast<double>(cm.bytes_sent());
  }
  // figure2_xl tabulates alltoall messages for its 64-server columns.
  pt.cells = {{"exec", expt::fmt("%.4f", eng.now())}};
  if (c.io == 64) {
    pt.cells.emplace_back(
        "a2a msgs",
        expt::fmt_u64(local.counter("mprt.alltoall.msgs").value()));
  }
  tr->queue_depth_max = std::max(tr->queue_depth_max, queue_depth_max(local));
  tr->reg.merge(local);
  tr->points.push_back(std::move(pt));
}

// --- platform_cache / platform_faults: the shared 224-job stream ------------

constexpr std::size_t kComputeNodes = 64;
constexpr std::size_t kIoNodes = 8;
constexpr int kJobs = 224;
// Both platform scenarios' default scale.
constexpr double kPlatformScale = 0.1;

struct CacheCell {
  const char* name;
  bool arc;
  bool readahead;
};
constexpr CacheCell kCacheCells[] = {
    {"lru", false, false}, {"arc", true, false}, {"arc_ra", true, true}};

constexpr std::size_t kFanIn = 4;
constexpr double kMtbf = 120.0;
constexpr double kOutage = 6.0;
constexpr double kCorrelatedFraction = 0.25;
constexpr double kCrashHorizon = 300.0;
constexpr const char* kPolicyNames[] = {"write_behind", "ordered_drain",
                                        "journaled", "write_through"};
constexpr iosrv::DurabilityPolicy kPolicies[] = {
    iosrv::DurabilityPolicy::kWriteBehind,
    iosrv::DurabilityPolicy::kOrderedDrain,
    iosrv::DurabilityPolicy::kJournaled,
    iosrv::DurabilityPolicy::kWriteThrough,
};

std::vector<sched::Job> platform_jobs(std::uint64_t seed, SetupTimes& st) {
  std::vector<sched::Job> jobs;
  timed(st.sched, [&] {
    sched::ArrivalConfig ac;
    ac.mean_interarrival_s = 2.0;
    ac.max_jobs = kJobs;
    ac.burst_period_s = 120.0;
    ac.burst_len_s = 30.0;
    ac.burst_rate_multiplier = 4.0;
    jobs = sched::generate(ac, sched::standard_mix(kPlatformScale), seed);
  });
  return jobs;
}

double capacity_waste(const sched::PlatformReport& r) {
  return static_cast<double>(kComputeNodes) * r.makespan - r.compute_node_s;
}

/// Folds one platform point's report into the trace and returns the
/// point skeleton (cells are filled by the caller).
Point platform_finish(const sched::PlatformReport& r, simkit::Engine& eng,
                      double run_s, metrics::Registry& local, Trace& tr) {
  Point pt;
  pt.run_s = run_s;
  pt.events = eng.events_processed();
  pt.clamped = eng.clamped_schedules();
  tr.sched_run_s += run_s;
  tr.sum["sched.completed"] += r.completed_jobs;
  tr.sum["sched.jobs"] += static_cast<double>(r.jobs.size());
  tr.sum["sched.makespan_s"] += r.makespan;
  tr.sum["iosrv.readahead.issued"] += static_cast<double>(r.readahead_issued);
  tr.sum["iosrv.readahead.hits"] += static_cast<double>(r.readahead_hits);
  tr.sum["iosrv.journal_appends"] += static_cast<double>(r.journal_appends);
  tr.sum["iosrv.lost_dirty_blocks"] +=
      static_cast<double>(r.lost_dirty_blocks);
  tr.sum["iosrv.cache_invalidations"] +=
      static_cast<double>(r.cache_invalidations);
  tr.sum["iosrv.durability_wait_s"] += r.durability_wait_s;
  tr.queue_depth_max = std::max(tr.queue_depth_max, queue_depth_max(local));
  tr.reg.merge(local);
  return pt;
}

std::size_t cache_points() { return std::size(kCacheCells); }

void cache_point(std::size_t i, std::uint64_t seed, SetupTimes& st,
                 Trace* tr) {
  const CacheCell& c = kCacheCells[i];
  metrics::Registry local;
  std::optional<metrics::Scope> scope;
  if (tr) scope.emplace(local);
  simkit::Engine eng;
  std::optional<hw::Machine> machine;
  timed(st.hw, [&] {
    hw::MachineConfig mc =
        hw::MachineConfig::paragon_large(kComputeNodes, kIoNodes);
    mc.io.cache_bytes_per_io_node = 16ULL << 20;
    mc.io.server.policy =
        c.arc ? iosrv::PolicyKind::kArc : iosrv::PolicyKind::kLru;
    mc.io.server.readahead.enabled = c.readahead;
    machine.emplace(eng, mc);
  });
  std::optional<pfs::StripedFs> fs;
  timed(st.pfs, [&] { fs.emplace(*machine); });
  std::vector<sched::Job> jobs = platform_jobs(seed, st);
  if (!tr) return;

  sched::PlatformOptions po;
  const Clock::time_point t0 = Clock::now();
  const sched::PlatformReport r =
      sched::run(*machine, *fs, nullptr, std::move(jobs), po);
  Point pt = platform_finish(r, eng, seconds_since(t0), local, *tr);
  pt.name = c.name;
  pt.cells = {
      {"done", expt::fmt_u64(static_cast<unsigned long long>(
                   r.completed_jobs)) + "/" + expt::fmt_u64(r.jobs.size())},
      {"makespan (s)", expt::fmt_s(r.makespan)},
      {"util %", expt::fmt("%.1f", 100.0 * r.utilization)},
      {"waste (node-s)", expt::fmt("%.0f", capacity_waste(r))},
      {"hit %", expt::fmt("%.1f", 100.0 * r.cache_hit_rate())},
      {"evictions", expt::fmt_u64(r.cache_evictions)},
      {"ra issued", expt::fmt_u64(r.readahead_issued)},
      {"ra hits", expt::fmt_u64(r.readahead_hits)},
      {"ra waste", expt::fmt_u64(r.readahead_waste)}};
  tr->points.push_back(std::move(pt));
}

std::size_t faults_points() { return std::size(kPolicies); }

void faults_point(std::size_t i, std::uint64_t seed, SetupTimes& st,
                  Trace* tr) {
  metrics::Registry local;
  std::optional<metrics::Scope> scope;
  if (tr) scope.emplace(local);
  simkit::Engine eng;
  std::optional<hw::Machine> machine;
  timed(st.hw, [&] {
    hw::MachineConfig mc =
        hw::MachineConfig::paragon_large(kComputeNodes, kIoNodes);
    mc.io_nodes_per_switch = kFanIn;
    mc.io.cache_bytes_per_io_node = 16ULL << 20;
    mc.io.server.policy = iosrv::PolicyKind::kArc;
    mc.io.server.readahead.enabled = true;
    mc.io.server.writeback.mode = iosrv::WritebackMode::kPool;
    mc.io.server.durability.policy = kPolicies[i];
    mc.io.server.durability.crash_semantics = true;
    machine.emplace(eng, mc);
  });
  std::optional<fault::Injector> injector;
  timed(st.fault, [&] {
    injector.emplace(fault::InjectionPlan::correlated_node_crashes(
        kIoNodes, kFanIn, kMtbf, kOutage, kCorrelatedFraction, kCrashHorizon,
        seed, /*scrub_domains=*/false));
  });
  std::optional<pfs::StripedFs> fs;
  timed(st.pfs, [&] { fs.emplace(*machine, &*injector); });
  std::vector<sched::Job> jobs = platform_jobs(seed, st);
  pario::HealthTracker health(kIoNodes);
  if (!tr) return;

  sched::PlatformOptions po;
  po.retry.max_attempts = 7;
  po.retry.backoff_ms = 200.0;
  po.retry.backoff_multiplier = 2.0;
  po.retry.health = &health;
  audit::Ledger ledger;
  sched::PlatformReport r;
  const Clock::time_point t0 = Clock::now();
  {
    audit::Scope audit_scope(ledger);
    r = sched::run(*machine, *fs, &*injector, std::move(jobs), po);
  }
  Point pt = platform_finish(r, eng, seconds_since(t0), local, *tr);
  const audit::Totals a = ledger.totals();
  tr->sum["audit.violations"] += static_cast<double>(a.violations());
  tr->sum["audit.lost_updates"] += static_cast<double>(a.lost_updates);
  pt.name = kPolicyNames[i];
  pt.cells = {
      {"done", expt::fmt_u64(static_cast<unsigned long long>(
                   r.completed_jobs)) + "/" + expt::fmt_u64(r.jobs.size())},
      {"makespan (s)", expt::fmt_s(r.makespan)},
      {"waste (node-s)", expt::fmt("%.0f", capacity_waste(r))},
      {"dur wait (s)", expt::fmt("%.1f", r.durability_wait_s)},
      {"lost blk", expt::fmt_u64(r.lost_dirty_blocks)},
      {"lost KB", expt::fmt_u64(r.lost_bytes >> 10)},
      {"ra cancel", expt::fmt_u64(r.readahead_cancelled)},
      {"replayed", expt::fmt_u64(r.journal_replayed)},
      {"lost upd", expt::fmt_u64(a.lost_updates)},
      {"stale", expt::fmt_u64(a.stale_reads)},
      {"viol", expt::fmt_u64(a.violations())}};
  tr->points.push_back(std::move(pt));
}

// --- workload table and JSON output -----------------------------------------

struct Workload {
  const char* name;
  std::size_t (*points)();
  std::function<void(std::size_t, std::uint64_t, SetupTimes&, Trace*)> point;
};

const Workload kWorkloads[] = {
    {"xl_collective", xl_points,
     [](std::size_t i, std::uint64_t, SetupTimes& st, Trace* tr) {
       xl_point(i, st, tr);
     }},
    {"platform_cache", cache_points, cache_point},
    {"platform_faults", faults_points, faults_point},
};

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string setup_json(const SetupTimes& st) {
  return "{\"hw\": " + num(st.hw) + ", \"pfs\": " + num(st.pfs) +
         ", \"mprt\": " + num(st.mprt) + ", \"sched\": " + num(st.sched) +
         ", \"fault\": " + num(st.fault) + ", \"total\": " + num(st.total()) +
         "}";
}

/// Nearest-rank percentile of an unsorted sample (0 when empty).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(v.size()) + 0.999999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

int run_setup(const Workload& w, std::uint64_t seed, int reps) {
  std::printf("{\"workload\": %s, \"seed\": %" PRIu64 ", \"reps\": [",
              json_str(w.name).c_str(), seed);
  for (int k = 0; k < reps; ++k) {
    SetupTimes st;
    for (std::size_t i = 0; i < w.points(); ++i) w.point(i, seed, st, nullptr);
    std::printf("%s%s", k ? ", " : "", setup_json(st).c_str());
  }
  std::printf("]}\n");
  return 0;
}

int run_trace(const Workload& w, std::uint64_t seed) {
  Trace tr;
  SetupTimes st;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < w.points(); ++i) w.point(i, seed, st, &tr);
  const double wall = seconds_since(t0);

  std::uint64_t events = 0;
  std::uint64_t clamped = 0;
  double run_s = 0.0;
  std::string pts;
  for (const Point& p : tr.points) {
    events += p.events;
    clamped += p.clamped;
    run_s += p.run_s;
    std::string cells;
    for (const auto& [k, v] : p.cells) {
      cells += (cells.empty() ? "" : ", ") + json_str(k) + ": " + json_str(v);
    }
    pts += std::string(pts.empty() ? "" : ", ") + "{\"name\": " +
           json_str(p.name) + ", \"cells\": {" + cells +
           "}, \"run_s\": " + num(p.run_s) +
           ", \"events\": " + std::to_string(p.events) +
           ", \"clamped\": " + std::to_string(p.clamped) + "}";
  }

  const metrics::Registry& reg = tr.reg;
  std::string counters;
  for (const auto& [name, c] : reg.counters()) {
    counters += (counters.empty() ? "" : ", ") + json_str(name) + ": " +
                std::to_string(c.value());
  }
  auto hist = [&](const char* name) -> const metrics::Histogram* {
    const auto it = reg.histograms().find(name);
    return it == reg.histograms().end() ? nullptr : &it->second;
  };
  auto hsum = [&](const char* name) {
    const metrics::Histogram* h = hist(name);
    return h ? h->sum() : 0.0;
  };
  auto hpct = [&](const char* name, double q) {
    const metrics::Histogram* h = hist(name);
    return h ? h->percentile(q) : 0.0;
  };
  std::map<std::string, double> sim = tr.sum;
  sim["simkit.events"] = static_cast<double>(events);
  sim["simkit.clamped_schedules"] = static_cast<double>(clamped);
  sim["pfs.queue_depth_max"] = tr.queue_depth_max;
  sim["pario.twophase.read_sim_s.p50"] = percentile(tr.read_spans, 0.50);
  sim["pario.twophase.read_sim_s.p99"] = percentile(tr.read_spans, 0.99);
  sim["pario.twophase.read_spans"] = static_cast<double>(tr.read_spans.size());
  sim["pario.twophase.exchange_s"] = hsum("pario.twophase.exchange_s");
  sim["pario.twophase.io_s"] = hsum("pario.twophase.io_s");
  sim["pfs.disk.queue_wait_s.p50"] = hpct("pfs.disk.queue_wait_s", 0.50);
  sim["pfs.disk.queue_wait_s.p99"] = hpct("pfs.disk.queue_wait_s", 0.99);
  std::string sims;
  for (const auto& [k, v] : sim) {
    sims += (sims.empty() ? "" : ", ") + json_str(k) + ": " + num(v);
  }

  std::printf(
      "{\"workload\": %s, \"seed\": %" PRIu64
      ", \"wall_s\": %s, \"setup\": %s, \"host\": {\"simkit.run_s\": %s, "
      "\"sched.run_s\": %s}, \"sim\": {%s}, \"counters\": {%s}, "
      "\"points\": [%s]}\n",
      json_str(w.name).c_str(), seed, num(wall).c_str(),
      setup_json(st).c_str(), num(run_s).c_str(), num(tr.sched_run_s).c_str(),
      sims.c_str(), counters.c_str(), pts.c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: iosim_replay setup <workload> <seed> <reps>\n"
               "       iosim_replay trace <workload> <seed>\n"
               "workloads: xl_collective platform_cache platform_faults\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string mode = argv[1];
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (std::strcmp(cand.name, argv[2]) == 0) w = &cand;
  }
  if (!w) return usage();
  char* end = nullptr;
  const std::uint64_t seed = std::strtoull(argv[3], &end, 10);
  if (*end != '\0') return usage();
  if (mode == "setup" && argc == 5) {
    const int reps = std::atoi(argv[4]);
    if (reps < 1) return usage();
    return run_setup(*w, seed, reps);
  }
  if (mode == "trace" && argc == 4) return run_trace(*w, seed);
  return usage();
}
