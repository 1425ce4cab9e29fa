// scenario/scenario.hpp — first-class experiment scenarios.
//
// Every paper table/figure reproduction used to be its own binary with a
// hand-rolled sweep loop.  A Scenario captures the shared shape instead:
// a name, a parameter grid, and a body that runs grid points (each point
// one independent deterministic simulation) and renders tables + shape
// checks from the collected results.  The `iosim` driver owns the
// command line, the thread pool, golden comparison, and repeat gating;
// adding a scenario is one registration in one translation unit.
//
// Determinism contract: a point must not touch anything outside its own
// Engine / metrics::Registry / RNG streams.  The Context runs points on
// a thread pool but stores every result (output rows, named values,
// per-point metrics registries) by point index and folds them back in
// grid order on the body's thread — so `-j N` output is byte-identical
// to `-j 1`.
#pragma once

#include <atomic>
#include <cstdarg>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "exp/options.hpp"
#include "metrics/metrics.hpp"

namespace scenario {

/// Process-wide pool of extra worker threads, shared between the
/// scenario level (run several scenarios at once) and the point level
/// (fan one scenario's grid out) so `-j N` bounds the TOTAL thread
/// count.  Callers always keep their own thread, so acquire(0 granted)
/// still makes progress.
class JobBudget {
 public:
  explicit JobBudget(int jobs) : tokens_(jobs > 1 ? jobs - 1 : 0) {}

  /// Take up to `want` worker tokens; returns how many were granted.
  int acquire(int want) {
    int have = tokens_.load(std::memory_order_relaxed);
    while (want > 0 && have > 0) {
      const int take = have < want ? have : want;
      if (tokens_.compare_exchange_weak(have, have - take)) return take;
    }
    return 0;
  }
  void release(int n) { tokens_.fetch_add(n); }

 private:
  std::atomic<int> tokens_;
};

/// One named parameter axis of a scenario's grid.
struct Axis {
  std::string name;
  std::vector<std::string> values;
};

/// A position in the expanded grid.  `coord[a]` is the value index on
/// axis `a`; expansion is row-major with the LAST axis fastest, so the
/// expansion order matches the nested loops the bench binaries used to
/// write (outer axis first).
struct GridPoint {
  std::size_t index = 0;
  std::vector<std::size_t> coord;

  std::size_t at(std::size_t axis) const { return coord.at(axis); }
};

/// Number of points in the cartesian product (1 for an empty grid).
std::size_t grid_size(const std::vector<Axis>& grid);

/// The `index`-th point of the expansion (see GridPoint for the order).
GridPoint grid_point(const std::vector<Axis>& grid, std::size_t index);

class Context;

/// Thrown by a scenario body for bad per-scenario flags (e.g. an unknown
/// --policy name); the runner reports it on stderr and exits 2, matching
/// the old bench binaries.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A registered scenario: everything the driver needs to list it, run
/// it, and gate it.
struct Spec {
  std::string name;         // CLI handle, e.g. "fig1"
  std::string title;        // one-line description for `iosim list`
  /// What the scenario demonstrates and what --check asserts — printed
  /// (indented) under the title by `iosim list`, so the registry is
  /// self-documenting.  Keep it to a sentence or two.
  std::string description;
  double default_scale = 1.0;
  std::vector<Axis> grid;   // declarative grid (may be empty)
  // Output contains host wall-clock timings (engine_bench): excluded
  // from golden/repeat gates and run serially.
  bool wallclock = false;
  std::function<void(Context&)> run;
};

/// Execution context handed to a scenario body.  Collects output text,
/// shape-check results, and the merged metrics registry; fans points out
/// on the driver's thread pool.
class Context {
 public:
  /// `budget` may be null (serial) and is not owned.
  Context(const expt::Options& opt, std::string metrics_path,
          JobBudget* budget);
  ~Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  const expt::Options& opt() const { return opt_; }

  // -- output ---------------------------------------------------------
  void print(std::string_view s) { out_ << s; }
  void printf(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  std::string output() const { return out_.str(); }

  // -- shape checks ---------------------------------------------------
  /// Prints "  [PASS]/[FAIL] what" (same format the bench binaries used)
  /// and folds into ok().
  void expect(bool ok, const std::string& what);
  bool ok() const { return all_ok_; }

  // -- metrics --------------------------------------------------------
  /// The scenario-wide registry: per-point registries merge into it in
  /// point order after every map() call.  Only populated when the run
  /// was started with --metrics/--metrics-out.
  metrics::Registry& registry() { return registry_; }
  /// Uninstall the body's metrics scope and, if --metrics-out was given,
  /// write the JSON file and append the "metrics: wrote PATH" line.
  /// Under --audit also appends the deterministic "audit: ..." summary
  /// of every per-point ledger (merged in point order).  Idempotent;
  /// called automatically after the body returns.
  void finish_metrics();

  // -- data-integrity audit -------------------------------------------
  /// Per-point audit totals merged in point order (--audit only; empty
  /// otherwise).  A scenario body that installs its OWN audit::Scope
  /// inside a point diverts that point's events away from the --audit
  /// ledger — its summary then reflects only the un-diverted points.
  const audit::Totals& audit_totals() const { return audit_totals_; }

  // -- parallel points ------------------------------------------------
  /// Run fn(i) for i in [0, n) on up to --jobs threads.  Each point runs
  /// under its own metrics::Registry (merged back in index order); the
  /// first exception (by point index) is rethrown on this thread.
  void for_each_point(std::size_t n,
                      const std::function<void(std::size_t)>& fn);

  /// Typed fan-out: returns one R per point, in point order.
  template <class R, class Fn>
  std::vector<R> map(std::size_t n, Fn&& fn) {
    std::vector<R> out(n);
    for_each_point(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// Typed fan-out over a declared grid.
  template <class R, class Fn>
  std::vector<R> map_grid(const std::vector<Axis>& grid, Fn&& fn) {
    std::vector<R> out(grid_size(grid));
    for_each_point(out.size(), [&](std::size_t i) {
      out[i] = fn(grid_point(grid, i));
    });
    return out;
  }

 private:
  friend class Runner;

  const expt::Options& opt_;
  std::string metrics_path_;
  JobBudget* budget_;
  std::ostringstream out_;
  bool all_ok_ = true;
  metrics::Registry registry_;
  metrics::Scope* scope_ = nullptr;  // owned; installed iff metrics on
  bool metrics_done_ = false;
  audit::Totals audit_totals_;  // merged per-point totals (--audit)
};

/// Static registry of scenarios.  Instantiable for tests; the process-
/// wide instance is global().
class Registry {
 public:
  /// Throws std::logic_error on an empty or duplicate name.
  void add(Spec spec);
  const Spec* find(std::string_view name) const;
  /// All scenarios, sorted by name (stable across link order).
  std::vector<const Spec*> all() const;

  static Registry& global();

 private:
  std::vector<Spec> specs_;
};

/// One static instance per scenario translation unit registers the spec.
struct Registration {
  explicit Registration(Spec spec) {
    Registry::global().add(std::move(spec));
  }
};

}  // namespace scenario
