// exp/options.hpp — command-line handling for the scenario driver
// (`iosim run`).
//
// Every scenario accepts:
//   --full         paper-sized op counts (default is a scaled-down run)
//   --scale=X      explicit volume/dump scale factor
//   --check        exit non-zero if the paper's qualitative shape fails
//   --csv          print CSV instead of the ASCII table
//   --metrics      collect metrics and print the registry table
//   --metrics-out=PATH  collect metrics and write them as JSON to PATH
//   --policy=NAME  checkpoint policy (fault_ckpt):
//                  sync_full | sync_incr | async_full | async_incr
//   --seed=N       fault-plan seed (scenarios with stochastic fault plans)
//   --audit        run every point under the audit::Ledger data-integrity
//                  auditor and print a per-scenario summary line
// Driver flags (scenario runner):
//   -j N / --jobs=N  thread count for grid points / scenarios
//   --repeat=K     run K times and fail on any output drift
//   --golden=PATH  fail unless output matches the pinned file
//   --all / --list scenario selection (iosim only)
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>

namespace expt {

struct Options {
  double scale;   // volume scale (1.0 = paper-sized)
  bool scale_given = false;  // --scale/--full seen (else per-scenario default)
  bool check = false;
  bool csv = false;
  bool metrics = false;      // print the metrics registry table
  std::string metrics_out;   // write metrics JSON here ("" = don't)
  std::string policy;        // ckpt policy name ("" = bench default)
  std::uint64_t seed = 42;   // fault-plan seed (stochastic-plan benches)
  bool audit = false;        // cross-check reads/writes in an audit ledger
  int jobs = 1;              // scenario-runner thread budget
  int repeat = 1;            // determinism gate: run K times, diff outputs
  std::string golden;        // determinism gate: pinned-output file
  bool all = false;          // iosim run --all
  bool list = false;         // iosim --list
  /// Set by parse() on the first unknown `-`/`--` token (a message naming
  /// the bad option and listing the valid ones) or the first malformed
  /// value (a message naming the flag and the value).  Callers print it
  /// and exit 2; positionals (scenario names) never trigger it.
  std::string error;

  explicit Options(double default_scale = 0.25) : scale(default_scale) {}

  /// Metrics collection is on if either output was requested.
  bool metrics_enabled() const {
    return metrics || !metrics_out.empty();
  }

  void parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strcmp(a, "--full") == 0) {
        scale = 1.0;
        scale_given = true;
      } else if (std::strncmp(a, "--scale=", 8) == 0) {
        if (!parse_value(a + 8, scale) || !std::isfinite(scale) ||
            scale <= 0.0) {
          bad_value("--scale", a + 8, "a finite number > 0");
        }
        scale_given = true;
      } else if (std::strcmp(a, "--check") == 0) {
        check = true;
      } else if (std::strcmp(a, "--csv") == 0) {
        csv = true;
      } else if (std::strcmp(a, "--metrics") == 0) {
        metrics = true;
      } else if (std::strncmp(a, "--metrics-out=", 14) == 0) {
        metrics_out = a + 14;
      } else if (std::strncmp(a, "--policy=", 9) == 0) {
        policy = a + 9;
      } else if (std::strncmp(a, "--seed=", 7) == 0) {
        if (!parse_value(a + 7, seed)) {
          bad_value("--seed", a + 7, "a non-negative integer");
        }
      } else if (std::strcmp(a, "--audit") == 0) {
        audit = true;
      } else if (std::strncmp(a, "--jobs=", 7) == 0) {
        parse_count("--jobs", a + 7, jobs);
      } else if (std::strcmp(a, "-j") == 0 && i + 1 < argc) {
        parse_count("-j", argv[++i], jobs);
      } else if (std::strncmp(a, "-j", 2) == 0 && a[2] != '\0') {
        parse_count("-j", a + 2, jobs);
      } else if (std::strncmp(a, "--repeat=", 9) == 0) {
        parse_count("--repeat", a + 9, repeat);
      } else if (std::strncmp(a, "--golden=", 9) == 0) {
        golden = a + 9;
      } else if (std::strcmp(a, "--all") == 0) {
        all = true;
      } else if (std::strcmp(a, "--list") == 0) {
        list = true;
      } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
        std::printf(
            "usage: %s [--full] [--scale=X] [--check] [--csv] [--metrics] "
            "[--metrics-out=PATH] [--policy=NAME] [--seed=N] [--audit] "
            "[-j N] [--repeat=K] [--golden=PATH]\n",
            argv[0]);
        std::exit(0);
      } else if (a[0] == '-' && error.empty()) {
        // A flag we don't know.  Record (don't exit: parse stays testable
        // and the caller owns the exit path); positionals fall through.
        error = std::string("unknown option '") + a +
                "' (valid: --full --scale=X --check --csv --metrics "
                "--metrics-out=PATH --policy=NAME --seed=N --audit "
                "-j N/--jobs=N --repeat=K --golden=PATH --all --list "
                "--help)";
      }
    }
  }

 private:
  /// Strict number parse: the whole token must be the value (no sign on
  /// unsigned types, no leading space, no trailing text, no overflow).
  template <typename T>
  static bool parse_value(const char* s, T& out) {
    const char* end = s + std::strlen(s);
    T v{};
    const auto [ptr, ec] = std::from_chars(s, end, v);
    if (ec != std::errc() || ptr != end) return false;
    out = v;
    return true;
  }

  /// A thread/repeat count: an integer >= 1.
  void parse_count(const char* flag, const char* s, int& out) {
    if (!parse_value(s, out) || out < 1) {
      bad_value(flag, s, "an integer >= 1");
    }
  }

  void bad_value(const char* flag, const char* s, const char* want) {
    if (!error.empty()) return;
    error = std::string("invalid value '") + s + "' for " + flag +
            " (want " + want + ")";
  }
};

/// Shape-check helper: prints PASS/FAIL lines; returns overall status.
class Checker {
 public:
  void expect(bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
    all_ok_ = all_ok_ && ok;
  }
  bool ok() const { return all_ok_; }
  int exit_code() const { return all_ok_ ? 0 : 1; }

 private:
  bool all_ok_ = true;
};

}  // namespace expt
