// exp/table.hpp — ASCII table / CSV emitter for experiment results.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace expt {

/// Column-aligned text table with a markdown-ish rendering, used by every
/// scenario to print the paper's tables/figure series.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  Table& add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  std::string str() const;
  std::string csv() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// printf-style cell formatting helpers.
std::string fmt(const char* format, double value);
inline std::string fmt_s(double seconds) { return fmt("%.1f", seconds); }
inline std::string fmt_mb(double mb) { return fmt("%.2f", mb); }
std::string fmt_u64(unsigned long long v);

}  // namespace expt
