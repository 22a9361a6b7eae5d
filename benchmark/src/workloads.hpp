// The ledger's workloads and the report they fill.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ledger {

/// Where <workload>.json and trace_<workload>.json are written.
inline constexpr const char* kOutDir = "bench_results/ledger";

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Wall seconds of timed passes (the first pass always runs whole).
  /// paper_azure ignores it and runs a fixed set of passes.
  double seconds = 10.0;
  /// false: end-to-end metrics from untraced passes. true: per-layer
  /// metrics from a traced pass, checked against an untraced twin.
  bool trace = false;
  /// ~1/50 of every input size and no time budget, every check still on.
  bool smoke = false;
};

struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  /// Free-form context printed as '#' lines: sample counts, raw values.
  std::vector<std::string> notes;
  /// Queries submitted in measured passes, and those that never reached a
  /// terminal (completed or dropped).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
  }
  void note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  bool correct() const {
    for (const auto& c : checks)
      if (!c.ok) return false;
    return true;
  }
};

/// Build, run and check one workload. Throws std::invalid_argument for an
/// unknown workload name.
Report run_workload(const Options& opt);

}  // namespace ledger
