// ledger — the serving benchmark's main program.
//
//   ledger --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//
// Runs one workload. Prints one `workload metric value unit` line per
// metric, '#' lines with sample counts, raw values and check results, and
// as its last line one JSON object {"correct", "attempted", "failed",
// "metrics"}. Writes the same report to bench_results/ledger/<workload>.json
// and, with --trace 1, the first spans as
// bench_results/ledger/trace_<workload>.json. Exits 1 when a check fails and 2 on bad
// arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The result object: the last stdout line, and — with `opt` — the body of
/// the report file, which adds the run's options, checks and notes.
std::string result_json(const ledger::Report& r,
                        const ledger::Options* opt = nullptr) {
  std::string s = "{";
  if (opt)
    s += "\"workload\": \"" + json_escape(opt->workload) +
         "\", \"seed\": " + std::to_string(opt->seed) +
         ", \"seconds\": " + number(opt->seconds) +
         ", \"trace\": " + (opt->trace ? "1" : "0") +
         ", \"smoke\": " + (opt->smoke ? "true" : "false") + ", ";
  s += "\"correct\": ";
  s += r.correct() ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    s += (i ? ", " : "") + std::string("\"") + m.name + "\": {\"value\": " +
         number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}";
  if (opt) {
    s += ", \"checks\": [";
    for (std::size_t i = 0; i < r.checks.size(); ++i) {
      const auto& c = r.checks[i];
      s += (i ? ", " : "") + std::string("{\"name\": \"") + c.name +
           "\", \"ok\": " + (c.ok ? "true" : "false") + ", \"detail\": \"" +
           json_escape(c.detail) + "\"}";
    }
    s += "], \"notes\": [";
    for (std::size_t i = 0; i < r.notes.size(); ++i)
      s += (i ? ", \"" : "\"") + json_escape(r.notes[i]) + "\"";
    s += "]";
  }
  return s + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "ledger: %s\nusage: ledger --workload W [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ledger::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else {
      return usage(("unknown or incomplete argument " + a).c_str());
    }
  }
  if (opt.workload.empty()) return usage("--workload is required");
  if (opt.seconds < 0.0) return usage("--seconds must be >= 0");
  if (opt.smoke) opt.seconds = 0.0;  // the fewest passes the checks need
  std::filesystem::create_directories(ledger::kOutDir);

  ledger::Report r;
  try {
    r = ledger::run_workload(opt);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  const char* w = opt.workload.c_str();
  for (const auto& n : r.notes) std::printf("# %s %s\n", w, n.c_str());
  for (const auto& c : r.checks)
    std::printf("# %s check %s: %s (%s)\n", w, c.name.c_str(),
                c.ok ? "ok" : "FAIL", c.detail.c_str());
  for (const auto& m : r.metrics)
    std::printf("%s %s %s %s\n", w, m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  const std::string path = std::string(ledger::kOutDir) + "/" + opt.workload + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "%s\n", result_json(r, &opt).c_str());
    std::fclose(f);
  }
  std::printf("%s\n", result_json(r).c_str());
  return r.correct() ? 0 : 1;
}
