// The ledger's five workloads. Each one generates its inputs from the seed
// (arrival times from a Poisson process, prompt ids from the prompt-mix
// sampler), builds the serving stack through the library's public API,
// runs timed passes until the time budget is spent (paper_azure: a fixed
// set of passes), and checks its own outputs. A traced run rebuilds the same stack with the probes of
// probes.hpp around each layer's public seam and reports per-layer metrics.
#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "cache/approx_cache.hpp"
#include "cluster/cluster_controller.hpp"
#include "cluster/cluster_run.hpp"
#include "cluster/shard_frontend.hpp"
#include "cluster/shard_node.hpp"
#include "control/controller.hpp"
#include "control/exhaustive_allocator.hpp"
#include "control/milp_allocator.hpp"
#include "core/environment.hpp"
#include "core/experiment.hpp"
#include "engine/engine.hpp"
#include "engine/metrics_sink.hpp"
#include "net/messages.hpp"
#include "net/transport.hpp"
#include "probes.hpp"
#include "runtime/threaded_runtime.hpp"
#include "serving/system.hpp"
#include "sim/simulation.hpp"
#include "trace/arrivals.hpp"
#include "trace/prompt_mix.hpp"
#include "trace/rate_trace.hpp"
#include "util/rng.hpp"
#include "util/trace_clock.hpp"

namespace ledger {

void Report::note(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  notes.emplace_back(buf);
}

namespace {

using namespace diffserve;

// ---- metric catalogues ------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Untraced metrics, reported by every workload (BENCHMARK.json end_to_end).
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"qps", "1/s"},
    {"slo_attainment", "ratio"},
    {"peak_rss_mb", "MB"},
};

// Traced metrics, reported by every workload (BENCHMARK.json per_layer). A
// layer a workload does not run reads 0.
const MetricSpec kPerLayer[] = {
    {"control.ticks", "count"},
    {"control.solve_ms.p50", "ms"},
    {"control.solve_ms.p99", "ms"},
    {"control.solve_share", "ratio"},
    {"control.tick_other_ms.p50", "ms"},
    {"control.plan_changes", "count"},
    {"milp.nodes.mean", "count"},
    {"cache.lookups", "count"},
    {"cache.insertions", "count"},
    {"cache.evictions", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.exact_hit_ratio", "ratio"},
    {"cache.probed_cells.mean", "count"},
    {"cache.candidates_per_lookup", "count"},
    {"cache.hits_per_candidate", "ratio"},
    {"cache.heap_compactions", "count"},
    {"cache.lookup_ns.p50", "ns"},
    {"cache.lookup_ns.p99", "ns"},
    {"cache.insert_ns.p50", "ns"},
    {"cache.share", "ratio"},
    {"disc.scores_per_query", "count"},
    {"disc.confidence_ns.p50", "ns"},
    {"engine.submit_ns.p50", "ns"},
    {"engine.submit_ns.p99", "ns"},
    {"engine.launch_cb_ns.p50", "ns"},
    {"engine.launch_cb_ns.p99", "ns"},
    {"engine.done_cb_ns.p50", "ns"},
    {"engine.done_cb_ns.p99", "ns"},
    {"engine.share", "ratio"},
    {"engine.batch_size.mean", "count"},
    {"engine.timer_cancel_ratio", "ratio"},
    {"engine.deferred_share", "ratio"},
    {"sim.events_per_query", "count"},
    {"sim.self_ns_per_event", "ns"},
    {"sim.heap_compactions", "count"},
    {"sim.share", "ratio"},
    {"runtime.guard_wait_ns.p50", "ns"},
    {"runtime.guard_wait_ns.p99", "ns"},
    {"runtime.guard_acquires_per_query", "count"},
    {"runtime.exec_late_us.p50", "us"},
    {"runtime.exec_late_us.p99", "us"},
    {"runtime.timer_late_us.p50", "us"},
    {"runtime.timer_late_us.p99", "us"},
    {"quality.fid", "FID"},
    {"quality.fid_ms", "ms"},
    {"quality.records", "count"},
    {"net.frames_per_query", "count"},
    {"net.bytes_per_query", "B"},
    {"net.send_ns.p50", "ns"},
    {"net.send_ns.p99", "ns"},
    {"net.encode_ns.query", "ns"},
    {"net.encode_ns.terminal", "ns"},
    {"net.decode_ns.query", "ns"},
    {"net.decode_ns.terminal", "ns"},
    {"cluster.submit_ns.p50", "ns"},
    {"cluster.submit_ns.p99", "ns"},
    {"cluster.fallback_share", "ratio"},
    {"cluster.plans_pushed", "count"},
    {"loadgen.late_us.p99.50k", "us"},
    {"loadgen.late_us.p99.100k", "us"},
    {"loadgen.late_us.p99.150k", "us"},
    {"loadgen.late_us.p99.200k", "us"},
    {"loadgen.late_us.p99.250k", "us"},
    {"loadgen.late_us.p99.300k", "us"},
    {"loadgen.late_us.p99.400k", "us"},
    {"loadgen.late_us.p99.500k", "us"},
    {"lat.50k.p50_added_us", "us"},
    {"lat.50k.p99_added_us", "us"},
    {"lat.150k.p50_added_us", "us"},
    {"lat.150k.p99_added_us", "us"},
    {"max_rate_qps", "1/s"},
    {"trace.overhead", "ratio"},
};

/// Values of one catalogue, all starting at 0; emitted in catalogue order so
/// every workload prints the same names.
template <std::size_t N>
class MetricSet {
 public:
  explicit MetricSet(const MetricSpec (&specs)[N]) : specs_(specs) {}
  void set(const std::string& name, double v) {
    for (const auto& s : specs_)
      if (name == s.name) {
        values_[name] = v;
        return;
      }
    throw std::logic_error("metric not in catalogue: " + name);
  }
  void emit(Report& r) const {
    for (const auto& s : specs_) {
      const auto it = values_.find(s.name);
      r.metric(s.name, it == values_.end() ? 0.0 : it->second, s.unit);
    }
  }

 private:
  const MetricSpec (&specs_)[N];
  std::map<std::string, double> values_;
};
using EndToEnd = MetricSet<sizeof(kEndToEnd) / sizeof(kEndToEnd[0])>;
using PerLayer = MetricSet<sizeof(kPerLayer) / sizeof(kPerLayer[0])>;

// ---- shared helpers ---------------------------------------------------------

constexpr double kDrainSeconds = 20.0;  // simulated drain after the trace
constexpr int kSetupRepeats = 5;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t scaled(std::size_t n, bool smoke) {
  return smoke ? std::max<std::size_t>(n / 50, 1) : n;
}

core::CascadeEnvironment make_env(std::size_t prompts) {
  core::EnvironmentConfig ec;
  ec.workload_queries = prompts;
  return core::CascadeEnvironment(ec);
}

/// The `throughput` bench's static plan: light pool ~80% loaded at 100 qps,
/// heavy batches of 1, threshold pinned at 2% deferral.
engine::AllocationPlan static_plan(const core::CascadeEnvironment& env) {
  auto p = engine::AllocationPlan::for_stages(2);
  p.workers = {12, 4};
  p.batches = {8, 1};
  p.thresholds = {env.offline_profile().threshold_for_fraction(0.02)};
  return p;
}

/// Everything a workload generates before its first timed pass.
struct Inputs {
  core::CascadeEnvironment env;
  std::vector<double> arrivals;          ///< trace seconds, ascending
  std::vector<quality::QueryId> prompts;  ///< one per arrival
};

std::vector<double> poisson_arrivals(double qps, double seconds,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  return trace::generate_arrivals(trace::RateTrace::constant(qps, seconds),
                                  rng);
}

/// Prompt-mix seed for a workload seed (the arrival RNG takes the seed itself).
std::uint64_t mix_seed(std::uint64_t seed) { return 0x5eedULL + seed; }

std::vector<quality::QueryId> prompt_stream(std::size_t n_prompts,
                                            std::size_t n,
                                            trace::PromptMixConfig mix) {
  trace::PromptSampler sampler(n_prompts, mix);
  std::vector<quality::QueryId> out(n);
  for (auto& p : out) p = sampler.next();
  return out;
}

/// Construct the inputs `kSetupRepeats` times; setup_s is the median.
std::unique_ptr<Inputs> timed_setup(
    EndToEnd& e2e, Report& r, const std::function<std::unique_ptr<Inputs>()>& build) {
  std::unique_ptr<Inputs> in;
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    in.reset();
    Stopwatch sw;
    in = build();
    times.push_back(sw.seconds());
  }
  e2e.set("setup_s", median(times));
  r.note("setup_s: median of %d constructions (min %.3f s, max %.3f s)",
         kSetupRepeats, *std::min_element(times.begin(), times.end()),
         *std::max_element(times.begin(), times.end()));
  return in;
}

/// The untraced result every workload reports.
void emit_end_to_end(EndToEnd& e2e, Report& r, double qps, double attainment,
                     double rss_mb) {
  e2e.set("qps", qps);
  e2e.set("slo_attainment", attainment);
  e2e.set("peak_rss_mb", rss_mb);
  e2e.emit(r);
}

/// Run `pass` until `seconds` of wall time are spent, at least twice (the
/// determinism check compares passes) and at most `max_passes` times.
void repeat_passes(double seconds, int max_passes,
                   const std::function<void()>& pass) {
  Stopwatch budget;
  int done = 0;
  do {
    pass();
    ++done;
  } while ((done < 2 || budget.seconds() < seconds) && done < max_passes);
}

engine::Query make_query(std::uint64_t seq, quality::QueryId prompt,
                         double arrival, double slo) {
  engine::Query q;
  q.seq = seq;
  q.prompt_id = prompt;
  q.arrival_time = arrival;
  q.deadline = arrival + slo;
  return q;
}

/// Serving decisions of one pass: the fields two runs over the same inputs
/// must agree on exactly.
struct Decisions {
  std::uint64_t submitted = 0, completed = 0, dropped = 0, plan_changes = 0;
  double violation = 0.0, light = 0.0, fid = -1.0, p50 = 0.0, p99 = 0.0;

  bool operator==(const Decisions& o) const {
    return submitted == o.submitted && completed == o.completed &&
           dropped == o.dropped && plan_changes == o.plan_changes &&
           violation == o.violation && light == o.light && fid == o.fid &&
           p50 == o.p50 && p99 == o.p99;
  }
  std::string str() const {
    char b[256];
    std::snprintf(b, sizeof(b),
                  "submitted=%llu completed=%llu dropped=%llu plans=%llu "
                  "violation=%.9g light=%.9g fid=%.9g p99=%.9g",
                  static_cast<unsigned long long>(submitted),
                  static_cast<unsigned long long>(completed),
                  static_cast<unsigned long long>(dropped),
                  static_cast<unsigned long long>(plan_changes), violation,
                  light, fid, p99);
    return b;
  }
};

Decisions sink_decisions(const engine::MetricsSink& sink,
                         std::uint64_t submitted) {
  Decisions d;
  d.submitted = submitted;
  d.completed = sink.completed();
  d.dropped = sink.dropped();
  d.violation = sink.violation_ratio();
  d.light = sink.light_served_fraction();
  if (d.completed > 0) {
    d.p50 = sink.latency_percentile(50.0);
    d.p99 = sink.latency_percentile(99.0);
  }
  return d;
}

/// Checks every timed pass of a workload: each conserves queries, and every
/// pass over the same inputs repeats the first one's decisions exactly.
class PassLog {
 public:
  /// `same_inputs`: every pass replays the first pass's inputs.
  PassLog(Report& r, bool same_inputs) : r_(r), same_inputs_(same_inputs) {}
  void add(const Decisions& d, double wall) {
    if (d.completed + d.dropped != d.submitted) conserved_ = false;
    if (same_inputs_ && !walls_.empty()) repeat(d);
    if (walls_.empty()) {
      first_ = d;
      // Setup plus one pass: the same work in every run, unlike the peak
      // after a time-budgeted number of passes.
      rss_first_ = peak_rss_mb();
    }
    walls_.push_back(wall);
    qps_.push_back(static_cast<double>(d.submitted) / wall);
    queries_ += static_cast<double>(d.submitted);
    terminated_ += static_cast<double>(d.completed + d.dropped);
    violated_ += d.violation * static_cast<double>(d.completed + d.dropped);
    // A preemptive drop is a serving decision (slo_attainment counts it as
    // a violation); a failure is a query that never reached a terminal.
    r_.attempted += d.submitted;
    r_.failed += d.submitted - std::min(d.submitted, d.completed + d.dropped);
  }
  /// Compare a replay of the first pass's inputs with the first pass.
  void repeat(const Decisions& d) {
    repeated_ = true;
    if (!(d == first_)) {
      repeat_ok_ = false;
      mismatch_ = d.str();
    }
  }
  void finish(const char* what) {
    r_.check(std::string(what) + ".conservation", conserved_,
             "completed + dropped == submitted in every pass");
    if (repeated_)
      r_.check(std::string(what) + ".repeatable", repeat_ok_,
               repeat_ok_ ? "replays of the first pass's inputs repeat " + first_.str()
                          : "first " + first_.str() + " vs " + mismatch_);
    r_.note("%s: %zu passes, qps median %.6g (min %.6g, max %.6g)", what,
            qps_.size(), median(qps_), *std::min_element(qps_.begin(), qps_.end()),
            *std::max_element(qps_.begin(), qps_.end()));
  }
  double median_qps() const { return median(qps_); }
  double median_wall() const { return median(walls_); }
  /// Queries over wall time, summed over every pass.
  double total_qps() const {
    return queries_ / std::accumulate(walls_.begin(), walls_.end(), 0.0);
  }
  /// On-time completions over terminated queries, summed over every pass.
  double attainment() const { return terminated_ > 0 ? 1.0 - violated_ / terminated_ : 0.0; }
  double rss_after_first() const { return rss_first_; }
  const Decisions& first() const { return first_; }

 private:
  Report& r_;
  const bool same_inputs_;
  bool conserved_ = true, repeat_ok_ = true, repeated_ = false;
  Decisions first_;
  std::string mismatch_;
  std::vector<double> walls_, qps_;
  double queries_ = 0.0, terminated_ = 0.0, violated_ = 0.0, rss_first_ = 0.0;
};

// ---- traced-pass collectors -------------------------------------------------

/// Everything one traced pass collects besides its spans.
struct Traced {
  SpanLog log;
  /// The pass's backend probe. Once the pass returns, the backend it wraps
  /// is gone: only the probe's own counters and histograms are read.
  std::unique_ptr<TracingBackend> backend;
  std::uint64_t scores = 0;     ///< discriminator scores (from query state)
  std::uint64_t completed = 0;
  std::uint64_t deferred = 0;   ///< completions that were deferred
  /// The engine's cache operation stream, replayed after the run.
  struct CacheOp {
    bool insert;
    quality::QueryId prompt;
    int tier, stage;
    double time;
  };
  std::vector<CacheOp> cache_ops;
  double wall = 0.0;  ///< the traced pass's timed section
};

/// Terminal observer for single-engine traced passes: counts deferrals and
/// discriminator scores from each query's final state, and logs the cache
/// inserts the engine makes (every completed cache miss).
void observe_terminals(engine::CascadeEngine& eng, Traced& tr) {
  const std::size_t stages = eng.stage_count();
  const bool cache = eng.cache_enabled();
  eng.set_terminal_observer([&tr, stages, cache](const engine::Query& q,
                                                 int tier, double t,
                                                 bool dropped) {
    // A non-final stage scores each query it serves, which then either
    // defers (counted in q.deferrals) or completes there.
    tr.scores += static_cast<std::uint64_t>(q.deferrals);
    if (dropped) return;
    ++tr.completed;
    if (q.deferred) ++tr.deferred;
    if (q.confidence >= 0.0 && q.image_stage == static_cast<int>(q.stage) &&
        q.stage + 1 < stages)
      ++tr.scores;
    if (cache && q.cache_hit == cache::HitLevel::kMiss)
      tr.cache_ops.push_back({true, q.prompt_id, tier,
                              q.image_stage >= 0 ? q.image_stage
                                                 : static_cast<int>(q.stage),
                              t});
  });
}

void engine_layer(PerLayer& pl, const Traced& tr,
                  const std::vector<const engine::CascadeEngine*>& engines,
                  std::uint64_t submitted) {
  const SpanLog& log = tr.log;
  pl.set("engine.submit_ns.p50", log.duration(SpanName::kSubmit).percentile(50));
  pl.set("engine.submit_ns.p99", log.duration(SpanName::kSubmit).percentile(99));
  pl.set("engine.launch_cb_ns.p50", log.duration(SpanName::kLaunchCb).percentile(50));
  pl.set("engine.launch_cb_ns.p99", log.duration(SpanName::kLaunchCb).percentile(99));
  pl.set("engine.done_cb_ns.p50", log.duration(SpanName::kDoneCb).percentile(50));
  pl.set("engine.done_cb_ns.p99", log.duration(SpanName::kDoneCb).percentile(99));
  const double engine_ns = log.self(SpanName::kSubmit).sum() +
                           log.self(SpanName::kLaunchCb).sum() +
                           log.self(SpanName::kDoneCb).sum();
  pl.set("engine.share", engine_ns / (tr.wall * 1e9));
  std::uint64_t batches = 0, processed = 0;
  for (const auto* eng : engines)
    for (std::size_t i = 0; i < eng->worker_count(); ++i) {
      const auto w = eng->worker_info(i);
      batches += w.batches;
      processed += w.processed;
    }
  if (batches > 0)
    pl.set("engine.batch_size.mean",
           static_cast<double>(processed) / static_cast<double>(batches));
  if (tr.backend && tr.backend->defers() > 0)
    pl.set("engine.timer_cancel_ratio",
           static_cast<double>(tr.backend->cancels()) /
               static_cast<double>(tr.backend->defers()));
  if (tr.completed > 0)
    pl.set("engine.deferred_share", static_cast<double>(tr.deferred) /
                                        static_cast<double>(tr.completed));
  if (submitted > 0)
    pl.set("disc.scores_per_query",
           static_cast<double>(tr.scores) / static_cast<double>(submitted));
}

void sim_layer(PerLayer& pl, const Traced& tr, const sim::Simulation& sim,
               std::uint64_t submitted) {
  const double wall_ns = tr.wall * 1e9;
  const double self_ns = std::max(wall_ns - tr.log.top_level_ns(), 0.0);
  pl.set("sim.events_per_query", static_cast<double>(sim.executed()) /
                                     static_cast<double>(submitted));
  pl.set("sim.self_ns_per_event",
         self_ns / static_cast<double>(std::max<std::uint64_t>(sim.executed(), 1)));
  pl.set("sim.heap_compactions", static_cast<double>(sim.heap_compactions()));
  pl.set("sim.share", self_ns / wall_ns);
}

void control_layer(PerLayer& pl, const Traced& tr, const TimedAllocator& alloc) {
  const SpanLog& log = tr.log;
  pl.set("control.ticks", static_cast<double>(log.duration(SpanName::kTick).count()));
  pl.set("control.solve_ms.p50", log.duration(SpanName::kSolve).percentile(50) / 1e6);
  pl.set("control.solve_ms.p99", log.duration(SpanName::kSolve).percentile(99) / 1e6);
  pl.set("control.solve_share", log.duration(SpanName::kSolve).sum() / (tr.wall * 1e9));
  pl.set("control.tick_other_ms.p50", log.self(SpanName::kTick).percentile(50) / 1e6);
  pl.set("control.plan_changes", static_cast<double>(alloc.plan_changes()));
  pl.set("milp.nodes.mean", alloc.nodes().mean());
}

/// Median per-call time of `fn` in ns, over 15 batches of `calls` calls.
double per_call_ns(std::size_t calls, const std::function<void()>& fn) {
  std::vector<double> batches;
  for (int b = 0; b < 15; ++b) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < calls; ++i) fn();
    batches.push_back(static_cast<double>(now_ns() - t0) /
                      static_cast<double>(calls));
  }
  return median(batches);
}

/// Discriminator forward pass on served light-tier images of 512 of the
/// workload's prompts, timed standalone.
void disc_layer(PerLayer& pl, const core::CascadeEnvironment& env) {
  std::vector<std::vector<double>> features;
  const std::size_t n = env.workload().size();
  for (std::size_t i = 0; i < 512; ++i) {
    engine::Query q;
    q.prompt_id = static_cast<quality::QueryId>(i * 7 % n);
    features.push_back(
        engine::served_image_feature(env.workload(), q, env.light_tier()));
  }
  std::size_t k = 0;
  pl.set("disc.confidence_ns.p50", per_call_ns(features.size(), [&] {
           env.disc().confidence(features[k++ % features.size()]);
         }));
}

void quality_layer(PerLayer& pl, const engine::MetricsSink& sink) {
  pl.set("quality.records", static_cast<double>(sink.records().size()));
  if (!sink.record_terminal_events() || sink.completed() < 2) return;
  Stopwatch sw;
  pl.set("quality.fid", sink.overall_fid());
  pl.set("quality.fid_ms", sw.seconds() * 1e3);
}

void traced_decisions_check(Report& r, const Decisions& untraced,
                            const Decisions& traced) {
  r.check("trace.same_decisions", untraced == traced,
          "untraced " + untraced.str() + " | traced " + traced.str());
}

void write_trace(const Options& opt, const Traced& tr, Report& r) {
  const std::string path = std::string(kOutDir) + "/trace_" + opt.workload + ".json";
  if (tr.log.write_chrome_trace(path))
    r.note("trace: %s (%llu spans recorded)", path.c_str(),
           static_cast<unsigned long long>(tr.log.recorded()));
}

// ---- single-engine DES pass -------------------------------------------------

/// Called with the engine and simulator of a pass before they are torn down.
using Inspect = std::function<void(const engine::CascadeEngine&, const sim::Simulation&)>;

/// One DES pass of a static plan over harness-generated inputs, one pending
/// arrival event at a time (a pre-scheduled ten-million-query trace would
/// hold ten million closures). With `tr`, the engine runs over the tracing
/// backend and every submit is a span.
Decisions des_pass(const core::CascadeEnvironment& env,
                   const std::vector<double>& arrivals,
                   const std::vector<quality::QueryId>& prompts,
                   const engine::EngineConfig& ecfg,
                   const engine::AllocationPlan& plan, double* wall,
                   Traced* tr = nullptr, const Inspect& inspect = nullptr) {
  sim::Simulation sim;
  serving::SimulationBackend base(sim);
  engine::ExecutionBackend* backend = &base;
  if (tr) {
    tr->backend = std::make_unique<TracingBackend>(base, tr->log);
    backend = tr->backend.get();
  }
  engine::CascadeEngine eng(*backend, env.workload(), env.repository(),
                            env.cascade(), env.discs(), env.scorer(), ecfg);
  if (tr) observe_terminals(eng, *tr);
  eng.sink_reserve(arrivals.size());
  eng.apply(plan);

  std::size_t next = 0;
  std::function<void()> arrive = [&] {
    const std::size_t i = next++;
    const engine::Query q = make_query(i, prompts[i], sim.now(), ecfg.slo_seconds);
    if (tr) {
      if (ecfg.cache.enabled)
        tr->cache_ops.push_back({false, q.prompt_id, 0, 0, sim.now()});
      SpanLog::Scope span(tr->log, SpanName::kSubmit, static_cast<std::int64_t>(i));
      eng.submit(q);
    } else {
      eng.submit(q);
    }
    if (next < arrivals.size()) sim.schedule_at(arrivals[next], [&arrive] { arrive(); });
  };
  Stopwatch sw;
  sim.schedule_at(arrivals.front(), [&arrive] { arrive(); });
  sim.run_until(arrivals.back() + ecfg.slo_seconds + kDrainSeconds);
  sim.run_all();
  *wall = sw.seconds();
  if (tr) tr->wall = *wall;

  Decisions d = sink_decisions(eng.sink(), eng.submitted());
  if (ecfg.record_terminal_events && d.completed >= 2) d.fid = eng.sink().overall_fid();
  d.plan_changes = eng.reconfigurations();
  if (inspect) inspect(eng, sim);
  return d;
}

/// The untraced passes of a harness-driven DES workload, or — traced — one
/// untraced and one traced pass and the layers they share.
void run_des_workload(const Options& opt, Report& r, EndToEnd& e2e,
                      const Inputs& in, const engine::EngineConfig& ecfg,
                      const engine::AllocationPlan& plan,
                      const std::function<void(PerLayer&, const Traced&,
                                               const engine::CascadeEngine&)>& extra) {
  PassLog passes(r, true);
  repeat_passes(opt.trace ? 0.0 : opt.seconds, opt.trace ? 1 : 256, [&] {
    double wall = 0.0;
    const Decisions d = des_pass(in.env, in.arrivals, in.prompts, ecfg, plan, &wall);
    passes.add(d, wall);
  });
  passes.finish("des");
  r.note("decisions: %s", passes.first().str().c_str());
  if (!opt.trace) {
    emit_end_to_end(e2e, r, passes.median_qps(), passes.attainment(), passes.rss_after_first());
    return;
  }

  PerLayer pl(kPerLayer);
  Traced tr;
  double wall = 0.0;
  const Decisions traced = des_pass(
      in.env, in.arrivals, in.prompts, ecfg, plan, &wall, &tr,
      [&](const engine::CascadeEngine& eng, const sim::Simulation& sim) {
        engine_layer(pl, tr, {&eng}, eng.submitted());
        sim_layer(pl, tr, sim, eng.submitted());
        quality_layer(pl, eng.sink());
        if (extra) extra(pl, tr, eng);
      });
  traced_decisions_check(r, passes.first(), traced);
  disc_layer(pl, in.env);
  pl.set("trace.overhead", 1.0 - passes.median_wall() / wall);
  write_trace(opt, tr, r);
  pl.emit(r);
}

// ---- paper_azure --------------------------------------------------------------

/// Arrival realizations per untraced run, 1-1.3 s each on a 4-core AMD EPYC.
/// One realization's qps ranges ~2x with its arrivals; 24 bring the
/// seed-to-seed spread of their total to ~6%. The count is fixed, not
/// time-budgeted.
constexpr int kAzureRealizations = 24;

core::RunConfig azure_config(const Options& opt) {
  core::RunConfig rc;
  rc.approach = core::Approach::kDiffServe;
  rc.total_workers = 16;
  // The Fig. 5 trace as bench/fig05_real_trace runs it: 4 -> 32 qps over
  // six minutes, 72 controller ticks.
  rc.trace = trace::RateTrace::azure_like(4.0, 32.0, opt.smoke ? 36.0 : 360.0, 3);
  return rc;
}

Decisions experiment_decisions(const core::ExperimentResult& x) {
  Decisions d;
  d.submitted = x.submitted;
  d.completed = x.completed;
  d.dropped = x.dropped;
  d.plan_changes = x.reconfigurations;
  d.violation = x.violation_ratio;
  d.light = x.light_served_fraction;
  d.fid = x.overall_fid;
  d.p99 = x.p99_latency;
  return d;
}

/// run_experiment(kDiffServe) rebuilt from its parts, with the backend and
/// the MILP allocator wrapped in probes. Its decisions must equal
/// run_experiment's.
Decisions azure_traced(const Inputs& in, const core::RunConfig& rc, Traced& tr,
                       PerLayer& pl, double* pass_wall) {
  Stopwatch pass;
  sim::Simulation sim;
  serving::SimulationBackend base(sim);
  tr.backend = std::make_unique<TracingBackend>(base, tr.log);
  engine::EngineConfig sys = rc.system;
  sys.total_workers = rc.total_workers;
  sys.slo_seconds = in.env.default_slo();
  engine::CascadeEngine eng(*tr.backend, in.env.workload(), in.env.repository(),
                            in.env.cascade(), in.env.discs(), in.env.scorer(), sys);
  control::ControllerConfig ccfg = rc.controller;
  ccfg.over_provision = rc.over_provision;
  if (ccfg.initial_demand_guess <= 0.0) ccfg.initial_demand_guess = rc.trace.qps_at(0.0);
  control::MilpAllocator milp;
  auto timed = std::make_unique<TimedAllocator>(milp, tr.log);
  const TimedAllocator& alloc = *timed;
  // The controller owns the confidence observer, so scores are counted
  // from terminal query state.
  control::Controller controller(eng, std::move(timed), in.env.offline_profiles(), ccfg);
  observe_terminals(eng, tr);
  util::Rng arrival_rng(rc.arrival_seed);
  const auto arrivals = trace::generate_arrivals(rc.trace, arrival_rng, rc.arrivals);
  eng.sink_reserve(arrivals.size());
  std::int64_t seq = 0;
  for (const double t : arrivals)
    sim.schedule_at(t, [&] {
      SpanLog::Scope span(tr.log, SpanName::kSubmit, seq++);
      eng.submit_next();
    });

  Stopwatch sw;
  {
    SpanLog::Scope span(tr.log, SpanName::kTick);
    controller.start();
  }
  sim.run_until(rc.trace.duration() + sys.slo_seconds + rc.drain_seconds);
  controller.stop();
  sim.run_all();
  tr.wall = sw.seconds();

  Decisions d = sink_decisions(eng.sink(), eng.submitted());
  d.p50 = 0.0;  // ExperimentResult carries no median
  d.plan_changes = eng.reconfigurations();
  quality_layer(pl, eng.sink());
  d.fid = eng.sink().overall_fid();
  eng.sink().timeline(rc.timeline_window);  // as run_experiment does
  *pass_wall = pass.seconds();

  control_layer(pl, tr, alloc);
  engine_layer(pl, tr, {&eng}, d.submitted);
  sim_layer(pl, tr, sim, d.submitted);
  return d;
}

void paper_azure(const Options& opt, Report& r) {
  EndToEnd e2e(kEndToEnd);
  const auto in = timed_setup(e2e, r, [&] {
    return std::make_unique<Inputs>(Inputs{make_env(opt.smoke ? 1000 : 5000), {}, {}});
  });
  core::RunConfig rc = azure_config(opt);

  // MILP solve cost depends on the arrivals (mean solve time ranges over
  // ~2x between seeds), so a run replays a fixed set of arrival
  // realizations derived from the seed and takes qps over all of them. The
  // set does not depend on wall time, so every commit replays the same
  // arrivals and slo_attainment is a function of the seed alone.
  // Realization 0 is replayed once more, untimed, to check that a pass
  // repeats exactly.
  const int realizations = opt.trace ? 1 : opt.smoke ? 2 : kAzureRealizations;
  PassLog passes(r, false);
  std::vector<double> solve_ms;
  const auto realization_seed = [&](std::uint64_t k) { return opt.seed * 1'000'003ULL + k; };
  for (int k = 0; k < realizations; ++k) {
    rc.arrival_seed = realization_seed(static_cast<std::uint64_t>(k));
    Stopwatch sw;
    const auto x = core::run_experiment(in->env, rc);
    passes.add(experiment_decisions(x), sw.seconds());
    solve_ms.push_back(x.mean_solve_ms);
  }
  rc.arrival_seed = realization_seed(0);
  if (!opt.trace) passes.repeat(experiment_decisions(core::run_experiment(in->env, rc)));
  passes.finish("run_experiment");
  r.note("realization 0: %s; mean solve %.3g ms (median over realizations %.3g ms)",
         passes.first().str().c_str(), solve_ms.front(), median(solve_ms));
  if (!opt.trace) {
    emit_end_to_end(e2e, r, passes.total_qps(), passes.attainment(), passes.rss_after_first());
    return;
  }

  PerLayer pl(kPerLayer);
  Traced tr;
  double traced_wall = 0.0;
  const Decisions traced = azure_traced(*in, rc, tr, pl, &traced_wall);
  traced_decisions_check(r, passes.first(), traced);
  disc_layer(pl, in->env);
  pl.set("trace.overhead", 1.0 - passes.median_wall() / traced_wall);
  write_trace(opt, tr, r);
  pl.emit(r);
}

// ---- cache_zipf ---------------------------------------------------------------

/// Replays the engine's logged cache operations through a fresh cache with
/// the same configuration, timing each one. The replay's counters must equal
/// the engine's: same operations in the same order give the same cache.
void cache_layer(PerLayer& pl, Report& r, const Traced& tr,
                 const engine::CascadeEngine& eng, const quality::Workload& wl) {
  cache::CacheConfig cc = eng.config().cache;
  cc.chain_stages = eng.stage_count();  // as the engine configures its cache
  cache::ApproxCache replay(cc);
  Hist lookup_ns, insert_ns;
  for (const auto& op : tr.cache_ops) {
    const auto& key = wl.style(op.prompt);
    const std::int64_t t0 = now_ns();
    if (op.insert)
      replay.insert(op.prompt, op.tier, op.stage, key, op.time);
    else
      replay.lookup(key, op.time);
    (op.insert ? insert_ns : lookup_ns).add(static_cast<double>(now_ns() - t0));
  }
  const cache::CacheStats a = replay.stats();
  const cache::CacheStats b = eng.cache_stats();
  const bool same =
      a.lookups == b.lookups && a.exact_hits == b.exact_hits &&
      a.near_hits == b.near_hits && a.far_hits == b.far_hits &&
      a.insertions == b.insertions && a.latent_insertions == b.latent_insertions &&
      a.evictions == b.evictions && a.step_fraction_sum == b.step_fraction_sum &&
      a.near_step_fraction_sum == b.near_step_fraction_sum &&
      a.far_step_fraction_sum == b.far_step_fraction_sum &&
      a.lsh_probed_cells == b.lsh_probed_cells &&
      a.lsh_probe_candidates == b.lsh_probe_candidates &&
      a.heap_compactions == b.heap_compactions &&
      a.heap_stale_pops == b.heap_stale_pops;
  char detail[160];
  std::snprintf(detail, sizeof(detail),
                "replay lookups=%llu hits=%llu evictions=%llu | engine "
                "lookups=%llu hits=%llu evictions=%llu",
                static_cast<unsigned long long>(a.lookups),
                static_cast<unsigned long long>(a.hits()),
                static_cast<unsigned long long>(a.evictions),
                static_cast<unsigned long long>(b.lookups),
                static_cast<unsigned long long>(b.hits()),
                static_cast<unsigned long long>(b.evictions));
  r.check("cache.replay_matches_engine", same, detail);

  const double lookups = static_cast<double>(std::max<std::uint64_t>(b.lookups, 1));
  pl.set("cache.lookups", static_cast<double>(b.lookups));
  pl.set("cache.insertions", static_cast<double>(b.insertions));
  pl.set("cache.evictions", static_cast<double>(b.evictions));
  pl.set("cache.hit_ratio", b.hit_ratio());
  pl.set("cache.exact_hit_ratio", b.exact_hit_ratio());
  pl.set("cache.probed_cells.mean", static_cast<double>(b.lsh_probed_cells) / lookups);
  pl.set("cache.candidates_per_lookup", static_cast<double>(b.lsh_probe_candidates) / lookups);
  if (b.lsh_probe_candidates > 0)
    pl.set("cache.hits_per_candidate", static_cast<double>(b.hits()) /
                                           static_cast<double>(b.lsh_probe_candidates));
  pl.set("cache.heap_compactions", static_cast<double>(b.heap_compactions));
  pl.set("cache.lookup_ns.p50", lookup_ns.percentile(50));
  pl.set("cache.lookup_ns.p99", lookup_ns.percentile(99));
  pl.set("cache.insert_ns.p50", insert_ns.percentile(50));
  pl.set("cache.share", (lookup_ns.sum() + insert_ns.sum()) / (tr.wall * 1e9));
}

void cache_zipf(const Options& opt, Report& r) {
  EndToEnd e2e(kEndToEnd);
  const auto in = timed_setup(e2e, r, [&] {
    auto env = make_env(opt.smoke ? 400 : 20000);
    auto arrivals = poisson_arrivals(100.0, opt.smoke ? 4.0 : 120.0, opt.seed);
    trace::PromptMixConfig mix;
    mix.kind = trace::PromptMixConfig::Kind::kZipf;
    mix.zipf_exponent = 1.05;
    mix.locality = 0.3;
    mix.seed = mix_seed(opt.seed);
    auto prompts = prompt_stream(env.workload().size(), arrivals.size(), mix);
    return std::make_unique<Inputs>(Inputs{std::move(env), std::move(arrivals), std::move(prompts)});
  });
  engine::EngineConfig ecfg;
  ecfg.total_workers = 16;
  ecfg.slo_seconds = 5.0;
  ecfg.cache.enabled = true;
  // Above kAutoIndexThreshold, so kAuto picks the LSH index.
  ecfg.cache.capacity = opt.smoke ? 160 : 8192;
  run_des_workload(opt, r, e2e, *in, ecfg, static_plan(in->env),
                   [&](PerLayer& pl, const Traced& tr, const engine::CascadeEngine& eng) {
                     cache_layer(pl, r, tr, eng, in->env.workload());
                   });
}

// ---- sharded_loopback ---------------------------------------------------------

cluster::ClusterRunConfig shard_config(const Options& opt) {
  cluster::ClusterRunConfig c;
  c.shards = 4;
  c.workers_per_shard = 8;
  c.hop_latency_seconds = 0.005;
  c.arrival_seed = opt.seed;
  c.prompt_mix.seed = mix_seed(opt.seed);
  c.record_terminal_events = true;
  return c;
}

Decisions cluster_decisions(const cluster::ClusterResult& x) {
  Decisions d;
  d.submitted = x.submitted;
  d.completed = x.completed;
  d.dropped = x.dropped;
  d.violation = x.violation_ratio;
  d.fid = x.overall_fid;
  d.plan_changes = x.cluster_reconfigurations;
  return d;
}

/// run_cluster_des rebuilt from its parts, with the shared backend, every
/// link endpoint, frame delivery, the frontend's submit and the allocator
/// wrapped in probes. Its decisions must equal run_cluster_des's.
Decisions cluster_traced(const Inputs& in, const cluster::ClusterRunConfig& cfg,
                         const trace::RateTrace& trace, Traced& tr, PerLayer& pl,
                         double* pass_wall) {
  Stopwatch pass;
  const double slo = in.env.default_slo();
  sim::Simulation sim;
  serving::SimulationBackend base(sim);
  tr.backend = std::make_unique<TracingBackend>(base, tr.log);
  std::vector<std::unique_ptr<engine::CascadeEngine>> engines;
  for (int s = 0; s < cfg.shards; ++s) {
    engine::EngineConfig e;
    e.total_workers = cfg.workers_per_shard;
    e.slo_seconds = slo;
    e.model_load_delay = cfg.model_load_delay;
    e.seed = 1 + static_cast<std::uint64_t>(s);
    e.record_terminal_events = false;  // the frontend's sink keeps records
    e.cache = cfg.cache;
    e.slo_classes = cfg.slo_classes;
    engines.push_back(std::make_unique<engine::CascadeEngine>(
        *tr.backend, in.env.workload(), in.env.repository(), in.env.cascade(),
        in.env.discs(), in.env.scorer(), e));
  }
  cluster::FrontendConfig fcfg = cfg.frontend;
  fcfg.slo_seconds = slo;
  fcfg.prompt_mix = cfg.prompt_mix;
  fcfg.record_terminal_events = cfg.record_terminal_events;
  fcfg.slo_classes = cfg.slo_classes;
  cluster::ShardFrontend frontend(in.env.workload(), in.env.scorer(), fcfg);
  net::DeferFn defer = [&sim, &tr](double delay, std::function<void()> fn) {
    sim.schedule_in(delay, [&tr, fn = std::move(fn)] {
      SpanLog::Scope span(tr.log, SpanName::kDeliver);
      fn();
    });
  };
  std::vector<const TracingEndpoint*> endpoints;
  std::vector<std::unique_ptr<cluster::ShardNode>> nodes;
  for (std::size_t s = 0; s < engines.size(); ++s) {
    auto link = net::make_loopback_link(cfg.hop_latency_seconds, defer);
    auto shard_side = std::make_unique<TracingEndpoint>(std::move(link.second), tr.log);
    auto front_side = std::make_unique<TracingEndpoint>(std::move(link.first), tr.log);
    endpoints.push_back(shard_side.get());
    endpoints.push_back(front_side.get());
    nodes.push_back(std::make_unique<cluster::ShardNode>(
        static_cast<std::uint32_t>(s), *engines[s], std::move(shard_side)));
    frontend.attach_shard(std::move(front_side));
  }
  cluster::ClusterControllerConfig ccfg;
  ccfg.control.period_seconds = cfg.control_period;
  ccfg.control.over_provision = cfg.over_provision;
  ccfg.control.max_deferral_fraction = cfg.max_deferral_fraction;
  ccfg.control.initial_demand_guess =
      cfg.initial_demand_guess > 0.0 ? cfg.initial_demand_guess : trace.qps_at(0.0);
  ccfg.gather_delay_seconds = cfg.gather_delay_seconds;
  control::ExhaustiveAllocator exhaustive;
  auto timed = std::make_unique<TimedAllocator>(exhaustive, tr.log);
  const TimedAllocator& alloc = *timed;
  cluster::ClusterController cc(frontend, *engines.front(), cfg.workers_per_shard, slo,
                                std::move(timed), in.env.offline_profiles(), ccfg);
  for (auto& eng : engines)
    eng->set_confidence_observer([&tr, &cc](std::size_t b, double c) {
      ++tr.scores;
      cc.observe_confidence(b, c);
    });

  util::Rng arrival_rng(cfg.arrival_seed);
  const auto arrivals = trace::generate_arrivals(trace, arrival_rng, cfg.arrivals);
  const auto prompts = prompt_stream(in.env.workload().size(), arrivals.size(), cfg.prompt_mix);
  frontend.sink().reserve(arrivals.size());
  std::uint64_t fallbacks = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i)
    sim.schedule_at(arrivals[i], [&, i] {
      const engine::Query q = make_query(i, prompts[i], sim.now(), slo);
      if (frontend.route(q.prompt_id) != frontend.hash_shard(q.prompt_id)) ++fallbacks;
      SpanLog::Scope span(tr.log, SpanName::kFrontend, static_cast<std::int64_t>(i));
      frontend.submit(q);
    });

  Stopwatch sw;
  {
    SpanLog::Scope span(tr.log, SpanName::kTick);
    cc.start();
  }
  sim.run_until(trace.duration() + slo + cfg.drain_seconds);
  cc.stop();
  sim.run_all();
  tr.wall = sw.seconds();

  const engine::MetricsSink& sink = frontend.sink();
  Decisions d;
  d.submitted = frontend.submitted();
  d.completed = sink.completed();
  d.dropped = sink.dropped();
  d.violation = sink.violation_ratio();
  quality_layer(pl, sink);
  d.fid = sink.overall_fid();
  d.plan_changes = cc.history().size();
  *pass_wall = pass.seconds();

  tr.completed = sink.completed();
  for (const auto& rec : sink.records())
    if (!rec.dropped && rec.deferrals > 0) ++tr.deferred;
  std::vector<const engine::CascadeEngine*> engs;
  for (const auto& e : engines) engs.push_back(e.get());
  engine_layer(pl, tr, engs, d.submitted);
  sim_layer(pl, tr, sim, d.submitted);
  control_layer(pl, tr, alloc);

  const double n = static_cast<double>(d.submitted);
  std::uint64_t frames = 0, bytes = 0;
  for (const auto* ep : endpoints) {
    frames += ep->frames();
    bytes += ep->bytes();
  }
  pl.set("net.frames_per_query", static_cast<double>(frames) / n);
  pl.set("net.bytes_per_query", static_cast<double>(bytes) / n);
  pl.set("net.send_ns.p50", tr.log.duration(SpanName::kSend).percentile(50));
  pl.set("net.send_ns.p99", tr.log.duration(SpanName::kSend).percentile(99));
  pl.set("cluster.submit_ns.p50", tr.log.duration(SpanName::kFrontend).percentile(50));
  pl.set("cluster.submit_ns.p99", tr.log.duration(SpanName::kFrontend).percentile(99));
  pl.set("cluster.fallback_share", static_cast<double>(fallbacks) / n);
  pl.set("cluster.plans_pushed", static_cast<double>(cc.history().size()));
  return d;
}

/// net::encode / net::decode of the two per-query message kinds, timed
/// standalone on a representative query.
void codec_layer(PerLayer& pl) {
  engine::Query q = make_query(123456, 4321, 1234.5, 1239.5);
  q.stage = 1;
  q.deferred = true;
  q.deferrals = 1;
  q.confidence = 0.42;
  const net::QueryMsg qm{2, q};
  const net::TerminalMsg tm{2, q, 1236.25, 2, false};
  const net::Frame qf = net::encode(qm);
  const net::Frame tf = net::encode(tm);
  std::size_t bytes = 0;
  bool ok = true;
  pl.set("net.encode_ns.query", per_call_ns(4000, [&] { bytes += net::encode(qm).payload.size(); }));
  pl.set("net.encode_ns.terminal", per_call_ns(4000, [&] { bytes += net::encode(tm).payload.size(); }));
  net::QueryMsg qo;
  net::TerminalMsg to;
  pl.set("net.decode_ns.query", per_call_ns(4000, [&] { ok = net::decode(qf, &qo) && ok; }));
  pl.set("net.decode_ns.terminal", per_call_ns(4000, [&] { ok = net::decode(tf, &to) && ok; }));
  if (!ok || bytes == 0) throw std::logic_error("codec round trip failed");
}

void sharded_loopback(const Options& opt, Report& r) {
  EndToEnd e2e(kEndToEnd);
  const auto in = timed_setup(e2e, r, [&] {
    return std::make_unique<Inputs>(Inputs{make_env(opt.smoke ? 1000 : 5000), {}, {}});
  });
  const auto cfg = shard_config(opt);
  // 24 qps for 3.3 hours of trace: ~288k queries over 4 x 8 workers.
  const auto trace = trace::RateTrace::constant(24.0, opt.smoke ? 240.0 : 12000.0);

  PassLog passes(r, true);
  repeat_passes(opt.trace ? 0.0 : opt.seconds, opt.trace ? 1 : 64, [&] {
    control::ExhaustiveAllocator exhaustive;
    Stopwatch sw;
    const auto res = cluster::run_cluster_des(in->env, exhaustive, trace, cfg);
    passes.add(cluster_decisions(res), sw.seconds());
  });
  passes.finish("run_cluster_des");
  r.note("decisions: %s", passes.first().str().c_str());
  if (!opt.trace) {
    emit_end_to_end(e2e, r, passes.median_qps(), passes.attainment(), passes.rss_after_first());
    return;
  }

  PerLayer pl(kPerLayer);
  Traced tr;
  double traced_wall = 0.0;
  const Decisions traced = cluster_traced(*in, cfg, trace, tr, pl, &traced_wall);
  traced_decisions_check(r, passes.first(), traced);
  codec_layer(pl);
  disc_layer(pl, in->env);
  pl.set("trace.overhead", 1.0 - passes.median_wall() / traced_wall);
  write_trace(opt, tr, r);
  pl.emit(r);
}

// ---- static_hot_path ----------------------------------------------------------

void static_hot_path(const Options& opt, Report& r) {
  EndToEnd e2e(kEndToEnd);
  const std::size_t n = scaled(2'000'000, opt.smoke);
  const auto in = timed_setup(e2e, r, [&] {
    auto env = make_env(1000);
    auto arrivals = poisson_arrivals(100.0, static_cast<double>(n) / 99.0, opt.seed);
    arrivals.resize(n);
    auto prompts = prompt_stream(env.workload().size(), n, {});
    return std::make_unique<Inputs>(Inputs{std::move(env), std::move(arrivals), std::move(prompts)});
  });
  engine::EngineConfig ecfg;
  ecfg.total_workers = 16;
  ecfg.slo_seconds = 5.0;
  ecfg.record_terminal_events = false;  // the sink's fast mode
  run_des_workload(opt, r, e2e, *in, ecfg, static_plan(in->env), nullptr);
}

// ---- testbed_hot_path ---------------------------------------------------------

constexpr int kTestbedWorkers = 16;
/// Flood time compression: modelled GPU time shrinks to microseconds, so
/// dispatch (timers, rings, executor wake-ups, the engine guard) is the limit.
constexpr double kFloodScale = 10'000.0;
/// Open-loop rungs offer 100 trace-qps at these compressions: 50k to 500k
/// queries per wall second.
constexpr double kRungScales[] = {500, 1000, 1500, 2000, 2500, 3000, 4000, 5000};
constexpr const char* kRungLabels[] = {"50k",  "100k", "150k", "200k",
                                       "250k", "300k", "400k", "500k"};
/// Batch timers fire this much wall time early to absorb timer lateness.
constexpr double kLaunchSlackWall = 0.001;

engine::EngineConfig testbed_config(double slo, double scale) {
  engine::EngineConfig e;
  e.total_workers = kTestbedWorkers;
  e.slo_seconds = slo;
  e.launch_slack_seconds = kLaunchSlackWall * scale;
  e.record_terminal_events = false;
  return e;
}

struct TestbedRun {
  Decisions d;
  double wall = 0.0;
  Hist late_ns;  ///< how late the generator submitted each query
};

using EngineInspect = std::function<void(const engine::CascadeEngine&)>;

/// Declared after the engine, so on every exit path — an exception too —
/// the backend's threads are joined before the engine they call into goes.
struct StopOnExit {
  runtime::ThreadedBackend& backend;
  ~StopOnExit() { backend.stop(); }
};

bool wait_for_terminals(runtime::ThreadedBackend& backend,
                        const engine::CascadeEngine& eng, std::size_t n,
                        double wall_limit) {
  Stopwatch sw;
  for (;;) {
    {
      auto g = backend.guard();
      if (eng.sink().total() >= n) return true;
    }
    if (sw.seconds() > wall_limit) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

/// Threaded flood: `n` queries submitted at once with a far-away SLO.
TestbedRun flood_pass(const core::CascadeEnvironment& env,
                      const engine::AllocationPlan& plan, std::size_t n,
                      Traced* tr = nullptr, const EngineInspect& inspect = nullptr) {
  util::TraceClock clock(kFloodScale);
  runtime::ThreadedBackend backend(clock, kTestbedWorkers, /*pin_executors=*/true);
  engine::ExecutionBackend* be = &backend;
  if (tr) {
    tr->backend = std::make_unique<TracingBackend>(backend, tr->log, kFloodScale);
    be = tr->backend.get();
  }
  const double slo = 1e9;
  engine::CascadeEngine eng(*be, env.workload(), env.repository(), env.cascade(),
                            env.discs(), env.scorer(), testbed_config(slo, kFloodScale));
  if (tr) observe_terminals(eng, *tr);
  const StopOnExit stop{backend};
  backend.start();
  eng.apply(plan);
  const std::size_t prompts = env.workload().size();
  TestbedRun out;
  Stopwatch sw;
  for (std::size_t i = 0; i < n; ++i) {
    const auto q = make_query(i, static_cast<quality::QueryId>(i % prompts), clock.now(), slo);
    if (tr) {
      SpanLog::Scope span(tr->log, SpanName::kSubmit, static_cast<std::int64_t>(i));
      eng.submit(q);
    } else {
      eng.submit(q);
    }
  }
  wait_for_terminals(backend, eng, n, 120.0);
  out.wall = sw.seconds();
  if (tr) tr->wall = out.wall;
  backend.stop();
  out.d = sink_decisions(eng.sink(), eng.submitted());
  if (inspect) inspect(eng);
  return out;
}

/// Threaded open loop: one generator thread submits each query through
/// CascadeEngine::submit at its due time, with arrival_time set to that due
/// time, so a late generator's delay counts against the query.
TestbedRun rung_pass(const core::CascadeEnvironment& env,
                     const engine::AllocationPlan& plan,
                     const std::vector<double>& arrivals,
                     const std::vector<quality::QueryId>& prompts, double scale,
                     Traced* tr = nullptr) {
  util::TraceClock clock(scale);
  runtime::ThreadedBackend backend(clock, kTestbedWorkers, /*pin_executors=*/true);
  engine::ExecutionBackend* be = &backend;
  if (tr) {
    tr->backend = std::make_unique<TracingBackend>(backend, tr->log, scale);
    be = tr->backend.get();
  }
  const double slo = env.default_slo();
  engine::CascadeEngine eng(*be, env.workload(), env.repository(), env.cascade(),
                            env.discs(), env.scorer(), testbed_config(slo, scale));
  if (tr) observe_terminals(eng, *tr);
  const StopOnExit stop{backend};
  backend.start();
  const double t0 = clock.now();
  eng.apply(plan);
  TestbedRun out;
  Stopwatch sw;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const double due = t0 + arrivals[i];
    double now = clock.now();
    while (now < due) {
      std::this_thread::yield();
      now = clock.now();
    }
    out.late_ns.add((now - due) / scale * 1e9);
    const auto q = make_query(i, prompts[i], due, slo);
    if (tr) {
      SpanLog::Scope span(tr->log, SpanName::kSubmit, static_cast<std::int64_t>(i));
      eng.submit(q);
    } else {
      eng.submit(q);
    }
  }
  wait_for_terminals(backend, eng, arrivals.size(),
                     (arrivals.back() + slo + kDrainSeconds) / scale + 10.0);
  out.wall = sw.seconds();
  if (tr) tr->wall = out.wall;
  backend.stop();
  out.d = sink_decisions(eng.sink(), eng.submitted());
  return out;
}

double failed_share(const Decisions& d) {
  return d.submitted ? static_cast<double>(d.dropped) / static_cast<double>(d.submitted) : 0.0;
}

void testbed_hot_path(const Options& opt, Report& r) {
  EndToEnd e2e(kEndToEnd);
  const double rung_wall = opt.smoke ? 0.05 : 1.0;  // wall seconds per rung
  const std::size_t flood_n = scaled(200'000, opt.smoke);
  // Inputs of the 50k rung; the other rungs are generated by the traced run.
  const auto in = timed_setup(e2e, r, [&] {
    auto env = make_env(1000);
    auto arrivals = poisson_arrivals(100.0, rung_wall * kRungScales[0], opt.seed);
    auto prompts = prompt_stream(env.workload().size(), arrivals.size(), {});
    return std::make_unique<Inputs>(Inputs{std::move(env), std::move(arrivals), std::move(prompts)});
  });
  const auto plan = static_plan(in->env);
  const double slo = in->env.default_slo();
  // The DES twin of the 50k rung: same arrivals, same engine configuration.
  double des_wall = 0.0;
  const Decisions ref = des_pass(in->env, in->arrivals, in->prompts,
                                 testbed_config(slo, kRungScales[0]), plan, &des_wall);

  if (!opt.trace) {
    PassLog floods(r, false), rungs(r, false);
    std::vector<double> attain, fails, lights;
    repeat_passes(opt.seconds, 64, [&] {
      const auto f = flood_pass(in->env, plan, flood_n);
      floods.add(f.d, f.wall);
      const auto g = rung_pass(in->env, plan, in->arrivals, in->prompts, kRungScales[0]);
      rungs.add(g.d, g.wall);
      attain.push_back(1.0 - g.d.violation);
      fails.push_back(failed_share(g.d));
      lights.push_back(g.d.light);
    });
    floods.finish("flood");
    rungs.finish("rung_50k");
    const double fail_gap = std::abs(median(fails) - failed_share(ref));
    const double light_gap = std::abs(median(lights) - ref.light);
    char detail[200];
    std::snprintf(detail, sizeof(detail),
                  "testbed failed %.4f light %.4f vs DES failed %.4f light %.4f",
                  median(fails), median(lights), failed_share(ref), ref.light);
    r.check("rung_50k.matches_des", fail_gap <= 0.01 && light_gap <= 0.01, detail);
    r.note("rung_50k: slo_attainment median of %zu rungs; DES twin %s",
           attain.size(), ref.str().c_str());
    emit_end_to_end(e2e, r, floods.median_qps(), median(attain), rungs.rss_after_first());
    return;
  }

  PerLayer pl(kPerLayer);
  std::vector<double> untraced_qps;
  PassLog floods(r, false);
  for (int k = 0; k < 2; ++k) {
    const auto f = flood_pass(in->env, plan, flood_n);
    floods.add(f.d, f.wall);
    untraced_qps.push_back(static_cast<double>(flood_n) / f.wall);
  }
  Traced ftr;
  const auto tf = flood_pass(in->env, plan, flood_n, &ftr, [&](const engine::CascadeEngine& eng) {
    engine_layer(pl, ftr, {&eng}, flood_n);
    quality_layer(pl, eng.sink());
  });
  floods.add(tf.d, tf.wall);
  floods.finish("flood");
  const auto guard = ftr.backend->guard_wait_ns();
  pl.set("runtime.guard_wait_ns.p50", guard.percentile(50));
  pl.set("runtime.guard_wait_ns.p99", guard.percentile(99));
  pl.set("runtime.guard_acquires_per_query",
         static_cast<double>(ftr.backend->guard_acquires()) / static_cast<double>(flood_n));
  pl.set("trace.overhead",
         1.0 - (static_cast<double>(flood_n) / tf.wall) / median(untraced_qps));

  // The open-loop ladder, untraced: latency added over the DES twin of each
  // rung, generator lateness, and the highest rate with <= 1% failed.
  PassLog rungs(r, false);
  double prev_rate = 0.0, prev_fail = 0.0, max_rate = 0.0;
  bool crossed = false;
  for (std::size_t k = 0; k < std::size(kRungScales); ++k) {
    const double scale = kRungScales[k];
    const std::string label = kRungLabels[k];
    const auto arrivals = poisson_arrivals(100.0, rung_wall * scale, opt.seed);
    const auto prompts = prompt_stream(in->env.workload().size(), arrivals.size(), {});
    double wall = 0.0;
    const Decisions des = des_pass(in->env, arrivals, prompts, testbed_config(slo, scale), plan, &wall);
    const auto run = rung_pass(in->env, plan, arrivals, prompts, scale);
    rungs.add(run.d, run.wall);
    const double rate = 100.0 * scale;
    const double fail = failed_share(run.d);
    pl.set("loadgen.late_us.p99." + label, run.late_ns.percentile(99) / 1e3);
    if (label == "50k" || label == "150k") {
      pl.set("lat." + label + ".p50_added_us", (run.d.p50 - des.p50) / scale * 1e6);
      pl.set("lat." + label + ".p99_added_us", (run.d.p99 - des.p99) / scale * 1e6);
    }
    r.note("rung %s: failed %.4f (DES %.4f), p50 %.4f s (DES %.4f), p99 %.4f s "
           "(DES %.4f), generator late p99 %.1f us",
           label.c_str(), fail, failed_share(des), run.d.p50, des.p50, run.d.p99,
           des.p99, run.late_ns.percentile(99) / 1e3);
    if (!crossed && fail > 0.01) {
      crossed = true;
      max_rate = prev_rate + (0.01 - prev_fail) / (fail - prev_fail) * (rate - prev_rate);
    }
    prev_rate = rate;
    prev_fail = fail;
  }
  rungs.finish("ladder");
  if (!crossed) {
    max_rate = prev_rate;
    r.note("max_rate_qps: no rung failed more than 1%%; the top rung is a lower bound");
  }
  pl.set("max_rate_qps", max_rate);

  Traced rtr;
  const auto tg = rung_pass(in->env, plan, in->arrivals, in->prompts, kRungScales[0], &rtr);
  r.check("rung_50k.traced_conservation", tg.d.completed + tg.d.dropped == tg.d.submitted,
          tg.d.str());
  const auto exec_late = rtr.backend->exec_late_ns();
  const auto timer_late = rtr.backend->timer_late_ns();
  pl.set("runtime.exec_late_us.p50", exec_late.percentile(50) / 1e3);
  pl.set("runtime.exec_late_us.p99", exec_late.percentile(99) / 1e3);
  pl.set("runtime.timer_late_us.p50", timer_late.percentile(50) / 1e3);
  pl.set("runtime.timer_late_us.p99", timer_late.percentile(99) / 1e3);
  disc_layer(pl, in->env);
  write_trace(opt, ftr, r);
  pl.emit(r);
}

}  // namespace

Report run_workload(const Options& opt) {
  Report r;
  if (opt.workload == "paper_azure")
    paper_azure(opt, r);
  else if (opt.workload == "cache_zipf")
    cache_zipf(opt, r);
  else if (opt.workload == "sharded_loopback")
    sharded_loopback(opt, r);
  else if (opt.workload == "static_hot_path")
    static_hot_path(opt, r);
  else if (opt.workload == "testbed_hot_path")
    testbed_hot_path(opt, r);
  else
    throw std::invalid_argument("unknown workload: " + opt.workload);
  return r;
}

}  // namespace ledger
