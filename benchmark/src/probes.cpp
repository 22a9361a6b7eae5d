#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "control/milp_allocator.hpp"

namespace ledger {

// ---- Hist -------------------------------------------------------------------

void Hist::add(double v) {
  v = std::max(v, 0.0);
  std::size_t i = 0;
  if (v < kSub) {
    i = static_cast<std::size_t>(v);
  } else {
    int e = 0;
    const double m = std::frexp(v, &e);  // v = m * 2^e, m in [0.5, 1)
    // Octave k >= 1 covers [2^(k+5), 2^(k+6)) in kSub equal steps.
    const int octave = std::min(e - 6, kOctaves - 1);
    const int sub = std::min(static_cast<int>((m * 2.0 - 1.0) * kSub), kSub - 1);
    i = static_cast<std::size_t>(octave * kSub + sub);
  }
  ++buckets_[i];
  ++count_;
  sum_ += v;
}

double Hist::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(p / 100.0 * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen < target) continue;
    if (i < static_cast<std::size_t>(kSub)) return static_cast<double>(i);
    const int octave = static_cast<int>(i) / kSub;
    const int sub = static_cast<int>(i) % kSub;
    const double lo = std::ldexp(1.0 + sub / static_cast<double>(kSub), octave + 5);
    const double width = std::ldexp(1.0 / kSub, octave + 5);
    return lo + width / 2.0;
  }
  return 0.0;
}

// ---- SpanLog ----------------------------------------------------------------

const char* to_string(SpanName n) {
  switch (n) {
    case SpanName::kSubmit: return "engine.submit";
    case SpanName::kLaunchCb: return "engine.launch_cb";
    case SpanName::kDoneCb: return "engine.done_cb";
    case SpanName::kTick: return "control.tick";
    case SpanName::kSolve: return "control.solve";
    case SpanName::kSend: return "net.send";
    case SpanName::kDeliver: return "net.deliver";
    case SpanName::kFrontend: return "cluster.submit";
    case SpanName::kCount: break;
  }
  return "?";
}

namespace {

struct OpenSpan {
  SpanName name;
  std::int64_t start_ns;
  std::int64_t child_ns;
  std::int64_t id;
  std::int64_t seq;
};

thread_local std::vector<OpenSpan> t_stack;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

}  // namespace

SpanLog::Scope::Scope(SpanLog& log, SpanName name, std::int64_t seq)
    : log_(log) {
  t_stack.push_back({name, now_ns(), 0, log.next_id_.fetch_add(1), seq});
}

SpanLog::Scope::~Scope() {
  const std::int64_t end = now_ns();
  const OpenSpan s = t_stack.back();
  t_stack.pop_back();
  const std::int64_t dur = end - s.start_ns;
  std::int64_t parent = -1;
  if (!t_stack.empty()) {
    t_stack.back().child_ns += dur;
    parent = t_stack.back().id;
  }
  log_.record({s.start_ns, end, s.seq, s.id, parent, thread_index(), s.name},
              std::max<std::int64_t>(dur - s.child_ns, 0));
}

void SpanLog::rename_parent(SpanName name) {
  if (t_stack.size() >= 2) t_stack[t_stack.size() - 2].name = name;
}

void SpanLog::record(const Kept& k, std::int64_t self_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  dur_[idx(k.name)].add(static_cast<double>(k.end_ns - k.start_ns));
  self_[idx(k.name)].add(static_cast<double>(self_ns));
  if (k.parent < 0) top_level_ns_ += static_cast<double>(k.end_ns - k.start_ns);
  if (kept_.size() < keep_) kept_.push_back(k);
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Kept& k = kept_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld,\"seq\":%lld}}%s\n",
                 to_string(k.name), k.tid,
                 static_cast<double>(k.start_ns - origin_ns_) / 1e3,
                 static_cast<double>(k.end_ns - k.start_ns) / 1e3,
                 static_cast<long long>(k.id), static_cast<long long>(k.parent),
                 static_cast<long long>(k.seq),
                 i + 1 < kept_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// ---- TracingBackend ---------------------------------------------------------

namespace engine = diffserve::engine;

void TracingBackend::late(Hist& h, double due) {
  const double late_trace_s = std::max(inner_.now() - due, 0.0);
  std::lock_guard<std::mutex> lock(hist_mu_);
  h.add(late_trace_s / wall_scale_ * 1e9);
}

engine::TimerHandle TracingBackend::defer(double delay_seconds,
                                          std::function<void()> fn) {
  defers_.fetch_add(1, std::memory_order_relaxed);
  const double due = wall_scale_ > 0.0
                         ? inner_.now() + std::max(delay_seconds, 0.0)
                         : 0.0;
  return inner_.defer(delay_seconds, [this, due, fn = std::move(fn)] {
    if (wall_scale_ > 0.0) late(timer_late_ns_, due);
    SpanLog::Scope span(log_, SpanName::kLaunchCb);
    fn();
  });
}

bool TracingBackend::cancel(engine::TimerHandle h) {
  cancels_.fetch_add(1, std::memory_order_relaxed);
  return inner_.cancel(h);
}

void TracingBackend::execute(int worker_id, double exec_seconds,
                             std::function<void()> done) {
  const double due = wall_scale_ > 0.0 ? inner_.now() + exec_seconds : 0.0;
  inner_.execute(worker_id, exec_seconds,
                 [this, due, done = std::move(done)] {
                   if (wall_scale_ > 0.0) late(exec_late_ns_, due);
                   SpanLog::Scope span(log_, SpanName::kDoneCb);
                   done();
                 });
}

std::unique_lock<std::mutex> TracingBackend::guard() {
  guard_acquires_.fetch_add(1, std::memory_order_relaxed);
  if (wall_scale_ <= 0.0) return inner_.guard();
  const std::int64_t t0 = now_ns();
  auto g = inner_.guard();
  const double wait = static_cast<double>(now_ns() - t0);
  std::lock_guard<std::mutex> lock(hist_mu_);
  guard_wait_ns_.add(wait);
  return g;
}

Hist TracingBackend::guard_wait_ns() const {
  std::lock_guard<std::mutex> lock(hist_mu_);
  return guard_wait_ns_;
}
Hist TracingBackend::timer_late_ns() const {
  std::lock_guard<std::mutex> lock(hist_mu_);
  return timer_late_ns_;
}
Hist TracingBackend::exec_late_ns() const {
  std::lock_guard<std::mutex> lock(hist_mu_);
  return exec_late_ns_;
}

// ---- TimedAllocator ---------------------------------------------------------

namespace control = diffserve::control;

control::AllocationDecision TimedAllocator::allocate(
    const control::AllocationInput& input) {
  SpanLog::Scope span(log_, SpanName::kSolve);
  SpanLog::rename_parent(SpanName::kTick);
  control::AllocationDecision d = inner_.allocate(input);
  if (const auto* milp = dynamic_cast<const control::MilpAllocator*>(&inner_))
    nodes_.add(milp->last_nodes());
  const bool same = have_last_ && d.workers == last_.workers &&
                    d.batches == last_.batches &&
                    d.thresholds == last_.thresholds &&
                    d.direct_mode == last_.direct_mode &&
                    d.p_heavy == last_.p_heavy;
  if (have_last_ && !same) ++plan_changes_;
  last_ = d;
  have_last_ = true;
  return d;
}

// ---- TracingEndpoint --------------------------------------------------------

void TracingEndpoint::send(const diffserve::net::Frame& f) {
  ++frames_;
  // [u32 len][u8 priority][u16 topic_len][topic][payload] (net/frame.hpp).
  bytes_ += 7 + f.topic.size() + f.payload.size();
  SpanLog::Scope span(log_, SpanName::kSend);
  inner_->send(f);
}

}  // namespace ledger
