// Measurement probes of the serving ledger: a log-bucketed histogram, a
// span log with per-name self-time accounting and Chrome trace export, and
// decorators that time each layer from outside through the library's public
// seams (engine::ExecutionBackend, control::Allocator, net::Endpoint).
//
// None of the decorators changes what it forwards: every delay, cancel,
// execution and frame reaches the wrapped object unchanged and in the same
// order, so a traced discrete-event run makes exactly the decisions of the
// untraced one. The ledger checks that on every traced run.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "control/allocator.hpp"
#include "engine/backend.hpp"
#include "net/transport.hpp"

namespace ledger {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds since construction on the steady clock.
class Stopwatch {
 public:
  double seconds() const { return static_cast<double>(now_ns() - t0_) * 1e-9; }

 private:
  std::int64_t t0_ = now_ns();
};

/// Log-linear histogram of non-negative samples: 64 sub-buckets per power
/// of two, so a percentile is exact to within ~1.6%. Memory is constant in
/// the sample count, which matters for runs with millions of spans.
class Hist {
 public:
  void add(double v);
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  /// p in [0, 100]; 0 when empty.
  double percentile(double p) const;

 private:
  static constexpr int kSub = 64;
  static constexpr int kOctaves = 64;
  std::array<std::uint64_t, kSub * kOctaves> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Names of the spans the ledger records, one per layer boundary.
enum class SpanName : std::uint8_t {
  kSubmit,     ///< harness -> CascadeEngine::submit
  kLaunchCb,   ///< a deferred engine callback (batch timer, load wake-up)
  kDoneCb,     ///< a batch-completion callback
  kTick,       ///< a deferred callback that contained an allocator solve
  kSolve,      ///< Allocator::allocate
  kSend,       ///< net::Endpoint::send
  kDeliver,    ///< a frame delivered after its hop latency
  kFrontend,   ///< harness -> ShardFrontend::submit
  kCount
};
const char* to_string(SpanName n);

/// Records spans (name, start, end, parent, query seq) from any thread.
/// Every span feeds its name's duration and self-time histograms; the first
/// `keep` spans are also kept for the Chrome trace export. A span's self
/// time is its duration minus the time its child spans cover.
class SpanLog {
 public:
  explicit SpanLog(std::size_t keep = 200'000) : keep_(keep) {}

  /// RAII span on the calling thread's span stack.
  class Scope {
   public:
    Scope(SpanLog& log, SpanName name, std::int64_t seq = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
  };
  /// Reclassify the span enclosing the calling thread's innermost open span
  /// (no-op when there is none): a callback that ran a solve is a tick.
  static void rename_parent(SpanName name);

  const Hist& duration(SpanName n) const { return dur_[idx(n)]; }
  const Hist& self(SpanName n) const { return self_[idx(n)]; }
  /// Duration of every top-level span (no parent), summed: the time spent
  /// inside instrumented layers rather than in the caller's own loop.
  double top_level_ns() const { return top_level_ns_; }
  std::uint64_t recorded() const { return next_id_; }

  /// Write the kept spans as Chrome trace-event JSON (Perfetto,
  /// chrome://tracing). Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Kept {
    std::int64_t start_ns, end_ns, seq;
    std::int64_t id, parent;
    std::uint32_t tid;
    SpanName name;
  };
  static std::size_t idx(SpanName n) { return static_cast<std::size_t>(n); }
  void record(const Kept& k, std::int64_t self_ns);

  const std::size_t keep_;
  std::mutex mu_;
  std::array<Hist, static_cast<std::size_t>(SpanName::kCount)> dur_;
  std::array<Hist, static_cast<std::size_t>(SpanName::kCount)> self_;
  double top_level_ns_ = 0.0;
  std::atomic<std::int64_t> next_id_{0};
  std::vector<Kept> kept_;
  std::int64_t origin_ns_ = now_ns();
};

/// ExecutionBackend decorator: times every deferred and batch-completion
/// callback as a span, counts defer/cancel/guard calls, and — when
/// `wall_scale` > 0, i.e. over the threaded testbed — times guard()
/// acquisition and records how late timer and execution callbacks are
/// delivered, in wall time (trace lateness / wall_scale).
class TracingBackend final : public diffserve::engine::ExecutionBackend {
 public:
  TracingBackend(diffserve::engine::ExecutionBackend& inner, SpanLog& log,
                 double wall_scale = 0.0)
      : inner_(inner), log_(log), wall_scale_(wall_scale) {}

  double now() const override { return inner_.now(); }
  diffserve::engine::TimerHandle defer(double delay_seconds,
                                       std::function<void()> fn) override;
  bool cancel(diffserve::engine::TimerHandle h) override;
  void execute(int worker_id, double exec_seconds,
               std::function<void()> done) override;
  std::unique_lock<std::mutex> guard() override;
  void offload(std::function<void()> fn) override {
    inner_.offload(std::move(fn));
  }

  std::uint64_t defers() const { return defers_.load(); }
  std::uint64_t cancels() const { return cancels_.load(); }
  std::uint64_t guard_acquires() const { return guard_acquires_.load(); }
  /// Testbed-only histograms, in wall nanoseconds (empty on the DES).
  Hist guard_wait_ns() const;
  Hist timer_late_ns() const;
  Hist exec_late_ns() const;

 private:
  void late(Hist& h, double due);

  diffserve::engine::ExecutionBackend& inner_;
  SpanLog& log_;
  const double wall_scale_;
  std::atomic<std::uint64_t> defers_{0}, cancels_{0}, guard_acquires_{0};
  mutable std::mutex hist_mu_;
  Hist guard_wait_ns_, timer_late_ns_, exec_late_ns_;
};

/// Allocator decorator: times allocate() as a solve span, marks the
/// enclosing callback as a controller tick, reads the branch-and-bound node
/// count when the inner allocator is the MILP, and counts plan changes
/// (decisions that differ from the previous one).
class TimedAllocator final : public diffserve::control::Allocator {
 public:
  TimedAllocator(diffserve::control::Allocator& inner, SpanLog& log)
      : inner_(inner), log_(log) {}
  diffserve::control::AllocationDecision allocate(
      const diffserve::control::AllocationInput& input) override;
  std::string name() const override { return inner_.name(); }

  std::uint64_t plan_changes() const { return plan_changes_; }
  const Hist& nodes() const { return nodes_; }

 private:
  diffserve::control::Allocator& inner_;
  SpanLog& log_;
  std::uint64_t plan_changes_ = 0;
  Hist nodes_;
  bool have_last_ = false;
  diffserve::control::AllocationDecision last_;
};

/// Endpoint decorator: counts frames and wire bytes and times send(). For
/// loopback links, whose sends the DES serializes; the counters are plain.
class TracingEndpoint final : public diffserve::net::Endpoint {
 public:
  TracingEndpoint(std::unique_ptr<diffserve::net::Endpoint> inner,
                  SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}
  void send(const diffserve::net::Frame& f) override;
  void set_receiver(std::function<void(diffserve::net::Frame)> r) override {
    inner_->set_receiver(std::move(r));
  }
  void start() override { inner_->start(); }
  void stop() override { inner_->stop(); }

  std::uint64_t frames() const { return frames_; }
  std::uint64_t bytes() const { return bytes_; }

 private:
  std::unique_ptr<diffserve::net::Endpoint> inner_;
  SpanLog& log_;
  std::uint64_t frames_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace ledger
