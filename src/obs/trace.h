#ifndef SASE_OBS_TRACE_H_
#define SASE_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace sase {
namespace obs {

/// One completed span of a sampled event's lifecycle. `lane` is the
/// logical thread the span ran on ("dispatcher", "shard-3", "merge"...);
/// the JSON dump maps lanes to Chrome trace tids.
struct TraceSpan {
  uint64_t trace_id = 0;
  const char* name = "";  // static strings only ("ingest", "operator"...)
  std::string lane;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  /// Global dispatch index of the traced event (0 = not applicable).
  uint64_t global = 0;
};

/// The shared observability clock: monotonic nanoseconds. Every span
/// endpoint and latency sample (ring wait, journal append, ...) reads this
/// one clock, so timestamps from different threads and layers compare.
uint64_t MonotonicNs();

/// Sampled event-lifecycle tracer. The ingest point calls MaybeSample()
/// once per published event; one in `sample_every` events gets a fresh
/// trace id, which instrumentation sites propagate (the dispatcher's
/// "current" slot for synchronous bus fan-out, EventBatch::traced across
/// the ring) and stamp spans against from any thread. Disabled
/// (sample_every == 0) the only cost at the ingest point is one relaxed
/// load; every other site is behind the same check.
///
/// The collected spans dump as Chrome trace-event JSON ("ph":"X" complete
/// events, microsecond timestamps), loadable in Perfetto / chrome://tracing.
class TraceCollector {
 public:
  TraceCollector() = default;

  /// Sets the sampling rate: one ingested event in `n` is traced; 0 turns
  /// tracing off. Safe to flip mid-stream (console `.trace on/off`).
  void SetSampling(uint64_t n) {
    sample_every_.store(n, std::memory_order_relaxed);
  }
  bool enabled() const {
    return sample_every_.load(std::memory_order_relaxed) > 0;
  }
  uint64_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }

  /// Ingest-point sampling decision (single ingest thread): returns a fresh
  /// nonzero trace id for one event in `sample_every`, 0 otherwise.
  uint64_t MaybeSample() {
    uint64_t n = sample_every_.load(std::memory_order_relaxed);
    if (n == 0) return 0;
    if (++ingest_counter_ % n != 0) return 0;
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// The trace clock == MonotonicNs(); ToJson normalizes to the earliest
  /// span, so dumps always start near t=0.
  uint64_t NowNs() const { return MonotonicNs(); }

  /// Marks that an upstream ingest point (SaseSystem::Ingest) owns the
  /// sampling decision; a standalone ShardedRuntime self-samples at dispatch
  /// only while this is unset, so embedded use never double-counts.
  void SetExternalSampler(bool v) { external_sampler_ = v; }
  bool external_sampler() const { return external_sampler_; }

  /// The trace id of the event currently in flight on the ingest thread;
  /// its layers run synchronously, so a slot (not a stack) suffices.
  void SetCurrent(uint64_t id) { current_ = id; }
  uint64_t current() const { return current_; }

  /// Records one completed span (any thread).
  void AddSpan(uint64_t trace_id, const char* name, std::string lane,
               uint64_t start_ns, uint64_t end_ns, uint64_t global = 0);

  size_t span_count() const;
  std::vector<TraceSpan> Spans() const;
  void Clear();

  /// Chrome trace-event JSON of every collected span.
  std::string ToJson() const;
  Status DumpJson(const std::string& path) const;

 private:
  std::atomic<uint64_t> sample_every_{0};
  std::atomic<uint64_t> next_id_{0};
  uint64_t ingest_counter_ = 0;    // ingest thread only
  uint64_t current_ = 0;           // ingest thread only
  bool external_sampler_ = false;  // set once at wiring time

  mutable std::mutex mutex_;
  std::vector<TraceSpan> spans_;
};

}  // namespace obs
}  // namespace sase

#endif  // SASE_OBS_TRACE_H_
