// Measurement plumbing shared by the benchmark's workloads: clocks, per-pass
// samples, a latency histogram, the output digest the oracle compares, and
// the span ledger of traced runs.
#ifndef SASE_PERFBENCH_HARNESS_H_
#define SASE_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/match.h"

namespace perfbench {

/// Monotonic wall clock, calling thread's CPU clock, and the CPU clock of
/// the whole process (every thread, including ones that already exited).
uint64_t WallNs();
uint64_t ThreadCpuNs();
uint64_t ProcessCpuNs();

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();
/// Threads alive in this process right now (/proc/self/task).
int LiveThreads();

/// Median; an even count averages the middle pair.
double Median(std::vector<double> values);

/// Latency histogram with ~1% wide geometric buckets, so pooled
/// percentiles need fixed memory whatever the number of passes. Ranks are
/// interpolated inside a bucket.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Record(uint64_t ns);
  uint64_t count() const { return count_; }
  void Merge(const LatencyHistogram& other);
  /// Nearest-rank percentile (q in [0, 1]) in nanoseconds.
  double Percentile(double q) const;

 private:
  static constexpr int kBuckets = 3200;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

/// Order-sensitive digest of delivered records: hashes
/// OutputRecord::ToString() in delivery order.
class RecordDigest {
 public:
  void Add(const sase::OutputRecord& record);
  uint64_t count() const { return count_; }
  bool operator==(const RecordDigest& other) const {
    return hash_ == other.hash_ && count_ == other.count_;
  }

 private:
  void Mix(uint64_t v) { hash_ = (hash_ ^ v) * 0x100000001b3ull + 0x9e3779b97f4a7c15ull; }
  uint64_t hash_ = 0xcbf29ce484222325ull;
  uint64_t count_ = 0;
};

/// Span ledger of a traced run. Spans nest through an open-span stack on
/// the one thread that feeds the system. Callback time is folded into one
/// "callbacks" child per open span: its start is the first callback's
/// start and its duration the summed callback time, so a parent's self
/// time is its duration minus the time spent in user code.
class Ledger {
 public:
  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int parent = -1;
    int pass = 0;
    std::string workload;
  };

  void set_pass(int pass, const std::string& workload) {
    pass_ = pass;
    workload_ = workload;
  }
  /// Opens a span starting now; returns its index.
  int Open(const std::string& name);
  /// Closes the innermost span. With `drop_if_leaf`, a span that gained no
  /// child is discarded (its time stays in the parent), which keeps
  /// per-event spans only where the call did something worth seeing.
  void Close(bool drop_if_leaf = false);
  /// Adds one callback's [start, end) to the innermost span's "callbacks"
  /// child.
  void AddCallback(uint64_t start_ns, uint64_t end_ns);
  /// Summed callback time under span `index` (its "callbacks" child).
  uint64_t CallbackNs(int index) const;
  uint64_t DurationNs(int index) const {
    return spans_[index].end_ns - spans_[index].start_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self-time table per span name: count, total and self milliseconds.
  std::string SelfTimeTable() const;
  /// Chrome trace-event JSON ("ph":"X" complete events), the format the
  /// system's own obs traces use; `context` is embedded as metadata.
  std::string ChromeJson(const std::string& context_json) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  // Per open span: index of its "callbacks" child (-1 = none yet) and the
  // summed callback time; parallel to open_.
  std::vector<int> callback_child_;
  std::vector<uint64_t> callback_busy_;
  std::vector<size_t> child_count_;
  int pass_ = 0;
  std::string workload_;
};

/// RAII span; a no-op when `ledger` is null (untraced passes).
class ScopedSpan {
 public:
  ScopedSpan(Ledger* ledger, const std::string& name, bool drop_if_leaf = false)
      : ledger_(ledger), drop_(drop_if_leaf) {
    if (ledger_ != nullptr) index_ = ledger_->Open(name);
  }
  ~ScopedSpan() {
    if (ledger_ != nullptr) ledger_->Close(drop_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  Ledger* ledger_;
  bool drop_;
  int index_ = -1;
};

/// What a run accumulates across passes: per-pass samples of every metric,
/// pooled alert latency, counts of attempted and failed operations, and the
/// first failure messages.
struct Collector {
  std::map<std::string, std::vector<double>> samples;
  LatencyHistogram latency;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void Add(const std::string& metric, double value) {
    samples[metric].push_back(value);
  }
  /// Counts one operation; a false `ok` is a failure named by `what`.
  void Check(bool ok, const std::string& what);
  /// Folds another collector's checks and latency samples into this one
  /// (its per-pass samples stay apart).
  void MergeChecks(const Collector& other);
  double MedianOf(const std::string& metric) const;
};

}  // namespace perfbench

#endif  // SASE_PERFBENCH_HARNESS_H_
