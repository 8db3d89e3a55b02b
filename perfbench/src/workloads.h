// The benchmark's workloads. Each one pre-generates its input from the
// seed, then runs passes; every pass builds fresh systems, feeds the same
// input through the public entry points from this one thread (closed
// loop, one client), and checks the sharded output against the serial
// output.
#ifndef SASE_PERFBENCH_WORKLOADS_H_
#define SASE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// One pass's environment.
struct PassEnv {
  int pass = 0;
  /// Span ledger of a traced pass; null in untraced passes, which record
  /// only end-to-end samples.
  Ledger* ledger = nullptr;
  Collector* out = nullptr;
  /// This pass's alert latencies: the source call that fed an alert's
  /// completing event to the callback delivering it.
  LatencyHistogram* latency = nullptr;
  /// Scratch directory inside the checkout for journals and snapshots.
  std::string work_dir;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string name() const = 0;
  /// One-line description of the input sizes, for the run context.
  virtual std::string Describe() const = 0;
  virtual void RunPass(PassEnv& env) = 0;
  /// Vacuity guards over the whole run, checked once after the passes.
  virtual void CheckRun(Collector& out) const = 0;
  /// Per-layer metrics a traced pass of this workload records.
  virtual std::vector<std::string> LayerMetrics() const = 0;
};

/// Threads this benchmark may run at once: the dispatcher (this thread),
/// two shard workers and the runtime's broadcast worker.
constexpr int kShards = 2;
constexpr int kThreadBudget = kShards + 2;

/// Events between the runtime's incremental merges. The runtime default
/// (4096) is longer than most of a pass, so nearly every alert would wait
/// for OnFlush and alert latency would measure the pass length; at 256 it
/// measures processing plus merge delay, as a latency-sensitive deployment
/// would run.
constexpr size_t kMergeInterval = 256;

/// Batches each shard ring holds before the dispatcher blocks. At the
/// runtime default (64 batches of 256 events) a whole pass fits in the
/// rings and the feeding loop never feels backpressure; at 8 the loop is
/// closed by the rings, so in-flight work (latency, memory) stays bounded.
constexpr size_t kQueueCapacity = 8;

/// The seed whose per-pass output record counts are pinned in the oracle.
constexpr uint64_t kPinnedSeed = 1;

/// `tiny` shrinks every input for the smoke test (no pinned counts then).
std::unique_ptr<Workload> MakeRetailDay(uint64_t seed, bool tiny);
std::unique_ptr<Workload> MakeHotkeyResize(uint64_t seed, bool tiny);

}  // namespace perfbench

#endif  // SASE_PERFBENCH_WORKLOADS_H_
