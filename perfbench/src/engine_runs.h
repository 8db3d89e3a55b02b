// The two halves of a hotkey_resize pass: the serial QueryEngine baseline
// and the 2-shard ShardedRuntime, fed the same events from this thread.
#ifndef SASE_PERFBENCH_ENGINE_RUNS_H_
#define SASE_PERFBENCH_ENGINE_RUNS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/catalog.h"
#include "core/event.h"
#include "runtime/sharded_runtime.h"
#include "workloads.h"

namespace perfbench {

/// A pre-generated synthetic input: the stream, the query texts, and the
/// map from an event's seq to its position (to find the source call that
/// fed an alert's completing event).
struct SyntheticInput {
  std::vector<sase::EventPtr> events;
  std::vector<std::string> queries;
  std::vector<size_t> seq_index;

  void IndexSeqs();
};

struct RunOutcome {
  RecordDigest digest;
  uint64_t resizes = 0;
  uint64_t replayed = 0;
  uint64_t splits = 0;
};

/// max / mean of the default stream's per-shard routed events since the
/// last layout change; 0 when nothing was routed.
double ShardSkew(const sase::ShardedRuntime& runtime);

/// Serial baseline: records serial.items_per_s and serial.cpu_us_per_item;
/// traced, also the engine.* and query.register_ms metrics.
RunOutcome RunSerial(const sase::Catalog& catalog, const SyntheticInput& input,
                     PassEnv& env);

/// The system under test: records setup_s, items_per_s, cpu_us_per_item
/// and alert latency; traced, also the runtime.* metrics. With
/// `resize_every` > 0 the shard count alternates 1 <-> kShards every that
/// many events. Every Register/Resize result is checked into env.out.
RunOutcome RunSharded(const sase::Catalog& catalog, const SyntheticInput& input,
                      sase::RuntimeConfig config, size_t resize_every,
                      PassEnv& env);

}  // namespace perfbench

#endif  // SASE_PERFBENCH_ENGINE_RUNS_H_
