#ifndef SASE_RUNTIME_SHARDED_RUNTIME_H_
#define SASE_RUNTIME_SHARDED_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/catalog.h"
#include "core/stream.h"
#include "engine/query_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/elastic_policy.h"
#include "runtime/event_batch.h"
#include "runtime/output_merger.h"
#include "runtime/partitioner.h"

namespace sase {

/// Configuration knobs for the sharded execution runtime.
struct RuntimeConfig {
  /// Number of key-partitioned shards (worker threads with a private
  /// QueryEngine each). One extra broadcast worker hosts queries that
  /// cannot be key-partitioned.
  int shard_count = 4;
  /// Attribute whose value partitions the stream; `TagId` for the paper's
  /// RFID workloads.
  std::string partition_key = "TagId";
  /// Events per cross-thread handoff (ring-slot exchange): the dispatcher
  /// cuts a worker's pending batch once it holds this many events (clamped
  /// to >= 1).
  size_t batch_size = 256;
  /// Compile structurally identical queries onto one shared NFA per worker
  /// engine (QueryEngine::set_scan_sharing). Output is byte-identical to
  /// dedicated plans; a checkpoint taken with sharing on must be restored
  /// with sharing on (the plans' NFA signatures differ across modes
  /// whenever predicate pushdown applies).
  bool scan_sharing = false;
  /// Batches per shard queue before the dispatcher blocks (backpressure).
  size_t queue_capacity = 64;
  /// Dispatcher events between incremental merge attempts (and per-stream
  /// clock broadcasts that unstick quiet shards' tail negations). 0 disables
  /// incremental delivery: all output surfaces on OnFlush/WaitIdle.
  size_t merge_interval = 4096;
  /// Dead dispatch-log prefix entries a stream log accumulates before the
  /// merger physically truncates it (amortizes the erase). SIZE_MAX disables
  /// compaction — the log then grows with the stream, the pre-compaction
  /// behavior kept for benchmarking the difference.
  size_t log_compact_min = 1024;
  /// Load-driven shard autoscaling (off by default); see
  /// runtime/elastic_policy.h for the thresholds and ShardedRuntime::Resize
  /// for the mechanism it triggers.
  ElasticConfig elastic;
  TimeConfig time_config;
  /// Optional metrics registry (not owned; must outlive the runtime). When
  /// set, every worker engine records per-query operator latency, the
  /// workers record ring-wait latency, the dispatcher records
  /// dispatch->merge watermark latency, and ScrapeMetrics() mirrors the
  /// runtime counters. nullptr (default): the hot path is the exact
  /// uninstrumented code behind one null check per batch.
  obs::MetricsRegistry* metrics = nullptr;
  /// Slow-query log arming for every worker engine, active only with
  /// `metrics` set (the threshold is checked on the instrumented timing
  /// path): operator passes taking at least this long are counted per query
  /// and sampled into a last-`slow_query_log_size` ring per engine. 0
  /// disables. SaseSystem copies these from ObsConfig.
  uint64_t slow_query_threshold_ns = 1000000;
  size_t slow_query_log_size = 32;
  /// Space-saving sketch slots for per-stream hot-key accounting
  /// (Partitioner::EnableHotKeyTracking), armed only with `metrics` set so
  /// disabled-observability dispatch stays a null branch. 0 disables.
  size_t hotkey_sketch_size = 16;
  /// Hot-key mitigation: act on the sketch instead of just reporting it.
  /// When a key's sketch share of a stream's keyed events reaches
  /// `hotkey_split_threshold` percent (measured by the guaranteed lower
  /// bound count - error, so sketch overestimation cannot trigger a split)
  /// after at least `hotkey_min_events` keyed events, the runtime splits the
  /// key at a quiesce point: round-robin spread when the stream hosts no
  /// sharded stateful query, secondary sub-partitioning when every sharded
  /// stateful query on the stream shares a second covering attribute, and a
  /// surfaced refusal otherwise (see StatsReport "hot-key splits:" and the
  /// sase_partition_hotkey_split_* series). Mitigation arms the sketch even
  /// without a metrics registry. Off by default: splitting rebuilds shard
  /// engines by replay, a deliberate operator opt-in.
  bool hotkey_mitigation = false;
  /// Sketch-share percentage (of a stream's keyed events) at which a key is
  /// split. Also re-checked every `hotkey_min_events` dispatched events, so
  /// the trigger is deterministic in the event sequence.
  int hotkey_split_threshold = 50;
  uint64_t hotkey_min_events = 4096;
  /// Optional event-lifecycle tracer (not owned). Sampled events accumulate
  /// partition -> ring -> operator -> merge -> emit spans. A standalone
  /// runtime samples at dispatch; embedded under SaseSystem the ingest tap
  /// owns sampling (TraceCollector::SetExternalSampler) and adds the
  /// "ingest" span.
  obs::TraceCollector* tracer = nullptr;
};

/// The sharded parallel execution runtime: stands between the event bus and
/// N+1 private QueryEngine instances, scaling the complex event processor
/// across cores while producing byte-identical output to serial execution.
///
///   StreamBus / sources (dispatcher thread)
///     -> Partitioner: key-hash routing (TagId) + per-stream batching
///        -> SPSC ring -> shard worker 0 .. N-1 (own QueryEngine each)
///        -> SPSC ring -> broadcast worker (non-shardable queries, all
///                        events)
///     <- OutputMerger: re-sequences tagged shard outputs into serial
///        dispatch order; user callbacks fire on the dispatcher thread.
///
/// Shardable queries (see Partitioner::Shardable) are mirrored into every
/// shard engine under the same QueryId; each shard evaluates only its key
/// partition's events, so the union of shard outputs equals the serial
/// result set, and the merger restores the serial emission order. Everything
/// else runs serially on the broadcast worker, which receives the full
/// stream.
///
/// Named input streams: queries with a `FROM <stream>` clause route through
/// the runtime exactly like default-input queries — feed their events in via
/// OnStreamEvent. Each stream keeps its own dispatch log and clock; the
/// merge order across streams is the dispatch interleaving, i.e. the order
/// the serial engine would have seen the OnEvent/OnStreamEvent calls.
///
/// Memory bound: the merger's dispatch log is compacted below the merge
/// watermark after every incremental merge, so steady-state runtime memory
/// is O(shards x in-flight window) — batches in flight plus one
/// merge-interval of log — independent of total stream length.
///
/// Elasticity: Resize(n) re-partitions mid-stream at a quiesce point
/// (deterministic replay of the in-flight window; see the method comment),
/// and RuntimeConfig::elastic turns on a load-driven autoscaler that calls
/// it automatically with hysteresis (runtime/elastic_policy.h).
///
/// Threading contract: Register/Unregister/OnEvent/OnStreamEvent/OnFlush/
/// WaitIdle are called from ONE dispatcher thread (the stream's producer).
/// Output callbacks fire on that same thread, during OnEvent (incremental
/// merges), OnFlush and WaitIdle — user code never needs to synchronize.
/// Events must arrive in stream order per input stream (non-decreasing
/// timestamp, increasing seq), the invariant StreamSource already enforces.
class ShardedRuntime : public EventSink {
 public:
  /// Hook run once per private engine at construction, before any query
  /// registration — install custom functions here. Functions installed into
  /// shard engines run on worker threads; keep them thread-safe or register
  /// the queries that call them outside the runtime.
  using EngineInit = std::function<void(QueryEngine&)>;

  explicit ShardedRuntime(const Catalog* catalog, RuntimeConfig config = {},
                          EngineInit engine_init = nullptr);
  ~ShardedRuntime() override;

  ShardedRuntime(const ShardedRuntime&) = delete;
  ShardedRuntime& operator=(const ShardedRuntime&) = delete;

  /// Registers a continuous query; `callback` receives merged, serially
  /// ordered records on the dispatcher thread. Queries reading a named FROM
  /// stream are hosted like any other — their events arrive via
  /// OnStreamEvent. Quiesces the workers, so mid-stream registration is safe
  /// (the query sees the stream suffix, exactly as with a serial engine).
  Result<QueryId> Register(const std::string& text, OutputCallback callback,
                           PlanOptions options = {});

  /// Removes a query from every hosting engine. Records already emitted but
  /// not yet merge-safe are dropped, matching the serial engine's contract
  /// that an unregistered plan's undelivered state vanishes.
  Status Unregister(QueryId id);

  /// Re-partitions the runtime onto `shard_count` shards at a quiesce
  /// point, mid-stream, without changing a byte of output:
  ///
  ///   1. quiesce — drain every in-flight batch, broadcast the per-stream
  ///      clocks, deliver everything merge-safe (after this the merger holds
  ///      no undelivered records);
  ///   2. stop the worker threads; the broadcast engine (aggregates,
  ///      non-key queries) is carried over untouched — its state never
  ///      depends on the shard layout;
  ///   3. rehash the partition map and build fresh shard engines;
  ///   4. deterministically replay the in-flight window — the retained
  ///      events younger than the largest sharded WITHIN span, with query
  ///      registrations re-interleaved at their original stream positions —
  ///      routing each event under the NEW layout. Replay output is
  ///      discarded (those records were all delivered before the resize);
  ///      a final muted clock broadcast re-releases the already-delivered
  ///      tail-negation deferrals, leaving each fresh engine holding
  ///      exactly the partial matches and parked deferrals a serial engine
  ///      would still hold;
  ///   5. resume the workers. Dispatch continues with the same global
  ///      dispatch index, so the merge order is seamless across the resize.
  ///
  /// Fails with kFailedPrecondition when a registered sharded stateful
  /// query has no WITHIN window (the in-flight window would be the whole
  /// stream); no-ops when `shard_count` already matches. Dispatcher thread
  /// only, like every other entry point.
  Status Resize(int shard_count);

  /// Serialized-state view of the runtime at a quiesce point — what a
  /// durable checkpoint persists and what a cross-process handoff would put
  /// on the wire. The engines' operator state is serialized directly
  /// (`plan_states`, one payload per query per hosting engine, via
  /// QueryEngine::SerializeState), and RestoreCheckpoint rebuilds each
  /// engine from its payloads — aggregates and stateful queries without
  /// WITHIN included. The window events ride along only to refill the
  /// resize replay buffer, so a Resize after recovery can still replay.
  struct CheckpointState {
    /// One QueryEngine::SerializeState payload: the operator state of
    /// query `query` on worker `worker` (shards 0..N-1, broadcast == N).
    /// `query == 0` carries the worker engine's own counters
    /// (QueryEngine::SerializeEngineState).
    struct PlanState {
      int worker = 0;
      QueryId query = 0;
      std::string data;
    };
    struct Query {
      QueryId id = 0;
      std::string text;
      PlanOptions options;
      uint64_t registered_at = 0;
    };
    struct Stream {
      std::string name;
      Timestamp clock = 0;
      SequenceNumber last_seq = 0;
      uint64_t events = 0;
    };
    struct WindowEvent {
      StreamId stream = kDefaultStream;
      uint64_t global = 0;
      EventPtr event;
    };
    /// One hot-key split-table entry (mode: Partitioner::SplitMode as int).
    /// Splits must survive recovery: a secondary-split key's sub-partition
    /// state lives on the shard its (key, secondary) sub-hash picks, so the
    /// recovered process must route it identically.
    struct Split {
      StreamId stream = kDefaultStream;
      int mode = 0;
      Value key;
      std::string secondary_attr;
    };
    int shard_count = 1;
    std::string partition_key;
    uint64_t events_dispatched = 0;
    /// Merge ordinal at the quiesce point: seeds the OutputMerger's
    /// delivery-cursor clock on restore so replayed records re-stamp with
    /// their pre-crash positions.
    uint64_t records_merged = 0;
    bool any_routed = false;
    StreamId routed_stream = kDefaultStream;
    bool multi_routed = false;
    std::vector<Query> queries;   // id (= registration) order
    std::vector<Stream> streams;  // StreamId order
    std::vector<WindowEvent> window;
    std::vector<PlanState> plan_states;
    std::vector<Split> splits;  // (stream, key) order
  };

  /// Captures the runtime's checkpoint state at a quiesce point (WaitIdle:
  /// every in-flight batch drained, all merge-safe output delivered),
  /// including every hosting engine's serialized operator state. The only
  /// refusal left is kFailedPrecondition from inside a Resize (a callback
  /// fired at the resize quiesce point — the layout is mid-change): with
  /// direct state serialization, aggregates, WITHIN-less stateful queries
  /// and broadcast-hosted state all checkpoint.
  Result<CheckpointState> ExportCheckpoint();

  /// Maps a checkpointed QueryId to the output callback its restored query
  /// should deliver to (callbacks cannot be serialized).
  using CallbackResolver = std::function<OutputCallback(QueryId)>;

  /// Rebuilds checkpointed state into this runtime (recovery bootstrap).
  /// The runtime must be freshly constructed, with the same shard count and
  /// partition key the state was captured under. Restores the per-stream
  /// dispatch stamps and the hot-key split table, re-registers every query
  /// under its original id and registration position, loads each hosting
  /// engine's serialized operator state (QueryEngine::RestoreState) and
  /// refills the resize replay buffer from the window events — no replay,
  /// no watermark re-silencing: the engines resume holding exactly the
  /// stacks, buffers, parked deferrals and aggregate accumulators the
  /// checkpointed engines held. The global dispatch clock continues from
  /// the checkpoint, so positions recorded before the crash stay comparable
  /// with indices issued after recovery.
  Status RestoreCheckpoint(const CheckpointState& state,
                           const CallbackResolver& callbacks);

  /// True while a Resize is mid-flight (only observable from callbacks
  /// fired at the resize quiesce point).
  bool resizing() const { return resizing_; }

  // EventSink: routes one default-input event (dispatcher thread).
  void OnEvent(const EventPtr& event) override;

  /// Routes one event of a named input stream (case-insensitive), the
  /// sharded counterpart of QueryEngine::OnStreamEvent. Only queries
  /// registered with `FROM <stream>` receive it.
  void OnStreamEvent(const std::string& stream, const EventPtr& event);

  /// End-of-stream barrier: flushes partial batches, waits for every worker
  /// to flush its engine (releasing tail-negation deferrals), then merges
  /// and delivers ALL remaining output in serial order.
  void OnFlush() override;

  /// Quiesces: blocks until every worker drained its queue, then delivers
  /// whatever output is safely ordered. Unlike OnFlush this does not end the
  /// stream — tail-negation deferrals stay parked.
  void WaitIdle();

  // --- introspection (dispatcher thread) ---
  int shard_count() const { return config_.shard_count; }
  size_t query_count() const { return queries_.size(); }
  /// True when `id` runs key-partitioned across the shards (false: hosted on
  /// the broadcast worker, or unknown id).
  bool IsSharded(QueryId id) const;
  uint64_t events_dispatched() const { return events_dispatched_; }
  uint64_t records_merged() const { return merger_.merged_count(); }
  const Partitioner& partitioner() const { return partitioner_; }

  // Dispatch-log health (the memory-bound guarantee, live — no quiesce).
  size_t dispatch_log_len() const { return merger_.log_len(); }
  size_t peak_dispatch_log_len() const { return merger_.peak_log_len(); }
  uint64_t log_compactions() const { return merger_.compaction_count(); }
  uint64_t log_entries_compacted() const { return merger_.compacted_entries(); }

  /// Aggregated engine counters across all workers (quiesces first).
  /// Continuous across resizes: counters of shard engines retired by a
  /// Resize are carried over, and the replayed in-flight window adds to
  /// events_processed/outputs (reconcile with events_replayed(); the
  /// delivered-record truth is records_merged()). The per-worker lines in
  /// StatsReport() show the CURRENT engines only — they restart at a
  /// resize with the replayed window as their history.
  QueryEngine::EngineStats Stats();

  // Elastic / resize health (live — no quiesce).
  uint64_t resize_count() const { return resizes_; }
  uint64_t grow_count() const { return grows_; }
  uint64_t shrink_count() const { return shrinks_; }
  uint64_t events_replayed() const { return events_replayed_; }
  /// Events currently retained for resize replay (the in-flight window).
  size_t replay_buffer_len() const { return replay_len_; }
  // Hot-key mitigation health (live — no quiesce; dispatcher-thread state
  // read for reports and bench counters).
  size_t hotkey_active_splits() const { return partitioner_.split_count(); }
  uint64_t hotkey_spread_splits() const { return hotkey_spread_splits_; }
  uint64_t hotkey_secondary_splits() const { return hotkey_secondary_splits_; }
  uint64_t hotkey_split_refusals() const { return hotkey_split_refusals_; }
  const ElasticPolicy& elastic_policy() const { return policy_; }
  /// Shared-scan activity summed over every worker engine. Reads the
  /// engines, so call from the dispatcher thread at a quiesce point
  /// (after WaitIdle or OnFlush).
  uint64_t shared_scan_hits() const;

  /// Multi-line fleet view: per-worker engine lines, merger and dispatch-log
  /// state, and one line per input stream (events, queries, per-shard
  /// routing counts).
  std::string StatsReport();

  /// One slow-query offender with the worker lane that recorded it
  /// ("shard-3", "broadcast").
  struct SlowSample {
    std::string host;
    QueryEngine::SlowQuerySample sample;
  };

  /// Slow-query ring contents across every worker engine, newest first
  /// (merged by capture time). Quiesces, so the rings are settled.
  /// Dispatcher thread only.
  std::vector<SlowSample> SlowSamples();

  /// Liveness probe for /healthz, callable from ANY thread (unlike every
  /// other entry point): a worker is wedged when its queue holds batches but
  /// its progress counter has not advanced for `stall_ns`. The first
  /// observation of a stuck worker only starts its stall clock, so a probe
  /// must fire twice before declaring a wedge — poll it. Returns true and
  /// leaves `why` untouched when healthy; false with a diagnosis otherwise.
  bool Healthy(uint64_t stall_ns, std::string* why);

  /// Mirrors the runtime's counters and gauges into RuntimeConfig::metrics:
  /// dispatch/merge/resize counters, per-stream and per-shard event counts,
  /// queue occupancy and merge watermark lag (sampled live, pre-quiesce),
  /// then each worker engine's per-query counters. Safe to call any time
  /// from the dispatcher thread; no-op without a registry.
  void ScrapeMetrics();

 private:
  using Clocks = std::vector<std::pair<std::string, Timestamp>>;

  struct Worker {
    Worker(int index_in, size_t queue_capacity) : index(index_in), queue(queue_capacity) {}

    int index;  // mutated only at a resize quiesce (broadcast worker moves)
    std::unique_ptr<QueryEngine> engine;  // owned; touched only by `thread`
                                          // while batches are in flight
    SpscRing<EventBatch> queue;
    std::thread thread;

    // Dispatcher-side state.
    EventBatch pending;                // accumulating batch (one stream)
    uint64_t pending_last_global = 0;  // global index of pending's last event
    uint64_t batches_enqueued = 0;

    // Worker-side progress, read by the dispatcher. The batch counter is
    // advanced only after the WHOLE batch — events, clocks, flush —
    // finished, so batches_processed == batches_enqueued means the worker
    // is parked on its ring and its engine is safe to touch. progress_hi
    // republishes the highest batch progress claim (global dispatch index
    // below which this worker can emit nothing new).
    std::atomic<uint64_t> batches_processed{0};
    std::atomic<uint64_t> progress_hi{0};

    // Output capture: engine callbacks append under `out_mutex`; the
    // dispatcher swaps the buffer out when merging.
    std::mutex out_mutex;
    std::vector<TaggedRecord> out;
    uint64_t arrival_counter = 0;  // guarded by out_mutex

    // Observability (set at MakeWorker, constant afterwards). The lane names
    // the worker in trace dumps and metric labels ("shard-3", "broadcast");
    // a carried-over broadcast worker keeps its lane across resizes.
    std::string lane;
    obs::HistogramMetric* ring_wait = nullptr;  // null = metrics off
  };

  struct QueryEntry {
    OutputCallback callback;
    bool sharded = false;
    StreamId stream = kDefaultStream;
    // Re-registration material for resize replay.
    std::string text;
    PlanOptions options;
    /// Global dispatch index at registration: the query saw exactly the
    /// events dispatched after this point, and resize replay re-registers
    /// it at the same position in the replayed timeline.
    uint64_t registered_at = 0;
    /// WITHIN span in ticks (-1 = none) and whether the plan carries
    /// cross-event state (>1 positive component or any negation); together
    /// these bound the replay window a resize needs.
    Ticks window_ticks = -1;
    bool stateful = false;
    /// Attribute names (beyond the shard key) whose equivalence class covers
    /// every component — hot-key secondary-partition candidates (see
    /// AnalyzedQuery::covering_attrs). Empty for stateless queries.
    std::vector<std::string> covering_attrs;
  };

  /// Registered-query counts per input stream; events of a stream nobody
  /// reads skip the worker handoff entirely (they still stamp the dispatch
  /// log, preserving the global order).
  struct StreamQueries {
    size_t sharded = 0;
    size_t broadcast = 0;
    /// Sharded stateful queries reading this stream, and the largest WITHIN
    /// span among them (-1 = none): the stream's replay-retention window.
    /// Broadcast-hosted queries never count — Resize carries the broadcast
    /// engine over and never replays into it.
    size_t sharded_stateful = 0;
    Ticks max_window = -1;
  };

  /// One retained event of the in-flight window (resize replay material).
  /// Kept in per-stream deques so a quiescent stream's frozen window never
  /// blocks other streams' pruning; replay k-way merges them back into
  /// global dispatch order.
  struct ReplayEntry {
    uint64_t global = 0;
    EventPtr event;
  };

  int broadcast_index() const { return config_.shard_count; }
  Worker& broadcast_worker() { return *workers_[static_cast<size_t>(broadcast_index())]; }

  /// Fresh worker with a private engine (engine_init applied); used by the
  /// constructor for every worker and by Resize for the new shard set.
  std::unique_ptr<Worker> MakeWorker(int index);
  /// Parse/analyze `text` into a QueryEntry (shardability, input stream,
  /// window/stateful/aggregate classification, registered_at = current
  /// dispatch index). Shared by Register and RestoreCheckpoint.
  Result<QueryEntry> AnalyzeEntry(const std::string& text,
                                  OutputCallback callback,
                                  PlanOptions options);
  /// Registers `entry` under `id` into its hosting engines and applies all
  /// bookkeeping (counters, per-stream windows, queries_ map). The workers
  /// must be quiescent (WaitIdle) or parked (restore/replay).
  Status InstallQuery(QueryId id, QueryEntry entry);
  /// True when `stream`'s events must be retained for replay.
  static bool RetentionNeeded(const StreamQueries& hosts) {
    return hosts.sharded_stateful > 0 && hosts.max_window >= 0;
  }
  /// Largest WITHIN span per stream can shrink on Unregister; rescan.
  void RecomputeStreamWindows();
  void WorkerLoop(Worker* worker);
  bool WorkerHostsQueries(const Worker& worker) const;
  OutputCallback CaptureCallback(Worker* worker, QueryId id, StreamId stream);
  StreamQueries& QueriesFor(StreamId stream);
  /// Shared dispatch tail of OnEvent/OnStreamEvent.
  void Dispatch(StreamId stream, const std::string& name,
                const EventPtr& event);
  /// `trace_id != 0` marks the event as trace-sampled in the pending batch.
  void AppendToWorker(Worker* worker, const std::string& stream,
                      const EventPtr& event, uint64_t global,
                      uint64_t trace_id);
  /// Pushes the worker's partial batch (if any, or if it carries clocks or a
  /// flush marker), stamping the progress claim.
  void FlushBatch(Worker* worker, const Clocks* clocks, bool flush);
  /// Per-stream clocks of every stream with traffic.
  Clocks CurrentClocks() const;
  /// Flushes batches with the current clocks to every hosting worker.
  void BroadcastClocks();
  void CollectOutputs();
  void DeliverReady();
  void Deliver(std::vector<TaggedRecord> records);
  void WaitDrained(Worker* worker);
  /// Appends the event to the replay window when its stream needs one, then
  /// prunes that stream's entries older than its retention window.
  void RetainForReplay(StreamId stream, const EventPtr& event,
                       uint64_t global);
  void PruneReplay(StreamId stream);
  void PruneReplayAll();
  /// Registers sharded query `id` into every shard engine (fresh capture
  /// callbacks); shared by Register and resize replay.
  Status RegisterIntoShards(QueryId id, const QueryEntry& entry);
  /// Drops a query's bookkeeping (counters, per-stream windows, replay
  /// retention) and erases it; shared by Unregister and the resize replay's
  /// failed-re-registration path. Does NOT touch the engines.
  void DropQuery(std::map<QueryId, QueryEntry>::iterator it);
  /// Replays the retained window into the fresh shard engines, interleaving
  /// query registrations at their original positions; discards the replay
  /// output and re-silences already-released deferrals. Returns the number
  /// of events replayed.
  uint64_t ReplayIntoShards();
  /// Shared quiesce-point shard-rebuild machinery behind Resize and
  /// secondary-split activation: quiesce, stop the workers, carry the
  /// broadcast engine over, run `mutate` (the partitioner layout change)
  /// under health_mutex_, build fresh shard engines, replay the in-flight
  /// window, resume. Refuses (kFailedPrecondition) while a sharded stateful
  /// query has no WITHIN bound — no finite replay window exists.
  Status RebuildShards(int shard_count, const std::function<void()>& mutate);
  /// Mitigation policy tick (config_.hotkey_mitigation): every
  /// hotkey_min_events dispatched events, scan each stream's sketch for
  /// unsplit keys whose guaranteed share crosses the threshold and split
  /// them (SplitHotKey). Runs on the dispatcher between batches.
  void MaybeMitigateHotKeys();
  /// Splits one hot key: spread when `stream` hosts no sharded stateful
  /// query; secondary sub-partitioning by CommonSecondaryAttr when one
  /// exists (rebuilds the shard engines by replay); otherwise books a
  /// refusal. Returns true when a split was installed.
  bool SplitHotKey(StreamId stream, const Value& key);
  /// Covering attribute (beyond the shard key) shared by EVERY sharded
  /// stateful query reading `stream`; empty when none qualifies. First
  /// common candidate in the lowest-QueryId query's covering order, so the
  /// choice is deterministic.
  std::string CommonSecondaryAttr(StreamId stream) const;
  /// Re-examines active splits on `entry.stream` against a newly registered
  /// query (Register, before InstallQuery): spread splits are dropped when
  /// the newcomer is sharded stateful (they were sound only while none
  /// existed), and secondary splits whose attribute the newcomer's covering
  /// set lacks are unsplit with a shard rebuild. Keeps correctness ahead of
  /// mitigation.
  Status ResolveSplitConflicts(const QueryEntry& entry);
  /// Elastic policy tick: samples queue occupancy + event rate every
  /// check_interval dispatched events and resizes on a grow/shrink verdict.
  void MaybeAutoResize();
  /// Books a finished delivery at `threshold`: records dispatch->merge
  /// watermark latency for pending merge marks, and closes sampled events'
  /// "merge" and "emit" spans. `t0`/`t1` bracket the callback loop.
  void NoteDelivered(uint64_t threshold, uint64_t t0, uint64_t t1);

  const Catalog* catalog_;
  RuntimeConfig config_;
  Partitioner partitioner_;
  OutputMerger merger_;
  ElasticPolicy policy_;
  EngineInit engine_init_;

  std::vector<std::unique_ptr<Worker>> workers_;  // shards + broadcast
  /// Guards workers_ layout changes (Resize's teardown/rebuild) against the
  /// cross-thread Healthy() probe — the ONLY reader of workers_ off the
  /// dispatcher thread. Dispatcher-thread readers stay lock-free.
  mutable std::mutex health_mutex_;
  /// Per-worker stall tracking for Healthy(): last observed batch progress
  /// and when it first looked stuck (0 = advancing). Guarded by
  /// health_mutex_; reset when the layout changes.
  struct HealthProbe {
    uint64_t batches = 0;
    uint64_t stuck_since_ns = 0;
  };
  std::vector<HealthProbe> health_;
  std::map<QueryId, QueryEntry> queries_;
  std::vector<StreamQueries> stream_queries_;  // indexed by StreamId
  QueryId next_id_ = 1;
  size_t sharded_queries_ = 0;
  size_t broadcast_queries_ = 0;
  /// Sharded stateful queries with no WITHIN bound: while > 0 a resize has
  /// no finite replay window and Resize refuses. (Checkpointing has no such
  /// restriction: engine state is serialized directly.)
  size_t unbounded_sharded_ = 0;
  /// True for the duration of a Resize; callbacks fired at the resize
  /// quiesce point see it and ExportCheckpoint refuses.
  bool resizing_ = false;

  // In-flight window retained for resize replay: one deque per StreamId,
  // each in dispatch order, independently pruned by its stream's window.
  std::vector<std::deque<ReplayEntry>> replay_;
  size_t replay_len_ = 0;  // total entries across all stream deques

  // Elastic / resize health.
  /// Counters of shard engines retired by past resizes, so fleet-wide
  /// Stats() stays continuous across layout changes.
  QueryEngine::EngineStats retired_engine_stats_;
  uint64_t resizes_ = 0;
  uint64_t grows_ = 0;
  uint64_t shrinks_ = 0;
  uint64_t events_replayed_ = 0;
  uint64_t last_check_global_ = 0;
  std::chrono::steady_clock::time_point last_check_time_{};
  // Hot-key mitigation bookkeeping (dispatcher thread only).
  uint64_t hotkey_check_global_ = 0;  // dispatch index of the last check
  uint64_t hotkey_spread_splits_ = 0;
  uint64_t hotkey_secondary_splits_ = 0;
  uint64_t hotkey_split_refusals_ = 0;
  /// (stream, type-tagged EncodeValue(key)) pairs already refused, so a
  /// pinned hot key books one refusal instead of one per check. The encoded
  /// rendering keeps differently-typed keys distinct where ToString aliases
  /// (int 7 vs string "7"). Cleared when the query set changes — a refusal
  /// may become splittable (or vice versa).
  std::set<std::pair<StreamId, std::string>> hotkey_refused_;

  uint64_t events_dispatched_ = 0;  // == global dispatch index of last event
  // Memoized OnStreamEvent name resolution (raw -> lowered + interned id).
  std::string last_stream_raw_;
  std::string last_stream_name_;
  StreamId last_stream_id_ = kDefaultStream;
  bool last_stream_valid_ = false;
  // With single-stream traffic an event batch claims progress by itself
  // (its own events are the clock); once routed traffic spans multiple
  // input streams, every event batch instead carries the current per-stream
  // clocks so the claim also covers the other streams' parked deferrals —
  // per-batch merge progress under interleaved traffic (see FlushBatch).
  bool any_routed_ = false;
  StreamId routed_stream_ = kDefaultStream;
  bool multi_routed_ = false;

  // --- observability (dispatcher thread only) ---
  /// True when batches should carry an enqueue timestamp (metrics or tracer
  /// attached); one MonotonicNs() call per batch, not per event.
  bool obs_stamp_ = false;
  obs::HistogramMetric* dispatch_merge_latency_ = nullptr;
  /// Merge-watermark marks: {dispatch index, MonotonicNs at dispatch}, one
  /// per merge-interval cycle; popped when a delivery's threshold passes the
  /// index, yielding the dispatch->merge latency sample.
  struct MergeMark {
    uint64_t global = 0;
    uint64_t ns = 0;
  };
  std::deque<MergeMark> merge_marks_;
  /// Sampled events awaiting delivery; closed into "merge"/"emit" spans by
  /// NoteDelivered once the merge watermark passes their dispatch index.
  struct OpenTrace {
    uint64_t global = 0;
    uint64_t trace_id = 0;
    uint64_t ns = 0;
  };
  std::deque<OpenTrace> open_traces_;
};

}  // namespace sase

#endif  // SASE_RUNTIME_SHARDED_RUNTIME_H_
