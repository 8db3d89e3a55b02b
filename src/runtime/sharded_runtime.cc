#include "runtime/sharded_runtime.h"

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>

#include "obs/report.h"
#include "query/analyzer.h"
#include "query/parser.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/value_codec.h"

namespace sase {

ShardedRuntime::ShardedRuntime(const Catalog* catalog, RuntimeConfig config,
                               EngineInit engine_init)
    : catalog_(catalog), config_(config),
      partitioner_(catalog, config_.partition_key,
                   std::max(1, config_.shard_count)),
      merger_(config_.log_compact_min), policy_(config.elastic),
      engine_init_(std::move(engine_init)) {
  config_.shard_count = std::max(1, config_.shard_count);
  if (config_.batch_size == 0) config_.batch_size = 1;
  stream_queries_.resize(partitioner_.streams().size());
  last_check_time_ = std::chrono::steady_clock::now();
  obs_stamp_ = config_.metrics != nullptr || config_.tracer != nullptr;
  if (config_.metrics != nullptr) {
    dispatch_merge_latency_ =
        config_.metrics->GetHistogram("sase_runtime_dispatch_merge_latency_ns");
  }
  // Hot-key accounting rides the metrics switch — without a registry the
  // dispatch path keeps its null-branch-only overhead contract — unless
  // mitigation is on, which consumes the sketch regardless of metrics.
  if (config_.metrics != nullptr || config_.hotkey_mitigation) {
    partitioner_.EnableHotKeyTracking(config_.hotkey_sketch_size);
  }
  // Either zeroed knob leaves mitigation armed but inert (an empty sketch
  // never reports a hot key; a zero cadence never runs the policy tick) —
  // an operator who opted in should hear about it rather than see silence.
  if (config_.hotkey_mitigation && config_.hotkey_sketch_size == 0) {
    SASE_LOG_WARN << "hotkey_mitigation is on but hotkey_sketch_size is 0: "
                     "no hot key can be detected, so no key will ever split";
  }
  if (config_.hotkey_mitigation && config_.hotkey_min_events == 0) {
    SASE_LOG_WARN << "hotkey_mitigation is on but hotkey_min_events is 0: "
                     "the mitigation check never runs, so no key will ever "
                     "split";
  }

  // shard workers 0..N-1, broadcast worker N.
  for (int i = 0; i <= config_.shard_count; ++i) {
    workers_.push_back(MakeWorker(i));
  }
  for (auto& worker : workers_) {
    worker->thread = std::thread(&ShardedRuntime::WorkerLoop, this, worker.get());
  }
}

std::unique_ptr<ShardedRuntime::Worker> ShardedRuntime::MakeWorker(int index) {
  auto worker = std::make_unique<Worker>(index, config_.queue_capacity);
  worker->engine = std::make_unique<QueryEngine>(catalog_, config_.time_config);
  worker->engine->set_scan_sharing(config_.scan_sharing);
  if (engine_init_) engine_init_(*worker->engine);
  worker->lane = index == config_.shard_count
                     ? std::string("broadcast")
                     : "shard-" + std::to_string(index);
  if (config_.metrics != nullptr) {
    worker->ring_wait = config_.metrics->GetHistogram(
        "sase_shard_ring_wait_ns{shard=\"" +
        (index == config_.shard_count ? std::string("broadcast")
                                      : std::to_string(index)) +
        "\"}");
    worker->engine->AttachMetrics(config_.metrics, worker->lane);
    worker->engine->ConfigureSlowQueryLog(config_.slow_query_threshold_ns,
                                          config_.slow_query_log_size);
  }
  return worker;
}

ShardedRuntime::~ShardedRuntime() {
  for (auto& worker : workers_) worker->queue.Close();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

void ShardedRuntime::WorkerLoop(Worker* worker) {
  EventBatch batch;
  while (worker->queue.Pop(&batch)) {
    obs::TraceCollector* tracer = config_.tracer;
    uint64_t pop_ns = 0;
    if (batch.enqueue_ns > 0) {
      pop_ns = obs::MonotonicNs();
      if (worker->ring_wait != nullptr) {
        worker->ring_wait->Record(
            static_cast<int64_t>(pop_ns - batch.enqueue_ns));
      }
    }
    if (batch.traced.empty() || tracer == nullptr) {
      if (batch.stream.empty()) {
        worker->engine->OnEvents(batch.events);
      } else {
        worker->engine->OnStreamEvents(batch.stream, batch.events);
      }
    } else {
      // The batch carries trace-sampled events: deliver per event (same
      // semantics as the wholesale call — OnEvents is a loop over OnEvent)
      // so each sampled event's "operator" span covers exactly its own
      // operator-chain work. Traced batches are rare even with tracing on.
      size_t next = 0;
      for (size_t i = 0; i < batch.events.size(); ++i) {
        bool traced =
            next < batch.traced.size() && batch.traced[next].index == i;
        uint64_t op_start = traced ? obs::MonotonicNs() : 0;
        if (batch.stream.empty()) {
          worker->engine->OnEvent(batch.events[i]);
        } else {
          worker->engine->OnStreamEvent(batch.stream, batch.events[i]);
        }
        if (traced) {
          const EventBatch::TracedEvent& mark = batch.traced[next++];
          if (pop_ns > 0) {
            tracer->AddSpan(mark.trace_id, "ring", worker->lane,
                            batch.enqueue_ns, pop_ns, mark.global);
          }
          tracer->AddSpan(mark.trace_id, "operator", worker->lane, op_start,
                          obs::MonotonicNs(), mark.global);
        }
      }
    }
    for (const auto& [stream, ts] : batch.clocks) {
      if (stream.empty()) {
        worker->engine->OnWatermark(ts);
      } else {
        worker->engine->OnStreamWatermark(stream, ts);
      }
    }
    if (batch.flush) worker->engine->OnFlush();
    // Publish the progress claim only after the engine finished the batch:
    // every record this worker can still emit now triggers strictly after
    // progress_hi in global dispatch order.
    if (batch.progress_hi > 0) {
      worker->progress_hi.store(batch.progress_hi, std::memory_order_release);
    }
    // Ack only once the whole batch — events, clocks, flush — is done;
    // WaitDrained relies on this to know the engine is quiescent.
    worker->batches_processed.fetch_add(1, std::memory_order_release);
  }
}

OutputCallback ShardedRuntime::CaptureCallback(Worker* worker, QueryId id,
                                               StreamId stream) {
  return [worker, id, stream](const OutputRecord& record) {
    std::lock_guard<std::mutex> lock(worker->out_mutex);
    TaggedRecord tagged;
    tagged.query = id;
    tagged.stream = stream;
    tagged.worker = worker->index;
    tagged.arrival = worker->arrival_counter++;
    tagged.record = record;
    worker->out.push_back(std::move(tagged));
  };
}

ShardedRuntime::StreamQueries& ShardedRuntime::QueriesFor(StreamId stream) {
  if (stream_queries_.size() <= stream) {
    stream_queries_.resize(static_cast<size_t>(stream) + 1);
  }
  return stream_queries_[stream];
}

Result<ShardedRuntime::QueryEntry> ShardedRuntime::AnalyzeEntry(
    const std::string& text, OutputCallback callback, PlanOptions options) {
  auto parsed = Parser::Parse(text);
  if (!parsed.ok()) return parsed.status();
  Analyzer analyzer(catalog_, config_.time_config);
  auto analyzed = analyzer.Analyze(std::move(parsed).value());
  if (!analyzed.ok()) return analyzed.status();
  std::string stream_name = ToLower(analyzed.value().parsed.from_stream);

  QueryEntry entry;
  entry.callback = std::move(callback);
  entry.sharded = Partitioner::Shardable(analyzed.value(), *catalog_,
                                         config_.partition_key, options);
  entry.stream = partitioner_.InternStream(stream_name);
  entry.text = text;
  entry.options = options;
  entry.registered_at = events_dispatched_;
  entry.window_ticks = analyzed.value().window_ticks;
  entry.stateful = analyzed.value().positive_slots.size() > 1 ||
                   !analyzed.value().negations.empty();
  // Secondary-partition candidates: covering attributes beyond the shard
  // key (the key's own equivalence class is the primary routing, not a
  // sub-partition candidate).
  for (const std::string& attr : analyzed.value().covering_attrs) {
    if (!EqualsIgnoreCase(attr, config_.partition_key)) {
      entry.covering_attrs.push_back(attr);
    }
  }
  return entry;
}

Status ShardedRuntime::InstallQuery(QueryId id, QueryEntry entry) {
  StreamQueries& hosts = QueriesFor(entry.stream);
  if (entry.sharded) {
    SASE_RETURN_IF_ERROR(RegisterIntoShards(id, entry));
    ++sharded_queries_;
    ++hosts.sharded;
    if (entry.stateful) {
      ++hosts.sharded_stateful;
      if (entry.window_ticks < 0) {
        ++unbounded_sharded_;
      } else {
        hosts.max_window = std::max(hosts.max_window, entry.window_ticks);
      }
    }
  } else {
    Worker& host = broadcast_worker();
    auto result = host.engine->RegisterAs(
        id, entry.text, CaptureCallback(&host, id, entry.stream),
        entry.options);
    if (!result.ok()) return result.status();
    ++broadcast_queries_;
    ++hosts.broadcast;
  }
  queries_.emplace(id, std::move(entry));
  next_id_ = std::max(next_id_, id + 1);
  hotkey_refused_.clear();  // the query set changed; refusals may not hold
  return Status::Ok();
}

Result<QueryId> ShardedRuntime::Register(const std::string& text,
                                         OutputCallback callback,
                                         PlanOptions options) {
  auto entry = AnalyzeEntry(text, std::move(callback), options);
  if (!entry.ok()) return entry.status();

  // Quiesce so engine mutation cannot race in-flight batches; the push of
  // the next batch publishes the new plan to the worker.
  WaitIdle();

  // Active hot-key splits were sound for the query set that existed when
  // they were installed; a new stateful query can invalidate them.
  SASE_RETURN_IF_ERROR(ResolveSplitConflicts(entry.value()));

  QueryId id = next_id_;
  SASE_RETURN_IF_ERROR(InstallQuery(id, std::move(entry).value()));
  return id;
}

Status ShardedRuntime::RegisterIntoShards(QueryId id, const QueryEntry& entry) {
  for (int s = 0; s < config_.shard_count; ++s) {
    Worker* worker = workers_[static_cast<size_t>(s)].get();
    auto result = worker->engine->RegisterAs(
        id, entry.text, CaptureCallback(worker, id, entry.stream),
        entry.options);
    if (!result.ok()) {
      for (int undo = 0; undo < s; ++undo) {
        (void)workers_[static_cast<size_t>(undo)]->engine->Unregister(id);
      }
      return result.status();
    }
  }
  return Status::Ok();
}

Status ShardedRuntime::Unregister(QueryId id) {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("no query with id " + std::to_string(id));
  }
  WaitIdle();
  if (it->second.sharded) {
    for (int s = 0; s < config_.shard_count; ++s) {
      (void)workers_[static_cast<size_t>(s)]->engine->Unregister(id);
    }
  } else {
    (void)broadcast_worker().engine->Unregister(id);
  }
  DropQuery(it);
  return Status::Ok();
}

void ShardedRuntime::DropQuery(std::map<QueryId, QueryEntry>::iterator it) {
  StreamQueries& hosts = QueriesFor(it->second.stream);
  if (it->second.sharded) {
    --sharded_queries_;
    --hosts.sharded;
    if (it->second.stateful) {
      --hosts.sharded_stateful;
      if (it->second.window_ticks < 0) --unbounded_sharded_;
    }
  } else {
    --broadcast_queries_;
    --hosts.broadcast;
  }
  queries_.erase(it);
  RecomputeStreamWindows();
  PruneReplayAll();  // retention windows may have shrunk or vanished
  hotkey_refused_.clear();  // the query set changed; refusals may not hold
}

void ShardedRuntime::RecomputeStreamWindows() {
  for (StreamQueries& hosts : stream_queries_) hosts.max_window = -1;
  for (const auto& [id, entry] : queries_) {
    if (!entry.sharded || !entry.stateful || entry.window_ticks < 0) continue;
    StreamQueries& hosts = QueriesFor(entry.stream);
    hosts.max_window = std::max(hosts.max_window, entry.window_ticks);
  }
}

Status ShardedRuntime::Resize(int shard_count) {
  shard_count = std::max(1, shard_count);
  if (shard_count == config_.shard_count) return Status::Ok();
  int old_count = config_.shard_count;
  SASE_RETURN_IF_ERROR(RebuildShards(
      shard_count, [this, shard_count] { partitioner_.Resize(shard_count); }));
  ++resizes_;
  if (shard_count > old_count) {
    ++grows_;
  } else {
    ++shrinks_;
  }
  return Status::Ok();
}

Status ShardedRuntime::RebuildShards(int shard_count,
                                     const std::function<void()>& mutate) {
  if (unbounded_sharded_ > 0) {
    return Status::FailedPrecondition(
        "cannot rebuild shard engines: a sharded stateful query has no "
        "WITHIN window, so the in-flight replay window is unbounded");
  }
  resizing_ = true;

  // Quiesce: drain every batch, broadcast clocks, deliver everything
  // merge-safe. After this the merger buffers no undelivered records (every
  // emitted record's trigger is at or below the dispatch point), so the
  // only state to carry across the rebuild lives in the engines.
  WaitIdle();

  // Park every worker thread; the engines are now exclusively ours.
  for (auto& worker : workers_) worker->queue.Close();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }

  // The broadcast engine's state (running aggregates, non-key patterns) is
  // layout-independent — carry the worker over whole. Shard workers are
  // rebuilt from scratch and their engines re-derived by replay; bank their
  // counters first so fleet-wide Stats() stays continuous.
  int old_count = config_.shard_count;
  for (int s = 0; s < old_count; ++s) {
    retired_engine_stats_ += workers_[static_cast<size_t>(s)]->engine->Stats();
  }
  std::unique_ptr<Worker> broadcast = std::move(workers_.back());
  {
    // The layout swap is the one moment workers_ is inconsistent; exclude
    // the cross-thread Healthy() probe for its duration and restart its
    // stall clocks (fresh workers start with zero progress by design).
    std::lock_guard<std::mutex> lock(health_mutex_);
    workers_.clear();
    health_.clear();
    config_.shard_count = shard_count;
    mutate();
    for (int i = 0; i < shard_count; ++i) workers_.push_back(MakeWorker(i));
    broadcast->index = shard_count;
    broadcast->queue.Reopen();
    workers_.push_back(std::move(broadcast));
  }

  events_replayed_ += ReplayIntoShards();

  for (auto& worker : workers_) {
    worker->thread = std::thread(&ShardedRuntime::WorkerLoop, this, worker.get());
  }
  resizing_ = false;
  return Status::Ok();
}

uint64_t ShardedRuntime::ReplayIntoShards() {
  // Sharded queries in registration order (ids are handed out
  // monotonically, so id order == registration order and registered_at is
  // non-decreasing along it).
  std::vector<std::pair<QueryId, const QueryEntry*>> sharded;
  for (const auto& [id, entry] : queries_) {
    if (entry.sharded) sharded.emplace_back(id, &entry);
  }
  size_t next = 0;
  std::vector<QueryId> failed;
  auto register_up_to = [&](uint64_t global) {
    // A query registered at dispatch index R saw exactly the events with
    // global index > R; re-registering it here, between the same events,
    // reproduces the serial construction history.
    while (next < sharded.size() && sharded[next].second->registered_at < global) {
      Status status = RegisterIntoShards(sharded[next].first, *sharded[next].second);
      if (!status.ok()) {
        // Should be impossible (the same text registered before), but a
        // query silently absent from the engines while queries_ lists it
        // would drop its output forever — drop the query loudly instead.
        SASE_LOG_WARN << "resize replay could not re-register query "
                      << sharded[next].first << " (" << status.ToString()
                      << "); the query is dropped";
        failed.push_back(sharded[next].first);
      }
      ++next;
    }
  };

  // Replay the in-flight window under the NEW partition map, k-way merging
  // the per-stream deques back into global dispatch order. Every replayed
  // event was fully processed (and its output delivered) before the resize,
  // so the records this regenerates are duplicates — they are discarded
  // below; what matters is the engine state left behind: exactly the
  // partial matches and parked deferrals a serial engine would still hold.
  uint64_t replayed = 0;
  std::vector<size_t> pos(replay_.size(), 0);
  while (true) {
    size_t best = replay_.size();
    uint64_t best_global = std::numeric_limits<uint64_t>::max();
    for (size_t s = 0; s < replay_.size(); ++s) {
      if (pos[s] < replay_[s].size() && replay_[s][pos[s]].global < best_global) {
        best_global = replay_[s][pos[s]].global;
        best = s;
      }
    }
    if (best == replay_.size()) break;
    const ReplayEntry& entry = replay_[best][pos[best]++];
    register_up_to(entry.global);
    QueryEngine& engine =
        *workers_[static_cast<size_t>(partitioner_.ShardFor(
             static_cast<StreamId>(best), *entry.event))]
             ->engine;
    const std::string& name = partitioner_.streams()[best].name;
    if (name.empty()) {
      engine.OnEvent(entry.event);
    } else {
      engine.OnStreamEvent(name, entry.event);
    }
    ++replayed;
  }
  register_up_to(std::numeric_limits<uint64_t>::max());

  // Drop queries that failed to re-register so IsSharded/stats never lie
  // about a query no engine hosts (partial registrations were already
  // rolled back by RegisterIntoShards).
  for (QueryId id : failed) {
    auto it = queries_.find(id);
    if (it != queries_.end()) DropQuery(it);
  }

  // Muted clock broadcast: deferrals whose release window already closed
  // were released (and delivered) before the resize; re-release them into
  // the discard pile so only genuinely parked deferrals survive.
  for (const Partitioner::StreamState& state : partitioner_.streams()) {
    if (state.events == 0) continue;
    for (int s = 0; s < config_.shard_count; ++s) {
      if (state.name.empty()) {
        workers_[static_cast<size_t>(s)]->engine->OnWatermark(state.clock);
      } else {
        workers_[static_cast<size_t>(s)]->engine->OnStreamWatermark(state.name,
                                                                    state.clock);
      }
    }
  }

  // Discard the replay output wholesale (worker threads are parked, but the
  // capture callbacks still take the lock — keep them honest).
  for (int s = 0; s < config_.shard_count; ++s) {
    Worker* worker = workers_[static_cast<size_t>(s)].get();
    std::lock_guard<std::mutex> lock(worker->out_mutex);
    worker->out.clear();
    worker->arrival_counter = 0;
  }
  return replayed;
}

void ShardedRuntime::MaybeAutoResize() {
  // Schedule off the policy's sanitized copy of the config (it clamps
  // check_interval to >= 1 etc.), so one validated view exists.
  const ElasticConfig& elastic = policy_.config();
  if (events_dispatched_ - last_check_global_ < elastic.check_interval) {
    return;
  }
  auto now = std::chrono::steady_clock::now();
  if (unbounded_sharded_ > 0) {
    // Resize would refuse anyway; keep the sampling window honest but
    // don't churn the policy (or warn every cycle) about the impossible.
    last_check_global_ = events_dispatched_;
    last_check_time_ = now;
    return;
  }
  LoadSample sample;
  sample.shards = config_.shard_count;
  double frac_sum = 0;
  for (int s = 0; s < config_.shard_count; ++s) {
    const SpscRing<EventBatch>& queue = workers_[static_cast<size_t>(s)]->queue;
    frac_sum += static_cast<double>(queue.ApproxSize()) /
                static_cast<double>(queue.capacity());
  }
  sample.avg_queue_frac = frac_sum / config_.shard_count;
  double seconds = std::chrono::duration<double>(now - last_check_time_).count();
  if (seconds > 0) {
    sample.events_per_sec_per_shard =
        static_cast<double>(events_dispatched_ - last_check_global_) /
        seconds / config_.shard_count;
  }
  last_check_global_ = events_dispatched_;
  last_check_time_ = now;

  ElasticDecision decision = policy_.Evaluate(sample);
  if (decision == ElasticDecision::kHold) return;
  int target = policy_.NextShardCount(decision, config_.shard_count);
  if (target == config_.shard_count) return;
  Status status = Resize(target);
  if (!status.ok()) {
    SASE_LOG_WARN << "elastic resize to " << target
                  << " shards failed: " << status.ToString();
  }
}

Result<ShardedRuntime::CheckpointState> ShardedRuntime::ExportCheckpoint() {
  if (resizing_) {
    return Status::FailedPrecondition(
        "cannot checkpoint during a Resize: the shard layout is mid-change");
  }

  // Quiesce: after WaitIdle every in-flight batch is drained and all
  // merge-safe output is delivered, so the only live state is in the
  // engines — which is serialized directly below.
  WaitIdle();

  CheckpointState state;
  state.shard_count = config_.shard_count;
  state.partition_key = config_.partition_key;
  state.events_dispatched = events_dispatched_;
  state.records_merged = merger_.merged_count();
  state.any_routed = any_routed_;
  state.routed_stream = routed_stream_;
  state.multi_routed = multi_routed_;
  for (const auto& [id, entry] : queries_) {
    state.queries.push_back(CheckpointState::Query{
        id, entry.text, entry.options, entry.registered_at});
  }
  for (const Partitioner::StreamState& stream : partitioner_.streams()) {
    state.streams.push_back(CheckpointState::Stream{
        stream.name, stream.clock, stream.last_seq, stream.events});
  }
  for (StreamId s = 0; s < replay_.size(); ++s) {
    for (const ReplayEntry& entry : replay_[s]) {
      state.window.push_back(CheckpointState::WindowEvent{s, entry.global,
                                                          entry.event});
    }
  }
  for (const Partitioner::SplitInfo& split : partitioner_.Splits()) {
    state.splits.push_back(CheckpointState::Split{
        split.stream, static_cast<int>(split.mode), split.key,
        split.secondary_attr});
  }

  // Direct operator-state serialization: one payload per query per hosting
  // engine (a sharded query has a plan instance in every shard engine),
  // plus each engine's own counters. The workers are parked on their rings
  // after WaitIdle, so reading the engines here is race-free.
  for (const auto& [id, entry] : queries_) {
    if (entry.sharded) {
      for (int s = 0; s < config_.shard_count; ++s) {
        auto payload =
            workers_[static_cast<size_t>(s)]->engine->SerializeState(id);
        if (!payload.ok()) return payload.status();
        state.plan_states.push_back(
            CheckpointState::PlanState{s, id, std::move(payload).value()});
      }
    } else {
      auto payload = broadcast_worker().engine->SerializeState(id);
      if (!payload.ok()) return payload.status();
      state.plan_states.push_back(CheckpointState::PlanState{
          broadcast_index(), id, std::move(payload).value()});
    }
  }
  for (const auto& worker : workers_) {
    state.plan_states.push_back(CheckpointState::PlanState{
        worker->index, 0, worker->engine->SerializeEngineState()});
  }
  return state;
}

Status ShardedRuntime::RestoreCheckpoint(const CheckpointState& state,
                                         const CallbackResolver& callbacks) {
  if (events_dispatched_ != 0 || !queries_.empty()) {
    return Status::FailedPrecondition(
        "RestoreCheckpoint requires a freshly constructed runtime");
  }
  if (state.shard_count != config_.shard_count ||
      state.partition_key != config_.partition_key) {
    return Status::InvalidArgument(
        "runtime shape mismatch: checkpoint was taken at " +
        std::to_string(state.shard_count) + " shards / key '" +
        state.partition_key + "'");
  }

  // Park the worker threads; until the restart below, the engines are
  // exclusively ours — the same exclusivity Resize establishes.
  for (auto& worker : workers_) worker->queue.Close();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }

  // Per-stream dispatch stamps first: all future routing reads them.
  for (const CheckpointState::Stream& stream : state.streams) {
    partitioner_.RestoreStream(stream.name, stream.clock, stream.last_seq,
                               stream.events);
  }
  if (stream_queries_.size() < partitioner_.streams().size()) {
    stream_queries_.resize(partitioner_.streams().size());
  }

  // Hot-key splits before any routing: a secondary-split key's
  // sub-partition state lives on the shard the (key, secondary) sub-hash
  // picks, so the recovered process must route identically from the start.
  for (const CheckpointState::Split& split : state.splits) {
    if (split.stream >= partitioner_.streams().size()) {
      return Status::InvalidArgument(
          "hot-key split references unknown stream");
    }
    if (split.mode != static_cast<int>(Partitioner::SplitMode::kSpread) &&
        split.mode != static_cast<int>(Partitioner::SplitMode::kSecondary)) {
      return Status::InvalidArgument("unknown hot-key split mode " +
                                     std::to_string(split.mode));
    }
    partitioner_.Split(split.stream, split.key,
                       static_cast<Partitioner::SplitMode>(split.mode),
                       split.secondary_attr);
  }

  // Register every checkpointed query under its original id and
  // registration position, in id (= registration) order; then load each
  // hosting engine's serialized state wholesale and refill the resize
  // replay buffer from the window events. No replay and no watermark
  // re-silencing: the restored engines hold exactly the stacks, negation
  // buffers, parked deferrals and aggregate accumulators the checkpointed
  // engines held at the quiesce point.
  std::vector<const CheckpointState::Query*> queries;
  queries.reserve(state.queries.size());
  for (const CheckpointState::Query& query : state.queries) {
    queries.push_back(&query);
  }
  std::sort(queries.begin(), queries.end(),
            [](const CheckpointState::Query* a, const CheckpointState::Query* b) {
              return a->id < b->id;
            });
  for (const CheckpointState::Query* query : queries) {
    auto entry = AnalyzeEntry(query->text,
                              callbacks ? callbacks(query->id) : nullptr,
                              query->options);
    if (!entry.ok()) return entry.status();
    entry.value().registered_at = query->registered_at;
    SASE_RETURN_IF_ERROR(InstallQuery(query->id, std::move(entry).value()));
  }
  std::set<std::pair<int, QueryId>> restored;
  for (const CheckpointState::PlanState& plan : state.plan_states) {
    if (plan.worker < 0 ||
        static_cast<size_t>(plan.worker) >= workers_.size()) {
      return Status::InvalidArgument(
          "engine-state payload references worker " +
          std::to_string(plan.worker) + " of a " +
          std::to_string(config_.shard_count) + "-shard runtime");
    }
    QueryEngine& engine = *workers_[static_cast<size_t>(plan.worker)]->engine;
    Status loaded = plan.query == 0
                        ? engine.RestoreEngineState(plan.data)
                        : engine.RestoreState(plan.query, plan.data);
    if (!loaded.ok()) {
      return Status::InvalidArgument(
          "cannot restore engine state of query #" +
          std::to_string(plan.query) + " on worker " +
          std::to_string(plan.worker) + ": " + loaded.ToString());
    }
    restored.emplace(plan.worker, plan.query);
  }
  // Completeness: every registered query must have received a payload on
  // every engine hosting it. A payload silently missing (lost section,
  // corrupted kind field) would otherwise restore the query with empty
  // operator state — exactly the state loss checkpoints exist to prevent.
  for (const auto& [id, entry] : queries_) {
    if (entry.sharded) {
      for (int s = 0; s < config_.shard_count; ++s) {
        if (restored.count({s, id}) == 0) {
          return Status::InvalidArgument(
              "snapshot carries no engine-state payload for query #" +
              std::to_string(id) + " on shard " + std::to_string(s));
        }
      }
    } else if (restored.count({broadcast_index(), id}) == 0) {
      return Status::InvalidArgument(
          "snapshot carries no engine-state payload for query #" +
          std::to_string(id) + " on the broadcast engine");
    }
  }
  // Likewise each worker's engine-counter payload (query id 0): losing
  // one would silently reset events_processed_ and break the stats
  // continuity the checkpoint guarantees. Only enforced when the state
  // carries runtime payloads at all — a snapshot taken by a runtime-less
  // (serial-only) system legitimately has none.
  if (!state.plan_states.empty()) {
    for (const auto& worker : workers_) {
      if (restored.count({worker->index, 0}) == 0) {
        return Status::InvalidArgument(
            "snapshot carries no engine-counter payload for worker " +
            std::to_string(worker->index));
      }
    }
  }
  for (const CheckpointState::WindowEvent& entry : state.window) {
    if (entry.stream >= partitioner_.streams().size()) {
      return Status::InvalidArgument(
          "window event references unknown stream");
    }
    if (replay_.size() <= entry.stream) {
      replay_.resize(static_cast<size_t>(entry.stream) + 1);
    }
    replay_[entry.stream].push_back(ReplayEntry{entry.global, entry.event});
    ++replay_len_;
  }

  // Continue the crashed process's dispatch clock so checkpointed positions
  // (registration points, window globals) compare directly with indices
  // issued from here on.
  events_dispatched_ = state.events_dispatched;
  merger_.SeedDispatched(state.events_dispatched);
  merger_.SeedMerged(state.records_merged);
  any_routed_ = state.any_routed;
  routed_stream_ = state.routed_stream;
  multi_routed_ = state.multi_routed;
  last_check_global_ = events_dispatched_;
  hotkey_check_global_ = events_dispatched_;

  for (auto& worker : workers_) worker->queue.Reopen();
  for (auto& worker : workers_) {
    worker->thread = std::thread(&ShardedRuntime::WorkerLoop, this, worker.get());
  }
  return Status::Ok();
}

bool ShardedRuntime::IsSharded(QueryId id) const {
  auto it = queries_.find(id);
  return it != queries_.end() && it->second.sharded;
}

uint64_t ShardedRuntime::shared_scan_hits() const {
  uint64_t hits = 0;
  for (const auto& worker : workers_) {
    hits += worker->engine->shared_scan_hits();
  }
  return hits;
}

void ShardedRuntime::AppendToWorker(Worker* worker, const std::string& stream,
                                    const EventPtr& event, uint64_t global,
                                    uint64_t trace_id) {
  // One batch carries one stream; cut on a switch so the worker can route
  // the whole batch with a single stream lookup.
  if (!worker->pending.events.empty() && worker->pending.stream != stream) {
    FlushBatch(worker, nullptr, /*flush=*/false);
  }
  worker->pending.stream = stream;
  worker->pending.events.push_back(event);
  if (trace_id != 0) {
    worker->pending.traced.push_back(EventBatch::TracedEvent{
        trace_id, worker->pending.events.size() - 1, global});
  }
  worker->pending_last_global = global;
  if (worker->pending.events.size() >= config_.batch_size) {
    FlushBatch(worker, nullptr, /*flush=*/false);
  }
}

void ShardedRuntime::FlushBatch(Worker* worker, const Clocks* clocks,
                                bool flush) {
  if (worker->pending.events.empty() && clocks == nullptr && !flush) return;
  if (clocks != nullptr) {
    worker->pending.clocks = *clocks;
    // The clocks release every deferral triggered at or below the current
    // dispatch point, so the batch certifies the full prefix.
    worker->pending.progress_hi = events_dispatched_;
  } else if (!worker->pending.events.empty()) {
    if (multi_routed_) {
      // Interleaved streams: the batch's own events cannot vouch for the
      // other streams' parked deferrals, so the batch carries every
      // stream's current clock — the worker advances them before acking,
      // and the claim covers the dispatched prefix minus the one event
      // that may have been dispatched but not yet appended (a batch cut on
      // a stream switch flushes before the cutting event joins a batch).
      // This is the per-batch merge progress that keeps merges advancing
      // under heavily interleaved multi-stream traffic.
      worker->pending.clocks = CurrentClocks();
      worker->pending.progress_hi =
          events_dispatched_ > 0 ? events_dispatched_ - 1 : 0;
    } else {
      // Single-stream traffic: the batch's own events are the clock — any
      // record the worker can emit after them triggers later in dispatch
      // order.
      worker->pending.progress_hi = worker->pending_last_global;
    }
  }
  worker->pending.flush = flush;
  if (obs_stamp_) worker->pending.enqueue_ns = obs::MonotonicNs();
  ++worker->batches_enqueued;
  worker->queue.Push(std::move(worker->pending));
  worker->pending = EventBatch{};
}

void ShardedRuntime::OnEvent(const EventPtr& event) {
  Dispatch(kDefaultStream, std::string(), event);
}

void ShardedRuntime::OnStreamEvent(const std::string& stream,
                                   const EventPtr& event) {
  // Streams are few and arrive in runs; resolving (lowercase + intern) only
  // on a name change keeps the per-event dispatch path allocation-free.
  if (!last_stream_valid_ || stream != last_stream_raw_) {
    last_stream_raw_ = stream;
    last_stream_name_ = ToLower(stream);
    last_stream_id_ = partitioner_.InternStream(last_stream_name_);
    last_stream_valid_ = true;
  }
  Dispatch(last_stream_id_, last_stream_name_, event);
}

void ShardedRuntime::Dispatch(StreamId stream, const std::string& name,
                              const EventPtr& event) {
  obs::TraceCollector* tracer = config_.tracer;
  uint64_t trace_id = 0;
  uint64_t trace_start = 0;
  if (tracer != nullptr && tracer->enabled()) {
    // Embedded under SaseSystem the ingest tap samples and stamps the
    // current slot; standalone, the dispatcher IS the ingest point.
    trace_id =
        tracer->external_sampler() ? tracer->current() : tracer->MaybeSample();
    if (trace_id != 0) trace_start = obs::MonotonicNs();
  }
  uint64_t global =
      merger_.NoteDispatched(stream, event->timestamp(), event->seq());
  events_dispatched_ = global;
  int shard = partitioner_.Route(stream, *event);

  const StreamQueries& hosts = QueriesFor(stream);
  if (hosts.sharded > 0 || hosts.broadcast > 0) {
    if (!any_routed_) {
      any_routed_ = true;
      routed_stream_ = stream;
    } else if (stream != routed_stream_) {
      multi_routed_ = true;
    }
    if (hosts.sharded > 0) {
      AppendToWorker(workers_[static_cast<size_t>(shard)].get(), name, event,
                     global, trace_id);
    }
    if (hosts.broadcast > 0) {
      AppendToWorker(&broadcast_worker(), name, event, global, trace_id);
    }
  }
  RetainForReplay(stream, event, global);
  if (trace_id != 0) {
    // The span covers dispatch-log stamping, routing and the ring handoff
    // (including any backpressure block); the merge span opens here and
    // NoteDelivered closes it once the merge watermark passes `global`.
    uint64_t now = obs::MonotonicNs();
    tracer->AddSpan(trace_id, "partition", "dispatcher", trace_start, now,
                    global);
    open_traces_.push_back(OpenTrace{global, trace_id, now});
  }

  if (config_.merge_interval > 0 &&
      events_dispatched_ % config_.merge_interval == 0) {
    // Broadcast every stream's clock so quiet shards release tail-negation
    // deferrals, then surface whatever is safely ordered and compact the
    // dispatch log underneath it.
    if (dispatch_merge_latency_ != nullptr) {
      merge_marks_.push_back(
          MergeMark{events_dispatched_, obs::MonotonicNs()});
    }
    BroadcastClocks();
    DeliverReady();
  }
  if (config_.hotkey_mitigation) MaybeMitigateHotKeys();
  if (config_.elastic.enabled) MaybeAutoResize();
}

void ShardedRuntime::MaybeMitigateHotKeys() {
  // Event-count cadence, not wall clock: the split decision (and therefore
  // the routing history) is a deterministic function of the event sequence,
  // which is what keeps mitigated runs byte-reproducible.
  if (config_.hotkey_min_events == 0 ||
      events_dispatched_ - hotkey_check_global_ < config_.hotkey_min_events) {
    return;
  }
  hotkey_check_global_ = events_dispatched_;
  for (size_t s = 0; s < partitioner_.streams().size(); ++s) {
    StreamId stream = static_cast<StreamId>(s);
    uint64_t keyed = partitioner_.keyed_events(stream);
    if (keyed < config_.hotkey_min_events) continue;
    for (const Partitioner::HotKeyStat& stat : partitioner_.HotKeys(stream)) {
      // Trigger on the guaranteed lower bound (count - error): sketch
      // overestimation alone can never split a key. Not monotone along the
      // count-sorted order, so scan the whole sketch.
      uint64_t guaranteed = stat.count > stat.error ? stat.count - stat.error : 0;
      if (guaranteed * 100 <
          static_cast<uint64_t>(config_.hotkey_split_threshold) * keyed) {
        continue;
      }
      if (partitioner_.IsSplit(stream, stat.key)) continue;
      (void)SplitHotKey(stream, stat.key);
    }
  }
}

bool ShardedRuntime::SplitHotKey(StreamId stream, const Value& key) {
  const StreamQueries& hosts = QueriesFor(stream);
  if (hosts.sharded == 0) return false;  // nothing routes by key; moot
  if (hosts.sharded_stateful == 0) {
    // Every sharded query reading the stream is stateless single-event:
    // any disjoint routing reproduces the serial result set (the merger
    // restores emission order), so spread the key round-robin. No engine
    // holds cross-event state for this stream — no rebuild.
    partitioner_.Split(stream, key, Partitioner::SplitMode::kSpread);
    ++hotkey_spread_splits_;
    SASE_LOG_INFO << "hot key " << key.ToString()
                  << " spread round-robin across " << config_.shard_count
                  << " shards";
    return true;
  }
  std::string secondary = CommonSecondaryAttr(stream);
  if (!secondary.empty()) {
    // Sub-partition by (key, secondary): every sharded stateful query on
    // the stream covers `secondary` on all components, so a match only ever
    // combines events agreeing on it — sub-hash routing keeps each
    // sub-partition whole on one shard. The key's existing state must move
    // with the routing: rebuild the shard engines by replay.
    Status status = RebuildShards(config_.shard_count, [&] {
      partitioner_.Split(stream, key, Partitioner::SplitMode::kSecondary,
                         secondary);
    });
    if (status.ok()) {
      ++hotkey_secondary_splits_;
      SASE_LOG_INFO << "hot key " << key.ToString()
                    << " sub-partitioned by secondary attribute '" << secondary
                    << "'";
      return true;
    }
    SASE_LOG_WARN << "hot key " << key.ToString()
                  << " secondary split failed: " << status.ToString();
  }
  // No covering secondary attribute (or the rebuild refused): correctness
  // first — the key stays pinned, and the refusal surfaces in StatsReport
  // and sase_partition_hotkey_split_refused_total. Booked once per key
  // until the query set changes.
  if (hotkey_refused_.insert({stream, EncodeValue(key)}).second) {
    ++hotkey_split_refusals_;
    SASE_LOG_WARN << "hot key " << key.ToString()
                  << " cannot be split: a sharded stateful query has no "
                     "second covering attribute; the key stays pinned";
  }
  return false;
}

std::string ShardedRuntime::CommonSecondaryAttr(StreamId stream) const {
  std::vector<std::string> candidates;
  bool first = true;
  for (const auto& [id, entry] : queries_) {
    if (!entry.sharded || !entry.stateful || entry.stream != stream) continue;
    if (first) {
      candidates = entry.covering_attrs;
      first = false;
      continue;
    }
    std::vector<std::string> kept;
    for (const std::string& attr : candidates) {
      for (const std::string& other : entry.covering_attrs) {
        if (EqualsIgnoreCase(attr, other)) {
          kept.push_back(attr);
          break;
        }
      }
    }
    candidates.swap(kept);
    if (candidates.empty()) break;
  }
  return candidates.empty() ? std::string() : candidates.front();
}

Status ShardedRuntime::ResolveSplitConflicts(const QueryEntry& entry) {
  // Only a sharded stateful newcomer can invalidate a split: broadcast
  // queries read the whole stream regardless of routing, and stateless
  // sharded queries are sound under any routing.
  if (!entry.sharded || !entry.stateful) return Status::Ok();
  if (partitioner_.split_count() == 0) return Status::Ok();
  std::vector<Value> drop_spread;
  std::vector<Value> drop_secondary;
  for (const Partitioner::SplitInfo& split : partitioner_.Splits()) {
    if (split.stream != entry.stream) continue;
    if (split.mode == Partitioner::SplitMode::kSpread) {
      drop_spread.push_back(split.key);
      continue;
    }
    bool covered = false;
    for (const std::string& attr : entry.covering_attrs) {
      if (EqualsIgnoreCase(attr, split.secondary_attr)) {
        covered = true;
        break;
      }
    }
    if (!covered) drop_secondary.push_back(split.key);
  }
  // Spread splits existed only while the stream hosted no sharded stateful
  // query, so the shard engines hold no cross-event state for it — re-pin
  // the keys without a rebuild. (Mitigation re-splits later if still hot.)
  for (const Value& key : drop_spread) {
    (void)partitioner_.Unsplit(entry.stream, key);
    SASE_LOG_INFO << "hot-key spread of " << key.ToString()
                  << " dropped: a stateful query now reads the stream";
  }
  // Secondary splits whose attribute the newcomer does not cover: the
  // existing sub-partitioned state must collapse back onto the key's
  // primary shard — re-pin and rebuild by replay.
  if (!drop_secondary.empty()) {
    SASE_RETURN_IF_ERROR(RebuildShards(config_.shard_count, [&] {
      for (const Value& key : drop_secondary) {
        (void)partitioner_.Unsplit(entry.stream, key);
      }
    }));
    for (const Value& key : drop_secondary) {
      SASE_LOG_INFO << "hot-key secondary split of " << key.ToString()
                    << " dropped: the new query does not cover its attribute";
    }
  }
  return Status::Ok();
}

void ShardedRuntime::RetainForReplay(StreamId stream, const EventPtr& event,
                                     uint64_t global) {
  const StreamQueries& hosts = QueriesFor(stream);
  // Only streams read by a sharded stateful query with a finite WITHIN
  // window need replay material (stateless queries rebuild from nothing,
  // broadcast-hosted ones are carried over by Resize, and unbounded-window
  // queries make Resize refuse outright, so buffering for them would only
  // grow without bound).
  if (RetentionNeeded(hosts)) {
    if (replay_.size() <= stream) {
      replay_.resize(static_cast<size_t>(stream) + 1);
    }
    replay_[stream].push_back(ReplayEntry{global, event});
    ++replay_len_;
  }
  PruneReplay(stream);
}

void ShardedRuntime::PruneReplay(StreamId stream) {
  if (replay_.size() <= stream) return;
  std::deque<ReplayEntry>& entries = replay_[stream];
  const StreamQueries& hosts = stream_queries_[stream];
  Ticks window = RetentionNeeded(hosts) ? hosts.max_window : -1;
  const Partitioner::StreamState& state = partitioner_.streams()[stream];
  while (!entries.empty()) {
    // Still inside the stream's in-flight window: a future event of this
    // stream may yet complete a match reaching back to it. (The clock only
    // advances with the stream's own events, so a quiescent stream's deque
    // simply stops growing — it never blocks other streams' pruning.)
    if (window >= 0 &&
        entries.front().event->timestamp() + window >= state.clock) {
      break;
    }
    entries.pop_front();
    --replay_len_;
  }
}

void ShardedRuntime::PruneReplayAll() {
  for (StreamId s = 0; s < replay_.size(); ++s) PruneReplay(s);
}

ShardedRuntime::Clocks ShardedRuntime::CurrentClocks() const {
  Clocks clocks;
  for (const Partitioner::StreamState& state : partitioner_.streams()) {
    if (state.events > 0) clocks.emplace_back(state.name, state.clock);
  }
  return clocks;
}

void ShardedRuntime::BroadcastClocks() {
  Clocks clocks = CurrentClocks();
  if (clocks.empty()) return;
  for (auto& worker : workers_) {
    if (WorkerHostsQueries(*worker)) {
      FlushBatch(worker.get(), &clocks, /*flush=*/false);
    }
  }
}

bool ShardedRuntime::WorkerHostsQueries(const Worker& worker) const {
  if (worker.index == config_.shard_count) return broadcast_queries_ > 0;
  return sharded_queries_ > 0;
}

void ShardedRuntime::WaitDrained(Worker* worker) {
  Backoff backoff;
  while (worker->batches_processed.load(std::memory_order_acquire) !=
         worker->batches_enqueued) {
    backoff.Pause();
  }
}

void ShardedRuntime::WaitIdle() {
  BroadcastClocks();
  for (auto& worker : workers_) {
    FlushBatch(worker.get(), nullptr, /*flush=*/false);
  }
  for (auto& worker : workers_) WaitDrained(worker.get());
  // With every queue drained, all emitted records are buffered here and any
  // future record triggers strictly later in dispatch order, so everything
  // at or below the current dispatch point is safe to release.
  CollectOutputs();
  bool obs_pending = !merge_marks_.empty() || !open_traces_.empty();
  uint64_t t0 = obs_pending ? obs::MonotonicNs() : 0;
  Deliver(merger_.DrainReady(events_dispatched_));
  if (obs_pending) {
    NoteDelivered(events_dispatched_, t0, obs::MonotonicNs());
  }
}

void ShardedRuntime::OnFlush() {
  for (auto& worker : workers_) {
    FlushBatch(worker.get(), nullptr, /*flush=*/true);
  }
  for (auto& worker : workers_) WaitDrained(worker.get());
  CollectOutputs();
  bool obs_pending = !merge_marks_.empty() || !open_traces_.empty();
  uint64_t t0 = obs_pending ? obs::MonotonicNs() : 0;
  Deliver(merger_.DrainFinal());
  if (obs_pending) {
    NoteDelivered(std::numeric_limits<uint64_t>::max(), t0,
                  obs::MonotonicNs());
  }
}

void ShardedRuntime::CollectOutputs() {
  for (auto& worker : workers_) {
    std::vector<TaggedRecord> drained;
    {
      std::lock_guard<std::mutex> lock(worker->out_mutex);
      drained.swap(worker->out);
    }
    if (!drained.empty()) merger_.Add(std::move(drained));
  }
}

void ShardedRuntime::DeliverReady() {
  uint64_t threshold = std::numeric_limits<uint64_t>::max();
  bool any = false;
  for (auto& worker : workers_) {
    if (!WorkerHostsQueries(*worker)) continue;
    threshold = std::min(
        threshold, worker->progress_hi.load(std::memory_order_acquire));
    any = true;
  }
  if (!any || threshold == 0) return;
  CollectOutputs();
  bool obs_pending =
      (!merge_marks_.empty() && merge_marks_.front().global <= threshold) ||
      (!open_traces_.empty() && open_traces_.front().global <= threshold);
  uint64_t t0 = obs_pending ? obs::MonotonicNs() : 0;
  Deliver(merger_.DrainReady(threshold));
  if (obs_pending) NoteDelivered(threshold, t0, obs::MonotonicNs());
}

void ShardedRuntime::NoteDelivered(uint64_t threshold, uint64_t t0,
                                   uint64_t t1) {
  while (!merge_marks_.empty() && merge_marks_.front().global <= threshold) {
    if (dispatch_merge_latency_ != nullptr) {
      dispatch_merge_latency_->Record(
          static_cast<int64_t>(t0 - merge_marks_.front().ns));
    }
    merge_marks_.pop_front();
  }
  obs::TraceCollector* tracer = config_.tracer;
  while (!open_traces_.empty() && open_traces_.front().global <= threshold) {
    const OpenTrace& open = open_traces_.front();
    if (tracer != nullptr) {
      // "merge" = parked in the merger until its watermark passed;
      // "emit" = the delivery sweep that released it to user callbacks.
      tracer->AddSpan(open.trace_id, "merge", "merge", open.ns, t0,
                      open.global);
      tracer->AddSpan(open.trace_id, "emit", "dispatcher", t0, t1,
                      open.global);
    }
    open_traces_.pop_front();
  }
}

void ShardedRuntime::Deliver(std::vector<TaggedRecord> records) {
  for (TaggedRecord& tagged : records) {
    auto it = queries_.find(tagged.query);
    if (it == queries_.end() || !it->second.callback) continue;
    it->second.callback(tagged.record);
  }
}

QueryEngine::EngineStats ShardedRuntime::Stats() {
  WaitIdle();
  QueryEngine::EngineStats total = retired_engine_stats_;
  for (auto& worker : workers_) total += worker->engine->Stats();
  // A sharded query is mirrored into every shard engine; report logical
  // queries, not plan instances.
  total.queries = queries_.size();
  return total;
}

std::string ShardedRuntime::StatsReport() {
  WaitIdle();
  std::ostringstream out;
  out << obs::ReportLine("runtime")
             .Kv("shards", config_.shard_count)
             .Kv("queries", queries_.size())
             .Text("(" + obs::Kv("sharded", sharded_queries_) + " " +
                   obs::Kv("broadcast", broadcast_queries_) + ")")
             .Kv("dispatched", events_dispatched_)
             .Kv("merged", merger_.merged_count())
             .Kv("pending", merger_.pending_count())
             .Str();
  out << obs::ReportLine("dispatch log:")
             .Kv("len", merger_.log_len())
             .Kv("peak", merger_.peak_log_len())
             .Kv("compactions", merger_.compaction_count())
             .Text("(" + std::to_string(merger_.compacted_entries()) +
                   " entries reclaimed)")
             .Str();
  out << obs::ReportLine("resizes:")
             .Kv("total", resizes_)
             .Kv("up", grows_)
             .Kv("down", shrinks_)
             .Kv("replayed", events_replayed_)
             .Kv("replay_window", replay_len_)
             .Str();
  out << policy_.Describe() << "\n";
  if (config_.hotkey_mitigation) {
    out << obs::ReportLine("hot-key splits:")
               .Kv("active", partitioner_.split_count())
               .Kv("spread", hotkey_spread_splits_)
               .Kv("secondary", hotkey_secondary_splits_)
               .Kv("refused", hotkey_split_refusals_)
               .Str();
  }
  for (size_t s = 0; s < partitioner_.streams().size(); ++s) {
    const Partitioner::StreamState& state = partitioner_.streams()[s];
    StreamQueries queries = s < stream_queries_.size() ? stream_queries_[s]
                                                       : StreamQueries{};
    std::string shards = "[";
    for (size_t i = 0; i < state.per_shard.size(); ++i) {
      if (i > 0) shards += " ";
      shards += std::to_string(state.per_shard[i]);
    }
    shards += "]";
    out << obs::ReportLine(
               "stream " + (state.name.empty() ? "<default>" : state.name) +
               ":")
               .Kv("events", state.events)
               .Kv("queries", std::to_string(queries.sharded) + "+" +
                                  std::to_string(queries.broadcast))
               .Kv("shards", shards)
               .Str();
    // Hot keys (space-saving sketch, armed only with metrics attached):
    // count is an overestimate by at most `err`; share is against the
    // stream's keyed-event total.
    std::vector<Partitioner::HotKeyStat> hot =
        partitioner_.HotKeys(static_cast<StreamId>(s));
    uint64_t keyed = partitioner_.keyed_events(static_cast<StreamId>(s));
    if (!hot.empty() && keyed > 0) {
      if (hot.size() > 5) hot.resize(5);
      obs::ReportLine line("  hot keys:");
      for (const Partitioner::HotKeyStat& stat : hot) {
        std::string marker;
        if (partitioner_.IsSplit(static_cast<StreamId>(s), stat.key)) {
          marker = " split";
        } else if (hotkey_refused_.count({static_cast<StreamId>(s),
                                          EncodeValue(stat.key)}) > 0) {
          marker = " split-refused";
        }
        line.Text(stat.key.ToString() + "=" + std::to_string(stat.count) +
                  " (~" + std::to_string(stat.count * 100 / keyed) + "%" +
                  (stat.error > 0 ? " err<=" + std::to_string(stat.error)
                                  : std::string()) +
                  " shard " + std::to_string(stat.shard) + marker + ")");
      }
      out << line.Str();
    }
  }
  for (auto& worker : workers_) {
    QueryEngine::EngineStats stats = worker->engine->Stats();
    out << obs::ReportLine(worker->index == config_.shard_count
                               ? std::string("broadcast:")
                               : "shard " + std::to_string(worker->index) +
                                     ":")
               .Kv("events", stats.events_processed)
               .Kv("sequences", stats.matches_scanned)
               .Kv("outputs", stats.outputs)
               .Kv("errors", stats.eval_errors)
               .Str();
  }
  return out.str();
}

void ShardedRuntime::ScrapeMetrics() {
  obs::MetricsRegistry* metrics = config_.metrics;
  if (metrics == nullptr) return;

  // Live gauges first — quiescing would drain the queues and close the
  // merge watermark gap, so sample occupancy and lag pre-WaitIdle. The
  // occupancy sample is kept for the hot-key queue-lag attribution below.
  std::vector<int64_t> queue_sample(static_cast<size_t>(config_.shard_count),
                                    0);
  uint64_t min_progress = std::numeric_limits<uint64_t>::max();
  bool any_hosting = false;
  for (auto& worker : workers_) {
    if (worker->index < config_.shard_count) {
      int64_t occupancy = static_cast<int64_t>(worker->queue.ApproxSize());
      queue_sample[static_cast<size_t>(worker->index)] = occupancy;
      metrics
          ->GetGauge("sase_shard_queue_len{shard=\"" +
                     std::to_string(worker->index) + "\"}")
          ->Set(occupancy);
    }
    if (!WorkerHostsQueries(*worker)) continue;
    min_progress = std::min(
        min_progress, worker->progress_hi.load(std::memory_order_acquire));
    any_hosting = true;
  }
  uint64_t lag = any_hosting && min_progress < events_dispatched_
                     ? events_dispatched_ - min_progress
                     : 0;
  metrics->GetGauge("sase_runtime_merge_watermark_lag")
      ->Set(static_cast<int64_t>(lag));

  // Quiesce, then mirror the truth counters — the same numbers the live
  // accessors and StatsReport() read, so registry and report can never
  // disagree.
  WaitIdle();
  metrics->GetCounter("sase_runtime_events_dispatched_total")
      ->Set(events_dispatched_);
  metrics->GetCounter("sase_runtime_records_merged_total")
      ->Set(merger_.merged_count());
  metrics->GetCounter("sase_runtime_log_compactions_total")
      ->Set(merger_.compaction_count());
  metrics->GetCounter("sase_runtime_resizes_total{direction=\"up\"}")
      ->Set(grows_);
  metrics->GetCounter("sase_runtime_resizes_total{direction=\"down\"}")
      ->Set(shrinks_);
  metrics->GetCounter("sase_runtime_events_replayed_total")
      ->Set(events_replayed_);
  metrics->GetCounter("sase_runtime_elastic_checks_total")
      ->Set(policy_.checks());
  metrics->GetGauge("sase_runtime_shards")->Set(config_.shard_count);
  metrics->GetGauge("sase_runtime_merge_pending")
      ->Set(static_cast<int64_t>(merger_.pending_count()));
  metrics->GetGauge("sase_runtime_dispatch_log_len")
      ->Set(static_cast<int64_t>(merger_.log_len()));
  metrics->GetGauge("sase_runtime_replay_buffer_len")
      ->Set(static_cast<int64_t>(replay_len_));

  std::vector<uint64_t> per_shard(static_cast<size_t>(config_.shard_count), 0);
  for (const Partitioner::StreamState& state : partitioner_.streams()) {
    metrics
        ->GetCounter("sase_stream_events_total{stream=\"" +
                     (state.name.empty() ? std::string("<default>")
                                         : state.name) +
                     "\"}")
        ->Set(state.events);
    for (size_t i = 0; i < state.per_shard.size() && i < per_shard.size();
         ++i) {
      per_shard[i] += state.per_shard[i];
    }
  }
  for (size_t i = 0; i < per_shard.size(); ++i) {
    metrics
        ->GetCounter("sase_shard_events_total{shard=\"" + std::to_string(i) +
                     "\"}")
        ->Set(per_shard[i]);
  }
  // Hot-key accounting. Sketch counts are dispatcher-maintained truth;
  // queue-lag attribution uses the PRE-quiesce occupancy sample of the
  // key's owning shard (a drained queue would always read 0). A key evicted
  // from the sketch keeps its last mirrored series — the sketch bounds live
  // tracking, not registry cardinality, which stays <= kHotKeyFanout new
  // series per stream per scrape.
  if (partitioner_.hotkey_tracking()) {
    constexpr size_t kHotKeyFanout = 5;
    for (size_t s = 0; s < partitioner_.streams().size(); ++s) {
      StreamId stream = static_cast<StreamId>(s);
      uint64_t keyed = partitioner_.keyed_events(stream);
      const std::string& name = partitioner_.streams()[s].name;
      std::string stream_label = name.empty() ? std::string("<default>") : name;
      metrics
          ->GetCounter("sase_partition_keyed_events_total{stream=\"" +
                       stream_label + "\"}")
          ->Set(keyed);
      std::vector<Partitioner::HotKeyStat> hot = partitioner_.HotKeys(stream);
      if (hot.size() > kHotKeyFanout) hot.resize(kHotKeyFanout);
      for (const Partitioner::HotKeyStat& stat : hot) {
        std::string labels = "{stream=\"" + stream_label + "\",key=\"" +
                             stat.key.ToString() + "\"}";
        metrics->GetCounter("sase_partition_hotkey_events_total" + labels)
            ->Set(stat.count);
        metrics->GetGauge("sase_partition_hotkey_share_percent" + labels)
            ->Set(keyed == 0
                      ? 0
                      : static_cast<int64_t>(stat.count * 100 / keyed));
        metrics->GetGauge("sase_partition_hotkey_shard" + labels)
            ->Set(stat.shard);
        metrics->GetGauge("sase_partition_hotkey_queue_lag" + labels)
            ->Set(queue_sample[static_cast<size_t>(stat.shard)]);
      }
    }
  }
  // Hot-key mitigation outcomes (only meaningful with mitigation on; the
  // series stay absent otherwise, like every other gated family).
  if (config_.hotkey_mitigation) {
    metrics->GetCounter("sase_partition_hotkey_splits_total{mode=\"spread\"}")
        ->Set(hotkey_spread_splits_);
    metrics
        ->GetCounter("sase_partition_hotkey_splits_total{mode=\"secondary\"}")
        ->Set(hotkey_secondary_splits_);
    metrics->GetCounter("sase_partition_hotkey_split_refused_total")
        ->Set(hotkey_split_refusals_);
    metrics->GetGauge("sase_partition_hotkey_split_active")
        ->Set(static_cast<int64_t>(partitioner_.split_count()));
  }
  // Per-query operator counters and occupancy gauges, per hosting engine.
  for (auto& worker : workers_) worker->engine->ScrapeMetrics();
}

std::vector<ShardedRuntime::SlowSample> ShardedRuntime::SlowSamples() {
  WaitIdle();
  std::vector<SlowSample> merged;
  for (auto& worker : workers_) {
    for (const QueryEngine::SlowQuerySample& sample :
         worker->engine->SlowSamples()) {
      merged.push_back(SlowSample{worker->lane, sample});
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const SlowSample& a, const SlowSample& b) {
              return a.sample.at_ns > b.sample.at_ns;
            });
  return merged;
}

bool ShardedRuntime::Healthy(uint64_t stall_ns, std::string* why) {
  std::lock_guard<std::mutex> lock(health_mutex_);
  uint64_t now = obs::MonotonicNs();
  if (health_.size() != workers_.size()) {
    health_.assign(workers_.size(), HealthProbe{});
  }
  bool healthy = true;
  for (size_t i = 0; i < workers_.size(); ++i) {
    Worker& worker = *workers_[i];
    uint64_t batches =
        worker.batches_processed.load(std::memory_order_acquire);
    size_t queued = worker.queue.ApproxSize();
    HealthProbe& probe = health_[i];
    if (queued == 0 || batches != probe.batches) {
      // Empty queue or visible progress: not wedged, restart the clock.
      probe.batches = batches;
      probe.stuck_since_ns = 0;
      continue;
    }
    if (probe.stuck_since_ns == 0) {
      probe.stuck_since_ns = now;  // first stuck sighting arms the clock
      continue;
    }
    if (now - probe.stuck_since_ns >= stall_ns) {
      healthy = false;
      if (why != nullptr) {
        *why = worker.lane + " wedged: " + std::to_string(queued) +
               " queued batch(es), no progress for " +
               std::to_string((now - probe.stuck_since_ns) / 1000000) + " ms";
      }
    }
  }
  return healthy;
}

}  // namespace sase
