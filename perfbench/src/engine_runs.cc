#include "engine_runs.h"

#include <algorithm>

#include "engine/query_engine.h"

namespace perfbench {

using sase::EventPtr;
using sase::OutputRecord;
using sase::QueryEngine;
using sase::ShardedRuntime;

void SyntheticInput::IndexSeqs() {
  sase::SequenceNumber max_seq = 0;
  for (const EventPtr& event : events) max_seq = std::max(max_seq, event->seq());
  seq_index.assign(static_cast<size_t>(max_seq) + 1, 0);
  for (size_t i = 0; i < events.size(); ++i) {
    seq_index[static_cast<size_t>(events[i]->seq())] = i;
  }
}

RunOutcome RunSerial(const sase::Catalog& catalog, const SyntheticInput& input,
                     PassEnv& env) {
  Ledger* ledger = env.ledger;
  Collector& out = *env.out;
  RunOutcome outcome;
  ScopedSpan run_span(ledger, "serial");

  QueryEngine engine(&catalog);
  auto callback = [&](const OutputRecord& record) {
    uint64_t t0 = ledger != nullptr ? WallNs() : 0;
    outcome.digest.Add(record);
    if (ledger != nullptr) ledger->AddCallback(t0, WallNs());
  };
  for (const std::string& text : input.queries) {
    ScopedSpan span(ledger, "query.register");
    uint64_t t0 = WallNs();
    auto id = engine.Register(text, callback);
    out.Check(id.ok(), "serial Register: " + id.status().ToString());
    if (ledger != nullptr) {
      out.Add("query.register_ms", static_cast<double>(WallNs() - t0) / 1e6);
    }
  }

  const double n = static_cast<double>(input.events.size());
  uint64_t wall0 = WallNs();
  uint64_t cpu0 = ProcessCpuNs();
  int feed = -1;
  {
    ScopedSpan span(ledger, "engine.feed");
    feed = span.index();
    for (const EventPtr& event : input.events) engine.OnEvent(event);
    engine.OnFlush();
  }
  uint64_t wall = WallNs() - wall0;
  uint64_t cpu = ProcessCpuNs() - cpu0;
  out.Add("serial.items_per_s", n / (static_cast<double>(wall) / 1e9));
  out.Add("serial.cpu_us_per_item", static_cast<double>(cpu) / 1e3 / n);

  if (ledger != nullptr) {
    uint64_t engine_ns = ledger->DurationNs(feed) - ledger->CallbackNs(feed);
    out.Add("engine.us_per_event", static_cast<double>(engine_ns) / 1e3 / n);
    QueryEngine::EngineStats stats = engine.Stats();
    out.Add("engine.scanned_per_event",
            static_cast<double>(stats.matches_scanned) /
                static_cast<double>(std::max<uint64_t>(1, stats.events_processed)));
    out.Add("engine.outputs_per_scanned",
            static_cast<double>(stats.outputs) /
                static_cast<double>(std::max<uint64_t>(1, stats.matches_scanned)));
  }
  return outcome;
}

double ShardSkew(const ShardedRuntime& runtime) {
  const auto& per_shard = runtime.partitioner().streams().front().per_shard;
  uint64_t total = 0, most = 0;
  for (uint64_t routed : per_shard) {
    total += routed;
    most = std::max(most, routed);
  }
  if (total == 0) return 0;
  return static_cast<double>(most) * static_cast<double>(per_shard.size()) /
         static_cast<double>(total);
}

RunOutcome RunSharded(const sase::Catalog& catalog, const SyntheticInput& input,
                      sase::RuntimeConfig config, size_t resize_every,
                      PassEnv& env) {
  Ledger* ledger = env.ledger;
  Collector& out = *env.out;
  RunOutcome outcome;
  ScopedSpan run_span(ledger, "sharded");

  const size_t n = input.events.size();
  std::vector<uint64_t> call_start(n, 0);
  uint64_t callback_ns = 0;
  auto callback = [&](const OutputRecord& record) {
    uint64_t now = WallNs();
    env.latency->Record(now - call_start[input.seq_index[static_cast<size_t>(record.emit_seq)]]);
    outcome.digest.Add(record);
    if (ledger != nullptr) {
      uint64_t end = WallNs();
      ledger->AddCallback(now, end);
      callback_ns += end - now;
    }
  };

  uint64_t setup0 = WallNs();
  config.shard_count = kShards;
  std::unique_ptr<ShardedRuntime> runtime;
  {
    ScopedSpan span(ledger, "runtime.construct");
    runtime = std::make_unique<ShardedRuntime>(&catalog, config);
  }
  for (const std::string& text : input.queries) {
    ScopedSpan span(ledger, "query.register");
    uint64_t t0 = WallNs();
    auto id = runtime->Register(text, callback);
    out.Check(id.ok() && runtime->IsSharded(id.value()),
              "sharded Register: " + id.status().ToString());
    if (ledger != nullptr) {
      out.Add("query.register_ms", static_cast<double>(WallNs() - t0) / 1e6);
    }
  }
  out.Add("setup_s", static_cast<double>(WallNs() - setup0) / 1e9);
  out.Add("threads", LiveThreads());

  uint64_t wall0 = WallNs();
  uint64_t cpu0 = ProcessCpuNs();
  uint64_t thread0 = ThreadCpuNs();
  int flush = -1;
  {
    ScopedSpan feed(ledger, "runtime.feed");
    for (size_t i = 0; i < n; ++i) {
      if (resize_every > 0 && i > 0 && i % resize_every == 0) {
        int target = runtime->shard_count() == kShards ? 1 : kShards;
        if (ledger != nullptr && target == 1) out.Add("runtime.shard_skew", ShardSkew(*runtime));
        uint64_t replayed0 = runtime->events_replayed();
        ScopedSpan span(ledger, "runtime.Resize");
        uint64_t t0 = WallNs();
        sase::Status resized = runtime->Resize(target);
        out.Check(resized.ok(), "Resize: " + resized.ToString());
        uint64_t replayed = runtime->events_replayed() - replayed0;
        ++outcome.resizes;
        outcome.replayed += replayed;
        if (ledger != nullptr) {
          out.Add("runtime.resize_ms", static_cast<double>(WallNs() - t0) / 1e6);
          out.Add("runtime.replayed_per_resize", static_cast<double>(replayed));
        }
      }
      call_start[i] = WallNs();
      ScopedSpan span(ledger, "runtime.OnEvent", /*drop_if_leaf=*/true);
      runtime->OnEvent(input.events[i]);
    }
    ScopedSpan span(ledger, "runtime.OnFlush");
    flush = span.index();
    runtime->OnFlush();
  }
  uint64_t wall = WallNs() - wall0;
  uint64_t cpu = ProcessCpuNs() - cpu0;
  uint64_t thread_cpu = ThreadCpuNs() - thread0;
  const double items = static_cast<double>(n);
  out.Add("items_per_s", items / (static_cast<double>(wall) / 1e9));
  out.Add("cpu_us_per_item", static_cast<double>(cpu) / 1e3 / items);

  outcome.splits =
      runtime->hotkey_spread_splits() + runtime->hotkey_secondary_splits();
  if (ledger != nullptr) {
    double dispatch_ns = static_cast<double>(thread_cpu) - static_cast<double>(callback_ns);
    out.Add("runtime.dispatch_cpu_us_per_item", dispatch_ns / 1e3 / items);
    out.Add("runtime.worker_cpu_us_per_item",
            static_cast<double>(cpu - thread_cpu) / 1e3 / items);
    out.Add("runtime.records_per_item",
            static_cast<double>(outcome.digest.count()) / items);
    out.Add("runtime.flush_ms", static_cast<double>(ledger->DurationNs(flush)) / 1e6);
    out.Add("runtime.peak_dispatch_log_len",
            static_cast<double>(runtime->peak_dispatch_log_len()));
    if (runtime->shard_count() == kShards) out.Add("runtime.shard_skew", ShardSkew(*runtime));
    if (resize_every > 0) out.Add("runtime.hotkey_splits", static_cast<double>(outcome.splits));
  }
  {
    ScopedSpan span(ledger, "runtime.destroy");
    runtime.reset();
  }
  return outcome;
}

}  // namespace perfbench
