// Metrics-vs-truth differential tests: every scrape-mirrored metric the
// registry exposes must equal the source-of-truth counter it mirrors — at
// 1 (serial), 2 and 8 shards, and across a checkpoint-kill-recover cycle.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "rfid/workload.h"
#include "runtime/partitioner.h"
#include "system/sase_system.h"
#include "test_util.h"

namespace sase {
namespace {

const std::vector<std::string> kQueries = {
    // Key-partitioned pattern: runtime-shardable.
    "EVENT SEQ(SHELF_READING x, EXIT_READING z) "
    "WHERE x.TagId = z.TagId WITHIN 50 RETURN x.TagId",
    // Stateless projection.
    "EVENT SHELF_READING s WHERE s.AreaId = 2 RETURN s.TagId",
};

std::vector<EventPtr> Trace(const Catalog& catalog, int64_t count) {
  SyntheticConfig config;
  config.seed = 11;
  config.event_count = count;
  config.tag_count = 30;
  config.area_count = 4;
  SyntheticStreamGenerator generator(&catalog, config);
  return generator.Generate();
}

/// Sample lines of a Prometheus text exposition: "<series> <value>".
std::map<std::string, double> ParseProm(const std::string& text) {
  std::map<std::string, double> samples;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << line;
    samples[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return samples;
}

/// Sum of every series whose name starts with `prefix` (labeled families).
double SumFamily(const std::map<std::string, double>& samples,
                 const std::string& prefix) {
  double total = 0;
  for (const auto& [name, value] : samples) {
    if (name.rfind(prefix, 0) == 0) total += value;
  }
  return total;
}

double At(const std::map<std::string, double>& samples,
          const std::string& name) {
  auto it = samples.find(name);
  EXPECT_NE(it, samples.end()) << "missing series: " << name;
  return it == samples.end() ? -1 : it->second;
}

void CheckMetricsAgainstTruth(int shards) {
  SCOPED_TRACE("shards=" + std::to_string(shards));
  SystemConfig config;
  config.noise = NoiseModel::Perfect();
  config.shard_count = shards;
  config.runtime_merge_interval = 64;

  SaseSystem system(StoreLayout::RetailDemo(), config);
  size_t delivered = 0;
  for (size_t q = 0; q < kQueries.size(); ++q) {
    auto id = system.RegisterMonitoringQuery(
        "q" + std::to_string(q), kQueries[q],
        [&delivered](const OutputRecord&) { ++delivered; });
    ASSERT_TRUE(id.ok()) << id.status().ToString();
  }

  Catalog catalog = Catalog::RetailDemo();
  std::vector<EventPtr> trace = Trace(catalog, 600);
  for (const EventPtr& event : trace) system.event_bus().OnEvent(event);
  system.Flush();

  ASSERT_NE(system.metrics(), nullptr);
  system.ScrapeMetrics();
  std::map<std::string, double> samples =
      ParseProm(system.metrics()->RenderPrometheus());

  // The serial engine sees every bus event regardless of hosting.
  EXPECT_EQ(At(samples, "sase_engine_events_total{host=\"serial\"}"),
            static_cast<double>(system.engine().Stats().events_processed));
  EXPECT_EQ(At(samples, "sase_engine_events_total{host=\"serial\"}"),
            static_cast<double>(trace.size()));

  // Per-query outputs across all hosts == records actually delivered.
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(SumFamily(samples, "sase_query_outputs_total"),
            static_cast<double>(delivered));
  EXPECT_EQ(SumFamily(samples, "sase_query_outputs_total"),
            static_cast<double>(system.records_delivered()));
  EXPECT_EQ(SumFamily(samples, "sase_query_errors_total"), 0.0);

  // Operator wall-time histograms saw one sample per (query, event) pair.
  EXPECT_GT(SumFamily(samples, "sase_query_op_latency_ns_count"), 0.0);

  if (shards >= 2) {
    ASSERT_NE(system.runtime(), nullptr);
    EXPECT_EQ(At(samples, "sase_runtime_events_dispatched_total"),
              static_cast<double>(trace.size()));
    EXPECT_EQ(At(samples, "sase_runtime_shards"),
              static_cast<double>(shards));
    EXPECT_EQ(At(samples, "sase_stream_events_total{stream=\"<default>\"}"),
              static_cast<double>(trace.size()));
    // Quiesced scrape: nothing pending in the merger.
    EXPECT_EQ(At(samples, "sase_runtime_merge_pending"), 0.0);
    // Runtime-hosted queries delivered through the merger.
    EXPECT_EQ(At(samples, "sase_runtime_records_merged_total"),
              static_cast<double>(delivered));
  } else {
    EXPECT_EQ(system.runtime(), nullptr);
  }

  // Counter/gauge scrapes are idempotent while the stream is quiet (the
  // quiesce itself pushes flush batches through the rings, so live latency
  // histograms may pick up samples — exclude those families).
  std::vector<std::string> histogram_families;
  for (const std::string& name : system.metrics()->HistogramNames()) {
    histogram_families.push_back(name.substr(0, name.find('{')));
  }
  auto without_histograms = [&histogram_families](
                                const std::map<std::string, double>& all) {
    std::map<std::string, double> filtered;
    for (const auto& [name, value] : all) {
      bool histogram = false;
      for (const std::string& family : histogram_families) {
        if (name.rfind(family, 0) == 0) {
          histogram = true;
          break;
        }
      }
      if (!histogram) filtered[name] = value;
    }
    return filtered;
  };
  system.ScrapeMetrics();
  std::map<std::string, double> first = without_histograms(samples);
  std::map<std::string, double> second =
      without_histograms(ParseProm(system.metrics()->RenderPrometheus()));
  ASSERT_EQ(first.size(), second.size());
  for (const auto& [name, value] : first) {
    // Watermark lag and queue depth are instantaneous pre-quiesce samples
    // (the scrape's own drain traffic moves them); only mirrored counters
    // and settled gauges are idempotent.
    if (name == "sase_runtime_merge_watermark_lag" ||
        name.rfind("sase_shard_queue_len", 0) == 0 ||
        name.rfind("sase_partition_hotkey_queue_lag", 0) == 0) {
      continue;
    }
    ASSERT_NE(second.find(name), second.end()) << name;
    EXPECT_EQ(second.at(name), value) << name;
  }
}

TEST(ObsIntegrationTest, MetricsMatchTruthSerial) {
  CheckMetricsAgainstTruth(1);
}

TEST(ObsIntegrationTest, MetricsMatchTruthTwoShards) {
  CheckMetricsAgainstTruth(2);
}

TEST(ObsIntegrationTest, MetricsMatchTruthEightShards) {
  CheckMetricsAgainstTruth(8);
}

TEST(ObsIntegrationTest, MetricsDisabledMeansNoRegistry) {
  SystemConfig config;
  config.noise = NoiseModel::Perfect();
  config.obs.metrics_enabled = false;
  config.shard_count = 2;
  SaseSystem system(StoreLayout::RetailDemo(), config);
  EXPECT_EQ(system.metrics(), nullptr);
  auto id = system.RegisterMonitoringQuery("q", kQueries[0], nullptr);
  ASSERT_TRUE(id.ok());
  Catalog catalog = Catalog::RetailDemo();
  for (const EventPtr& event : Trace(catalog, 100)) {
    system.event_bus().OnEvent(event);
  }
  system.Flush();
  system.ScrapeMetrics();  // no-op, must not crash
}

TEST(ObsIntegrationTest, StateGaugesDecayAfterWindowExpirySerial) {
  SystemConfig config;
  config.noise = NoiseModel::Perfect();
  SaseSystem system(StoreLayout::RetailDemo(), config);
  auto id = system.RegisterMonitoringQuery(
      "theft",
      "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) "
      "WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 50 "
      "RETURN x.TagId",
      nullptr);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // Open scan state (shelf readings with no exits) and negation candidates
  // (counter readings) across many partitions.
  Catalog catalog = Catalog::RetailDemo();
  testing::StreamBuilder stream(&catalog);
  for (int i = 0; i < 40; ++i) {
    stream.Add("SHELF_READING", 10 + i, "tag-" + std::to_string(i), 1);
    stream.Add("COUNTER_READING", 11 + i, "tag-" + std::to_string(i), 2);
  }
  for (const EventPtr& event : stream.events()) {
    system.event_bus().OnEvent(event);
  }
  system.ScrapeMetrics();
  auto loaded = ParseProm(system.metrics()->RenderPrometheus());
  EXPECT_GT(SumFamily(loaded, "sase_query_scan_instances"), 0.0);
  EXPECT_GT(SumFamily(loaded, "sase_query_scan_partitions"), 0.0);
  EXPECT_GT(SumFamily(loaded, "sase_query_scan_state_bytes"), 0.0);
  EXPECT_GT(SumFamily(loaded, "sase_query_negation_buffer"), 0.0);
  double negation_bytes = SumFamily(loaded, "sase_query_negation_state_bytes");
  EXPECT_GT(negation_bytes, 0.0);

  // Quiescent stream, watermark past every horizon (scan W, negation 2W):
  // the state-size gauges return to ~0 — the partitioned scan releases
  // everything, the negation buffers keep only their empty vector shells.
  Timestamp last = stream.events().back()->timestamp();
  system.engine().OnStreamWatermark("", last + 2 * 50 + 2);
  system.ScrapeMetrics();
  auto drained = ParseProm(system.metrics()->RenderPrometheus());
  EXPECT_EQ(SumFamily(drained, "sase_query_scan_instances"), 0.0);
  EXPECT_EQ(SumFamily(drained, "sase_query_scan_partitions"), 0.0);
  EXPECT_EQ(SumFamily(drained, "sase_query_scan_state_bytes"), 0.0);
  EXPECT_EQ(SumFamily(drained, "sase_query_negation_buffer"), 0.0);
  EXPECT_EQ(SumFamily(drained, "sase_query_negation_pending"), 0.0);
  EXPECT_LT(SumFamily(drained, "sase_query_negation_state_bytes"),
            negation_bytes);
}

TEST(ObsIntegrationTest, StateGaugesDecayAfterWindowExpirySharded) {
  SystemConfig config;
  config.noise = NoiseModel::Perfect();
  config.shard_count = 4;
  config.runtime_merge_interval = 16;
  SaseSystem system(StoreLayout::RetailDemo(), config);
  auto id = system.RegisterMonitoringQuery("pairs", kQueries[0], nullptr);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  Catalog catalog = Catalog::RetailDemo();
  testing::StreamBuilder stream(&catalog);
  for (int i = 0; i < 60; ++i) {
    stream.Add("SHELF_READING", 10 + i, "tag-" + std::to_string(i), 1);
  }
  for (const EventPtr& event : stream.events()) {
    system.event_bus().OnEvent(event);
  }
  system.ScrapeMetrics();
  auto loaded = ParseProm(system.metrics()->RenderPrometheus());
  EXPECT_GT(SumFamily(loaded, "sase_query_scan_instances"), 0.0);
  EXPECT_GT(SumFamily(loaded, "sase_query_scan_state_bytes"), 0.0);

  // One clock-advancing event of a type the query ignores: the quiesce
  // inside the next scrape broadcasts the new stream clock to every worker,
  // whose engines prune the expired window state.
  stream.Add("COUNTER_READING", 10 + 59 + 2 * 50 + 2, "clock", 3);
  system.event_bus().OnEvent(stream.events().back());
  system.ScrapeMetrics();
  auto drained = ParseProm(system.metrics()->RenderPrometheus());
  EXPECT_EQ(SumFamily(drained, "sase_query_scan_instances"), 0.0);
  EXPECT_EQ(SumFamily(drained, "sase_query_scan_partitions"), 0.0);
  EXPECT_EQ(SumFamily(drained, "sase_query_scan_state_bytes"), 0.0);
}

TEST(ObsIntegrationTest, HotKeyAccountingSurfacesSkew) {
  SystemConfig config;
  config.noise = NoiseModel::Perfect();
  config.shard_count = 4;
  SaseSystem system(StoreLayout::RetailDemo(), config);
  auto id = system.RegisterMonitoringQuery("pairs", kQueries[0], nullptr);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // 90%-hot key: 9 of every 10 events carry tag HOT, the rest rotate over
  // 50 cold tags (more keys than the 16 sketch slots, so eviction happens).
  Catalog catalog = Catalog::RetailDemo();
  testing::StreamBuilder stream(&catalog);
  constexpr int kEvents = 10000;
  int cold = 0;
  for (int i = 0; i < kEvents; ++i) {
    std::string tag =
        i % 10 == 9 ? "cold-" + std::to_string(cold++ % 50) : "HOT";
    stream.Add("SHELF_READING", 1 + i / 100, tag, 1);
  }
  for (const EventPtr& event : stream.events()) {
    system.event_bus().OnEvent(event);
  }
  system.Flush();
  system.ScrapeMetrics();
  auto samples = ParseProm(system.metrics()->RenderPrometheus());

  EXPECT_EQ(At(samples, "sase_partition_keyed_events_total{stream=\"<default>\"}"),
            static_cast<double>(kEvents));
  const std::string hot_labels = "{stream=\"<default>\",key=\"HOT\"}";
  // Space-saving guarantee: the sketch count is within its error bound of
  // the true frequency, and a 90% key cannot be evicted — its observed
  // share lands within +-5 percentage points of the true 90%.
  double hot_events =
      At(samples, "sase_partition_hotkey_events_total" + hot_labels);
  double hot_share = 100.0 * hot_events / kEvents;
  EXPECT_GE(hot_share, 85.0);
  EXPECT_LE(hot_share, 95.0);
  double share_gauge =
      At(samples, "sase_partition_hotkey_share_percent" + hot_labels);
  EXPECT_GE(share_gauge, 85.0);
  EXPECT_LE(share_gauge, 95.0);
  // Shard attribution: a stable hash in [0, shards), with its pre-quiesce
  // queue-lag sample present.
  double hot_shard = At(samples, "sase_partition_hotkey_shard" + hot_labels);
  EXPECT_GE(hot_shard, 0.0);
  EXPECT_LT(hot_shard, 4.0);
  EXPECT_NE(samples.find("sase_partition_hotkey_queue_lag" + hot_labels),
            samples.end());

  // The human-readable fleet view carries the same accounting.
  ASSERT_NE(system.runtime(), nullptr);
  std::string report = system.runtime()->StatsReport();
  EXPECT_NE(report.find("hot keys:"), std::string::npos) << report;
  EXPECT_NE(report.find("HOT="), std::string::npos) << report;
}

TEST(ObsIntegrationTest, HotKeyTrackingReArmPreservesShareDenominator) {
  // Re-arming the sketch (capacity change) must clear slot contents but keep
  // the cumulative keyed-events denominator: zeroing it made the next
  // share_percent scrape divide fresh counts by a near-zero denominator and
  // report garbage shares (> 100%).
  Catalog catalog = Catalog::RetailDemo();
  Partitioner partitioner(&catalog, "TagId", 4);
  partitioner.EnableHotKeyTracking(16);
  testing::StreamBuilder stream(&catalog);
  for (int i = 0; i < 1000; ++i) {
    stream.Add("SHELF_READING", 1 + i, i % 2 == 0 ? "HOT" : "T" + std::to_string(i), 1);
  }
  for (const EventPtr& event : stream.events()) {
    partitioner.Route(kDefaultStream, *event);
  }
  ASSERT_EQ(partitioner.keyed_events(kDefaultStream), 1000u);
  ASSERT_FALSE(partitioner.HotKeys(kDefaultStream).empty());

  partitioner.EnableHotKeyTracking(32);  // re-arm with a new capacity
  EXPECT_EQ(partitioner.keyed_events(kDefaultStream), 1000u)
      << "re-arm must not reset the share denominator";
  EXPECT_TRUE(partitioner.HotKeys(kDefaultStream).empty())
      << "re-arm must clear slot contents";

  // Counts observed after the re-arm are measured against the cumulative
  // denominator, so a share can never exceed its true value.
  testing::StreamBuilder more(&catalog);
  for (int i = 0; i < 100; ++i) more.Add("SHELF_READING", 2000 + i, "HOT", 1);
  for (const EventPtr& event : more.events()) {
    partitioner.Route(kDefaultStream, *event);
  }
  EXPECT_EQ(partitioner.keyed_events(kDefaultStream), 1100u);
  auto stats = partitioner.HotKeys(kDefaultStream);
  ASSERT_FALSE(stats.empty());
  EXPECT_LE(100.0 * static_cast<double>(stats.front().count) /
                static_cast<double>(partitioner.keyed_events(kDefaultStream)),
            100.0);
}

TEST(ObsIntegrationTest, HotKeyMitigationSpreadsStatelessOnlyStream) {
  SystemConfig config;
  config.noise = NoiseModel::Perfect();
  config.shard_count = 4;
  config.hotkey_mitigation = true;
  config.hotkey_min_events = 500;
  config.hotkey_split_threshold = 50;
  SaseSystem system(StoreLayout::RetailDemo(), config);
  // Stateless projection only: the stream has no sharded stateful query, so
  // a hot key is spread round-robin.
  auto id = system.RegisterMonitoringQuery("proj", kQueries[1], nullptr);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  Catalog catalog = Catalog::RetailDemo();
  testing::StreamBuilder stream(&catalog);
  for (int i = 0; i < 2000; ++i) {
    stream.Add("SHELF_READING", 1 + i / 100,
               i % 10 == 9 ? "cold-" + std::to_string(i) : "HOT", 2);
  }
  for (const EventPtr& event : stream.events()) {
    system.event_bus().OnEvent(event);
  }
  system.Flush();
  system.ScrapeMetrics();
  auto samples = ParseProm(system.metrics()->RenderPrometheus());
  EXPECT_EQ(At(samples, "sase_partition_hotkey_splits_total{mode=\"spread\"}"),
            1.0);
  EXPECT_EQ(At(samples,
               "sase_partition_hotkey_splits_total{mode=\"secondary\"}"),
            0.0);
  EXPECT_EQ(At(samples, "sase_partition_hotkey_split_refused_total"), 0.0);
  EXPECT_EQ(At(samples, "sase_partition_hotkey_split_active"), 1.0);

  ASSERT_NE(system.runtime(), nullptr);
  std::string report = system.runtime()->StatsReport();
  EXPECT_NE(report.find("hot-key splits:"), std::string::npos) << report;
  EXPECT_NE(report.find(" split)"), std::string::npos) << report;
}

TEST(ObsIntegrationTest, HotKeyMitigationRefusesWithoutCoveringAttribute) {
  SystemConfig config;
  config.noise = NoiseModel::Perfect();
  config.shard_count = 4;
  config.hotkey_mitigation = true;
  config.hotkey_min_events = 500;
  config.hotkey_split_threshold = 50;
  SaseSystem system(StoreLayout::RetailDemo(), config);
  // Key-partitioned stateful pattern whose only equivalence class is the
  // TagId partition key: no second covering attribute, so splitting the hot
  // key would break value-partition locality — the runtime must refuse and
  // surface the refusal.
  auto id = system.RegisterMonitoringQuery("pairs", kQueries[0], nullptr);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  Catalog catalog = Catalog::RetailDemo();
  testing::StreamBuilder stream(&catalog);
  for (int i = 0; i < 2000; ++i) {
    stream.Add("SHELF_READING", 1 + i / 100,
               i % 10 == 9 ? "cold-" + std::to_string(i) : "HOT", 1);
  }
  for (const EventPtr& event : stream.events()) {
    system.event_bus().OnEvent(event);
  }
  system.Flush();
  system.ScrapeMetrics();
  auto samples = ParseProm(system.metrics()->RenderPrometheus());
  EXPECT_EQ(At(samples, "sase_partition_hotkey_splits_total{mode=\"spread\"}"),
            0.0);
  EXPECT_EQ(At(samples,
               "sase_partition_hotkey_splits_total{mode=\"secondary\"}"),
            0.0);
  EXPECT_GE(At(samples, "sase_partition_hotkey_split_refused_total"), 1.0);
  EXPECT_EQ(At(samples, "sase_partition_hotkey_split_active"), 0.0);

  ASSERT_NE(system.runtime(), nullptr);
  std::string report = system.runtime()->StatsReport();
  EXPECT_NE(report.find("hot-key splits:"), std::string::npos) << report;
  EXPECT_NE(report.find("split-refused"), std::string::npos) << report;
}

TEST(ObsIntegrationTest, MetricsSurviveCheckpointKillRecover) {
  std::string dir = ::testing::TempDir() + "/sase_obs_recovery";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  Catalog catalog = Catalog::RetailDemo();
  std::vector<EventPtr> trace = Trace(catalog, 500);
  SystemConfig config;
  config.noise = NoiseModel::Perfect();
  config.shard_count = 2;
  config.runtime_merge_interval = 64;
  config.checkpoint.dir = dir;

  size_t delivered = 0;
  auto collector = [&delivered](const OutputRecord&) { ++delivered; };

  {
    // The "crashed" process: register, checkpoint mid-stream, die unflushed.
    SaseSystem system(StoreLayout::RetailDemo(), config);
    auto id = system.RegisterMonitoringQuery("q0", kQueries[0], collector);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    for (size_t i = 0; i < 250; ++i) {
      if (i == 100) {
        Status taken = system.Checkpoint();
        ASSERT_TRUE(taken.ok()) << taken.ToString();
      }
      system.event_bus().OnEvent(trace[i]);
    }
    // Journal instrumentation recorded one append-latency sample per record.
    system.ScrapeMetrics();
    auto samples = ParseProm(system.metrics()->RenderPrometheus());
    EXPECT_GT(At(samples, "sase_journal_records_total"), 0.0);
    EXPECT_GE(At(samples, "sase_journal_append_latency_ns_count"),
              At(samples, "sase_journal_records_total"));
    EXPECT_EQ(At(samples, "sase_checkpoints_total"), 1.0);
    EXPECT_GT(At(samples, "sase_checkpoint_snapshot_bytes"), 0.0);
    EXPECT_EQ(At(samples, "sase_checkpoint_snapshot_duration_ns_count"), 1.0);
  }

  auto recovered = SaseSystem::Recover(
      dir, StoreLayout::RetailDemo(), config,
      [&collector](const std::string&) -> OutputCallback { return collector; });
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  SaseSystem& system = *recovered.value();
  for (size_t i = 250; i < trace.size(); ++i) {
    system.event_bus().OnEvent(trace[i]);
  }
  system.Flush();

  ASSERT_NE(system.metrics(), nullptr);
  system.ScrapeMetrics();
  auto samples = ParseProm(system.metrics()->RenderPrometheus());

  // Mirrors equal the recovered process's own truth counters.
  EXPECT_EQ(At(samples, "sase_recovery_replayed_records_total"),
            static_cast<double>(system.recovered_journal_records()));
  EXPECT_GT(system.recovered_journal_records(), 0u);
  EXPECT_EQ(At(samples, "sase_recovery_duration_ns_count"), 1.0);
  EXPECT_EQ(At(samples, "sase_delivered_records_total{host=\"runtime\"}") +
                At(samples, "sase_delivered_records_total{host=\"serial\"}"),
            static_cast<double>(system.records_delivered()));
  EXPECT_EQ(At(samples, "sase_engine_events_total{host=\"serial\"}"),
            static_cast<double>(system.engine().Stats().events_processed));
  EXPECT_EQ(At(samples, "sase_checkpoints_total"),
            static_cast<double>(system.checkpoints_taken()));
  EXPECT_GT(At(samples, "sase_journal_records_total"), 0.0);
  EXPECT_EQ(At(samples, "sase_runtime_events_dispatched_total"),
            SumFamily(samples, "sase_stream_events_total"));

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sase
