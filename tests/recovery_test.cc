// End-to-end kill-and-recover tests for the durable checkpoint subsystem:
// a SaseSystem is checkpointed mid-stream, "crashed" (destroyed without a
// flush), recovered from disk, and driven to the end of the stream — the
// concatenation of the crashed process's output and the recovered
// process's output must be byte-identical to one uninterrupted serial run,
// including flush-released tail-negation deferrals, at 1 and 8 shards and
// across randomized crash offsets.

#include "system/sase_system.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "checkpoint/journal.h"
#include "checkpoint/snapshot.h"
#include "db/dump.h"
#include "query/parser.h"
#include "rfid/workload.h"

namespace sase {
namespace {

/// Mixed monitoring workload: key-partitioned middle and tail negation
/// (sharded, stateful, deferral-heavy), a stateless projection, and a
/// non-key pattern that lands on the broadcast worker — exercising the
/// checkpoint's broadcast-window retention.
const std::vector<std::string> kQueries = {
    "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) "
    "WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 120",
    "EVENT SEQ(SHELF_READING x, COUNTER_READING y, !(EXIT_READING z)) "
    "WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 60 "
    "RETURN x.TagId, x.Timestamp AS shelf_ts, y.Timestamp AS counter_ts",
    "EVENT SHELF_READING s WHERE s.AreaId = 2 RETURN s.TagId, s.AreaId",
    "EVENT SEQ(SHELF_READING x, EXIT_READING z) "
    "WHERE x.AreaId = z.AreaId WITHIN 40",
};

/// The state classes snapshot v2's direct operator-state serialization
/// lifted into checkpoint coverage (they all refused with
/// kFailedPrecondition under the v1 window-replay recipe): running
/// aggregates mid-fold, a stateful pattern with no WITHIN bound, and
/// MIN/MAX/AVG folds — mixed with a windowed tail-negation query so the
/// new classes coexist with parked deferral state.
const std::vector<std::string> kV2Queries = {
    "EVENT EXIT_READING e RETURN COUNT(*) AS exits, SUM(e.AreaId) AS areas, "
    "AVG(e.AreaId) AS avg_area",
    "EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE x.TagId = z.TagId "
    "RETURN x.TagId, z.Timestamp AS exit_ts",
    "EVENT SHELF_READING s "
    "RETURN MIN(s.AreaId) AS lo, MAX(s.AreaId) AS hi, COUNT(s.TagId) AS n",
    "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) "
    "WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 120",
};

/// Register kQueries[query] as "q<query>" just before feeding the event at
/// `offset` (offset == trace size: register after the last event).
struct RegistrationPoint {
  size_t offset = 0;
  size_t query = 0;
};

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/sase_recovery_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<EventPtr> Trace(const Catalog& catalog, int64_t count) {
  SyntheticConfig config;
  config.seed = 7;
  config.event_count = count;
  config.tag_count = 40;
  config.area_count = 4;
  SyntheticStreamGenerator generator(&catalog, config);
  return generator.Generate();
}

std::string QueryName(size_t query) { return "q" + std::to_string(query); }

OutputCallback Collector(std::vector<std::string>* lines, size_t query) {
  return [lines, query](const OutputRecord& record) {
    lines->push_back(QueryName(query) + "|" + record.ToString());
  };
}

/// The uninterrupted reference: the same workload through one serial
/// QueryEngine, registrations interleaved at the same offsets.
std::vector<std::string> RunGolden(const Catalog& catalog,
                                   const std::vector<EventPtr>& trace,
                                   const std::vector<RegistrationPoint>& regs,
                                   bool flush = true,
                                   const std::vector<std::string>& queries = kQueries) {
  std::vector<std::string> lines;
  QueryEngine engine(&catalog);
  for (size_t i = 0; i <= trace.size(); ++i) {
    for (const RegistrationPoint& reg : regs) {
      if (reg.offset != i) continue;
      auto id = engine.Register(queries[reg.query], Collector(&lines, reg.query));
      EXPECT_TRUE(id.ok()) << id.status().ToString();
    }
    if (i < trace.size()) engine.OnEvent(trace[i]);
  }
  if (flush) engine.OnFlush();
  return lines;
}

SystemConfig CheckpointedConfig(int shards, const std::string& dir,
                                size_t merge_interval = 64) {
  SystemConfig config;
  config.noise = NoiseModel::Perfect();
  config.shard_count = shards;
  config.runtime_merge_interval = merge_interval;
  config.checkpoint.dir = dir;
  return config;
}

SaseSystem::CallbackFactory Factory(std::vector<std::string>* lines) {
  return [lines](const std::string& name) -> OutputCallback {
    size_t query = static_cast<size_t>(std::atoi(name.c_str() + 1));
    return Collector(lines, query);
  };
}

constexpr size_t kNoCheckpoint = static_cast<size_t>(-1);

/// Drives the crashed process: registers per `regs`, checkpoints before
/// feeding the event at `checkpoint_at`, feeds events [0, crash_at) and
/// dies without flushing. Output is appended to `lines`.
void RunUntilCrash(const std::vector<EventPtr>& trace,
                   const std::vector<RegistrationPoint>& regs,
                   const SystemConfig& config, size_t checkpoint_at,
                   size_t crash_at, std::vector<std::string>* lines,
                   uint64_t* checkpoints_taken = nullptr,
                   const std::vector<std::string>& queries = kQueries) {
  SaseSystem system(StoreLayout::RetailDemo(), config);
  for (size_t i = 0; i < crash_at; ++i) {
    for (const RegistrationPoint& reg : regs) {
      if (reg.offset != i) continue;
      auto id = system.RegisterMonitoringQuery(QueryName(reg.query),
                                               queries[reg.query],
                                               Collector(lines, reg.query));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
    }
    if (i == checkpoint_at) {
      Status taken = system.Checkpoint();
      ASSERT_TRUE(taken.ok()) << taken.ToString();
    }
    system.event_bus().OnEvent(trace[i]);
  }
  if (checkpoints_taken != nullptr) *checkpoints_taken = system.checkpoints_taken();
  // Falling out of scope without Flush == the crash: nothing is persisted
  // beyond what the write-ahead journal and the last snapshot already hold.
}

/// Recovers from `dir` and drives the stream to the end (+flush).
void RecoverAndFinish(const std::vector<EventPtr>& trace,
                      const std::vector<RegistrationPoint>& regs,
                      const SystemConfig& config, size_t crash_at,
                      std::vector<std::string>* lines,
                      const std::vector<std::string>& queries = kQueries) {
  auto recovered = SaseSystem::Recover(config.checkpoint.dir,
                                       StoreLayout::RetailDemo(), config,
                                       Factory(lines));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  SaseSystem& system = *recovered.value();
  for (size_t i = crash_at; i <= trace.size(); ++i) {
    for (const RegistrationPoint& reg : regs) {
      if (reg.offset != i) continue;
      auto id = system.RegisterMonitoringQuery(QueryName(reg.query),
                                               queries[reg.query],
                                               Collector(lines, reg.query));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
    }
    if (i < trace.size()) system.event_bus().OnEvent(trace[i]);
  }
  system.Flush();
}

/// Whole kill-and-recover cycle; returns the concatenated output.
std::vector<std::string> CrashRecoverRun(
    const std::vector<EventPtr>& trace,
    const std::vector<RegistrationPoint>& regs, int shards,
    size_t checkpoint_at, size_t crash_at, const std::string& dir,
    const std::vector<std::string>& queries = kQueries) {
  std::vector<std::string> lines;
  SystemConfig config = CheckpointedConfig(shards, dir);
  RunUntilCrash(trace, regs, config, checkpoint_at, crash_at, &lines, nullptr,
                queries);
  RecoverAndFinish(trace, regs, config, crash_at, &lines, queries);
  return lines;
}

std::vector<RegistrationPoint> AllUpfront() {
  return {{0, 0}, {0, 1}, {0, 2}, {0, 3}};
}

TEST(RecoveryGoldenTest, KillAndRecoverByteIdenticalAtOneAndEightShards) {
  Catalog catalog = Catalog::RetailDemo();
  auto trace = Trace(catalog, 1200);
  auto regs = AllUpfront();
  auto golden = RunGolden(catalog, trace, regs);
  ASSERT_GT(golden.size(), 100u);  // non-trivial workload

  for (int shards : {1, 8}) {
    std::string dir = FreshDir("golden_" + std::to_string(shards));
    auto lines = CrashRecoverRun(trace, regs, shards, /*checkpoint_at=*/500,
                                 /*crash_at=*/900, dir);
    EXPECT_EQ(golden, lines) << "shards=" << shards;
  }
}

/// Whether a system runs a runtime follows its shard count, checkpointing
/// or not: at one shard every query lives on the serial engine, and a
/// recovered system stays runtime-less. A snapshot taken by a runtime that
/// a Resize shrank to one shard re-attaches a one-shard runtime on
/// recovery, so its queries and their delivery cursor class resume where
/// they were — byte-identical to serial either way.
TEST(RecoveryGoldenTest, RuntimeAttachmentFollowsTheSnapshot) {
  Catalog catalog = Catalog::RetailDemo();
  auto trace = Trace(catalog, 1200);
  auto regs = AllUpfront();
  auto golden = RunGolden(catalog, trace, regs);

  {
    std::string dir = FreshDir("serial_only");
    SystemConfig config = CheckpointedConfig(/*shards=*/1, dir);
    EXPECT_EQ(SaseSystem(StoreLayout::RetailDemo(), config).runtime(), nullptr);
    std::vector<std::string> lines;
    RunUntilCrash(trace, regs, config, /*checkpoint_at=*/500,
                  /*crash_at=*/900, &lines);
    auto recovered = SaseSystem::Recover(dir, StoreLayout::RetailDemo(),
                                         config, Factory(&lines));
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered.value()->runtime(), nullptr);
  }

  std::string dir = FreshDir("resized_to_one");
  SystemConfig config = CheckpointedConfig(/*shards=*/2, dir);
  std::vector<std::string> lines;
  {
    SaseSystem system(StoreLayout::RetailDemo(), config);
    for (const RegistrationPoint& reg : regs) {
      ASSERT_TRUE(system
                      .RegisterMonitoringQuery(QueryName(reg.query),
                                               kQueries[reg.query],
                                               Collector(&lines, reg.query))
                      .ok());
    }
    for (size_t i = 0; i < 900; ++i) {
      if (i == 300) {
        ASSERT_TRUE(system.runtime()->Resize(1).ok());
      }
      if (i == 500) {
        ASSERT_TRUE(system.Checkpoint().ok());
      }
      system.event_bus().OnEvent(trace[i]);
    }
    // Crash: destroyed without a flush.
  }
  auto recovered = SaseSystem::Recover(dir, StoreLayout::RetailDemo(), config,
                                       Factory(&lines));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_NE(recovered.value()->runtime(), nullptr);
  EXPECT_EQ(recovered.value()->runtime()->shard_count(), 1);
  for (size_t i = 900; i < trace.size(); ++i) {
    recovered.value()->event_bus().OnEvent(trace[i]);
  }
  recovered.value()->Flush();
  EXPECT_EQ(golden, lines);
}

/// SystemConfig::runtime_elastic reaches the runtime. Both occupancy
/// thresholds sit at 2.0 while a queue's occupancy fraction never exceeds
/// 1, so every elastic sample reads idle: with hysteresis 1 the autoscaler
/// shrinks 4 -> 2 -> 1 at fixed event counts, independent of timing.
/// Output stays byte-identical to serial, uninterrupted and across a
/// checkpoint taken between the shrinks, a kill and a recovery.
TEST(RecoveryGoldenTest, ElasticShrinksStayByteIdenticalAcrossRecovery) {
  Catalog catalog = Catalog::RetailDemo();
  auto trace = Trace(catalog, 1200);
  auto regs = AllUpfront();
  auto golden = RunGolden(catalog, trace, regs);

  // An empty `dir` runs without checkpointing.
  auto elastic = [](const std::string& dir) {
    SystemConfig config = CheckpointedConfig(/*shards=*/4, dir);
    config.runtime_elastic.enabled = true;
    config.runtime_elastic.min_shards = 1;
    config.runtime_elastic.check_interval = 100;
    config.runtime_elastic.hysteresis = 1;
    config.runtime_elastic.grow_queue_frac = 2.0;
    config.runtime_elastic.shrink_queue_frac = 2.0;
    return config;
  };

  {
    SystemConfig config = elastic("");
    std::vector<std::string> lines;
    SaseSystem system(StoreLayout::RetailDemo(), config);
    for (const RegistrationPoint& reg : regs) {
      ASSERT_TRUE(system
                      .RegisterMonitoringQuery(QueryName(reg.query),
                                               kQueries[reg.query],
                                               Collector(&lines, reg.query))
                      .ok());
    }
    for (const EventPtr& event : trace) system.event_bus().OnEvent(event);
    system.Flush();
    ASSERT_NE(system.runtime(), nullptr);
    EXPECT_GE(system.runtime()->resize_count(), 1u);
    EXPECT_LT(system.runtime()->shard_count(), 4);
    EXPECT_EQ(golden, lines);
  }

  std::string dir = FreshDir("elastic");
  SystemConfig config = elastic(dir);
  std::vector<std::string> lines;
  RunUntilCrash(trace, regs, config, /*checkpoint_at=*/500, /*crash_at=*/900,
                &lines);
  auto recovered = SaseSystem::Recover(dir, StoreLayout::RetailDemo(), config,
                                       Factory(&lines));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_NE(recovered.value()->runtime(), nullptr);
  // The snapshot carries the shrunk layout, not the configured 4 shards.
  EXPECT_LT(recovered.value()->runtime()->shard_count(), 4);
  for (size_t i = 900; i < trace.size(); ++i) {
    recovered.value()->event_bus().OnEvent(trace[i]);
  }
  recovered.value()->Flush();
  EXPECT_EQ(golden, lines);
}

TEST(RecoveryGoldenTest, RandomizedCrashOffsetsStayByteIdentical) {
  Catalog catalog = Catalog::RetailDemo();
  auto trace = Trace(catalog, 1200);
  auto regs = AllUpfront();
  auto golden = RunGolden(catalog, trace, regs);

  // Crash offsets chosen to land mid-batch (not multiples of the runtime's
  // batch or merge cadence) and inside tail-negation windows; 501 crashes
  // one event after the checkpoint, 1199 one before the end.
  for (size_t crash_at : {501u, 537u, 640u, 811u, 1000u, 1199u}) {
    std::string dir = FreshDir("offset_" + std::to_string(crash_at));
    auto lines = CrashRecoverRun(trace, regs, /*shards=*/2,
                                 /*checkpoint_at=*/500, crash_at, dir);
    EXPECT_EQ(golden, lines) << "crash_at=" << crash_at;
  }

  // Journal-only recovery: the process dies before its first checkpoint —
  // the whole prefix replays from the write-ahead journal alone.
  for (size_t crash_at : {353u, 750u}) {
    std::string dir = FreshDir("journal_only_" + std::to_string(crash_at));
    auto lines = CrashRecoverRun(trace, regs, /*shards=*/2, kNoCheckpoint,
                                 crash_at, dir);
    EXPECT_EQ(golden, lines) << "journal-only crash_at=" << crash_at;
  }
}

TEST(RecoveryGoldenTest, MidJournalRegistrationIsReplayed) {
  Catalog catalog = Catalog::RetailDemo();
  auto trace = Trace(catalog, 1200);
  // q1 registers after the checkpoint (its registration only exists in the
  // journal), q3 after the crash (registered on the recovered system).
  std::vector<RegistrationPoint> regs = {{0, 0}, {650, 1}, {300, 2}, {950, 3}};
  auto golden = RunGolden(catalog, trace, regs);
  ASSERT_GT(golden.size(), 50u);

  std::string dir = FreshDir("midreg");
  auto lines = CrashRecoverRun(trace, regs, /*shards=*/2, /*checkpoint_at=*/500,
                               /*crash_at=*/900, dir);
  EXPECT_EQ(golden, lines);
}

TEST(RecoveryGoldenTest, AutomaticCheckpointPolicyCoversTheCrash) {
  Catalog catalog = Catalog::RetailDemo();
  auto trace = Trace(catalog, 1200);
  auto regs = AllUpfront();
  auto golden = RunGolden(catalog, trace, regs);

  std::string dir = FreshDir("auto_policy");
  SystemConfig config = CheckpointedConfig(/*shards=*/2, dir);
  config.checkpoint.checkpoint_interval_events = 200;
  std::vector<std::string> lines;
  uint64_t taken = 0;
  RunUntilCrash(trace, regs, config, kNoCheckpoint, /*crash_at=*/730, &lines,
                &taken);
  EXPECT_GE(taken, 3u);  // the policy checkpointed on its own
  RecoverAndFinish(trace, regs, config, /*crash_at=*/730, &lines);
  EXPECT_EQ(golden, lines);
}

TEST(RecoveryGoldenTest, CorruptJournalTailRecoversTheValidPrefix) {
  Catalog catalog = Catalog::RetailDemo();
  auto trace = Trace(catalog, 1200);
  auto regs = AllUpfront();
  // Reference without end-of-stream flush: the truncated run never reaches
  // a flush, so the comparable property is prefix equality.
  auto golden_noflush = RunGolden(catalog, trace, regs, /*flush=*/false);

  std::string dir = FreshDir("corrupt_tail");
  SystemConfig config = CheckpointedConfig(/*shards=*/2, dir);
  std::vector<std::string> lines;
  RunUntilCrash(trace, regs, config, /*checkpoint_at=*/500, /*crash_at=*/900,
                &lines);
  size_t crashed_lines = lines.size();

  // Tear the live journal segment mid-record, as a crash during an append
  // would. Epoch 1 = the journal opened by the checkpoint at offset 500.
  std::string segment = dir + "/" + checkpoint::SegmentFileName(1, 0);
  ASSERT_TRUE(std::filesystem::exists(segment));
  auto size = std::filesystem::file_size(segment);
  std::filesystem::resize_file(segment, size - 7);

  std::vector<std::string> recovered_lines;
  auto recovered = SaseSystem::Recover(dir, StoreLayout::RetailDemo(), config,
                                       Factory(&recovered_lines));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered.value()->recovered_journal_truncated());
  EXPECT_GT(recovered.value()->recovered_journal_records(), 0u);

  // Recovery stopped cleanly at the last valid record: the combined output
  // is byte-identical to a prefix of the uninterrupted run — no duplicates,
  // no gaps, no garbage from the torn tail.
  lines.insert(lines.end(), recovered_lines.begin(), recovered_lines.end());
  ASSERT_GE(lines.size(), crashed_lines);
  ASSERT_LE(lines.size(), golden_noflush.size());
  EXPECT_TRUE(std::equal(lines.begin(), lines.end(), golden_noflush.begin()))
      << "combined output is not a golden prefix";

  // Chained crash: the first recovery must have cut the torn tail out of
  // the segment, or this second scan would stop at the OLD crash point and
  // silently drop everything journaled since. Feed more events on the
  // recovered system, crash again without a checkpoint in between, recover
  // again: the second scan must be clean and cover the new events.
  uint64_t first_replay = recovered.value()->recovered_journal_records();
  constexpr size_t kMoreEvents = 200;
  for (size_t i = 900; i < 900 + kMoreEvents; ++i) {
    recovered.value()->event_bus().OnEvent(trace[i]);
  }
  recovered.value().reset();  // second crash, un-flushed

  std::vector<std::string> second_lines;
  auto second = SaseSystem::Recover(dir, StoreLayout::RetailDemo(), config,
                                    Factory(&second_lines));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_FALSE(second.value()->recovered_journal_truncated());
  EXPECT_GE(second.value()->recovered_journal_records(),
            first_replay + kMoreEvents);
}

TEST(RecoveryGoldenTest, EventDatabaseRecoversExactly) {
  Catalog catalog = Catalog::RetailDemo();
  auto trace = Trace(catalog, 1000);
  constexpr const char* kLocationRule =
      "EVENT ANY(SHELF_READING s) "
      "RETURN _updateLocation(s.TagId, s.AreaId, s.Timestamp)";

  // Uninterrupted reference run (checkpointing off; archiving rules always
  // execute on the serial engine, so hosting differences cannot leak in).
  std::string golden_dump;
  {
    SystemConfig config;
    config.noise = NoiseModel::Perfect();
    config.shard_count = 2;
    SaseSystem system(StoreLayout::RetailDemo(), config);
    ASSERT_TRUE(system.RegisterArchivingRule("loc", kLocationRule).ok());
    for (const auto& event : trace) system.event_bus().OnEvent(event);
    system.Flush();
    std::ostringstream out;
    ASSERT_TRUE(db::Dump(system.database(), &out).ok());
    golden_dump = out.str();
  }

  std::string dir = FreshDir("database");
  SystemConfig config = CheckpointedConfig(/*shards=*/2, dir);
  {
    SaseSystem system(StoreLayout::RetailDemo(), config);
    ASSERT_TRUE(system.RegisterArchivingRule("loc", kLocationRule).ok());
    for (size_t i = 0; i < 800; ++i) {
      if (i == 400) {
        ASSERT_TRUE(system.Checkpoint().ok());
      }
      system.event_bus().OnEvent(trace[i]);
    }
  }
  auto recovered = SaseSystem::Recover(dir, StoreLayout::RetailDemo(), config);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  for (size_t i = 800; i < trace.size(); ++i) {
    recovered.value()->event_bus().OnEvent(trace[i]);
  }
  recovered.value()->Flush();

  std::ostringstream out;
  ASSERT_TRUE(db::Dump(recovered.value()->database(), &out).ok());
  EXPECT_EQ(golden_dump, out.str());

  // The restored Event Database also answers track-and-trace queries.
  auto locations = recovered.value()->ExecuteSql(
      "SELECT * FROM location_history LIMIT 5");
  EXPECT_TRUE(locations.ok()) << locations.status().ToString();
}

TEST(RecoveryPreconditionTest, CheckpointDuringResizeIsRefused) {
  Catalog catalog = Catalog::RetailDemo();
  auto trace = Trace(catalog, 400);
  std::string dir = FreshDir("during_resize");
  // merge_interval 0: no incremental merges, so records are still pending
  // when Resize quiesces — its delivery callbacks run mid-resize.
  SystemConfig config = CheckpointedConfig(/*shards=*/2, dir,
                                           /*merge_interval=*/0);
  SaseSystem system(StoreLayout::RetailDemo(), config);

  std::vector<Status> during_resize;
  auto id = system.RegisterMonitoringQuery(
      "q0", kQueries[0], [&](const OutputRecord&) {
        if (system.runtime()->resizing() && during_resize.empty()) {
          during_resize.push_back(system.Checkpoint());
        }
      });
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  for (const auto& event : trace) system.event_bus().OnEvent(event);

  Status resized = system.runtime()->Resize(4);
  ASSERT_TRUE(resized.ok()) << resized.ToString();
  ASSERT_FALSE(during_resize.empty())
      << "no records were delivered at the resize quiesce point";
  EXPECT_EQ(during_resize.front().code(), StatusCode::kFailedPrecondition)
      << during_resize.front().ToString();

  // After the resize completes, the same checkpoint succeeds.
  EXPECT_TRUE(system.Checkpoint().ok());
}

TEST(RecoveryPreconditionTest, PreParsedAstQueryRefusesCheckpointByName) {
  // The one per-query refusal left after snapshot v2: a query registered
  // from a pre-parsed AST has no text to re-register on recovery. The error
  // names the offender.
  std::string dir = FreshDir("preparsed");
  SaseSystem system(StoreLayout::RetailDemo(),
                    CheckpointedConfig(/*shards=*/2, dir));
  auto parsed = Parser::Parse("EVENT SHELF_READING s RETURN s.TagId");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto id = system.engine().Register(std::move(parsed).value(),
                                     [](const OutputRecord&) {});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  Status refused = system.Checkpoint();
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition)
      << refused.ToString();
  EXPECT_NE(refused.message().find("#" + std::to_string(id.value())),
            std::string::npos)
      << refused.ToString();
  EXPECT_NE(refused.message().find("pre-parsed AST"), std::string::npos)
      << refused.ToString();
}

// --- snapshot v2: state classes lifted into checkpoint coverage ----------

/// Randomized crash offsets in (checkpoint_at, trace_size], seeded so CI is
/// reproducible; the seed and offsets ride in the failure message.
std::vector<size_t> RandomCrashOffsets(uint64_t seed, size_t checkpoint_at,
                                       size_t trace_size, size_t count) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<size_t> dist(checkpoint_at + 1, trace_size);
  std::vector<size_t> offsets;
  for (size_t i = 0; i < count; ++i) offsets.push_back(dist(rng));
  return offsets;
}

TEST(RecoveryV2Test, AggregatesCheckpointMidFoldAndRecover) {
  Catalog catalog = Catalog::RetailDemo();
  auto trace = Trace(catalog, 1200);
  // All four kV2Queries up front: COUNT/SUM/AVG and MIN/MAX folds mid-fold
  // at the checkpoint, a WITHIN-less stateful pattern, and a windowed
  // tail-negation query.
  std::vector<RegistrationPoint> regs = {{0, 0}, {0, 1}, {0, 2}, {0, 3}};
  auto golden = RunGolden(catalog, trace, regs, /*flush=*/true, kV2Queries);
  ASSERT_GT(golden.size(), 100u);

  for (int shards : {1, 8}) {
    for (size_t crash_at : RandomCrashOffsets(/*seed=*/41, /*checkpoint_at=*/500,
                                              trace.size(), /*count=*/3)) {
      std::string dir = FreshDir("v2_agg_" + std::to_string(shards) + "_" +
                                 std::to_string(crash_at));
      auto lines = CrashRecoverRun(trace, regs, shards, /*checkpoint_at=*/500,
                                   crash_at, dir, kV2Queries);
      EXPECT_EQ(golden, lines)
          << "seed=41 shards=" << shards << " crash_at=" << crash_at;
    }
  }
}

TEST(RecoveryV2Test, WithinLessStatefulQueryRecoversAcrossLateCheckpoint) {
  // The WITHIN-less pattern's stacks reach back to the beginning of the
  // stream; a late checkpoint must carry them whole (no finite replay
  // window exists — exactly what v1 refused).
  Catalog catalog = Catalog::RetailDemo();
  auto trace = Trace(catalog, 1200);
  std::vector<RegistrationPoint> regs = {{0, 1}, {0, 0}};
  auto golden = RunGolden(catalog, trace, regs, /*flush=*/true, kV2Queries);
  ASSERT_GT(golden.size(), 50u);

  for (int shards : {1, 8}) {
    for (size_t crash_at : RandomCrashOffsets(/*seed=*/43, /*checkpoint_at=*/900,
                                              trace.size(), /*count=*/3)) {
      std::string dir = FreshDir("v2_unbounded_" + std::to_string(shards) +
                                 "_" + std::to_string(crash_at));
      auto lines = CrashRecoverRun(trace, regs, shards, /*checkpoint_at=*/900,
                                   crash_at, dir, kV2Queries);
      EXPECT_EQ(golden, lines)
          << "seed=43 shards=" << shards << " crash_at=" << crash_at;
    }
  }
}

/// Hybrid stream+database monitoring query (serial-engine hosted) plus an
/// archiving rule and a runtime-hosted query. Serial-class and
/// runtime-class deliveries interleave cadence-dependently, so the
/// byte-identity contract is per query: each query's own line sequence
/// must equal the uninterrupted run's.
TEST(RecoveryV2Test, HybridSerialEngineQueryRecoversByteIdentical) {
  const std::string kHybrid =
      "EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE x.TagId = z.TagId "
      "WITHIN 80 RETURN x.TagId, _retrieveLocation(z.AreaId) AS last_seen";
  const std::string kRule =
      "EVENT ANY(SHELF_READING s) "
      "RETURN _updateLocation(s.TagId, s.AreaId, s.Timestamp)";

  Catalog catalog = Catalog::RetailDemo();
  auto trace = Trace(catalog, 1000);

  using PerQuery = std::map<std::string, std::vector<std::string>>;
  auto collector = [](PerQuery* out, const std::string& name) -> OutputCallback {
    return [out, name](const OutputRecord& record) {
      (*out)[name].push_back(record.ToString());
    };
  };
  auto drive = [&](SaseSystem& system, PerQuery* out, size_t from, size_t to,
                   bool flush) {
    if (from == 0) {
      ASSERT_TRUE(system.RegisterArchivingRule("loc", kRule).ok());
      ASSERT_TRUE(system
                      .RegisterMonitoringQuery("hybrid", kHybrid,
                                               collector(out, "hybrid"))
                      .ok());
      ASSERT_TRUE(system
                      .RegisterMonitoringQuery("q0", kQueries[0],
                                               collector(out, "q0"))
                      .ok());
    }
    for (size_t i = from; i < to; ++i) system.event_bus().OnEvent(trace[i]);
    if (flush) system.Flush();
  };

  for (int shards : {1, 8}) {
    // Uninterrupted reference under the same config (fresh directory).
    PerQuery golden;
    {
      SaseSystem system(
          StoreLayout::RetailDemo(),
          CheckpointedConfig(shards, FreshDir("v2_hybrid_golden_" +
                                              std::to_string(shards))));
      drive(system, &golden, 0, trace.size(), /*flush=*/true);
    }
    ASSERT_GT(golden["hybrid"].size(), 20u);
    ASSERT_GT(golden["q0"].size(), 20u);

    for (size_t crash_at : RandomCrashOffsets(/*seed=*/47, /*checkpoint_at=*/400,
                                              trace.size(), /*count=*/3)) {
      std::string dir = FreshDir("v2_hybrid_" + std::to_string(shards) + "_" +
                                 std::to_string(crash_at));
      SystemConfig config = CheckpointedConfig(shards, dir);
      PerQuery lines;
      {
        SaseSystem system(StoreLayout::RetailDemo(), config);
        drive(system, &lines, 0, 400, /*flush=*/false);
        ASSERT_TRUE(system.Checkpoint().ok());
        for (size_t i = 400; i < crash_at; ++i) {
          system.event_bus().OnEvent(trace[i]);
        }
        // Crash: destroyed without a flush.
      }
      auto recovered = SaseSystem::Recover(
          dir, StoreLayout::RetailDemo(), config,
          [&](const std::string& name) { return collector(&lines, name); });
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      for (size_t i = crash_at; i < trace.size(); ++i) {
        recovered.value()->event_bus().OnEvent(trace[i]);
      }
      recovered.value()->Flush();
      EXPECT_EQ(golden, lines)
          << "seed=47 shards=" << shards << " crash_at=" << crash_at;
    }
  }
}

// --- snapshot format compatibility ---------------------------------------

/// A damaged engine-state section must fail the whole recovery with a clear
/// error — never restore half a system.
TEST(SnapshotCompatTest, CorruptEngineStateSectionFailsRecoveryCleanly) {
  Catalog catalog = Catalog::RetailDemo();
  auto trace = Trace(catalog, 400);
  std::string dir = FreshDir("corrupt_section");
  SystemConfig config = CheckpointedConfig(/*shards=*/2, dir);
  {
    SaseSystem system(StoreLayout::RetailDemo(), config);
    std::vector<std::string> ignored;
    ASSERT_TRUE(system
                    .RegisterMonitoringQuery("agg", kV2Queries[0],
                                             Collector(&ignored, 0))
                    .ok());
    for (size_t i = 0; i < 300; ++i) system.event_bus().OnEvent(trace[i]);
    ASSERT_TRUE(system.Checkpoint().ok());
    for (size_t i = 300; i < 350; ++i) system.event_bus().OnEvent(trace[i]);
  }

  // Flip one byte inside the first section's payload (the byte right after
  // the SECTION header line), breaking its CRC.
  std::string path = dir + "/snap-1/engine.sase";
  ASSERT_TRUE(std::filesystem::exists(path));
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    contents = buffer.str();
  }
  size_t section = contents.find("SECTION ");
  ASSERT_NE(section, std::string::npos);
  size_t payload = contents.find('\n', section);
  ASSERT_NE(payload, std::string::npos);
  contents[payload + 1] ^= 0x20;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
  }

  std::vector<std::string> lines;
  auto recovered = SaseSystem::Recover(dir, StoreLayout::RetailDemo(), config,
                                       Factory(&lines));
  ASSERT_FALSE(recovered.ok()) << "recovered from a corrupt checkpoint";
  EXPECT_EQ(recovered.status().code(), StatusCode::kParseError)
      << recovered.status().ToString();
  EXPECT_NE(recovered.status().message().find("engine-state section"),
            std::string::npos)
      << recovered.status().ToString();
  EXPECT_NE(recovered.status().message().find("CRC"), std::string::npos)
      << recovered.status().ToString();
  EXPECT_TRUE(lines.empty()) << "partial restore delivered output";
}

TEST(RecoveryV2Test, CrashOnJournalSegmentRotationBoundaryWithFsyncAlways) {
  Catalog catalog = Catalog::RetailDemo();
  auto trace = Trace(catalog, 900);
  std::vector<RegistrationPoint> regs = {{0, 0}, {0, 1}, {0, 2}, {0, 3}};
  auto golden = RunGolden(catalog, trace, regs, /*flush=*/true, kV2Queries);

  auto config_for = [&](const std::string& dir) {
    SystemConfig config = CheckpointedConfig(/*shards=*/2, dir);
    config.checkpoint.journal_rotate_bytes = 4096;  // rotate every few dozen
    config.checkpoint.journal_fsync = checkpoint::FsyncPolicy::kAlways;
    return config;
  };

  // Probe run with identical config: journal byte counts are a
  // deterministic function of the event contents, so the offsets where a
  // new segment file appears are the same in the measured runs below.
  std::vector<size_t> boundaries;
  {
    std::string dir = FreshDir("rotation_probe");
    SystemConfig config = config_for(dir);
    std::vector<std::string> ignored;
    SaseSystem system(StoreLayout::RetailDemo(), config);
    for (size_t i = 0; i < regs.size(); ++i) {
      ASSERT_TRUE(system
                      .RegisterMonitoringQuery(QueryName(regs[i].query),
                                               kV2Queries[regs[i].query],
                                               Collector(&ignored,
                                                         regs[i].query))
                      .ok());
    }
    size_t segments = 1;
    for (size_t i = 0; i < trace.size(); ++i) {
      system.event_bus().OnEvent(trace[i]);
      size_t now = 0;
      for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().filename().string().rfind("journal-", 0) == 0) ++now;
      }
      if (now > segments) {
        segments = now;
        // i+1 = crash immediately after the append that rotated segments.
        boundaries.push_back(i + 1);
      }
    }
  }
  ASSERT_GE(boundaries.size(), 2u) << "rotate_bytes too large for the trace";

  for (size_t crash_at : {boundaries[0], boundaries[1]}) {
    std::string dir = FreshDir("rotation_" + std::to_string(crash_at));
    SystemConfig config = config_for(dir);
    std::vector<std::string> lines;
    RunUntilCrash(trace, regs, config, /*checkpoint_at=*/kNoCheckpoint,
                  crash_at, &lines, nullptr, kV2Queries);
    RecoverAndFinish(trace, regs, config, crash_at, &lines, kV2Queries);
    EXPECT_EQ(golden, lines) << "rotation-boundary crash_at=" << crash_at;
  }
}

// --- exactly-once output ---------------------------------------------------

TEST(ExactlyOnceTest, IdempotentSinkDropsReDeliveredStamps) {
  std::vector<std::string> forwarded;
  auto sink = std::make_shared<IdempotentSink>(
      [&forwarded](const OutputRecord& record) {
        forwarded.push_back((record.cursor_runtime_hosted ? "r" : "s") +
                            std::to_string(record.cursor_position));
      });
  OutputCallback deliver = IdempotentSink::Wrap(sink);
  auto stamped = [](bool runtime, uint64_t position) {
    OutputRecord record;
    record.cursor_runtime_hosted = runtime;
    record.cursor_position = position;
    return record;
  };
  deliver(stamped(true, 1));
  deliver(stamped(true, 2));
  deliver(stamped(false, 1));  // the serial class has its own watermark
  deliver(stamped(true, 2));   // recovery re-delivery: dropped
  deliver(stamped(true, 1));   // covered by the watermark: dropped
  deliver(stamped(true, 3));
  deliver(stamped(false, 0));  // unstamped records always pass through
  EXPECT_EQ(sink->dropped(), 2u);
  EXPECT_EQ(forwarded,
            (std::vector<std::string>{"r1", "r2", "s1", "r3", "s0"}));
}

/// The tentpole end to end: under AckMode::kConsumer a crash re-delivers
/// everything past the DURABLE acked cursor (in-memory acks and the pending
/// group-commit batch die with the process), every re-delivery carries its
/// original cursor stamp, and a consumer that dedups by stamp sees each
/// record exactly once — byte-identical to an uninterrupted run.
TEST(ExactlyOnceTest, ConsumerAckedCursorGatesRecoveryWithOriginalStamps) {
  const std::string kHybrid =
      "EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE x.TagId = z.TagId "
      "WITHIN 80 RETURN x.TagId, _retrieveLocation(z.AreaId) AS last_seen";
  const std::string kRule =
      "EVENT ANY(SHELF_READING s) "
      "RETURN _updateLocation(s.TagId, s.AreaId, s.Timestamp)";

  Catalog catalog = Catalog::RetailDemo();
  auto trace = Trace(catalog, 800);

  // The consumer outlives both processes (its dedup state is its own
  // durability concern). It acks only every third stamp, so the watermark
  // trails delivery and the crash window is real.
  struct Consumer {
    std::map<std::string, std::vector<std::string>> lines;  // deduped
    std::map<std::pair<bool, uint64_t>, std::string> stamps;
    uint64_t duplicates = 0;
    uint64_t stamp_mismatches = 0;
    SaseSystem* system = nullptr;  // ack target; null during recovery replay
  };
  auto callback = [](Consumer* consumer,
                     const std::string& name) -> OutputCallback {
    return [consumer, name](const OutputRecord& record) {
      EXPECT_NE(record.cursor_position, 0u) << "unstamped delivery";
      std::string line = name + "|" + record.ToString();
      auto key = std::make_pair(record.cursor_runtime_hosted,
                                record.cursor_position);
      auto [it, fresh] = consumer->stamps.emplace(key, line);
      if (fresh) {
        consumer->lines[name].push_back(line);
      } else {
        ++consumer->duplicates;
        if (it->second != line) ++consumer->stamp_mismatches;
      }
      if (consumer->system != nullptr && record.cursor_position % 3 == 0) {
        Status acked = consumer->system->AckOutput(record);
        EXPECT_TRUE(acked.ok()) << acked.ToString();
      }
    };
  };
  auto register_all = [&](SaseSystem& system, Consumer* consumer) {
    ASSERT_TRUE(system.RegisterArchivingRule("loc", kRule).ok());
    ASSERT_TRUE(system
                    .RegisterMonitoringQuery("hybrid", kHybrid,
                                             callback(consumer, "hybrid"))
                    .ok());
    ASSERT_TRUE(system
                    .RegisterMonitoringQuery("q0", kQueries[0],
                                             callback(consumer, "q0"))
                    .ok());
    ASSERT_TRUE(system
                    .RegisterMonitoringQuery("q2", kQueries[2],
                                             callback(consumer, "q2"))
                    .ok());
  };
  auto config_for = [&](int shards, const std::string& dir) {
    SystemConfig config = CheckpointedConfig(shards, dir);
    config.checkpoint.ack_mode = checkpoint::AckMode::kConsumer;
    config.checkpoint.ack_commit_interval = 5;
    return config;
  };

  for (int shards : {2, 8}) {
    // Uninterrupted reference under the identical config.
    Consumer golden;
    {
      SaseSystem system(
          StoreLayout::RetailDemo(),
          config_for(shards, FreshDir("ack_golden_" + std::to_string(shards))));
      golden.system = &system;
      register_all(system, &golden);
      for (const EventPtr& event : trace) system.event_bus().OnEvent(event);
      system.Flush();
      golden.system = nullptr;
    }
    ASSERT_EQ(golden.duplicates, 0u);
    ASSERT_GT(golden.lines["hybrid"].size(), 20u);  // serial class is live
    ASSERT_GT(golden.lines["q0"].size(), 20u);      // runtime class is live

    std::string dir = FreshDir("ack_crash_" + std::to_string(shards));
    SystemConfig config = config_for(shards, dir);
    Consumer consumer;
    uint64_t crashed_acked_runtime = 0;
    uint64_t crashed_acked_serial = 0;
    {
      SaseSystem system(StoreLayout::RetailDemo(), config);
      consumer.system = &system;
      register_all(system, &consumer);
      for (size_t i = 0; i < 250; ++i) system.event_bus().OnEvent(trace[i]);
      ASSERT_TRUE(system.Checkpoint().ok());
      for (size_t i = 250; i < 500; ++i) system.event_bus().OnEvent(trace[i]);
      crashed_acked_runtime = system.acked_runtime();
      crashed_acked_serial = system.acked_serial();
      consumer.system = nullptr;
      // Crash without Flush: the pending ack batch (acked but not yet
      // committed — the ack-to-fsync window) dies here too.
    }

    // The durable cursor, read back the way recovery will: the snapshot's
    // ACKED line superseded by any ack-cursor records journaled after it.
    auto manifest = checkpoint::ReadManifest(dir);
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    auto snap = checkpoint::ReadSnapshot(dir, manifest.value(), nullptr);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    uint64_t durable_runtime = snap.value().acked_runtime;
    uint64_t durable_serial = snap.value().acked_serial;
    auto scan = checkpoint::ReadJournal(dir, manifest.value());
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    for (const checkpoint::JournalRecord& record : scan.value().records) {
      if (record.kind == checkpoint::JournalRecord::Kind::kAckCursor) {
        durable_runtime = std::max(durable_runtime, record.acked_runtime);
        durable_serial = std::max(durable_serial, record.acked_serial);
      }
    }
    ASSERT_GT(durable_runtime + durable_serial, 0u);
    EXPECT_LE(durable_runtime, crashed_acked_runtime);
    EXPECT_LE(durable_serial, crashed_acked_serial);

    auto recovered = SaseSystem::Recover(
        dir, StoreLayout::RetailDemo(), config,
        [&](const std::string& name) { return callback(&consumer, name); });
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    // The recovery gate IS the durable cursor: nothing at or below it was
    // re-delivered, everything past it was (with its original stamp).
    EXPECT_EQ(recovered.value()->acked_runtime(), durable_runtime);
    EXPECT_EQ(recovered.value()->acked_serial(), durable_serial);
    EXPECT_GT(consumer.duplicates, 0u)
        << "no re-deliveries: the crash window was empty";
    EXPECT_EQ(consumer.stamp_mismatches, 0u)
        << "a re-delivered record changed content or stamp";

    consumer.system = recovered.value().get();
    for (size_t i = 500; i < trace.size(); ++i) {
      recovered.value()->event_bus().OnEvent(trace[i]);
    }
    recovered.value()->Flush();
    EXPECT_EQ(golden.lines, consumer.lines)
        << "deduped output diverged at " << shards << " shards";
    EXPECT_EQ(consumer.stamp_mismatches, 0u);
  }
}

/// The reader accepts one snapshot format. A checkpoint directory
/// downgraded on disk to format 2 (v2 state header, no ACKED line, manifest
/// format 2) fails recovery with kInvalidArgument naming the format found
/// and the format supported; so does one whose manifest has no format line
/// at all. A newer format is refused the same way.
TEST(SnapshotCompatTest, OlderSnapshotFormatsAreRefusedByName) {
  Catalog catalog = Catalog::RetailDemo();
  auto trace = Trace(catalog, 600);
  auto regs = AllUpfront();

  std::string dir = FreshDir("old_format");
  std::vector<std::string> lines;
  SystemConfig crashed_config = CheckpointedConfig(/*shards=*/2, dir);
  RunUntilCrash(trace, regs, crashed_config, /*checkpoint_at=*/300,
                /*crash_at=*/450, &lines);

  // Downgrade the snapshot: v2 header, no ACKED line, manifest format 2.
  std::string state_path = dir + "/snap-1/state.sase";
  ASSERT_TRUE(std::filesystem::exists(state_path));
  std::string state;
  {
    std::ifstream in(state_path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    state = buffer.str();
  }
  size_t header = state.find("SASE-CHECKPOINT v4");
  ASSERT_NE(header, std::string::npos);
  state.replace(header, 18, "SASE-CHECKPOINT v2");
  size_t acked = state.find("ACKED ");
  ASSERT_NE(acked, std::string::npos);
  state.erase(acked, state.find('\n', acked) - acked + 1);
  {
    std::ofstream out(state_path, std::ios::trunc);
    out << state;
  }
  auto write_manifest = [&dir](const std::string& format_line) {
    std::ofstream out(dir + "/MANIFEST", std::ios::trunc);
    out << "SASE-MANIFEST v1\nsnapshot 1\n" << format_line;
  };

  SystemConfig config = CheckpointedConfig(/*shards=*/2, dir);
  config.checkpoint.ack_mode = checkpoint::AckMode::kConsumer;
  auto expect_refused = [&](const std::string& format_line,
                            const std::string& found) {
    write_manifest(format_line);
    auto recovered = SaseSystem::Recover(dir, StoreLayout::RetailDemo(),
                                         config, Factory(&lines));
    ASSERT_FALSE(recovered.ok()) << "manifest line: " << format_line;
    EXPECT_EQ(recovered.status().code(), StatusCode::kInvalidArgument);
    const std::string& message = recovered.status().message();
    EXPECT_NE(message.find(found), std::string::npos) << message;
    EXPECT_NE(message.find("only format 4"), std::string::npos) << message;
  };
  expect_refused("format 2\n", "format 2");
  expect_refused("", "no format line");
  expect_refused("format 5\n", "format 5");
  // A format-4 manifest over the downgraded state file still fails: the
  // state header is checked too.
  expect_refused("format 4\n", "format 2");
}

/// WAL group commit under FsyncPolicy::kAlways: with records-per-fsync set
/// well above one, a kill without Flush lands inside the batch-open ->
/// fsync window — the journal tail sits in the open commit group. A
/// process crash keeps the write(2)-n tail, so recovery must replay it;
/// byte-equality against the uninterrupted reference shows the open group
/// neither loses nor duplicates output across several crash offsets (each
/// a different open-group fill).
TEST(RecoveryGoldenTest, GroupCommitCrashWindowReplaysByteIdentical) {
  Catalog catalog = Catalog::RetailDemo();
  auto trace = Trace(catalog, 600);
  auto regs = AllUpfront();
  auto golden = RunGolden(catalog, trace, regs);

  for (size_t crash_at : {260u, 395u, 511u}) {
    std::string dir = FreshDir("group_commit_" + std::to_string(crash_at));
    SystemConfig config = CheckpointedConfig(/*shards=*/2, dir);
    config.checkpoint.journal_fsync = checkpoint::FsyncPolicy::kAlways;
    config.checkpoint.group_commit_interval = 16;
    config.checkpoint.group_commit_max_delay_us = 0;  // count-closed only:
    // the open group at the kill is as full as the offset allows
    std::vector<std::string> lines;
    RunUntilCrash(trace, regs, config, /*checkpoint_at=*/128, crash_at,
                  &lines);
    RecoverAndFinish(trace, regs, config, crash_at, &lines);
    EXPECT_EQ(golden, lines) << "group-commit crash at " << crash_at;
  }
}

/// The acked-cursor exactly-once path with WAL group commit active: acks
/// ride the same journal whose fsyncs are now amortized, and CommitAcks
/// forces the group fsync so no cursor record is ever durable ahead of the
/// event records before it. A crash inside the window re-delivers
/// everything past the durable cursor with original stamps; the
/// stamp-deduped stream equals the uninterrupted reference.
TEST(ExactlyOnceTest, AckedCursorSurvivesGroupCommitCrashWindow) {
  Catalog catalog = Catalog::RetailDemo();
  auto trace = Trace(catalog, 700);
  auto golden = RunGolden(catalog, trace, AllUpfront());

  struct Consumer {
    std::vector<std::string> deduped;
    std::map<std::pair<bool, uint64_t>, std::string> stamps;
    uint64_t duplicates = 0;
    uint64_t mismatches = 0;
    SaseSystem* system = nullptr;  // ack target; null during replay
  } consumer;
  auto callback = [&consumer](size_t q) -> OutputCallback {
    return [&consumer, q](const OutputRecord& record) {
      EXPECT_NE(record.cursor_position, 0u) << "unstamped delivery";
      std::string line = QueryName(q) + "|" + record.ToString();
      auto key = std::make_pair(record.cursor_runtime_hosted,
                                record.cursor_position);
      auto [it, fresh] = consumer.stamps.emplace(key, line);
      if (fresh) {
        consumer.deduped.push_back(line);
      } else {
        ++consumer.duplicates;
        if (it->second != line) ++consumer.mismatches;
      }
      if (consumer.system != nullptr && record.cursor_position % 2 == 0) {
        Status acked = consumer.system->AckOutput(record);
        EXPECT_TRUE(acked.ok()) << acked.ToString();
      }
    };
  };

  std::string dir = FreshDir("group_commit_ack");
  SystemConfig config = CheckpointedConfig(/*shards=*/2, dir);
  config.checkpoint.journal_fsync = checkpoint::FsyncPolicy::kAlways;
  config.checkpoint.group_commit_interval = 16;
  config.checkpoint.group_commit_max_delay_us = 0;
  config.checkpoint.ack_mode = checkpoint::AckMode::kConsumer;
  config.checkpoint.ack_commit_interval = 4;
  {
    SaseSystem system(StoreLayout::RetailDemo(), config);
    consumer.system = &system;
    for (size_t q = 0; q < kQueries.size(); ++q) {
      ASSERT_TRUE(system
                      .RegisterMonitoringQuery(QueryName(q), kQueries[q],
                                               callback(q))
                      .ok());
    }
    for (size_t i = 0; i < 250; ++i) system.event_bus().OnEvent(trace[i]);
    ASSERT_TRUE(system.Checkpoint().ok());
    for (size_t i = 250; i < 500; ++i) system.event_bus().OnEvent(trace[i]);
    consumer.system = nullptr;
    // Crash without Flush: unacked deliveries, the pending ack batch and
    // the open commit group all die here.
  }

  // The durable cursor as recovery will read it: the snapshot's ACKED line
  // superseded by ack-cursor records journaled after it.
  auto manifest = checkpoint::ReadManifest(dir);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  auto snap = checkpoint::ReadSnapshot(dir, manifest.value(), nullptr);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  uint64_t durable_runtime = snap.value().acked_runtime;
  uint64_t durable_serial = snap.value().acked_serial;
  auto scan = checkpoint::ReadJournal(dir, manifest.value());
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  for (const checkpoint::JournalRecord& record : scan.value().records) {
    if (record.kind == checkpoint::JournalRecord::Kind::kAckCursor) {
      durable_runtime = std::max(durable_runtime, record.acked_runtime);
      durable_serial = std::max(durable_serial, record.acked_serial);
    }
  }

  auto recovered = SaseSystem::Recover(
      dir, StoreLayout::RetailDemo(), config,
      [&](const std::string& name) -> OutputCallback {
        return callback(static_cast<size_t>(std::atoi(name.c_str() + 1)));
      });
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value()->acked_runtime(), durable_runtime);
  EXPECT_EQ(recovered.value()->acked_serial(), durable_serial);
  EXPECT_GT(consumer.duplicates, 0u)
      << "no re-deliveries: the crash window was empty";
  EXPECT_EQ(consumer.mismatches, 0u)
      << "a re-delivered record changed content or stamp";

  consumer.system = recovered.value().get();
  for (size_t i = 500; i < trace.size(); ++i) {
    recovered.value()->event_bus().OnEvent(trace[i]);
  }
  recovered.value()->Flush();
  EXPECT_EQ(golden, consumer.deduped) << "deduped output diverged";
  EXPECT_EQ(consumer.mismatches, 0u);
}

}  // namespace
}  // namespace sase
