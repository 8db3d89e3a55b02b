// hotkey_resize: a synthetic stream fed straight into the serial
// QueryEngine and the 2-shard ShardedRuntime.
#include <string>

#include "core/catalog.h"
#include "engine_runs.h"
#include "rfid/workload.h"
#include "util/random.h"

namespace perfbench {
namespace {

using sase::EventPtr;

/// Output records per pass that the pinned seed must produce at full size.
constexpr uint64_t kHotkeyPinnedRecords = 2128;

std::vector<EventPtr> Generate(const sase::Catalog& catalog, uint64_t seed,
                               int64_t events) {
  sase::SyntheticConfig config;
  config.seed = seed;
  config.event_count = events;
  config.tag_count = 100;
  sase::SyntheticStreamGenerator generator(&catalog, config);
  return generator.Generate();
}

/// Checks the sharded digest against the serial one and, for the pinned
/// seed at full size, the record count.
void CheckOracle(const RunOutcome& serial, const RunOutcome& sharded,
                 uint64_t pinned, PassEnv& env) {
  env.out->Check(serial.digest == sharded.digest,
                 "pass " + std::to_string(env.pass) + ": sharded digest (" +
                     std::to_string(sharded.digest.count()) +
                     " records) differs from serial (" +
                     std::to_string(serial.digest.count()) + " records)");
  env.out->Add("records", static_cast<double>(sharded.digest.count()));
  if (pinned > 0) {
    env.out->Check(sharded.digest.count() == pinned,
                   "pass " + std::to_string(env.pass) + ": " +
                       std::to_string(sharded.digest.count()) +
                       " records, pinned " + std::to_string(pinned));
  }
}

/// The covering three-slot query family (TagId + AreaId equivalence, the
/// BM_SkewedLoad family) on a stream where one tag carries a fixed share of
/// the events. Hot-key mitigation sub-partitions that tag by AreaId, and
/// the shard count alternates 2 -> 1 -> 2 at fixed event counts, so each
/// pass pays for splitting and for rebuilding shard state by replay.
class HotkeyResize : public Workload {
 public:
  static constexpr int kQueries = 16;
  static constexpr int kHotPercent = 50;

  HotkeyResize(uint64_t seed, bool tiny)
      : catalog_(sase::Catalog::RetailDemo()),
        pinned_(seed == kPinnedSeed && !tiny ? kHotkeyPinnedRecords : 0),
        resize_every_(tiny ? 1000 : 2000) {
    std::vector<EventPtr> base = Generate(catalog_, seed, tiny ? 3000 : 12000);
    sase::Random rng(seed ^ 0x5eed);
    for (const EventPtr& event : base) {
      if (rng.Uniform(0, 99) >= kHotPercent) {
        input_.events.push_back(event);
        continue;
      }
      // Move the event onto the hot tag, keeping type, time, seq, area and
      // the high-cardinality ProductName the completion predicate needs.
      const sase::EventSchema& schema = catalog_.schema(event->type());
      sase::EventBuilder builder(catalog_, schema.name());
      builder.Set("TagId", sase::Value("HOT_TAG"));
      for (const char* attr : {"AreaId", "ProductName"}) {
        sase::AttrIndex index = schema.FindAttribute(attr);
        if (index >= 0) builder.Set(attr, event->attribute(index));
      }
      auto rebuilt = builder.Build(event->timestamp(), event->seq());
      if (rebuilt.ok()) {
        input_.events.push_back(rebuilt.value());
      } else {
        ++input_errors_;
      }
    }
    for (int i = 0; i < kQueries; ++i) {
      input_.queries.push_back(
          "EVENT SEQ(SHELF_READING x, COUNTER_READING m, EXIT_READING z) "
          "WHERE x.TagId = m.TagId AND x.TagId = z.TagId "
          "AND x.AreaId = m.AreaId AND x.AreaId = z.AreaId "
          "AND x.ProductName = z.ProductName AND z.AreaId = " +
          std::to_string(i % 4) + " WITHIN " + std::to_string(120 + 4 * i));
    }
    input_.IndexSeqs();
  }

  std::string name() const override { return "hotkey_resize"; }
  std::string Describe() const override {
    return std::to_string(input_.events.size()) + " events, " +
           std::to_string(kHotPercent) + "% on one tag, " +
           std::to_string(kQueries) + " covering queries, resize every " +
           std::to_string(resize_every_) + " events";
  }

  void RunPass(PassEnv& env) override {
    RunOutcome serial = RunSerial(catalog_, input_, env);
    sase::RuntimeConfig config;
    config.merge_interval = kMergeInterval;
    config.queue_capacity = kQueueCapacity;
    config.hotkey_mitigation = true;
    config.hotkey_min_events = 512;
    config.hotkey_split_threshold = 40;
    RunOutcome sharded = RunSharded(catalog_, input_, config, resize_every_, env);
    CheckOracle(serial, sharded, pinned_, env);
    splits_ += sharded.splits;
    if (sharded.replayed > 0) replaying_resizes_ += sharded.resizes;
  }

  void CheckRun(Collector& out) const override {
    out.Check(input_errors_ == 0, "hot-tag events failed to build");
    out.Check(splits_ > 0, "no hot-key split happened");
    out.Check(replaying_resizes_ > 0, "no resize replayed any event");
  }

  std::vector<std::string> LayerMetrics() const override {
    return {"query.register_ms",
            "runtime.dispatch_cpu_us_per_item",
            "runtime.worker_cpu_us_per_item",
            "runtime.records_per_item",
            "runtime.flush_ms",
            "runtime.peak_dispatch_log_len",
            "runtime.shard_skew",
            "runtime.resize_ms",
            "runtime.replayed_per_resize",
            "runtime.hotkey_splits",
            "engine.us_per_event",
            "engine.scanned_per_event",
            "engine.outputs_per_scanned"};
  }

 private:
  sase::Catalog catalog_;
  SyntheticInput input_;
  uint64_t pinned_;
  size_t resize_every_;
  uint64_t input_errors_ = 0;
  uint64_t splits_ = 0;
  uint64_t replaying_resizes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeHotkeyResize(uint64_t seed, bool tiny) {
  return std::make_unique<HotkeyResize>(seed, tiny);
}

}  // namespace perfbench
