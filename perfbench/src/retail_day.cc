// retail_day: the paper's §4 demo through SaseSystem — noisy readers,
// cleaning, the event bus, shoplifting and misplaced-item queries on a
// 2-shard runtime, the _updateLocation archiving rule, a write-ahead
// journal with periodic snapshots, and periodic metric scrapes.
#include <filesystem>
#include <string>
#include <vector>

#include "checkpoint/journal.h"
#include "cleaning/pipeline.h"
#include "db/archiver.h"
#include "db/database.h"
#include "db/ons.h"
#include "engine/query_engine.h"
#include "rfid/simulator.h"
#include "rfid/tag.h"
#include "system/sase_system.h"
#include "util/random.h"
#include "engine_runs.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sase::EventPtr;
using sase::OutputRecord;
using sase::SaseSystem;

/// Alert records per pass that the pinned seed must produce at full size.
constexpr uint64_t kRetailPinnedRecords = 4656;

const char* const kProducts[] = {"Razor", "Soap", "Razor", "Shampoo", "Towel"};

constexpr const char* kShoplifting =
    "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) "
    "WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 12 hours "
    "RETURN x.TagId, x.ProductName, z.AreaId";

constexpr const char* kArchiving =
    "EVENT ANY(SHELF_READING s) "
    "RETURN _updateLocation(s.TagId, s.AreaId, s.Timestamp)";

/// One scripted shopper behaviour.
struct Behaviour {
  enum Kind { kShoplift, kMisplace, kPurchase, kRestock } kind = kRestock;
  int shelf = 0;
  int other_shelf = 0;
  int64_t start = 0;
  int64_t dwell = 0;
  int64_t counter_dwell = 0;
};

/// Records the raw readings a simulator emits (the rfid layer's output).
class RecordingSink : public sase::ReadingSink {
 public:
  void OnReading(const sase::RawReading& reading) override {
    readings.push_back(reading);
  }
  std::vector<sase::RawReading> readings;
};

class RetailDay : public Workload {
 public:
  RetailDay(uint64_t seed, bool tiny)
      : seed_(seed),
        layout_(sase::StoreLayout::RetailDemo()),
        catalog_(sase::Catalog::RetailDemo()),
        pinned_(seed == kPinnedSeed && !tiny ? kRetailPinnedRecords : 0) {
    items_ = tiny ? 50 : 250;
    shelves_ = layout_.AreasByKind(sase::AreaKind::kShelf);
    counter_ = layout_.FindAreaByKind(sase::AreaKind::kCounter);
    exit_ = layout_.FindAreaByKind(sase::AreaKind::kExit);
    // The day is built from blocks of 25 items, one item arriving per tick,
    // each block holding exactly 2 shoplifts, 3 misplacements, 11 purchases
    // and 9 restocks. The seed shuffles the behaviours inside each block
    // (and drives the reader noise): seeds change which item does what, not
    // how much of each the day holds or when, so the cost per reading
    // varies little from seed to seed.
    constexpr int kBlock = 25;
    std::vector<Behaviour::Kind> block;
    block.insert(block.end(), 2, Behaviour::kShoplift);
    block.insert(block.end(), 3, Behaviour::kMisplace);
    block.insert(block.end(), 11, Behaviour::kPurchase);
    block.insert(block.end(), kBlock - 16, Behaviour::kRestock);
    sase::Random rng(seed);
    for (int i = 0; i < items_; ++i) {
      if (i % kBlock == 0) {
        for (int j = kBlock - 1; j > 0; --j) {
          std::swap(block[static_cast<size_t>(j)],
                    block[static_cast<size_t>(rng.Uniform(0, j))]);
        }
      }
      Behaviour b;
      b.kind = block[static_cast<size_t>(i % kBlock)];
      b.shelf = shelves_[static_cast<size_t>(i % 2)];
      b.other_shelf = shelves_[static_cast<size_t>(1 - i % 2)];
      b.start = 1 + i;
      b.dwell = 2 + i % 5;
      b.counter_dwell = 1 + i % 3;
      behaviours_.push_back(b);
    }
    const int64_t t = items_;
    end_tick_ = t + 20;
    checkpoint_every_ = end_tick_ / 3 + 1;
    scrape_every_ = end_tick_ / 8 + 1;
    misplaced_query_ =
        "EVENT SHELF_READING s WHERE s.ProductName = 'Razor' AND s.AreaId = " +
        std::to_string(shelves_[1]) + " RETURN s.TagId, s.AreaId";
  }

  std::string name() const override { return "retail_day"; }
  std::string Describe() const override {
    return std::to_string(items_) + " items over " + std::to_string(end_tick_) +
           " ticks, checkpoint every " + std::to_string(checkpoint_every_) +
           " ticks, scrape every " + std::to_string(scrape_every_) + " ticks";
  }

  void RunPass(PassEnv& env) override {
    if (env.ledger != nullptr) RunLayerReplays(env);
    SystemRun serial = RunSystem(env, 1);
    SystemRun sharded = RunSystem(env, kShards);
    for (size_t q = 0; q < serial.digests.size(); ++q) {
      env.out->Check(serial.digests[q] == sharded.digests[q],
                     "pass " + std::to_string(env.pass) + ": query " +
                         std::to_string(q) + " sharded digest (" +
                         std::to_string(sharded.digests[q].count()) +
                         " records) differs from serial (" +
                         std::to_string(serial.digests[q].count()) + ")");
    }
    uint64_t records = sharded.digests[0].count() + sharded.digests[1].count();
    env.out->Add("records", static_cast<double>(records));
    if (pinned_ > 0) {
      env.out->Check(records == pinned_, "pass " + std::to_string(env.pass) + ": " +
                                             std::to_string(records) + " records, pinned " +
                                             std::to_string(pinned_));
    }
    snapshots_ += sharded.snapshots;
  }

  void CheckRun(Collector& out) const override {
    out.Check(snapshots_ > 0, "no snapshot was taken");
  }

  std::vector<std::string> LayerMetrics() const override {
    return {"rfid.us_per_reading",
            "cleaning.us_per_reading",
            "cleaning.events_per_reading",
            "engine.us_per_event",
            "engine.scanned_per_event",
            "engine.outputs_per_scanned",
            "query.register_ms",
            "runtime.dispatch_cpu_us_per_item",
            "runtime.worker_cpu_us_per_item",
            "runtime.records_per_item",
            "runtime.flush_ms",
            "runtime.peak_dispatch_log_len",
            "runtime.shard_skew",
            "checkpoint.snapshot_ms",
            "checkpoint.journal_us_per_event",
            "checkpoint.journal_bytes_per_event",
            "db.archive_us_per_update",
            "obs.scrape_ms"};
  }

 private:
  struct SystemRun {
    std::vector<RecordDigest> digests;  // shoplifting, misplaced
    uint64_t snapshots = 0;
  };

  sase::TagInfo Tag(int i) const {
    return {sase::MakeEpc(i), kProducts[i % 5], "2027-01-01", true};
  }

  sase::NoiseModel Noise() const {
    return sase::NoiseModel{0.05, 0.01, 0.005, 0.02};
  }

  void Script(sase::RetailSimulator* simulator) const {
    sase::ScenarioScripter scripter(simulator);
    for (size_t i = 0; i < behaviours_.size(); ++i) {
      const Behaviour& b = behaviours_[i];
      std::string epc = sase::MakeEpc(static_cast<int64_t>(i));
      switch (b.kind) {
        case Behaviour::kShoplift:
          scripter.Shoplift(epc, b.shelf, exit_, b.start, b.dwell);
          break;
        case Behaviour::kMisplace:
          scripter.Misplace(epc, b.shelf, b.other_shelf, b.start, b.dwell);
          break;
        case Behaviour::kPurchase:
          scripter.Purchase(epc, b.shelf, counter_, exit_, b.start, b.dwell,
                            b.counter_dwell);
          break;
        case Behaviour::kRestock:
          scripter.Restock(epc, b.shelf, b.start);
          break;
      }
    }
  }

  /// One full system run at `shards` shards. The sharded run is the system
  /// under test: it records the end-to-end samples (and, traced, the
  /// runtime, checkpoint and obs spans); the 1-shard run records the
  /// serial.* baseline.
  SystemRun RunSystem(PassEnv& env, int shards) {
    const bool main = shards == kShards;
    Ledger* ledger = main ? env.ledger : nullptr;
    Collector& out = *env.out;
    SystemRun run;
    run.digests.resize(2);
    std::string dir = env.work_dir + "/pass" + std::to_string(env.pass) + "-" +
                      std::to_string(shards);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    ScopedSpan run_span(env.ledger, main ? "sharded" : "serial");
    std::vector<uint64_t> seq_call_start;
    uint64_t call_start = 0;
    uint64_t callback_ns = 0;
    auto deliver = [&](size_t query) {
      return [&, query](const OutputRecord& record) {
        uint64_t now = WallNs();
        if (main) {
          size_t seq = static_cast<size_t>(record.emit_seq);
          if (seq < seq_call_start.size()) env.latency->Record(now - seq_call_start[seq]);
        }
        run.digests[query].Add(record);
        if (ledger != nullptr) {
          uint64_t end = WallNs();
          ledger->AddCallback(now, end);
          callback_ns += end - now;
        }
      };
    };
    // Maps each published event's seq to the start of the RunUntil call
    // that published it.
    sase::CallbackSink seq_tap([&](const EventPtr& event) {
      size_t seq = static_cast<size_t>(event->seq());
      if (seq >= seq_call_start.size()) seq_call_start.resize(seq + 1024, 0);
      seq_call_start[seq] = call_start;
    });

    uint64_t setup0 = WallNs();
    sase::SystemConfig config;
    config.noise = Noise();
    config.seed = seed_;
    config.shard_count = shards;
    config.runtime_merge_interval = kMergeInterval;
    config.checkpoint.dir = dir;
    config.obs.metrics_enabled = true;
    std::unique_ptr<SaseSystem> system;
    {
      ScopedSpan span(ledger, "system.construct");
      system = std::make_unique<SaseSystem>(layout_, config);
    }
    auto timed_register = [&](auto&& call) {
      ScopedSpan span(ledger, "query.register");
      uint64_t t0 = WallNs();
      auto id = call();
      out.Check(id.ok(), "Register: " + id.status().ToString());
      if (ledger != nullptr) out.Add("query.register_ms", static_cast<double>(WallNs() - t0) / 1e6);
    };
    timed_register([&] { return system->RegisterMonitoringQuery("shoplifting", kShoplifting, deliver(0)); });
    timed_register([&] { return system->RegisterMonitoringQuery("misplaced", misplaced_query_, deliver(1)); });
    timed_register([&] { return system->RegisterArchivingRule("location", kArchiving); });
    for (int i = 0; i < items_; ++i) system->AddProduct(Tag(i));
    if (main) {
      out.Add("setup_s", static_cast<double>(WallNs() - setup0) / 1e9);
      out.Add("threads", LiveThreads());
    }
    Script(&system->simulator());
    system->event_bus().Subscribe(&seq_tap);

    uint64_t wall0 = WallNs();
    uint64_t cpu0 = ProcessCpuNs();
    uint64_t thread0 = ThreadCpuNs();
    int flush = -1;
    {
      ScopedSpan feed(ledger, "system.feed");
      for (int64_t tick = 1; tick <= end_tick_; ++tick) {
        {
          ScopedSpan span(ledger, "system.RunUntil", /*drop_if_leaf=*/true);
          call_start = WallNs();
          system->RunUntil(tick);
        }
        if (tick % checkpoint_every_ == 0) {
          ScopedSpan span(ledger, "checkpoint.snapshot");
          uint64_t t0 = WallNs();
          sase::Status status = system->Checkpoint();
          out.Check(status.ok(), "Checkpoint: " + status.ToString());
          if (ledger != nullptr) out.Add("checkpoint.snapshot_ms", static_cast<double>(WallNs() - t0) / 1e6);
        }
        if (tick % scrape_every_ == 0) {
          ScopedSpan span(ledger, "obs.scrape");
          uint64_t t0 = WallNs();
          system->ScrapeMetrics();
          std::string page = system->metrics()->RenderPrometheus();
          out.Check(!page.empty(), "empty metrics scrape");
          if (ledger != nullptr) out.Add("obs.scrape_ms", static_cast<double>(WallNs() - t0) / 1e6);
        }
      }
      ScopedSpan span(ledger, "system.Flush");
      flush = span.index();
      call_start = WallNs();
      system->Flush();
    }
    uint64_t wall = WallNs() - wall0;
    uint64_t cpu = ProcessCpuNs() - cpu0;
    uint64_t thread_cpu = ThreadCpuNs() - thread0;
    const double readings = static_cast<double>(system->simulator().readings_emitted());
    const std::string prefix = main ? "" : "serial.";
    out.Add(prefix + "items_per_s", readings / (static_cast<double>(wall) / 1e9));
    out.Add(prefix + "cpu_us_per_item", static_cast<double>(cpu) / 1e3 / readings);
    run.snapshots = system->checkpoints_taken();
    if (main) readings_ = system->simulator().readings_emitted();

    if (ledger != nullptr) {
      sase::ShardedRuntime* runtime = system->runtime();
      out.Add("runtime.dispatch_cpu_us_per_item",
              (static_cast<double>(thread_cpu) - static_cast<double>(callback_ns)) / 1e3 / readings);
      out.Add("runtime.worker_cpu_us_per_item",
              static_cast<double>(cpu - thread_cpu) / 1e3 / readings);
      out.Add("runtime.records_per_item",
              static_cast<double>(run.digests[0].count() + run.digests[1].count()) / readings);
      out.Add("runtime.flush_ms", static_cast<double>(ledger->DurationNs(flush)) / 1e6);
      out.Add("runtime.peak_dispatch_log_len",
              static_cast<double>(runtime->peak_dispatch_log_len()));
      out.Add("runtime.shard_skew", ShardSkew(*runtime));
    }
    {
      ScopedSpan span(ledger, "system.destroy");
      system.reset();
    }
    std::filesystem::remove_all(dir);
    return run;
  }

  /// Traced passes only: each layer driven alone through its public entry
  /// point with this pass's input, so its cost per item is measured without
  /// the rest of the stack.
  void RunLayerReplays(PassEnv& env) {
    Ledger* ledger = env.ledger;
    Collector& out = *env.out;
    ScopedSpan replay_span(ledger, "layer_replays");

    // rfid: the simulator alone, into a recording sink.
    RecordingSink raw;
    {
      sase::RetailSimulator simulator(layout_, Noise(), seed_);
      for (int i = 0; i < items_; ++i) simulator.AddItem(Tag(i));
      Script(&simulator);
      simulator.set_sink(&raw);
      ScopedSpan span(ledger, "rfid.RunUntil");
      uint64_t t0 = WallNs();
      simulator.RunUntil(end_tick_);
      out.Add("rfid.us_per_reading", static_cast<double>(WallNs() - t0) / 1e3 /
                                         static_cast<double>(raw.readings.size()));
    }
    out.Check(readings_ == 0 || raw.readings.size() == readings_,
              "rfid replay emitted " + std::to_string(raw.readings.size()) +
                  " readings, the system " + std::to_string(readings_));

    // cleaning: recorded readings replayed into a VectorSink.
    sase::VectorSink cleaned;
    {
      sase::db::Database database;
      sase::db::Ons ons(&database);
      for (int i = 0; i < items_; ++i) {
        sase::TagInfo tag = Tag(i);
        sase::ProductInfo info;
        info.product_name = tag.product_name;
        info.expiration_date = tag.expiration_date;
        info.saleable = tag.saleable;
        (void)ons.RegisterProduct(tag.epc, info);
      }
      sase::CleaningPipeline::Config config;
      for (const sase::ReaderSpec& reader : layout_.readers()) {
        config.anomaly.valid_readers.insert(reader.id);
      }
      config.smoothing.window = 3 * 1000;
      config.smoothing.sampling_interval = 1000;
      config.time.raw_units_per_tick = 1000;
      config.dedup.reader_to_area = layout_.ReaderToArea();
      config.generation.area_to_event_type = layout_.AreaToEventType();
      sase::CleaningPipeline pipeline(std::move(config), &catalog_, ons.Resolver(), &cleaned);
      ScopedSpan span(ledger, "cleaning.OnReading");
      uint64_t t0 = WallNs();
      for (const sase::RawReading& reading : raw.readings) pipeline.OnReading(reading);
      pipeline.OnFlush();
      const double n = static_cast<double>(raw.readings.size());
      out.Add("cleaning.us_per_reading", static_cast<double>(WallNs() - t0) / 1e3 / n);
      out.Add("cleaning.events_per_reading",
              static_cast<double>(cleaned.events().size()) / n);
    }
    const std::vector<EventPtr>& events = cleaned.events();
    const double event_count = static_cast<double>(std::max<size_t>(1, events.size()));

    // engine: the two monitoring queries on a bare QueryEngine.
    {
      sase::QueryEngine engine(&catalog_);
      uint64_t outputs = 0;
      auto count = [&outputs](const OutputRecord&) { ++outputs; };
      out.Check(engine.Register(kShoplifting, count).ok(), "engine replay Register");
      out.Check(engine.Register(misplaced_query_, count).ok(), "engine replay Register");
      ScopedSpan span(ledger, "engine.feed");
      uint64_t t0 = WallNs();
      for (const EventPtr& event : events) engine.OnEvent(event);
      engine.OnFlush();
      out.Add("engine.us_per_event", static_cast<double>(WallNs() - t0) / 1e3 / event_count);
      sase::QueryEngine::EngineStats stats = engine.Stats();
      out.Add("engine.scanned_per_event",
              static_cast<double>(stats.matches_scanned) / event_count);
      out.Add("engine.outputs_per_scanned",
              static_cast<double>(stats.outputs) /
                  static_cast<double>(std::max<uint64_t>(1, stats.matches_scanned)));
    }

    // checkpoint: the write-ahead journal alone.
    {
      std::string dir = env.work_dir + "/journal" + std::to_string(env.pass);
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      auto journal = sase::checkpoint::EventJournal::Open(
          dir, 0, 0, 8ull << 20, sase::checkpoint::FsyncPolicy::kNever);
      out.Check(journal.ok(), "journal Open: " + journal.status().ToString());
      if (journal.ok()) {
        ScopedSpan span(ledger, "checkpoint.AppendEvent");
        uint64_t t0 = WallNs();
        bool appended = true;
        for (const EventPtr& event : events) {
          appended &= journal.value()->AppendEvent("", *event).ok();
        }
        out.Add("checkpoint.journal_us_per_event",
                static_cast<double>(WallNs() - t0) / 1e3 / event_count);
        out.Add("checkpoint.journal_bytes_per_event",
                static_cast<double>(journal.value()->bytes_written()) / event_count);
        out.Check(appended, "journal AppendEvent failed");
      }
      if (journal.ok()) journal.value().reset();  // close before removing the directory
      std::filesystem::remove_all(dir);
    }

    // db: the location-update archiving rule applied to every shelf event.
    {
      sase::db::Database database;
      sase::db::Archiver archiver(&database);
      sase::EventTypeId shelf = catalog_.FindType("SHELF_READING").value();
      const sase::EventSchema& schema = catalog_.schema(shelf);
      sase::AttrIndex tag = schema.FindAttribute("TagId");
      sase::AttrIndex area = schema.FindAttribute("AreaId");
      ScopedSpan span(ledger, "db.UpdateLocation");
      uint64_t t0 = WallNs();
      uint64_t updates = 0;
      bool ok = true;
      for (const EventPtr& event : events) {
        if (event->type() != shelf) continue;
        const sase::Value& tag_value = event->attribute(tag);
        const sase::Value& area_value = event->attribute(area);
        if (tag_value.is_null() || area_value.is_null()) continue;
        ok &= archiver.UpdateLocation(tag_value.AsString(), area_value.AsInt(),
                                      event->timestamp()).ok();
        ++updates;
      }
      out.Add("db.archive_us_per_update", static_cast<double>(WallNs() - t0) / 1e3 /
                                              static_cast<double>(std::max<uint64_t>(1, updates)));
      out.Check(ok, "archiver UpdateLocation failed");
    }
  }

  uint64_t seed_;
  sase::StoreLayout layout_;
  sase::Catalog catalog_;
  uint64_t pinned_;
  int items_ = 0;
  std::vector<int> shelves_;
  int counter_ = 0;
  int exit_ = 0;
  std::vector<Behaviour> behaviours_;
  int64_t end_tick_ = 0;
  int64_t checkpoint_every_ = 0;
  int64_t scrape_every_ = 0;
  std::string misplaced_query_;
  uint64_t readings_ = 0;
  uint64_t snapshots_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeRetailDay(uint64_t seed, bool tiny) {
  return std::make_unique<RetailDay>(seed, tiny);
}

}  // namespace perfbench
