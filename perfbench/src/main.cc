// SASE benchmark entry point. Runs one workload for a fixed measuring time and
// prints its metrics; the last stdout line is the JSON result.
//
//   sasebench --workload <retail_day|hotkey_resize>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--work-dir <dir>] [--trace-out <file>] [--commit <id>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ledger
// (see README.md). Exit code 1 when any output check fails, 2 on bad
// arguments.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = kPinnedSeed;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string work_dir = ".bench_build/work";
  std::string trace_out;
  std::string commit = "unknown";
};

/// How a run turns a metric's per-pass samples into its value. Other
/// tenants' load only ever slows a pass, so a throughput or a CPU cost is
/// taken from the best pass: the code's own cost, as far as this host lets
/// it show (README.md, "Noise").
enum class Stat { kMedian, kHighest, kLowest, kPeakRss };

struct MetricSpec {
  const char* name;
  const char* unit;
  Stat stat = Stat::kMedian;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"items_per_s", "1/s", Stat::kHighest},
    {"serial.items_per_s", "1/s", Stat::kHighest},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB", Stat::kPeakRss},
};

/// End-to-end metrics that are printed by name but are neither in
/// BENCHMARK.json nor in the JSON result: their spread across seeds is
/// wider than any bound allows (README.md, "Noise").
const std::vector<MetricSpec> kUnbounded = {
    {"cpu_us_per_item", "us", Stat::kLowest},
    {"serial.cpu_us_per_item", "us", Stat::kLowest},
    {"alert_latency_p50_us", "us"},
    {"alert_latency_p99_us", "us"},
};

double Value(const Collector& out, const MetricSpec& spec) {
  if (spec.stat == Stat::kPeakRss) return PeakRssMb();
  auto it = out.samples.find(spec.name);
  if (it == out.samples.end() || it->second.empty()) return 0;
  switch (spec.stat) {
    case Stat::kHighest:
      return *std::max_element(it->second.begin(), it->second.end());
    case Stat::kLowest:
      return *std::min_element(it->second.begin(), it->second.end());
    default:
      return Median(it->second);
  }
}

const std::vector<MetricSpec> kPerLayer = {
    {"rfid.us_per_reading", "us"},
    {"cleaning.us_per_reading", "us"},
    {"cleaning.events_per_reading", "ratio"},
    {"engine.us_per_event", "us"},
    {"engine.scanned_per_event", "ratio"},
    {"engine.outputs_per_scanned", "ratio"},
    {"query.register_ms", "ms"},
    {"runtime.dispatch_cpu_us_per_item", "us"},
    {"runtime.worker_cpu_us_per_item", "us"},
    {"runtime.records_per_item", "ratio"},
    {"runtime.flush_ms", "ms"},
    {"runtime.peak_dispatch_log_len", "count"},
    {"runtime.resize_ms", "ms"},
    {"runtime.replayed_per_resize", "count"},
    {"runtime.hotkey_splits", "count"},
    {"runtime.shard_skew", "ratio"},
    {"checkpoint.snapshot_ms", "ms"},
    {"checkpoint.journal_us_per_event", "us"},
    {"checkpoint.journal_bytes_per_event", "bytes"},
    {"db.archive_us_per_update", "us"},
    {"obs.scrape_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

using Factory = std::function<std::unique_ptr<Workload>(uint64_t, bool)>;

const std::map<std::string, Factory>& Workloads() {
  static const std::map<std::string, Factory> workloads = {
      {"retail_day", MakeRetailDay},
      {"hotkey_resize", MakeHotkeyResize},
  };
  return workloads;
}

/// Workload whose traced passes measure a per-layer metric that the named
/// workload does not exercise.
const char* HomeWorkload(const std::string& metric) {
  if (metric.rfind("runtime.resize", 0) == 0 ||
      metric.rfind("runtime.replayed", 0) == 0 ||
      metric.rfind("runtime.hotkey", 0) == 0) {
    return "hotkey_resize";
  }
  return "retail_day";
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* value = nullptr;
    if (arg == "--tiny") {
      options->tiny = true;
      continue;
    }
    if ((value = next()) == nullptr) return false;
    char* end = nullptr;
    if (arg == "--workload") {
      options->workload = value;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      options->seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      options->trace = std::string(value) == "1";
    } else if (arg == "--work-dir") {
      options->work_dir = value;
    } else if (arg == "--trace-out") {
      options->trace_out = value;
    } else if (arg == "--commit") {
      options->commit = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return Workloads().count(options->workload) > 0 && options->seconds > 0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Runs passes of `workload` until `seconds` of measuring time have passed
/// (at least `min_passes`), after one untimed warm-up pass. `ledger` null =
/// untraced. With `untraced` set, every other pass runs untraced into it,
/// for the tracing overhead. Returns the number of timed passes.
int RunPasses(Workload& workload, const Options& options, double seconds,
              int min_passes, Ledger* ledger, Collector* out,
              Collector* untraced, int first_pass) {
  PassEnv env;
  env.work_dir = options.work_dir;
  Collector warm;
  LatencyHistogram latency;
  env.pass = first_pass;
  env.out = &warm;
  env.latency = &latency;
  if (ledger != nullptr) ledger->set_pass(env.pass, workload.name());
  workload.RunPass(env);
  warm.latency = LatencyHistogram();  // the warm-up's latency is not a sample
  out->MergeChecks(warm);

  int passes = 0;
  const uint64_t start = WallNs();
  while (passes < min_passes ||
         static_cast<double>(WallNs() - start) / 1e9 < seconds) {
    ++env.pass;
    bool traced = ledger != nullptr && (untraced == nullptr || passes % 2 == 1);
    env.ledger = traced ? ledger : nullptr;
    env.out = traced || untraced == nullptr ? out : untraced;
    if (ledger != nullptr) ledger->set_pass(env.pass, workload.name());
    latency = LatencyHistogram();
    {
      ScopedSpan pass_span(env.ledger, "pass");
      workload.RunPass(env);
    }
    // p99 of a pass needs 10 samples beyond it.
    const uint64_t min_samples = options.tiny ? 10 : 1000;
    env.out->Check(latency.count() >= min_samples,
                   "pass " + std::to_string(env.pass) + ": only " +
                       std::to_string(latency.count()) + " alert latency samples");
    env.out->Add("alert_latency_p50_us", latency.Percentile(0.50) / 1e3);
    env.out->Add("alert_latency_p99_us", latency.Percentile(0.99) / 1e3);
    env.out->latency.Merge(latency);
    ++passes;
  }
  return passes;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: sasebench --workload <retail_day|hotkey_resize> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--tiny] [--work-dir <dir>] [--trace-out <file>] [--commit <id>]\n");
    return 2;
  }
  std::filesystem::create_directories(options.work_dir);
  const int min_passes = options.tiny ? 2 : 5;

  std::unique_ptr<Workload> workload =
      Workloads().at(options.workload)(options.seed, options.tiny);
  Collector out;
  Ledger ledger;
  Collector untraced;
  std::map<std::string, std::string> metric_source;
  const uint64_t run_start = WallNs();
  int passes = 0;
  if (!options.trace) {
    passes = RunPasses(*workload, options, options.seconds, min_passes, nullptr,
                       &out, nullptr, 0);
    workload->CheckRun(out);
  } else {
    // The named workload's traced passes alternate with untraced ones (for
    // the overhead), then the home workload of every per-layer metric the
    // named one does not exercise runs a few traced passes of its own.
    passes = RunPasses(*workload, options, options.seconds * 0.75, 2 * min_passes,
                       &ledger, &out, &untraced, 0);
    out.MergeChecks(untraced);
    workload->CheckRun(out);
    for (const std::string& metric : workload->LayerMetrics()) {
      metric_source[metric] = workload->name();
    }
    std::set<std::string> homes;
    for (const MetricSpec& spec : kPerLayer) {
      if (metric_source.count(spec.name) == 0 && std::string(spec.name) != "trace.overhead_pct") {
        homes.insert(HomeWorkload(spec.name));
      }
    }
    int next_pass = 1000;
    for (const std::string& home : homes) {
      std::unique_ptr<Workload> other = Workloads().at(home)(options.seed, options.tiny);
      Collector side;
      RunPasses(*other, options, options.seconds * 0.1, 2, &ledger, &side, nullptr,
                next_pass);
      next_pass += 1000;
      out.MergeChecks(side);
      for (const std::string& metric : other->LayerMetrics()) {
        if (metric_source.count(metric) > 0) continue;
        metric_source[metric] = home;
        out.samples[metric] = side.samples[metric];
      }
    }
    double traced_rate = out.MedianOf("items_per_s");
    double untraced_rate = untraced.MedianOf("items_per_s");
    out.Add("trace.overhead_pct",
            traced_rate > 0 ? (untraced_rate / traced_rate - 1) * 100 : 0);
    metric_source["trace.overhead_pct"] = workload->name();
  }
  const double run_seconds = static_cast<double>(WallNs() - run_start) / 1e9;

  // Run context: names the machine, build and input behind every number.
  std::vector<double> threads = out.samples["threads"];
  double max_threads = 0;
  for (double t : threads) max_threads = std::max(max_threads, t);
  std::ostringstream context;
  context << "{\"workload\":" << Quote(options.workload)
          << ",\"seed\":" << options.seed << ",\"trace\":" << (options.trace ? 1 : 0)
          << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
          << ",\"cpu_model\":" << Quote(CpuModel())
          << ",\"build_type\":" << Quote(SASEBENCH_BUILD_TYPE)
          << ",\"commit\":" << Quote(options.commit)
          << ",\"input\":" << Quote(workload->Describe())
          << ",\"passes\":" << passes
          << ",\"pass_seconds\":" << Number(run_seconds / std::max(1, passes + 1))
          << ",\"measure_seconds\":" << Number(options.seconds)
          << ",\"threads_used\":" << max_threads
          << ",\"thread_budget\":" << kThreadBudget
          << ",\"records_per_pass\":" << Number(out.MedianOf("records")) << "}";
  std::printf("context: %s\n", context.str().c_str());
  if (max_threads > sysconf(_SC_NPROCESSORS_ONLN)) {
    std::printf("warning: %g threads ran on %ld cores\n", max_threads,
                sysconf(_SC_NPROCESSORS_ONLN));
  }

  std::vector<std::pair<MetricSpec, double>> metrics;
  if (!options.trace) {
    for (const MetricSpec& spec : kEndToEnd) {
      metrics.push_back({spec, Value(out, spec)});
    }
    std::printf("alert latency samples: %llu over %d passes (pooled p50 %.1f us, p99 %.1f us)\n",
                static_cast<unsigned long long>(out.latency.count()), passes,
                out.latency.Percentile(0.50) / 1e3, out.latency.Percentile(0.99) / 1e3);
    for (const MetricSpec& spec : kUnbounded) {
      std::printf("%-36s %16.6f %s  (not bounded)\n", spec.name, Value(out, spec),
                  spec.unit);
    }
  } else {
    for (const MetricSpec& spec : kPerLayer) {
      metrics.push_back({spec, out.MedianOf(spec.name)});
    }
  }
  for (const auto& [spec, value] : metrics) {
    std::string source = metric_source.count(spec.name) > 0
                             ? "  (" + metric_source[spec.name] + ")"
                             : "";
    std::printf("%-36s %16.6f %s%s\n", spec.name, value, spec.unit, source.c_str());
  }
  double failed_share = static_cast<double>(out.failed) /
                        static_cast<double>(std::max<uint64_t>(1, out.attempted));
  std::printf("%-36s %16.6f ratio  (%llu of %llu operations)\n", "failed_share",
              failed_share, static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const std::string& failure : out.failures) {
    std::printf("FAILED: %s\n", failure.c_str());
  }

  if (options.trace) {
    std::printf("\nper-span self time (all traced passes):\n%s",
                ledger.SelfTimeTable().c_str());
    if (!options.trace_out.empty()) {
      std::ofstream file(options.trace_out, std::ios::trunc);
      file << ledger.ChromeJson(context.str());
      std::printf("trace: %s (%zu spans)\n", options.trace_out.c_str(),
                  ledger.spans().size());
    }
  }

  std::ostringstream json;
  json << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& [spec, value] : metrics) {
    json << (first ? "" : ", ") << Quote(spec.name) << ": {\"value\": "
         << Number(value) << ", \"unit\": " << Quote(spec.unit) << "}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
