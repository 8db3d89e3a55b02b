#include "harness.h"

#include <dirent.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>

namespace perfbench {
namespace {

uint64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Bucket i of the latency histogram covers [e^(i/100), e^((i+1)/100)) ns.
constexpr double kBucketsPerE = 100.0;

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

uint64_t WallNs() { return ClockNs(CLOCK_MONOTONIC); }
uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int LiveThreads() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return -1;
  int threads = 0;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') ++threads;
  }
  closedir(dir);
  return threads;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets, 0) {}

void LatencyHistogram::Record(uint64_t ns) {
  int bucket = ns == 0 ? 0
                       : static_cast<int>(std::log(static_cast<double>(ns)) *
                                          kBucketsPerE);
  ++buckets_[static_cast<size_t>(std::clamp(bucket, 0, kBuckets - 1))];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::Percentile(double q) const {
  if (count_ == 0) return 0;
  // Nearest rank (1-based), then geometric interpolation inside the bucket
  // by the rank's position among the bucket's samples.
  double rank = std::max(1.0, std::ceil(q * static_cast<double>(count_)));
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    uint64_t in_bucket = buckets_[static_cast<size_t>(i)];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= rank) {
      double within = (rank - static_cast<double>(seen) - 0.5) /
                      static_cast<double>(in_bucket);
      return std::exp((i + within) / kBucketsPerE);
    }
    seen += in_bucket;
  }
  return std::exp(kBuckets / kBucketsPerE);
}

void RecordDigest::Add(const sase::OutputRecord& record) {
  Mix(std::hash<std::string>{}(record.ToString()));
  ++count_;
}

int Ledger::Open(const std::string& name) {
  int parent = open_.empty() ? -1 : open_.back();
  if (!open_.empty()) ++child_count_.back();
  spans_.push_back(Span{name, WallNs(), 0, parent, pass_, workload_});
  int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  callback_child_.push_back(-1);
  callback_busy_.push_back(0);
  child_count_.push_back(0);
  return index;
}

void Ledger::Close(bool drop_if_leaf) {
  if (open_.empty()) return;
  int index = open_.back();
  bool leaf = child_count_.back() == 0;
  open_.pop_back();
  callback_child_.pop_back();
  callback_busy_.pop_back();
  child_count_.pop_back();
  if (drop_if_leaf && leaf) {
    // A leaf is always the newest span: nothing was appended after it.
    spans_.pop_back();
    if (!child_count_.empty()) --child_count_.back();
    return;
  }
  spans_[static_cast<size_t>(index)].end_ns = WallNs();
}

void Ledger::AddCallback(uint64_t start_ns, uint64_t end_ns) {
  if (open_.empty()) return;
  int& child = callback_child_.back();
  uint64_t& busy = callback_busy_.back();
  if (child < 0) {
    spans_.push_back(
        Span{"callbacks", start_ns, start_ns, open_.back(), pass_, workload_});
    child = static_cast<int>(spans_.size()) - 1;
    ++child_count_.back();
  }
  busy += end_ns - start_ns;
  Span& span = spans_[static_cast<size_t>(child)];
  span.end_ns = span.start_ns + busy;
}

uint64_t Ledger::CallbackNs(int index) const {
  uint64_t total = 0;
  for (size_t i = static_cast<size_t>(index) + 1; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent == index && span.name == "callbacks") {
      total += span.end_ns - span.start_ns;
    }
  }
  return total;
}

std::string Ledger::SelfTimeTable() const {
  struct Row {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t child_ns = 0;
  };
  std::map<std::string, Row> rows;
  for (const Span& span : spans_) {
    Row& row = rows[span.name];
    ++row.count;
    row.total_ns += span.end_ns - span.start_ns;
    if (span.parent >= 0) {
      rows[spans_[static_cast<size_t>(span.parent)].name].child_ns +=
          span.end_ns - span.start_ns;
    }
  }
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-28s %9s %12s %12s %8s\n", "span",
                "count", "total_ms", "self_ms", "self_%");
  out << line;
  uint64_t all_self = 0;
  for (const auto& [name, row] : rows) all_self += row.total_ns - row.child_ns;
  for (const auto& [name, row] : rows) {
    uint64_t self = row.total_ns - row.child_ns;
    std::snprintf(line, sizeof(line), "%-28s %9llu %12.3f %12.3f %7.2f%%\n",
                  name.c_str(), static_cast<unsigned long long>(row.count),
                  static_cast<double>(row.total_ns) / 1e6,
                  static_cast<double>(self) / 1e6,
                  all_self == 0 ? 0.0
                                : 100.0 * static_cast<double>(self) /
                                      static_cast<double>(all_self));
    out << line;
  }
  return out.str();
}

std::string Ledger::ChromeJson(const std::string& context_json) const {
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(3);
  out << "{\"otherData\":" << context_json << ",\"traceEvents\":["
      << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      << "\"args\":{\"name\":\"dispatcher\"}}";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << ",{\"name\":\"" << JsonEscape(span.name)
        << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":"
        << static_cast<double>(span.start_ns - origin) / 1000.0
        << ",\"dur\":" << static_cast<double>(span.end_ns - span.start_ns) / 1000.0
        << ",\"pid\":1,\"tid\":1,\"args\":{\"id\":" << i
        << ",\"parent\":" << span.parent << ",\"pass\":" << span.pass
        << ",\"workload\":\"" << JsonEscape(span.workload) << "\"}}";
  }
  out << "]}";
  return out.str();
}

void Collector::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

void Collector::MergeChecks(const Collector& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& failure : other.failures) {
    if (failures.size() < 20) failures.push_back(failure);
  }
  latency.Merge(other.latency);
}

double Collector::MedianOf(const std::string& metric) const {
  auto it = samples.find(metric);
  return it == samples.end() ? 0 : Median(it->second);
}

}  // namespace perfbench
