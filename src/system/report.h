#ifndef SASE_SYSTEM_REPORT_H_
#define SASE_SYSTEM_REPORT_H_

#include <map>
#include <string>
#include <vector>

namespace sase {

/// One window of the demo UI, reduced to a text channel. Figure 3 shows
/// five windows ("Present Queries", "Cleaning and Association Layer
/// Output", "Database Report", "Stream Processor Output", "Message
/// Results"); the system writes the same intermediate results to these
/// channels, which tests assert on and examples print.
class ReportChannel {
 public:
  ReportChannel() = default;
  explicit ReportChannel(std::string name) : name_(std::move(name)) {}

  void Append(const std::string& line);

  const std::string& name() const { return name_; }
  const std::vector<std::string>& lines() const { return lines_; }
  size_t size() const { return lines_.size(); }
  void Clear() { lines_.clear(); }

  /// True if any line contains `needle`.
  bool Contains(const std::string& needle) const;

  /// The channel rendered with a header, for example programs.
  std::string ToString() const;

 private:
  std::string name_;
  std::vector<std::string> lines_;
};

/// The set of UI windows.
class ReportBoard {
 public:
  /// Returns (creating on first use) the named channel.
  ReportChannel& Channel(const std::string& name);
  const ReportChannel* Find(const std::string& name) const;

  std::vector<std::string> ChannelNames() const;

  /// Standard window names from Figure 3.
  static constexpr const char* kPresentQueries = "Present Queries";
  static constexpr const char* kCleaningOutput =
      "Cleaning and Association Layer Output";
  static constexpr const char* kDatabaseReport = "Database Report";
  static constexpr const char* kStreamOutput = "Stream Processor Output";
  static constexpr const char* kMessageResults = "Message Results";

 private:
  std::map<std::string, ReportChannel> channels_;
};

}  // namespace sase

#endif  // SASE_SYSTEM_REPORT_H_
