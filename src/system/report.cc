#include "system/report.h"

#include <sstream>

namespace sase {

void ReportChannel::Append(const std::string& line) {
  lines_.push_back(line);
}

bool ReportChannel::Contains(const std::string& needle) const {
  for (const auto& line : lines_) {
    if (line.find(needle) != std::string::npos) return true;
  }
  return false;
}

std::string ReportChannel::ToString() const {
  std::ostringstream out;
  out << "=== " << name_ << " ===\n";
  for (const auto& line : lines_) out << line << "\n";
  return out.str();
}

ReportChannel& ReportBoard::Channel(const std::string& name) {
  auto it = channels_.find(name);
  if (it == channels_.end()) {
    it = channels_.emplace(name, ReportChannel(name)).first;
  }
  return it->second;
}

const ReportChannel* ReportBoard::Find(const std::string& name) const {
  auto it = channels_.find(name);
  return it == channels_.end() ? nullptr : &it->second;
}

std::vector<std::string> ReportBoard::ChannelNames() const {
  std::vector<std::string> names;
  names.reserve(channels_.size());
  for (const auto& [name, channel] : channels_) names.push_back(name);
  return names;
}

}  // namespace sase
