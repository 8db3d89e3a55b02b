#include "rfid/simulator.h"

#include "util/logging.h"

namespace sase {

RetailSimulator::RetailSimulator(StoreLayout layout, NoiseModel noise,
                                 uint64_t seed, int64_t raw_units_per_tick)
    : layout_(std::move(layout)), rng_(seed),
      raw_units_per_tick_(raw_units_per_tick) {
  for (const ReaderSpec& spec : layout_.readers()) {
    readers_.emplace_back(spec, noise);
  }
}

void RetailSimulator::AddItem(TagInfo tag) {
  std::string epc = tag.epc;
  items_[epc] = Item{std::move(tag), -1, std::string()};
}

bool RetailSimulator::HasItem(const std::string& epc) const {
  return items_.count(epc) > 0;
}

int RetailSimulator::ItemArea(const std::string& epc) const {
  auto it = items_.find(epc);
  return it == items_.end() ? -1 : it->second.area_id;
}

void RetailSimulator::Place(const std::string& epc, int area_id) {
  auto it = items_.find(epc);
  if (it == items_.end()) {
    SASE_LOG_WARN << "simulator: Place on unknown item " << epc;
    return;
  }
  it->second.area_id = area_id;
}

void RetailSimulator::Move(const std::string& epc, int area_id) {
  Place(epc, area_id);
}

void RetailSimulator::Remove(const std::string& epc) {
  auto it = items_.find(epc);
  if (it != items_.end()) it->second.area_id = -1;
}

void RetailSimulator::AssignContainer(const std::string& epc,
                                      const std::string& container_id) {
  auto it = items_.find(epc);
  if (it == items_.end()) {
    SASE_LOG_WARN << "simulator: AssignContainer on unknown item " << epc;
    return;
  }
  it->second.container_id = container_id;
}

void RetailSimulator::ClearContainer(const std::string& epc) {
  auto it = items_.find(epc);
  if (it != items_.end()) it->second.container_id.clear();
}

std::string RetailSimulator::ItemContainer(const std::string& epc) const {
  auto it = items_.find(epc);
  return it == items_.end() ? "" : it->second.container_id;
}

void RetailSimulator::Schedule(ScriptedAction action) {
  script_.emplace(action.at_tick, std::move(action));
}

void RetailSimulator::Schedule(int64_t at_tick, ActionKind kind,
                               const std::string& epc, int area_id) {
  Schedule(ScriptedAction{at_tick, kind, epc, area_id, std::string()});
}

void RetailSimulator::ApplyDueActions() {
  auto end = script_.upper_bound(tick_);
  for (auto it = script_.begin(); it != end; ++it) {
    const ScriptedAction& action = it->second;
    switch (action.kind) {
      case ActionKind::kPlace:
        Place(action.epc, action.area_id);
        break;
      case ActionKind::kMove:
        Move(action.epc, action.area_id);
        break;
      case ActionKind::kRemove:
        Remove(action.epc);
        break;
      case ActionKind::kAssignContainer:
        AssignContainer(action.epc, action.container_id);
        break;
      case ActionKind::kClearContainer:
        ClearContainer(action.epc);
        break;
    }
  }
  script_.erase(script_.begin(), end);
}

void RetailSimulator::Step() {
  ApplyDueActions();

  // Group the items present in each area, then let each reader scan its
  // area's population.
  std::map<int, std::vector<PresentTag>> by_area;
  for (const auto& [epc, item] : items_) {
    if (item.area_id >= 0) {
      by_area[item.area_id].push_back(PresentTag{&item.tag, item.container_id});
    }
  }

  std::vector<RawReading> readings;
  int64_t raw_time = tick_ * raw_units_per_tick_;
  for (const Reader& reader : readers_) {
    auto it = by_area.find(reader.spec().area_id);
    if (it == by_area.end()) continue;
    reader.Scan(raw_time, it->second, &rng_, &readings);
  }
  readings_emitted_ += readings.size();
  if (sink_ != nullptr) {
    for (const RawReading& reading : readings) sink_->OnReading(reading);
  }
  ++tick_;
}

void RetailSimulator::RunUntil(int64_t until_tick) {
  while (tick_ <= until_tick) Step();
}

}  // namespace sase
