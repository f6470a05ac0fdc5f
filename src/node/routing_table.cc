#include "src/node/routing_table.h"

#include <algorithm>
#include <cstdio>

#include "src/link/net_device.h"

namespace msn {

std::string RouteEntry::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-18s via %-15s dev %-8s src %-15s metric %d",
                dest.ToString().c_str(),
                gateway.IsAny() ? "*" : gateway.ToString().c_str(),
                device != nullptr ? device->name().c_str() : "-",
                pref_src.IsAny() ? "*" : pref_src.ToString().c_str(), metric);
  return buf;
}

void RoutingTable::Add(const RouteEntry& entry) {
  entries_.push_back(entry);
}

size_t RoutingTable::Remove(const Subnet& dest, NetDevice* device) {
  return RemoveWhere([&](const RouteEntry& e) {
    return e.dest == dest && (device == nullptr || e.device == device);
  });
}

size_t RoutingTable::RemoveWhere(const std::function<bool(const RouteEntry&)>& pred) {
  const size_t before = entries_.size();
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(), pred), entries_.end());
  return before - entries_.size();
}

size_t RoutingTable::RemoveForDevice(NetDevice* device) {
  return RemoveWhere([device](const RouteEntry& e) { return e.device == device; });
}

void RoutingTable::Clear() { entries_.clear(); }

std::optional<RouteEntry> RoutingTable::Lookup(Ipv4Address dst) const {
  const RouteEntry* best = nullptr;
  for (const RouteEntry& e : entries_) {
    if (!e.dest.Contains(dst)) {
      continue;
    }
    if (best == nullptr || e.dest.prefix_len() > best->dest.prefix_len() ||
        (e.dest.prefix_len() == best->dest.prefix_len() && e.metric < best->metric)) {
      best = &e;
    }
  }
  if (best == nullptr) {
    return std::nullopt;
  }
  return *best;
}

std::string RoutingTable::ToString() const {
  std::string out;
  for (const RouteEntry& e : entries_) {
    out += e.ToString();
    out += '\n';
  }
  return out;
}

}  // namespace msn
