// Longest-prefix-match IPv4 routing table, modeled on the Linux 1.2 kernel
// table the paper modified: each entry names a destination prefix, an
// optional gateway, the output device, and an optional preferred source
// address. Mobile IP leaves this table untouched and layers policy on top via
// the route-lookup override (see IpStack), exactly as the paper separates
// "routing decisions" from "mobility decisions".
#ifndef MSN_SRC_NODE_ROUTING_TABLE_H_
#define MSN_SRC_NODE_ROUTING_TABLE_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/net/address.h"

namespace msn {

class NetDevice;

struct RouteEntry {
  Subnet dest;
  // Next-hop gateway; Any() means the destination is on-link.
  Ipv4Address gateway;
  NetDevice* device = nullptr;
  // Source address to prefer for locally originated packets using this
  // route; Any() means "use the output interface's address".
  Ipv4Address pref_src;
  int metric = 0;

  std::string ToString() const;
};

class RoutingTable {
 public:
  void Add(const RouteEntry& entry);
  // Removes entries matching the exact destination prefix (and device, if
  // non-null). Returns the number removed.
  size_t Remove(const Subnet& dest, NetDevice* device = nullptr);
  size_t RemoveWhere(const std::function<bool(const RouteEntry&)>& pred);
  // Removes every route through `device` (interface shutdown).
  size_t RemoveForDevice(NetDevice* device);
  void Clear();

  // Longest-prefix match; ties broken by lowest metric, then insertion order.
  [[nodiscard]] std::optional<RouteEntry> Lookup(Ipv4Address dst) const;

  const std::vector<RouteEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

  std::string ToString() const;

 private:
  std::vector<RouteEntry> entries_;
};

}  // namespace msn

#endif  // MSN_SRC_NODE_ROUTING_TABLE_H_
