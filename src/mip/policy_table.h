// The Mobile Policy Table (paper §3.3): per-destination routing policy for a
// mobile host away from home, consulted by the enhanced route lookup together
// with the ordinary routing table. It answers the paper's three questions —
// tunnel or direct? encapsulate? home or local source address? — as one of
// four policies.
#ifndef MSN_SRC_MIP_POLICY_TABLE_H_
#define MSN_SRC_MIP_POLICY_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/net/address.h"

namespace msn {

enum class MobilePolicy {
  // Basic protocol: encapsulate and reverse-tunnel through the home agent.
  // Always works, at the cost of the extra path and 20 encapsulation bytes.
  kTunnelHome,
  // Triangle-route optimization: send directly to the correspondent with the
  // home address as source. Fails through routers that filter transit
  // traffic (detected via probe; the table then caches a fallback).
  kTriangle,
  // Encapsulate directly to a decapsulation-capable correspondent with the
  // local care-of source in the outer header: optimal path, filter-proof,
  // still pays the encapsulation bytes.
  kEncapDirect,
  // Local role: plain packets with the care-of source. No mobility support;
  // appropriate for short-lived or local-network exchanges.
  kDirect,
};

const char* MobilePolicyName(MobilePolicy policy);

class MobilePolicyTable {
 public:
  struct Entry {
    Subnet dest;
    MobilePolicy policy = MobilePolicy::kTunnelHome;
    // Set when the policy was confirmed by a probe (triangle verified) or
    // installed as a cached fallback after a failed probe.
    bool verified = false;
    uint64_t hits = 0;
  };

  // Policy used when no entry matches. The basic protocol tunnels everything.
  MobilePolicy default_policy() const { return default_policy_; }
  void set_default_policy(MobilePolicy policy) { default_policy_ = policy; }

  // Installs or replaces the entry for `dest`.
  void Set(const Subnet& dest, MobilePolicy policy, bool verified = false);
  bool Remove(const Subnet& dest);
  void Clear();

  // Longest-prefix match; falls back to the default policy. Counts a hit on
  // the matched entry.
  [[nodiscard]] MobilePolicy Lookup(Ipv4Address dst);
  MobilePolicy LookupConst(Ipv4Address dst) const;

  // Caches "this destination needs tunneling" after a failed optimization
  // probe (paper: "we can cache this information for further use in the
  // Mobile Policy Table").
  void RecordFallback(Ipv4Address dst);

  const std::vector<Entry>& entries() const { return entries_; }
  std::string ToString() const;

 private:
  const Entry* Match(Ipv4Address dst) const;

  std::vector<Entry> entries_;
  MobilePolicy default_policy_ = MobilePolicy::kTunnelHome;
};

}  // namespace msn

#endif  // MSN_SRC_MIP_POLICY_TABLE_H_
