#include "src/mip/policy_table.h"

#include <algorithm>
#include <cstdio>

namespace msn {

const char* MobilePolicyName(MobilePolicy policy) {
  switch (policy) {
    case MobilePolicy::kTunnelHome:
      return "tunnel-home";
    case MobilePolicy::kTriangle:
      return "triangle";
    case MobilePolicy::kEncapDirect:
      return "encap-direct";
    case MobilePolicy::kDirect:
      return "direct";
  }
  return "?";
}

void MobilePolicyTable::Set(const Subnet& dest, MobilePolicy policy, bool verified) {
  for (Entry& e : entries_) {
    if (e.dest == dest) {
      e.policy = policy;
      e.verified = verified;
      return;
    }
  }
  entries_.push_back(Entry{dest, policy, verified, 0});
}

bool MobilePolicyTable::Remove(const Subnet& dest) {
  const size_t before = entries_.size();
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [&dest](const Entry& e) { return e.dest == dest; }),
                 entries_.end());
  return entries_.size() != before;
}

void MobilePolicyTable::Clear() { entries_.clear(); }

const MobilePolicyTable::Entry* MobilePolicyTable::Match(Ipv4Address dst) const {
  const Entry* best = nullptr;
  for (const Entry& e : entries_) {
    if (e.dest.Contains(dst) &&
        (best == nullptr || e.dest.prefix_len() > best->dest.prefix_len())) {
      best = &e;
    }
  }
  return best;
}

MobilePolicy MobilePolicyTable::Lookup(Ipv4Address dst) {
  const Entry* match = Match(dst);
  if (match == nullptr) {
    return default_policy_;
  }
  ++const_cast<Entry*>(match)->hits;
  return match->policy;
}

MobilePolicy MobilePolicyTable::LookupConst(Ipv4Address dst) const {
  const Entry* match = Match(dst);
  return match == nullptr ? default_policy_ : match->policy;
}

void MobilePolicyTable::RecordFallback(Ipv4Address dst) {
  Set(Subnet(dst, SubnetMask(32)), MobilePolicy::kTunnelHome, /*verified=*/true);
}

std::string MobilePolicyTable::ToString() const {
  std::string out = "default: ";
  out += MobilePolicyName(default_policy_);
  out += '\n';
  char line[128];
  for (const Entry& e : entries_) {
    std::snprintf(line, sizeof(line), "%-18s %-12s %s hits=%llu\n", e.dest.ToString().c_str(),
                  MobilePolicyName(e.policy), e.verified ? "verified" : "unverified",
                  static_cast<unsigned long long>(e.hits));
    out += line;
  }
  return out;
}

}  // namespace msn
