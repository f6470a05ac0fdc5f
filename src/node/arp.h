// The Address Resolution Protocol service of a host.
//
// Beyond ordinary request/reply resolution with a pending-packet queue, this
// implements the two mechanisms the MosquitoNet home agent depends on:
//
//  * Proxy ARP   — the HA answers ARP requests for a registered mobile host's
//                  home address with its own MAC, so it intercepts the MH's
//                  packets while the MH is away (paper §3.1).
//  * Gratuitous ARP — broadcast announcement that updates *existing* cache
//                  entries on other hosts, voiding stale mappings when a
//                  binding changes or the MH returns home (paper §3.1).
#ifndef MSN_SRC_NODE_ARP_H_
#define MSN_SRC_NODE_ARP_H_

#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/net/frame.h"
#include "src/net/headers.h"
#include "src/sim/simulator.h"

namespace msn {

class IpStack;
class NetDevice;

class ArpService {
 public:
  using ResolveCallback = std::function<void(std::optional<MacAddress>)>;
  // Answers whether this host proxies `ip` on `device`: ARP requests asking
  // for it there are answered with the device's own MAC (the home agent's
  // interception mechanism). The owner holds the state; the service keeps no
  // copy of it.
  using ProxyOwner = std::function<bool(NetDevice* device, Ipv4Address ip)>;

  ArpService(Simulator& sim, IpStack& stack);
  // Cancels the service's pending events (the next gratuitous repeat and
  // every resolution retry), so a node destroyed mid-run leaves nothing in
  // the simulator pointing at it.
  ~ArpService();

  ArpService(const ArpService&) = delete;
  ArpService& operator=(const ArpService&) = delete;

  // Resolves `ip` on `device`. Invokes `cb` immediately if cached; otherwise
  // sends up to `kMaxRetries` requests one second apart and fails with
  // nullopt if none is answered.
  void Resolve(NetDevice* device, Ipv4Address ip, ResolveCallback cb);

  // Handles an incoming ARP frame (request or reply) on `device`.
  void HandleFrame(NetDevice* device, const EthernetFrame& frame);

  void AddStaticEntry(Ipv4Address ip, MacAddress mac);
  void RemoveEntry(Ipv4Address ip);
  // Installs the one proxy owner (a home agent); with none, nothing is
  // proxied. The owner must clear it before it goes away.
  void SetProxyOwner(ProxyOwner owner) { proxy_owner_ = std::move(owner); }
  void ClearProxyOwner() { proxy_owner_ = nullptr; }
  bool IsProxying(NetDevice* device, Ipv4Address ip) const {
    return proxy_owner_ && proxy_owner_(device, ip);
  }

  // Broadcasts a gratuitous ARP binding `ip` to the device's MAC. Receivers
  // that already have an entry for `ip` overwrite it (stale-entry voiding).
  void SendGratuitousArp(NetDevice* device, Ipv4Address ip);

  // Gratuitous ARP with retransmissions (RFC 2002 §4.6: the announcement
  // rides an unreliable broadcast, so mobility agents repeat it). A repeat is
  // skipped once the claim stops being true — the device went down, or the
  // address is neither proxied nor configured here any more — so a stale
  // repeat can never clobber the next owner's announcement. Each repeat fires
  // at the (time, sequence) position its own Schedule call would have taken,
  // but only the earliest one is ever pending in the simulator (DESIGN.md §17).
  static constexpr int kGratuitousRepeats = 3;
  static constexpr Duration kGratuitousSpacing = Milliseconds(400);
  void AnnounceGratuitousArp(NetDevice* device, Ipv4Address ip);

  [[nodiscard]] std::optional<MacAddress> CachedLookup(Ipv4Address ip) const;
  void Flush();
  // Entries expire this long after last refresh.
  void set_entry_lifetime(Duration d) { entry_lifetime_ = d; }

  struct Counters {
    uint64_t requests_sent = 0;
    uint64_t replies_sent = 0;
    uint64_t proxy_replies_sent = 0;
    uint64_t gratuitous_sent = 0;
    uint64_t resolutions_failed = 0;
    uint64_t cache_updates = 0;
  };
  const Counters& counters() const { return counters_; }

  static constexpr int kMaxRetries = 3;
  static constexpr Duration kRetryInterval = Seconds(1);

 private:
  struct CacheEntry {
    MacAddress mac;
    Time expires;
  };
  struct PendingResolution {
    NetDevice* device;
    int attempts = 0;
    std::vector<ResolveCallback> callbacks;
    EventId retry_event;
  };
  // One queued gratuitous repeat, due at (when, seq).
  struct GratuitousRepeat {
    Time when;
    uint64_t seq;
    NetDevice* device;
    Ipv4Address ip;
    int remaining;  // Repeats still due after this one.
  };

  void SendRequest(NetDevice* device, Ipv4Address ip);
  // Queues a repeat of `ip`'s announcement one spacing from now, at the next
  // sequence number.
  void QueueGratuitousRepeat(NetDevice* device, Ipv4Address ip, int remaining);
  void ArmGratuitousTimer();
  void OnGratuitousTimer();
  void RetryOrFail(Ipv4Address ip);
  void InsertCacheEntry(Ipv4Address ip, MacAddress mac);
  void TransmitArp(NetDevice* device, const ArpMessage& msg, MacAddress dst);

  Simulator& sim_;
  IpStack& stack_;
  // Hash tables are safe here only because nothing traverses them: lookups
  // are point queries (find/erase) and expiry is checked lazily per lookup, so
  // bucket order can never reach the wire. Any future sweep (cache aging,
  // pending-timeout scan) must use sorted traversal — msn_analyze's
  // determinism/unordered-iteration rule flags the loop if one appears.
  std::unordered_map<Ipv4Address, CacheEntry> cache_;
  std::unordered_map<Ipv4Address, PendingResolution> pending_;
  ProxyOwner proxy_owner_;
  // Gratuitous repeats in fire order: each is queued at the current time with
  // the same fixed spacing and a fresh sequence number, so (when, seq) only
  // grows along the queue. Only the front has a simulator event
  // (gratuitous_timer_).
  std::deque<GratuitousRepeat> gratuitous_;
  EventId gratuitous_timer_;
  Duration entry_lifetime_ = Seconds(120);
  Counters counters_;
};

}  // namespace msn

#endif  // MSN_SRC_NODE_ARP_H_
