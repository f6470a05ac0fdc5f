#include "src/node/arp.h"

#include <utility>

#include "src/link/net_device.h"
#include "src/node/ip_stack.h"
#include "src/util/logging.h"

namespace msn {

ArpService::ArpService(Simulator& sim, IpStack& stack) : sim_(sim), stack_(stack) {}

ArpService::~ArpService() {
  sim_.Cancel(gratuitous_timer_);
  // Cancel-all teardown: bucket order cannot reach behavior.
  // msn-analyze: allow(determinism/unordered-iteration)
  for (auto& [ip, pending] : pending_) {
    sim_.Cancel(pending.retry_event);
  }
}

std::optional<MacAddress> ArpService::CachedLookup(Ipv4Address ip) const {
  auto it = cache_.find(ip);
  if (it == cache_.end() || it->second.expires < sim_.Now()) {
    return std::nullopt;
  }
  return it->second.mac;
}

void ArpService::InsertCacheEntry(Ipv4Address ip, MacAddress mac) {
  cache_[ip] = CacheEntry{mac, sim_.Now() + entry_lifetime_};
  ++counters_.cache_updates;
}

void ArpService::AddStaticEntry(Ipv4Address ip, MacAddress mac) {
  cache_[ip] = CacheEntry{mac, Time::Max()};
}

void ArpService::RemoveEntry(Ipv4Address ip) { cache_.erase(ip); }

void ArpService::AddProxyEntry(NetDevice* device, Ipv4Address ip) {
  proxies_.emplace(device, ip);
}

void ArpService::RemoveProxyEntry(NetDevice* device, Ipv4Address ip) {
  proxies_.erase({device, ip});
}

bool ArpService::IsProxying(NetDevice* device, Ipv4Address ip) const {
  return proxies_.count({device, ip}) > 0;
}

void ArpService::Flush() { cache_.clear(); }

void ArpService::TransmitArp(NetDevice* device, const ArpMessage& msg, MacAddress dst) {
  EthernetFrame frame;
  frame.dst = dst;
  frame.src = device->mac();
  frame.ethertype = EtherType::kArp;
  frame.payload = msg.Serialize();
  device->Transmit(std::move(frame));
}

void ArpService::SendRequest(NetDevice* device, Ipv4Address ip) {
  ArpMessage req;
  req.op = ArpOp::kRequest;
  req.sender_mac = device->mac();
  req.sender_ip = stack_.GetInterfaceAddress(device).value_or(Ipv4Address::Any());
  req.target_mac = MacAddress::Zero();
  req.target_ip = ip;
  ++counters_.requests_sent;
  MSN_TRACE("arp", "%s: %s", stack_.node_name().c_str(), req.ToString().c_str());
  TransmitArp(device, req, MacAddress::Broadcast());
}

void ArpService::Resolve(NetDevice* device, Ipv4Address ip, ResolveCallback cb) {
  if (auto cached = CachedLookup(ip)) {
    cb(cached);
    return;
  }
  auto it = pending_.find(ip);
  if (it != pending_.end()) {
    it->second.callbacks.push_back(std::move(cb));
    return;
  }
  PendingResolution pending;
  pending.device = device;
  pending.attempts = 1;
  pending.callbacks.push_back(std::move(cb));
  pending.retry_event = sim_.Schedule(kRetryInterval, [this, ip] { RetryOrFail(ip); });
  pending_.emplace(ip, std::move(pending));
  SendRequest(device, ip);
}

void ArpService::RetryOrFail(Ipv4Address ip) {
  auto it = pending_.find(ip);
  if (it == pending_.end()) {
    return;
  }
  PendingResolution& pending = it->second;
  if (pending.attempts >= kMaxRetries) {
    ++counters_.resolutions_failed;
    MSN_DEBUG("arp", "%s: resolution of %s failed", stack_.node_name().c_str(),
              ip.ToString().c_str());
    auto callbacks = std::move(pending.callbacks);
    pending_.erase(it);
    for (auto& cb : callbacks) {
      cb(std::nullopt);
    }
    return;
  }
  ++pending.attempts;
  pending.retry_event = sim_.Schedule(kRetryInterval, [this, ip] { RetryOrFail(ip); });
  SendRequest(pending.device, ip);
}

void ArpService::HandleFrame(NetDevice* device, const EthernetFrame& frame) {
  auto msg = ArpMessage::Parse(frame.payload.span());
  if (!msg) {
    return;
  }
  const bool gratuitous = msg->sender_ip == msg->target_ip && !msg->sender_ip.IsAny();
  const auto our_addr = stack_.GetInterfaceAddress(device);
  const bool for_us = our_addr.has_value() && msg->target_ip == *our_addr;

  // Cache maintenance (RFC 826 merge rules): update an existing entry on any
  // ARP traffic from the sender; create a new one only when we are the
  // target. Gratuitous ARP therefore voids stale entries everywhere without
  // polluting uninvolved caches.
  if (!msg->sender_ip.IsAny()) {
    const bool have_entry = cache_.find(msg->sender_ip) != cache_.end();
    if (have_entry || for_us) {
      InsertCacheEntry(msg->sender_ip, msg->sender_mac);
    }
  }

  if (msg->op == ArpOp::kRequest && !gratuitous) {
    if (for_us) {
      ArpMessage reply;
      reply.op = ArpOp::kReply;
      reply.sender_mac = device->mac();
      reply.sender_ip = msg->target_ip;
      reply.target_mac = msg->sender_mac;
      reply.target_ip = msg->sender_ip;
      ++counters_.replies_sent;
      TransmitArp(device, reply, msg->sender_mac);
    } else if (IsProxying(device, msg->target_ip)) {
      // Proxy ARP: answer on behalf of the away-from-home mobile host with
      // our own MAC so its traffic lands here for tunneling.
      ArpMessage reply;
      reply.op = ArpOp::kReply;
      reply.sender_mac = device->mac();
      reply.sender_ip = msg->target_ip;
      reply.target_mac = msg->sender_mac;
      reply.target_ip = msg->sender_ip;
      ++counters_.proxy_replies_sent;
      MSN_DEBUG("arp", "%s: proxy reply for %s", stack_.node_name().c_str(),
                msg->target_ip.ToString().c_str());
      TransmitArp(device, reply, msg->sender_mac);
    }
    return;
  }

  // Replies (and gratuitous announcements) complete pending resolutions.
  auto it = pending_.find(msg->sender_ip);
  if (it != pending_.end()) {
    sim_.Cancel(it->second.retry_event);
    auto callbacks = std::move(it->second.callbacks);
    pending_.erase(it);
    InsertCacheEntry(msg->sender_ip, msg->sender_mac);
    for (auto& cb : callbacks) {
      cb(msg->sender_mac);
    }
  }
}

void ArpService::SendGratuitousArp(NetDevice* device, Ipv4Address ip) {
  ArpMessage announce;
  announce.op = ArpOp::kReply;
  announce.sender_mac = device->mac();
  announce.sender_ip = ip;
  announce.target_mac = MacAddress::Broadcast();
  announce.target_ip = ip;
  ++counters_.gratuitous_sent;
  MSN_DEBUG("arp", "%s: gratuitous ARP for %s", stack_.node_name().c_str(),
            ip.ToString().c_str());
  TransmitArp(device, announce, MacAddress::Broadcast());
}

void ArpService::AnnounceGratuitousArp(NetDevice* device, Ipv4Address ip) {
  SendGratuitousArp(device, ip);
  QueueGratuitousRepeat(device, ip, kGratuitousRepeats - 1);
}

void ArpService::QueueGratuitousRepeat(NetDevice* device, Ipv4Address ip, int remaining) {
  if (remaining <= 0) {
    return;
  }
  // Reserved after the send, so the send's own transmit event is numbered
  // first and every later event keeps the number a Schedule call made here
  // would leave it.
  const uint64_t seq = sim_.ReserveSequence(1);
  const Time when = sim_.Now() + kGratuitousSpacing;
  gratuitous_.push_back(GratuitousRepeat{when, seq, device, ip, remaining});
  if (gratuitous_.size() == 1) {
    ArmGratuitousTimer();
  }
}

void ArpService::ArmGratuitousTimer() {
  const GratuitousRepeat& next = gratuitous_.front();
  gratuitous_timer_ = sim_.ScheduleReserved(next.when, next.seq, [this] { OnGratuitousTimer(); });
}

void ArpService::OnGratuitousTimer() {
  const GratuitousRepeat repeat = gratuitous_.front();
  gratuitous_.pop_front();
  // Re-arm first, so the next repeat is already pending for the inline
  // dispatch's "nothing else pending now" test (DESIGN.md §18) while this one
  // sends, as it would be if every repeat were its own event.
  if (!gratuitous_.empty()) {
    ArmGratuitousTimer();
  }
  if (!repeat.device->IsUp()) {
    return;
  }
  if (!IsProxying(repeat.device, repeat.ip) &&
      stack_.GetInterfaceAddress(repeat.device) != repeat.ip) {
    return;  // No longer ours to announce.
  }
  SendGratuitousArp(repeat.device, repeat.ip);
  QueueGratuitousRepeat(repeat.device, repeat.ip, repeat.remaining - 1);
}

}  // namespace msn
