#include "src/dhcp/dhcp.h"
#include "src/util/assert.h"

#include <algorithm>
#include <array>
#include <utility>

#include "src/util/byte_buffer.h"
#include "src/util/logging.h"

namespace msn {

// --- Wire format -------------------------------------------------------------

std::vector<uint8_t> DhcpMessage::Serialize() const {
  ByteWriter w(kSize);
  w.WriteU8(static_cast<uint8_t>(op));
  w.WriteU8(prefix_len);
  w.WriteU32(xid);
  w.WriteBytes(client_mac.bytes().data(), 6);
  w.WriteU32(yiaddr.value());
  w.WriteU32(server.value());
  w.WriteU32(gateway.value());
  w.WriteU32(lease_sec);
  return w.Take();
}

std::optional<DhcpMessage> DhcpMessage::Parse(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  if (r.remaining() < kSize) {
    return std::nullopt;
  }
  DhcpMessage msg;
  const uint8_t op = r.ReadU8();
  if (op < 1 || op > 6) {
    return std::nullopt;
  }
  msg.op = static_cast<DhcpOp>(op);
  msg.prefix_len = r.ReadU8();
  msg.xid = r.ReadU32();
  const auto mac = r.ReadSpan(6);
  if (mac.size() == 6) {
    std::array<uint8_t, 6> m;
    std::copy(mac.begin(), mac.end(), m.begin());
    msg.client_mac = MacAddress(m);
  }
  msg.yiaddr = Ipv4Address(r.ReadU32());
  msg.server = Ipv4Address(r.ReadU32());
  msg.gateway = Ipv4Address(r.ReadU32());
  msg.lease_sec = r.ReadU32();
  if (!r.ok() || msg.prefix_len > 32) {
    return std::nullopt;
  }
  return msg;
}

// --- Server --------------------------------------------------------------------

DhcpServer::DhcpServer(Node& node, Config config) : node_(node), config_(config) {
  for (uint32_t i = 0; i < config_.pool_size; ++i) {
    free_addresses_.push_back(config_.subnet.HostAt(config_.first_host_index + i));
  }
  socket_ = std::make_unique<UdpSocket>(node_.stack());
  MSN_CHECK(socket_->Bind(kDhcpServerPort)) << "dhcp server port";
  socket_->SetReceiveHandler(
      [this](const std::vector<uint8_t>& data, const UdpSocket::Metadata& meta) {
        OnDatagram(data, meta);
      });
}

DhcpServer::~DhcpServer() = default;

std::optional<Ipv4Address> DhcpServer::PeekNextFree() const {
  if (free_addresses_.empty()) {
    return std::nullopt;
  }
  return free_addresses_.front();
}

void DhcpServer::ExpireLeases() {
  const Time now = node_.sim().Now();
  for (auto it = leases_by_mac_.begin(); it != leases_by_mac_.end();) {
    if (it->second.expires <= now) {
      // Expired addresses rejoin the *back* of the free list (reassignment
      // avoidance).
      free_addresses_.push_back(it->second.address);
      it = leases_by_mac_.erase(it);
    } else {
      ++it;
    }
  }
}

std::optional<Ipv4Address> DhcpServer::AllocateFor(MacAddress mac) {
  ExpireLeases();
  auto it = leases_by_mac_.find(mac);
  if (it != leases_by_mac_.end()) {
    return it->second.address;  // Same client keeps its address.
  }
  if (free_addresses_.empty()) {
    ++counters_.pool_exhausted;
    return std::nullopt;
  }
  const Ipv4Address addr = free_addresses_.front();
  free_addresses_.pop_front();
  return addr;
}

void DhcpServer::ReleaseAddress(MacAddress mac) {
  auto it = leases_by_mac_.find(mac);
  if (it == leases_by_mac_.end()) {
    return;
  }
  free_addresses_.push_back(it->second.address);
  leases_by_mac_.erase(it);
}

void DhcpServer::SendToClient(const DhcpMessage& msg) {
  UdpSocket::SendExtras extras;
  extras.force_device = config_.device;
  extras.force_broadcast_mac = true;
  socket_->SendToWithExtras(Ipv4Address::Broadcast(), kDhcpClientPort, msg.Serialize(), extras);
}

void DhcpServer::OnDatagram(const std::vector<uint8_t>& data, const UdpSocket::Metadata& meta) {
  // Serve only requests arriving on our own subnet's interface: a node may
  // host one server per subnet, and broadcast delivery reaches all sockets
  // bound to port 67.
  if (meta.ingress != nullptr && meta.ingress != config_.device) {
    return;
  }
  auto msg = DhcpMessage::Parse(data);
  if (!msg) {
    return;
  }
  switch (msg->op) {
    case DhcpOp::kDiscover: {
      ++counters_.discovers;
      auto addr = AllocateFor(msg->client_mac);
      if (!addr) {
        return;  // Pool exhausted; client will time out.
      }
      // Reserve immediately with a short provisional lease.
      leases_by_mac_[msg->client_mac] =
          Lease{*addr, node_.sim().Now() + Seconds(30)};
      DhcpMessage offer;
      offer.op = DhcpOp::kOffer;
      offer.xid = msg->xid;
      offer.client_mac = msg->client_mac;
      offer.yiaddr = *addr;
      offer.server = node_.stack().GetInterfaceAddress(config_.device).value_or(
          Ipv4Address::Any());
      offer.gateway = config_.gateway;
      offer.prefix_len = static_cast<uint8_t>(config_.subnet.prefix_len());
      offer.lease_sec = static_cast<uint32_t>(config_.lease_time.nanos() / 1000000000);
      ++counters_.offers;
      SendToClient(offer);
      return;
    }
    case DhcpOp::kRequest: {
      auto it = leases_by_mac_.find(msg->client_mac);
      DhcpMessage reply;
      reply.xid = msg->xid;
      reply.client_mac = msg->client_mac;
      reply.server =
          node_.stack().GetInterfaceAddress(config_.device).value_or(Ipv4Address::Any());
      if (it == leases_by_mac_.end() || it->second.address != msg->yiaddr) {
        reply.op = DhcpOp::kNak;
        ++counters_.naks;
      } else {
        it->second.expires = node_.sim().Now() + config_.lease_time;
        reply.op = DhcpOp::kAck;
        reply.yiaddr = it->second.address;
        reply.gateway = config_.gateway;
        reply.prefix_len = static_cast<uint8_t>(config_.subnet.prefix_len());
        reply.lease_sec = static_cast<uint32_t>(config_.lease_time.nanos() / 1000000000);
        ++counters_.acks;
      }
      SendToClient(reply);
      return;
    }
    case DhcpOp::kRelease:
      ++counters_.releases;
      ReleaseAddress(msg->client_mac);
      return;
    default:
      return;  // OFFER/ACK/NAK are server->client only.
  }
}

// --- Client --------------------------------------------------------------------

DhcpClient::DhcpClient(Node& node, NetDevice* device) : node_(node), device_(device) {
  socket_ = std::make_unique<UdpSocket>(node_.stack());
  MSN_CHECK(socket_->Bind(kDhcpClientPort)) << "dhcp client port";
  socket_->SetReceiveHandler(
      [this](const std::vector<uint8_t>& data, const UdpSocket::Metadata& meta) {
        OnDatagram(data, meta);
      });
}

DhcpClient::~DhcpClient() {
  node_.sim().Cancel(timeout_event_);
  node_.sim().Cancel(renewal_event_);
}

void DhcpClient::Acquire(AcquireCallback done) {
  done_ = std::move(done);
  xid_ = static_cast<uint32_t>(node_.sim().rng().NextU64());
  retries_left_ = kMaxRetries;
  phase_ = Phase::kDiscovering;
  last_offer_.reset();
  SendDiscover();
}

void DhcpClient::SendDiscover() {
  DhcpMessage msg;
  msg.op = DhcpOp::kDiscover;
  msg.xid = xid_;
  msg.client_mac = device_->mac();
  UdpSocket::SendExtras extras;
  extras.force_device = device_;
  extras.force_broadcast_mac = true;
  extras.allow_unconfigured_source = true;
  socket_->SendToWithExtras(Ipv4Address::Broadcast(), kDhcpServerPort, msg.Serialize(), extras);
  node_.sim().Cancel(timeout_event_);
  timeout_event_ = node_.sim().Schedule(kRetryInterval, [this] { OnTimeout(); });
}

void DhcpClient::SendRequest(const DhcpMessage& offer) {
  phase_ = Phase::kRequesting;
  DhcpMessage msg;
  msg.op = DhcpOp::kRequest;
  msg.xid = xid_;
  msg.client_mac = device_->mac();
  msg.yiaddr = offer.yiaddr;
  msg.server = offer.server;
  UdpSocket::SendExtras extras;
  extras.force_device = device_;
  extras.force_broadcast_mac = true;
  extras.allow_unconfigured_source = true;
  socket_->SendToWithExtras(Ipv4Address::Broadcast(), kDhcpServerPort, msg.Serialize(), extras);
  node_.sim().Cancel(timeout_event_);
  timeout_event_ = node_.sim().Schedule(kRetryInterval, [this] { OnTimeout(); });
}

void DhcpClient::OnTimeout() {
  if (phase_ == Phase::kIdle) {
    return;
  }
  if (retries_left_ <= 0) {
    MSN_WARN("dhcp", "%s: acquisition timed out", node_.name().c_str());
    phase_ = Phase::kIdle;
    Finish(std::nullopt);
    return;
  }
  --retries_left_;
  if (phase_ == Phase::kRequesting && last_offer_) {
    SendRequest(*last_offer_);
  } else {
    phase_ = Phase::kDiscovering;
    SendDiscover();
  }
}

void DhcpClient::OnDatagram(const std::vector<uint8_t>& data, const UdpSocket::Metadata& meta) {
  (void)meta;
  auto msg = DhcpMessage::Parse(data);
  if (!msg || msg->xid != xid_ || msg->client_mac != device_->mac()) {
    return;
  }
  switch (msg->op) {
    case DhcpOp::kOffer:
      if (phase_ != Phase::kDiscovering) {
        return;
      }
      last_offer_ = *msg;
      SendRequest(*msg);
      return;
    case DhcpOp::kAck: {
      if (phase_ != Phase::kRequesting) {
        return;
      }
      node_.sim().Cancel(timeout_event_);
      phase_ = Phase::kIdle;
      const bool is_renewal = lease_.has_value() && !done_;
      DhcpLease lease;
      lease.address = msg->yiaddr;
      lease.mask = SubnetMask(msg->prefix_len);
      lease.gateway = msg->gateway;
      lease.server = msg->server;
      lease.lease_time = Seconds(msg->lease_sec);
      lease_ = lease;
      if (is_renewal) {
        ++renewals_;
        ScheduleRenewal();
        return;
      }
      MSN_INFO("dhcp", "%s: leased %s/%u via %s", node_.name().c_str(),
               lease.address.ToString().c_str(), msg->prefix_len,
               lease.gateway.ToString().c_str());
      ScheduleRenewal();
      Finish(lease);
      return;
    }
    case DhcpOp::kNak:
      node_.sim().Cancel(timeout_event_);
      phase_ = Phase::kIdle;
      lease_.reset();
      Finish(std::nullopt);
      return;
    default:
      return;
  }
}

void DhcpClient::Finish(std::optional<DhcpLease> lease) {
  if (done_) {
    AcquireCallback cb = std::move(done_);
    done_ = nullptr;
    cb(std::move(lease));
  }
}

void DhcpClient::ScheduleRenewal() {
  node_.sim().Cancel(renewal_event_);
  if (!lease_ || lease_->lease_time.nanos() <= 0) {
    return;
  }
  renewal_event_ = node_.sim().Schedule(lease_->lease_time / 2, [this] {
    if (!lease_ || !last_offer_) {
      return;
    }
    // Lease refresh: part of the mobile host's *local* role (paper §5.2).
    retries_left_ = kMaxRetries;
    DhcpMessage offer = *last_offer_;
    offer.yiaddr = lease_->address;
    SendRequest(offer);
  });
}

void DhcpClient::Release() {
  node_.sim().Cancel(renewal_event_);
  if (!lease_) {
    return;
  }
  DhcpMessage msg;
  msg.op = DhcpOp::kRelease;
  msg.xid = xid_;
  msg.client_mac = device_->mac();
  msg.yiaddr = lease_->address;
  UdpSocket::SendExtras extras;
  extras.force_device = device_;
  extras.force_broadcast_mac = true;
  extras.allow_unconfigured_source = true;
  socket_->SendToWithExtras(Ipv4Address::Broadcast(), kDhcpServerPort, msg.Serialize(), extras);
  lease_.reset();
}

}  // namespace msn
