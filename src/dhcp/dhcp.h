// Minimal DHCP (RFC 1541 era, as the paper cites) for care-of address
// acquisition on foreign networks: DISCOVER / OFFER / REQUEST / ACK / NAK /
// RELEASE over UDP 67/68 broadcast.
//
// The server implements the reassignment-avoidance policy the paper leans on
// for its security argument (§5.1): released or expired addresses go to the
// back of a free queue, so "a well-written DHCP server would avoid reassigning
// the same IP address for as long as possible".
#ifndef MSN_SRC_DHCP_DHCP_H_
#define MSN_SRC_DHCP_DHCP_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/net/address.h"
#include "src/node/node.h"
#include "src/node/udp.h"

namespace msn {

inline constexpr uint16_t kDhcpServerPort = 67;
inline constexpr uint16_t kDhcpClientPort = 68;

enum class DhcpOp : uint8_t {
  kDiscover = 1,
  kOffer = 2,
  kRequest = 3,
  kAck = 4,
  kNak = 5,
  kRelease = 6,
};

struct DhcpMessage {
  // op(1) + prefix(1) + xid(4) + mac(6) + yiaddr(4) + server(4) + gateway(4)
  // + lease(4).
  static constexpr size_t kSize = 28;

  DhcpOp op = DhcpOp::kDiscover;
  uint32_t xid = 0;          // Transaction id chosen by the client.
  MacAddress client_mac;
  Ipv4Address yiaddr;        // Offered / acknowledged address.
  Ipv4Address server;        // Server identifier.
  Ipv4Address gateway;       // Default router option.
  uint8_t prefix_len = 24;   // Subnet mask option.
  uint32_t lease_sec = 0;

  [[nodiscard]] std::vector<uint8_t> Serialize() const;
  [[nodiscard]] static std::optional<DhcpMessage> Parse(const std::vector<uint8_t>& bytes);
};

// Address lease handed to a client.
struct DhcpLease {
  Ipv4Address address;
  SubnetMask mask;
  Ipv4Address gateway;
  Ipv4Address server;
  Duration lease_time;
};

class DhcpServer {
 public:
  struct Config {
    NetDevice* device = nullptr;  // Interface serving the subnet.
    Subnet subnet;
    // Pool [first_host_index, first_host_index + pool_size).
    uint32_t first_host_index = 100;
    uint32_t pool_size = 50;
    Ipv4Address gateway;
    Duration lease_time = Seconds(600);
  };

  struct Counters {
    uint64_t discovers = 0;
    uint64_t offers = 0;
    uint64_t acks = 0;
    uint64_t naks = 0;
    uint64_t releases = 0;
    uint64_t pool_exhausted = 0;
  };

  DhcpServer(Node& node, Config config);
  ~DhcpServer();

  size_t active_leases() const { return leases_by_mac_.size(); }
  const Counters& counters() const { return counters_; }
  // For tests: the next address that would be offered to a new client.
  [[nodiscard]] std::optional<Ipv4Address> PeekNextFree() const;

 private:
  struct Lease {
    Ipv4Address address;
    Time expires;
  };

  void OnDatagram(const std::vector<uint8_t>& data, const UdpSocket::Metadata& meta);
  [[nodiscard]] std::optional<Ipv4Address> AllocateFor(MacAddress mac);
  void ReleaseAddress(MacAddress mac);
  void ExpireLeases();
  void SendToClient(const DhcpMessage& msg);

  Node& node_;
  Config config_;
  std::unique_ptr<UdpSocket> socket_;
  std::map<MacAddress, Lease> leases_by_mac_;
  // Free addresses in least-recently-used order: reassignment avoidance.
  std::deque<Ipv4Address> free_addresses_;
  Counters counters_;
};

class DhcpClient {
 public:
  using AcquireCallback = std::function<void(std::optional<DhcpLease>)>;

  // Each DISCOVER/REQUEST waits this long for an answer, and is re-sent up
  // to kMaxRetries times before the acquisition fails.
  static constexpr Duration kRetryInterval = Seconds(2);
  static constexpr int kMaxRetries = 3;

  DhcpClient(Node& node, NetDevice* device);
  ~DhcpClient();

  // Runs DISCOVER -> OFFER -> REQUEST -> ACK. The device must be up; no IP
  // address is required (packets go out with source 0.0.0.0 to broadcast).
  // The lease is then re-REQUESTed at half its lease time (paper: the lease
  // refresh is local-role traffic).
  void Acquire(AcquireCallback done);
  // Informs the server the address is no longer used.
  void Release();

  const std::optional<DhcpLease>& lease() const { return lease_; }
  uint64_t renewals() const { return renewals_; }

 private:
  enum class Phase { kIdle, kDiscovering, kRequesting };

  void SendDiscover();
  void SendRequest(const DhcpMessage& offer);
  void OnDatagram(const std::vector<uint8_t>& data, const UdpSocket::Metadata& meta);
  void OnTimeout();
  void Finish(std::optional<DhcpLease> lease);
  void ScheduleRenewal();

  Node& node_;
  NetDevice* device_;
  std::unique_ptr<UdpSocket> socket_;
  Phase phase_ = Phase::kIdle;
  uint32_t xid_ = 0;
  int retries_left_ = 0;
  EventId timeout_event_;
  EventId renewal_event_;
  AcquireCallback done_;
  std::optional<DhcpLease> lease_;
  std::optional<DhcpMessage> last_offer_;
  uint64_t renewals_ = 0;
};

}  // namespace msn

#endif  // MSN_SRC_DHCP_DHCP_H_
