// The paper's measurement harness: a correspondent-side UDP probe stream and
// a mobile-host-side echo server. The correspondent sends a sequence-stamped
// datagram every `interval`; the mobile host echoes it back; unanswered
// sequence numbers are the lost packets plotted in Figure 6 and counted in
// the same-subnet switching experiment (§4).
#ifndef MSN_SRC_TRACING_PROBE_H_
#define MSN_SRC_TRACING_PROBE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/node/node.h"
#include "src/node/udp.h"
#include "src/sim/simulator.h"

namespace msn {

// Echoes every received datagram back to its sender. Run on the mobile host:
// its replies are home-role traffic and exercise the full mobile-IP path.
class ProbeEchoServer {
 public:
  ProbeEchoServer(Node& node, uint16_t port);

  uint64_t echoes_sent() const { return echoes_sent_; }

 private:
  std::unique_ptr<UdpSocket> socket_;
  uint64_t echoes_sent_ = 0;
};

// Sends probes to a target and records which came back and when.
class ProbeSender {
 public:
  struct Config {
    Ipv4Address target;
    uint16_t port = 7;
    Duration interval = Milliseconds(10);
  };

  struct ProbeRecord {
    Time sent_at;
    std::optional<Time> echoed_at;
    Duration Rtt() const { return *echoed_at - sent_at; }
  };

  ProbeSender(Node& node, Config config);
  ~ProbeSender();

  void Start();
  void Stop();

  uint64_t sent() const { return next_seq_; }
  uint64_t received() const { return received_; }
  // Probes never echoed. Only meaningful once the simulation has run past
  // the last probe's round-trip.
  uint64_t TotalLost() const;
  // Lost probes among those *sent* in [from, to).
  uint64_t LostInWindow(Time from, Time to) const;
  // RTT of echoed probes sent in [from, to); empty if none.
  std::vector<Duration> RttsInWindow(Time from, Time to) const;
  // One record per probe sent, indexed by its sequence number.
  const std::vector<ProbeRecord>& records() const { return records_; }

 private:
  void SendProbe();
  void OnEcho(const std::vector<uint8_t>& data);

  Node& node_;
  Config config_;
  std::unique_ptr<UdpSocket> socket_;
  std::unique_ptr<PeriodicTask> task_;
  uint32_t next_seq_ = 0;
  uint64_t received_ = 0;
  std::vector<ProbeRecord> records_;
};

}  // namespace msn

#endif  // MSN_SRC_TRACING_PROBE_H_
