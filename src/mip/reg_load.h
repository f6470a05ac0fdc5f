// Synthetic registration load: a fleet of lightweight mobile-host stand-ins
// sharing one node and one UDP socket, used to drive a home agent to
// fleet scale (bench_ha_scaling) and to overload it on purpose (the
// fuzzer's overload stanza). Each client is ~40 bytes of state instead of a
// full Node + MobileHost, so sweeps of 100k+ registrants stay cheap.
//
// Each client sends one registration (home addresses are contiguous from
// `first_home`), retransmits on MobileHost's schedule (NextRegistrationBackoff),
// treats a kDeniedInsufficientResources reply as "back off and try again"
// without consuming its retransmit budget, and answers a
// restarted HA's kDeniedIdentificationMismatch with a fresh-id re-send —
// mirroring the real host's convergence behavior under admission control
// and across daemon restarts (DESIGN.md §17).
#ifndef MSN_SRC_MIP_REG_LOAD_H_
#define MSN_SRC_MIP_REG_LOAD_H_

#include <memory>
#include <vector>

#include "src/mip/messages.h"
#include "src/node/node.h"
#include "src/node/udp.h"
#include "src/util/stats.h"

namespace msn {

class RegistrationLoadGenerator {
 public:
  struct Config {
    Ipv4Address home_agent;
    // Client i claims home address first_home + i. The HA's home_subnet must
    // cover the whole range.
    Ipv4Address first_home;
    uint32_t count = 1;
    // Client i registers care-of address first_care_of + (i % care_of_span);
    // the span bounds the range so huge fleets reuse care-of addresses
    // rather than walking into a neighboring subnet.
    Ipv4Address first_care_of;
    uint32_t care_of_span = 60000;
    uint16_t lifetime_sec = 300;
    // Client i's first send happens at start_delay + i * interarrival; the
    // interarrival spacing is the offered load (rate = 1/interarrival).
    Duration start_delay = Seconds(1);
    Duration interarrival = Microseconds(100);
    // Retransmissions after the initial send, on NextRegistrationBackoff's
    // schedule.
    int max_retransmits = 4;
  };

  // Identification-resync budget: a restarted HA denies each wiped home's
  // first registration with a mismatch to re-anchor its replay window; the
  // client re-sends with a fresh identification. One per restart, so the
  // budget bounds restarts survived, not retries.
  static constexpr int kMaxResyncs = 8;

  struct Stats {
    uint64_t sent = 0;
    uint64_t retransmissions = 0;
    uint64_t accepted = 0;
    // kDeniedInsufficientResources replies (each triggers a backoff retry).
    uint64_t admission_denied = 0;
    // kDeniedIdentificationMismatch replies answered with a fresh-id re-send.
    uint64_t resyncs = 0;
    // Any other denial (or an exhausted resync budget): terminal.
    uint64_t denied_other = 0;
    // Clients that exhausted max_retransmits without an answer.
    uint64_t gave_up = 0;
  };

  RegistrationLoadGenerator(Node& node, Config config);
  ~RegistrationLoadGenerator();

  RegistrationLoadGenerator(const RegistrationLoadGenerator&) = delete;
  RegistrationLoadGenerator& operator=(const RegistrationLoadGenerator&) = delete;

  // Begins the arrivals: client i first sends at start_delay + i *
  // interarrival from now. Only the next arrival is ever pending; its
  // sequence numbers are reserved here so each fires exactly where a
  // separately pre-scheduled send would have (DESIGN.md §17). Call once.
  void Start();

  const Stats& stats() const { return stats_; }
  // First-send to accepted-reply latency per completed client, in
  // milliseconds. Includes retransmit and admission-backoff waits, so under
  // overload this is the "completion latency" the bench reports.
  const RunningStats& completion_stats_ms() const { return completion_stats_ms_; }
  // Raw completion samples (one per accepted client) for exact percentiles.
  const std::vector<double>& completion_samples_ms() const { return completion_samples_ms_; }
  // Clients whose registration was accepted.
  uint64_t completed() const { return stats_.accepted; }
  uint32_t client_count() const { return config_.count; }
  // When the first request left / the last acceptance landed (throughput
  // window); Time() until the respective event has happened.
  Time first_send_time() const { return first_send_time_; }
  Time last_accept_time() const { return last_accept_time_; }

 private:
  struct Client {
    Ipv4Address home;
    Ipv4Address care_of;
    uint64_t next_identification = 1;
    uint64_t outstanding = 0;  // 0 = nothing in flight.
    int retransmits_left = 0;
    int resyncs_left = 0;
    Duration backoff;  // Decorrelated-jitter state; zero before first wait.
    Time first_send;
    bool done = false;
    EventId retransmit_event;
  };

  // Schedules client `index`'s first send at its reserved position.
  void ScheduleArrival(size_t index);
  void SendRequest(size_t index, bool is_retransmit);
  void OnTimeout(size_t index);
  void OnDatagram(const std::vector<uint8_t>& data, const UdpSocket::Metadata& meta);

  Node& node_;
  Config config_;
  std::unique_ptr<UdpSocket> socket_;
  std::vector<Client> clients_;
  Stats stats_;
  RunningStats completion_stats_ms_;
  std::vector<double> completion_samples_ms_;
  Time first_send_time_;
  Time last_accept_time_;
  // Arrival series: client i's first send fires at (arrivals_start_ + i *
  // interarrival, arrival_seq_ + i); arrival_event_ is the one pending.
  Time arrivals_start_;
  uint64_t arrival_seq_ = 0;
  EventId arrival_event_;
};

}  // namespace msn

#endif  // MSN_SRC_MIP_REG_LOAD_H_
