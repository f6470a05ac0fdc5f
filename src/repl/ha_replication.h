// The HA-to-HA replication link (DESIGN.md §14).
//
// One HaReplicationLink runs next to each HomeAgent of a replicated pair and
// owns that agent's half of the sync channel:
//
//  * On the primary it taps the agent's replication sink, streams each
//    binding mutation to the peer with an epoch-scoped sequence number,
//    heartbeats every kHeartbeatInterval, and pushes a full snapshot every
//    kSnapshotInterval (and immediately on request) as anti-entropy.
//  * On the standby it applies in-order mutations, acks cumulatively,
//    requests a snapshot when it detects a sequence gap, and watches the
//    primary's heartbeats — takeover_timeout of silence promotes the agent
//    into epoch+1.
//
// Epoch arbitration keeps exactly one primary: a primary that hears a
// primary-role message with a higher epoch steps down into it; in the
// equal-epoch dual-primary case (possible during a partition heal) the
// numerically lower agent address wins. A rejoining agent (service restored
// after an outage or crash) re-arms its watchdog and, as a standby, asks for
// a snapshot so it resyncs from the replica instead of forcing every mobile
// host through identification resync.
//
// Give the two links staggered takeover_timeouts so the designated backup
// always moves first when both ends are standby-capable.
#ifndef MSN_SRC_REPL_HA_REPLICATION_H_
#define MSN_SRC_REPL_HA_REPLICATION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/mip/home_agent.h"
#include "src/node/udp.h"
#include "src/repl/sync_messages.h"
#include "src/sim/simulator.h"
#include "src/telemetry/metrics.h"

namespace msn {

class HaReplicationLink {
 public:
  struct Config {
    // This agent's address and the peer agent's address (sync datagrams flow
    // self:kHaSyncPort <-> peer:kHaSyncPort).
    Ipv4Address self;
    Ipv4Address peer;
    // Standby silence threshold before promoting itself. Stagger across the
    // pair (backup shorter) so the designated backup takes over first.
    Duration takeover_timeout = Milliseconds(2000);
    // When given, link accounting lands here under "<metric_prefix>*";
    // otherwise in a private registry.
    MetricsRegistry* metrics = nullptr;
    std::string metric_prefix = "repl.";
  };

  static constexpr Duration kHeartbeatInterval = Milliseconds(500);
  // Periodic full-snapshot anti-entropy cadence while primary.
  static constexpr Duration kSnapshotInterval = Seconds(5);

  // The link's accounting, named "<metric_prefix><field>".
  struct Counters {
    uint64_t heartbeats_sent = 0;
    uint64_t mutations_sent = 0;
    uint64_t mutations_applied = 0;
    // Mutations re-received below the expected sequence number (re-acked).
    uint64_t duplicate_mutations = 0;
    // Mutations above the expected sequence number: a gap, healed by
    // requesting a snapshot rather than applying out of order.
    uint64_t out_of_order = 0;
    uint64_t acks_received = 0;
    uint64_t snapshot_requests = 0;
    uint64_t snapshots_sent = 0;
    uint64_t snapshots_applied = 0;
    // Self-promotions after heartbeat silence.
    uint64_t takeovers = 0;
    // Demotions after hearing a superior primary.
    uint64_t stepdowns = 0;
  };

  HaReplicationLink(HomeAgent& ha, Config config);
  ~HaReplicationLink();

  HaReplicationLink(const HaReplicationLink&) = delete;
  HaReplicationLink& operator=(const HaReplicationLink&) = delete;

  const Counters& counters() const { return counters_; }
  const Config& config() const { return config_; }
  // Primary-side replication lag: mutations sent but not yet cumulatively
  // acked. Exported as the "<agent metric_prefix>sync_lag" gauge.
  uint64_t sync_lag() const { return last_sent_seq_ - last_acked_seq_; }

 private:
  void OnLocalMutation(const BindingMutation& mutation);
  void OnTick();
  void OnSyncDatagram(const std::vector<uint8_t>& data);
  void OnHeartbeat(const SyncHeartbeat& hb);
  void OnMutation(const SyncMutation& m);
  void OnSnapshot(const SyncSnapshot& snap);
  // Demote our agent into `epoch` (counting a stepdown if it was primary)
  // and fall back to snapshot resync.
  void StepDownInto(uint64_t epoch);
  void Takeover();
  void SendHeartbeat();
  void SendSnapshot();
  void SendAck();
  // Gap/rejoin healing; at most one request per heartbeat interval.
  void RequestSnapshot();
  void UpdateLagGauge();

  HomeAgent& ha_;
  Config config_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;  // Fallback when unbound.
  MetricsRegistry* metrics_;  // config_.metrics, or owned_metrics_.
  Counters counters_;
  Gauge* sync_lag_gauge_ = nullptr;  // "<agent metric_prefix>sync_lag"
  std::unique_ptr<UdpSocket> socket_;
  std::unique_ptr<PeriodicTask> tick_;
  // Primary-side stream state, reset on promotion (sequences are per-epoch).
  uint64_t last_sent_seq_ = 0;
  uint64_t last_acked_seq_ = 0;
  // Standby-side: next mutation sequence number to apply.
  uint64_t expected_seq_ = 1;
  Time last_primary_heard_ = Time::Zero();
  Time last_snapshot_request_ = Time::Zero();
  bool snapshot_requested_ = false;  // Distinguishes "never" from t=0.
  Time next_snapshot_at_ = Time::Zero();
  // Service availability seen on the previous tick; a false->true edge is a
  // rejoin (reset watchdog, resync from replica).
  bool was_available_ = true;
};

}  // namespace msn

#endif  // MSN_SRC_REPL_HA_REPLICATION_H_
