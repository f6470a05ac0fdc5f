// The home agent (paper §3.1, §3.4).
//
// Runs on a host in the mobile host's home network (often, but not
// necessarily, the router). For each registered away-from-home mobile host it
// keeps a *mobility binding* (care-of address, lifetime, identification) and:
//
//  * intercepts packets for the MH's home address by acting as its ARP proxy
//    and broadcasting a gratuitous ARP to void stale neighbor caches;
//  * installs a route-table override directing those packets to its VIF,
//    which encapsulates them IP-in-IP to the current care-of address;
//  * decapsulates reverse-tunneled packets from the MH and forwards them on
//    to their true destinations;
//  * answers registration requests on UDP port 434, including deregistration
//    when the mobile host returns home.
//
// Registration processing (DESIGN.md §17): the paper's single user-level
// daemon is generalized into a sharded, batched registration server. The
// binding table is split across `num_shards` logical shards keyed by a hash
// of the home address; each shard has its own request queue and daemon
// (per-shard busy window in sim-time), so shards drain independently. A
// shard's daemon dequeues up to `batch_max` requests per pass and amortizes
// the fixed per-pass cost (dequeue, context, reply flush) across the burst;
// a single queued request pays exactly the paper's serial 1.48 ms, keeping
// the calibrated uncontended path identical to the classic daemon. In front
// of the queues sits an admission filter: once a shard's queue depth crosses
// `admission_queue_limit`, new arrivals are denied statelessly
// (kDeniedInsufficientResources, before any authentication or identification
// work), and once queue depth plus the denials already issued this daemon
// pass reach twice that limit even the denial is skipped. A
// retransmit of a request that is still queued supersedes the stale copy in
// place instead of growing the queue.
//
// Replication (DESIGN.md §14): a home agent can be deployed as one of a
// primary/standby pair. The primary emits every locally-originated binding
// mutation through a replication sink (consumed by repl::HaReplicationLink),
// and a standby applies the mirrored mutations without serving: it holds the
// binding table but installs no proxy ARP, answers no registrations, and
// tunnels nothing until promoted. Roles carry an epoch so that exactly one
// agent serves a binding at a time — a promotion bumps the epoch, and a stale
// primary hearing a higher epoch steps down.
#ifndef MSN_SRC_MIP_HOME_AGENT_H_
#define MSN_SRC_MIP_HOME_AGENT_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/mip/calibration.h"
#include "src/mip/ipip.h"
#include "src/mip/messages.h"
#include "src/mip/vif.h"
#include "src/node/node.h"
#include "src/node/udp.h"
#include "src/telemetry/metrics.h"
#include "src/util/stats.h"

namespace msn {

// Which side of a replicated pair this agent currently plays. Exactly one
// agent of a pair is primary (serving) per epoch.
enum class HaRole {
  kPrimary,  // Serves registrations, proxy-ARPs, tunnels.
  kStandby,  // Mirrors binding state; serves nothing until promoted.
};

// How an HA outage manifests (FaultSchedule::HaOutage / HaCrash).
enum class HaOutageKind {
  // The registration daemon is unreachable (UDP 434 silently dropped) but
  // keeps its state; tunneling continues.
  kService,
  // The daemon dies and restarts: soft state (bindings, replay history) is
  // wiped at outage begin; recovering mobile hosts go through the
  // identification-resync path unless a replica restores the state first.
  kDaemonRestart,
  // Fail-stop crash of the whole agent: nothing is served and every packet
  // arriving at the dead agent is dropped (and drop-reason counted). RAM is
  // lost, so state is wiped when — if ever — the agent rejoins (EndOutage).
  kFailStop,
};

// One binding-table mutation, as streamed primary -> standby over the sync
// channel (src/repl/). Also the unit a standby applies.
struct BindingMutation {
  enum class Kind : uint8_t {
    kInstall = 1,         // Create or refresh a binding.
    kRemove = 2,          // Deregistration or expiry.
    kIdentification = 3,  // Re-anchor the replay window only.
  };

  Kind kind = Kind::kInstall;
  Ipv4Address home_address;
  Ipv4Address care_of;             // kInstall.
  uint16_t lifetime_sec = 0;       // kInstall: remaining lifetime.
  uint64_t identification = 0;     // Replay-window anchor.
  bool decapsulates_self = true;   // kInstall.
};

// Full agent state for snapshot anti-entropy: the binding table plus the
// per-home identification history.
struct HaBindingState {
  struct Entry {
    Ipv4Address home_address;
    Ipv4Address care_of;
    uint16_t lifetime_sec = 0;  // Remaining, from snapshot time.
    uint64_t identification = 0;
    bool decapsulates_self = true;
  };
  std::vector<Entry> bindings;
  // Sorted by address (std::map iteration order) for determinism.
  std::vector<std::pair<Ipv4Address, uint64_t>> identifications;
};

class HomeAgent {
 public:
  struct Config {
    // The HA's own address on the home subnet.
    Ipv4Address address;
    // Device attached to the home subnet (where proxy ARP happens).
    NetDevice* home_device = nullptr;
    // Home addresses must fall inside this subnet to be served.
    Subnet home_subnet;
    // Require every registration to carry a valid mobile-home authenticator
    // (paper §5.1: registrations "should be authenticated ... to protect
    // against denial-of-service attacks in the form of malicious fraudulent
    // registrations"). Keys are installed per mobile host via SetAuthKey.
    bool require_authentication = false;
    // Role this agent boots in; a replicated pair starts one primary, one
    // standby. Epochs start at 1.
    HaRole initial_role = HaRole::kPrimary;
    // When given, the agent's accounting lands here under
    // "<metric_prefix>*" (counters, a bindings gauge, a role gauge, and a
    // processing-time histogram); otherwise in a private registry, so
    // counters() behaves identically either way.
    MetricsRegistry* metrics = nullptr;
    // Metric namespace; the backup of a replicated pair uses "ha.backup." so
    // both agents can share one registry.
    std::string metric_prefix = "ha.";
    // Logical shards of the binding table / registration pipeline, keyed by
    // a hash of the home address. Clamped to [1, kMaxShards]. Per-shard
    // accounting lands under "<metric_prefix>shard.<i>.*".
    uint32_t num_shards = 1;
    // Max requests a shard's daemon dequeues per batch pass (>= 1). A batch
    // of one pays the serial ha_processing cost; larger batches pay
    // ha_batch_fixed once plus ha_batch_item per request.
    uint32_t batch_max = 8;
    // Admission control: deny statelessly (kDeniedInsufficientResources,
    // before authentication) once a shard's queue holds this many requests.
    // Past twice this pressure even the denial is skipped (silent drop):
    // pressure is queue depth plus denials already issued since the shard's
    // daemon last ran, so a flood cannot make the agent spend all its time
    // sending denials. 0 disables admission control (unbounded queues).
    uint32_t admission_queue_limit = 0;
  };

  // Upper bound on granted binding lifetimes.
  static constexpr uint16_t kMaxLifetimeSec = 600;

  static constexpr uint32_t kMaxShards = 64;

  struct Binding {
    Ipv4Address home_address;
    Ipv4Address care_of;
    Time expires;
    uint64_t identification = 0;
    Time registered_at;
    // True when the MH decapsulates itself (co-located care-of, the paper's
    // basic protocol); false when the care-of address is a foreign agent.
    bool decapsulates_self = true;
  };

  // The agent's accounting, named "<metric_prefix><field>" (the admission_*
  // fields as "<metric_prefix>admission.<what>").
  struct Counters {
    uint64_t requests_received = 0;
    uint64_t registrations_accepted = 0;
    uint64_t registrations_denied = 0;
    uint64_t deregistrations = 0;
    uint64_t packets_tunneled = 0;
    uint64_t reverse_decapsulated = 0;
    uint64_t bindings_expired = 0;
    uint64_t tunnel_drops_no_binding = 0;
    // Requests silently dropped while the agent was in an outage window.
    uint64_t requests_dropped_outage = 0;
    // Requests dropped because this agent is a non-serving standby.
    uint64_t requests_dropped_standby = 0;
    // Requests that arrived at a fail-stop-crashed agent.
    uint64_t requests_dropped_crashed = 0;
    // Tunnel packets (either direction) that arrived at a crashed agent.
    uint64_t tunnel_drops_crashed = 0;
    // Bindings discarded by a daemon restart (HaOutageKind::kDaemonRestart)
    // or a fail-stop rejoin.
    uint64_t bindings_wiped = 0;
    // Post-restart registrations denied once with kDeniedIdentificationMismatch
    // to re-anchor the replay window.
    uint64_t resync_denials = 0;
    // Admission control: requests denied statelessly with
    // kDeniedInsufficientResources (queue over admission_queue_limit).
    uint64_t admission_denied = 0;
    // Requests dropped without even a denial (pressure over twice
    // admission_queue_limit).
    uint64_t admission_dropped = 0;
    // Retransmits that superseded a stale queued copy of the same home's
    // request instead of growing the queue.
    uint64_t admission_superseded = 0;
  };

  // Observer for binding changes; `new_care_of` is Any() on removal.
  using BindingObserver = std::function<void(Ipv4Address home_address, Ipv4Address old_care_of,
                                             Ipv4Address new_care_of)>;
  // Sink for locally-originated binding mutations (replication stream).
  using ReplicationSink = std::function<void(const BindingMutation&)>;

  HomeAgent(Node& node, Config config);
  ~HomeAgent();

  HomeAgent(const HomeAgent&) = delete;
  HomeAgent& operator=(const HomeAgent&) = delete;

  // Restricts service to explicitly authorized home addresses. With no calls,
  // any home address inside `home_subnet` is served.
  void AuthorizeMobileHost(Ipv4Address home_address);
  // Installs the shared secret for a mobile host. When a key is present the
  // MH's registrations are always verified (and replies authenticated), even
  // if require_authentication is off.
  void SetAuthKey(Ipv4Address home_address, const MipAuthKey& key);

  // Fault hooks (driven by FaultSchedule::HaOutage / HaCrash). During any
  // outage every UDP 434 request is dropped without a reply — from the MH's
  // point of view the agent is simply unreachable. See HaOutageKind for what
  // else each flavor does.
  void BeginOutage(HaOutageKind kind);
  void EndOutage();
  bool service_available() const { return service_available_; }
  bool crashed() const { return crashed_; }

  // --- Replication / failover ------------------------------------------------

  HaRole role() const { return role_; }
  uint64_t epoch() const { return epoch_; }
  // Primary and not fail-stopped: the agent that currently owns the bindings.
  bool serving() const { return role_ == HaRole::kPrimary && !crashed_; }

  // Takes over as primary in `epoch`: installs proxy/static ARP and announces
  // a gratuitous ARP for every held binding so home-subnet traffic moves here.
  void Promote(uint64_t epoch);
  // Demotes to standby in `epoch` (>= the current epoch): removes the proxy
  // state but keeps the mirrored bindings.
  void StepDown(uint64_t epoch);

  // Registers the sink that receives every locally-originated mutation
  // (nullptr detaches). Mutations applied *from* the peer are never echoed.
  void SetReplicationSink(ReplicationSink sink);

  // Applies one mutation mirrored from the peer (no sink emission, no reply
  // traffic, no ARP changes unless this agent is serving).
  void ApplyMutation(const BindingMutation& mutation);

  // Full-state anti-entropy: export / replace the binding table and
  // identification history. AdoptState clears any pending resync requirement —
  // the replica's history supersedes the from-scratch identification resync.
  [[nodiscard]] HaBindingState SnapshotState() const;
  void AdoptState(const HaBindingState& state);

  // Packets tunneled by this agent per epoch; the split-brain oracle proves
  // at most one agent tunnels within any given epoch.
  const std::map<uint64_t, uint64_t>& tunneled_by_epoch() const { return tunneled_by_epoch_; }

  [[nodiscard]] bool HasBinding(Ipv4Address home_address) const;
  [[nodiscard]] std::optional<Binding> GetBinding(Ipv4Address home_address) const;
  size_t binding_count() const;
  // Shard introspection for the fuzzer's shard-consistency oracle.
  size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] size_t ShardBindingCount(size_t shard_index) const;
  [[nodiscard]] size_t ShardQueueDepth(size_t shard_index) const;
  // Empty string when every shard invariant holds: each binding lives in the
  // shard its home address hashes to, and each shard's queue index matches
  // its queue exactly.
  [[nodiscard]] std::string ShardConsistencyError() const;
  const Counters& counters() const { return counters_; }
  const Config& config() const { return config_; }
  Node& node() { return node_; }

  void SetBindingObserver(BindingObserver observer) { observer_ = std::move(observer); }

  // Per-request processing latency (request arrival to reply send), in
  // milliseconds; includes queueing behind other requests. This is the HA
  // component of the paper's Figure 7 (1.48 ms) and the quantity the
  // HA-scalability benchmark sweeps.
  const RunningStats& processing_stats_ms() const { return processing_stats_ms_; }

 private:
  // One queued registration awaiting its shard's daemon. A retransmit for
  // the same home address overwrites this slot in place (supersede).
  struct PendingRequest {
    RegistrationRequest request;
    UdpSocket::Metadata meta;
    Time arrival;
  };

  // One logical shard: its slice of the binding table, its request queue,
  // and its daemon's busy window. std::deque keeps references to queued
  // elements stable across push_back, which the supersede index relies on.
  struct Shard {
    std::map<Ipv4Address, Binding> bindings;
    std::deque<PendingRequest> queue;
    // home address -> queued slot, for retransmit supersede. Entries are
    // erased as their slot is dequeued.
    std::map<Ipv4Address, PendingRequest*> queued_by_home;
    Time busy_until = Time::Zero();
    bool batch_scheduled = false;
    // Denials issued since the shard's daemon last ran a batch. The denial
    // reply budget is per daemon pass: once depth + denials_in_window
    // crosses the drop limit, further arrivals are shed silently.
    uint32_t denials_in_window = 0;
    Gauge* queue_depth_gauge = nullptr;  // "<prefix>shard.<i>.queue_depth"
    Gauge* bindings_gauge = nullptr;     // "<prefix>shard.<i>.bindings"
    uint64_t processed = 0;              // "<prefix>shard.<i>.processed"
    uint64_t batches = 0;                // "<prefix>shard.<i>.batches"
  };

  // A pending expiry check; seq is a reserved event-queue sequence number.
  struct ExpiryEntry {
    Time when;
    uint64_t seq;
    Ipv4Address home;
  };
  // Expiry-heap comparator: true when `a` fires after `b`.
  static bool ExpiresAfter(const ExpiryEntry& a, const ExpiryEntry& b) {
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
  }

  [[nodiscard]] size_t ShardIndexOf(Ipv4Address home_address) const;
  Shard& ShardOf(Ipv4Address home_address);
  const Shard& ShardOf(Ipv4Address home_address) const;
  // All bound home addresses, sorted (shard-merged); preserves the classic
  // single-table iteration order for promote/step-down/wipe/snapshot.
  [[nodiscard]] std::vector<Ipv4Address> SortedBoundHomes() const;
  // Drops every queued request (outage, crash, step-down), counting each
  // against `drop_counter`.
  void FlushShardQueues(uint64_t& drop_counter);
  void ScheduleShardBatch(size_t shard_index);
  void RunShardBatch(size_t shard_index);
  void SetGlobalBindingsGauge();

  void OnRegistrationDatagram(const std::vector<uint8_t>& data, const UdpSocket::Metadata& meta);
  void ProcessRequest(const RegistrationRequest& request, const UdpSocket::Metadata& meta,
                      Time reply_at);
  void SendReply(const RegistrationReply& reply, Ipv4Address dst, uint16_t port);
  void InstallBinding(const RegistrationRequest& request, uint16_t granted_lifetime_sec);
  void RemoveBinding(Ipv4Address home_address, bool expired);
  // Queues an expiry check for `home_address` at `expires` on the HA's
  // expiry heap, at the (time, seq) position a separately scheduled event
  // would have had, and re-arms the expiry timer if it is the new earliest.
  void ScheduleExpiry(Ipv4Address home_address, Time expires);
  // Arms expiry_timer_ at the expiry heap's top entry.
  void ArmExpiryTimer();
  // Pops the top entry and expires its binding unless it was removed or
  // refreshed meanwhile.
  void OnExpiryTimer();
  // msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
  void EncapsulateAndTunnel(const Ipv4Header& inner, Packet inner_wire);
  [[nodiscard]] std::optional<RouteDecision> RouteOverride(const RouteQuery& query);
  // Proxy/static/gratuitous ARP for one home address (serving side effects).
  void InstallServingArpState(Ipv4Address home_address);
  void RemoveServingArpState(Ipv4Address home_address);
  // Discards bindings and replay history (daemon restart / crash rejoin) and
  // marks every lost home for the one-shot resync denial.
  void WipeSoftState();
  // Forwards to the sink unless the change originated from the peer.
  void EmitMutation(const BindingMutation& mutation);
  void SetRoleGauge();

  Node& node_;
  Config config_;
  std::unique_ptr<UdpSocket> socket_;
  VirtualInterface* vif_ = nullptr;  // Owned by the node.
  std::unique_ptr<IpIpTunnelEndpoint> tunnel_;
  // The binding table, sharded by hash of home address. shards_.size() is
  // fixed at construction, so Shard pointers/references stay valid.
  std::vector<Shard> shards_;
  // Highest identification seen per home address; survives deregistration to
  // reject replays. Kept as one table: it is touched only on the (batched)
  // registration path, never on the per-packet datapath.
  std::map<Ipv4Address, uint64_t> last_identification_;
  std::set<Ipv4Address> authorized_;
  std::map<Ipv4Address, MipAuthKey> auth_keys_;
  BindingObserver observer_;
  ReplicationSink replication_sink_;
  // True while applying peer-originated state; suppresses sink emission so
  // mirrored mutations are never echoed back.
  bool applying_peer_state_ = false;
  std::unique_ptr<MetricsRegistry> owned_metrics_;  // Fallback when unbound.
  MetricsRegistry* metrics_;  // config_.metrics, or owned_metrics_.
  Counters counters_;
  Gauge* bindings_gauge_ = nullptr;            // "<prefix>bindings" (all shards)
  Gauge* role_gauge_ = nullptr;                // "<prefix>role" (1 = primary)
  Histogram* processing_histogram_ = nullptr;  // "<prefix>processing_ms"
  Histogram* batch_size_histogram_ = nullptr;  // "<prefix>batch_size"
  // False inside a scheduled outage window; requests are dropped unreplied.
  bool service_available_ = true;
  // True between a fail-stop crash and its rejoin.
  bool crashed_ = false;
  HaRole role_ = HaRole::kPrimary;
  uint64_t epoch_ = 1;
  std::map<uint64_t, uint64_t> tunneled_by_epoch_;
  // Home addresses whose first post-restart registration must be denied once
  // to resynchronize identifications.
  std::set<Ipv4Address> resync_required_;
  RunningStats processing_stats_ms_;
  // One entry per ScheduleExpiry call, min-ordered by (when, seq). Only the
  // top entry has an event in the simulator (expiry_timer_), so each check
  // still fires as its own event at its original position, but N bindings
  // cost the main queue one pending event instead of N (DESIGN.md §17).
  std::vector<ExpiryEntry> expiry_heap_;
  EventId expiry_timer_;
};

}  // namespace msn

#endif  // MSN_SRC_MIP_HOME_AGENT_H_
