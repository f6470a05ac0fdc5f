// The mobile host (paper §3.1–§3.3, §5.2).
//
// Keeps a permanent home address while attaching to foreign networks with
// temporary, co-located care-of addresses — no foreign agent anywhere. It
// carries its own simplified foreign agent: it decapsulates tunneled packets
// through a VIF, registers care-of addresses with its home agent over UDP
// 434 (with retransmission), and routes outgoing "home-role" packets through
// a Mobile Policy Table injected at the stack's single route-lookup hook
// (the paper's modified ip_rt_route()).
//
// The two-roles design (§5.2) falls out of the hook's rules:
//   * source unspecified, or explicitly the home address  -> home role:
//     policy table decides tunnel / triangle / encap-direct / direct;
//   * source bound to any other (local) address           -> local role:
//     the override declines and normal routing applies.
//
// Hand-off entry points map to the paper's experiments:
//   * SwitchCareOfAddress()  — same-subnet address switch (E1, Figure 7);
//   * HotSwitchTo()          — both interfaces up, re-route + re-register;
//   * ColdSwitchTo()         — tear down one interface, bring up the other
//                              (pays the device bring-up latency that
//                              dominates Figure 6's cold-switch losses).
#ifndef MSN_SRC_MIP_MOBILE_HOST_H_
#define MSN_SRC_MIP_MOBILE_HOST_H_

#include <functional>
#include <memory>
#include <optional>

#include "src/mip/ipip.h"
#include "src/mip/messages.h"
#include "src/mip/policy_table.h"
#include "src/mip/vif.h"
#include "src/node/icmp.h"
#include "src/node/node.h"
#include "src/node/udp.h"

namespace msn {

class MobileHost {
 public:
  struct Config {
    Ipv4Address home_address;
    SubnetMask home_mask{16};
    Ipv4Address home_agent;
    // Default router on the home subnet (often the same box as the HA).
    Ipv4Address home_gateway;
    NetDevice* home_device = nullptr;
    // Requested binding lifetime.
    uint16_t lifetime_sec = 300;
    // Replicated-HA failover (DESIGN.md §14): when set, a run of
    // kFailoverAfterSends unanswered registration sends to the active home
    // agent makes the host switch to this backup (and back, alternating)
    // before the next retransmit. The identification sequence continues
    // across the switch, so a backup that mirrored the primary's replay
    // window accepts immediately.
    std::optional<Ipv4Address> backup_home_agent;
    // Shared secret with the home agent. When set, every registration
    // request carries a mobile-home authenticator and replies must verify.
    std::optional<MipAuthKey> auth_key;
    // When given, the host's accounting lands here under "mh.*" (counters
    // plus an "mh.handoff_ms" histogram of successful-attach total times);
    // otherwise in a private registry, so counters() behaves identically
    // either way.
    MetricsRegistry* metrics = nullptr;
  };

  // A point of attachment on some network.
  struct Attachment {
    NetDevice* device = nullptr;
    Ipv4Address care_of;
    SubnetMask mask{24};
    Ipv4Address gateway;
  };

  enum class State {
    kDetached,     // No usable attachment.
    kAtHome,       // Home address on the home device; no mobility machinery.
    kRegistering,  // Attached to a foreign net, registration in flight.
    kRegistered,   // Binding installed at the HA.
  };

  // Progress of the attach operation in flight (AttachHome, AttachForeign,
  // AttachViaForeignAgent and the switches).
  enum class SwitchPhase {
    kSettled,      // None in flight: the last one completed or failed.
    kBringingUp,   // Tearing the old device down or bringing a device up.
    kRegistering,  // Configuring, routing and (de)registering.
  };

  // Timestamps of the registration steps (paper Figure 7).
  struct RegistrationTimeline {
    Time start;
    Time interface_configured;
    Time route_changed;
    Time request_sent;
    Time reply_received;
    Time done;
    bool success = false;
    int retransmissions = 0;

    Duration Total() const { return done - start; }
    Duration PreRegistration() const { return route_changed - start; }
    Duration RequestReply() const { return reply_received - request_sent; }
    Duration PostRegistration() const { return done - reply_received; }
  };

  // The host's accounting, named "mh.<field>".
  struct Counters {
    uint64_t registrations_sent = 0;
    uint64_t registrations_accepted = 0;
    uint64_t registrations_denied = 0;
    uint64_t registrations_timed_out = 0;
    uint64_t renewals = 0;
    // Registration requests re-sent after a retransmit timeout.
    uint64_t retransmissions = 0;
    // Renewals that outlived the binding lifetime (HA-side binding gone).
    uint64_t bindings_lost = 0;
    // Lost bindings later re-established without a new attach.
    uint64_t recoveries = 0;
    // Re-registrations triggered by kDeniedIdentificationMismatch.
    uint64_t resyncs = 0;
    // Backoff-and-retry rounds triggered by kDeniedInsufficientResources
    // (the HA's admission filter shed the request under load).
    uint64_t admission_backoffs = 0;
    // Replies discarded because their identification was already accepted.
    uint64_t duplicate_replies_dropped = 0;
    // Replies discarded as stale (identification matches no outstanding or
    // accepted request).
    uint64_t stale_replies_dropped = 0;
    uint64_t packets_tunneled_out = 0;
    uint64_t packets_triangle_out = 0;
    uint64_t packets_encap_direct_out = 0;
    uint64_t packets_decapsulated_in = 0;
    uint64_t probes_sent = 0;
    uint64_t probe_fallbacks = 0;
    // Switches of the active home agent after unanswered registrations.
    uint64_t failover_count = 0;
  };

  // Retransmissions per registration attempt after the initial send; waits
  // follow NextRegistrationBackoff (messages.h). A kDeniedInsufficientResources
  // reply (the HA's admission filter shed the request, DESIGN.md §17) backs
  // off on the same schedule without consuming this budget, and a
  // kDeniedIdentificationMismatch (HA restarted) re-sends at once with a
  // fresh identification. A lifetime renewal never gives up: it retries
  // until the HA answers or the attachment changes, so a binding cannot
  // silently expire mid-renewal.
  static constexpr int kMaxRetransmits = 4;
  // Renewal starts after this fraction of the granted lifetime.
  static constexpr double kRenewalFraction = 0.8;
  // Unanswered sends to the active HA before each failover switch.
  static constexpr uint64_t kFailoverAfterSends = 2;
  // Timeout for triangle-route probes.
  static constexpr Duration kProbeTimeout = Seconds(3);

  using CompletionCallback = std::function<void(bool success)>;

  MobileHost(Node& node, Config config);
  ~MobileHost();

  MobileHost(const MobileHost&) = delete;
  MobileHost& operator=(const MobileHost&) = delete;

  // --- Attachment management -------------------------------------------------

  // Configures the home address on the (already up) home device, announces it
  // with a gratuitous ARP, and deregisters with the home agent if a binding
  // may exist. `done` fires when deregistration settles.
  void AttachHome(CompletionCallback done = nullptr);

  // Full foreign attach on an already-up device: assign the care-of address
  // (interface-config cost), update routes (route-update cost), register with
  // the HA (request/reply with retransmission), apply post-registration work.
  // Supersedes any in-flight attach. Records a RegistrationTimeline.
  void AttachForeign(const Attachment& attachment, CompletionCallback done = nullptr);

  // Same-subnet care-of address change (experiment E1 / Figure 7): same as
  // AttachForeign, keeping the current device and gateway.
  void SwitchCareOfAddress(Ipv4Address new_care_of, CompletionCallback done = nullptr);

  // Hot switch: the target device is already up (and typically already
  // configured); only routes change and a new registration is sent.
  void HotSwitchTo(const Attachment& attachment, CompletionCallback done = nullptr);

  // Cold switch: tears down the current device, brings the new one up (paying
  // its bring-up latency), then performs the full foreign attach.
  void ColdSwitchTo(const Attachment& attachment, CompletionCallback done = nullptr);

  // Extension (paper §5.1): attach through a foreign agent on the visited
  // network instead of acquiring a co-located care-of address. The MH needs
  // *no* IP address of its own: the FA relays registration, decapsulates
  // tunnel traffic, and serves as the default router. `device` must be up.
  void AttachViaForeignAgent(NetDevice* device, Ipv4Address fa_address,
                             CompletionCallback done = nullptr);

  bool attached_via_foreign_agent() const { return fa_mode_; }

  // --- Policy -----------------------------------------------------------------

  MobilePolicyTable& policy_table() { return policy_table_; }

  // Probes whether the triangle route works to `correspondent` by pinging it
  // with the home address as source. On success installs a verified
  // triangle-route entry; on failure (timeout or ICMP admin-prohibited)
  // caches a tunnel fallback. (Paper §3.2.)
  void ProbeTriangleRoute(Ipv4Address correspondent, std::function<void(bool ok)> done);

  // --- Introspection -----------------------------------------------------------

  State state() const { return state_; }
  SwitchPhase switch_phase() const { return phase_; }
  bool at_home() const { return state_ == State::kAtHome; }
  bool registered() const { return state_ == State::kRegistered; }
  const Attachment& attachment() const { return attachment_; }
  Ipv4Address care_of() const { return attachment_.care_of; }
  const Config& config() const { return config_; }
  const RegistrationTimeline& last_timeline() const { return timeline_; }
  // The home agent registrations (and reverse tunnels) currently target;
  // config().home_agent unless failover switched to the backup.
  Ipv4Address active_home_agent() const { return active_home_agent_; }
  const Counters& counters() const { return counters_; }
  VirtualInterface* vif() { return vif_; }
  Node& node() { return node_; }

 private:
  [[nodiscard]] std::optional<RouteDecision> RouteOverride(const RouteQuery& query);
  // msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
  void EncapsulateOut(const Ipv4Header& inner, Packet inner_wire);

  // The one start of every attach operation: bumps the generation, cancels
  // the registration in flight, fails the superseded operation's callback
  // (exactly once) and stores `done`. Returns the new generation.
  uint64_t Begin(SwitchPhase phase, CompletionCallback done);
  // The one end: settles the phase, then runs the stored callback.
  void Complete(bool success);
  // Shared foreign-attach pipeline (steps time-stamped into timeline_).
  void RunAttachPipeline(uint64_t generation, const Attachment& attachment,
                         bool skip_interface_config);
  void StepConfigureInterface(uint64_t generation, bool skip_cost);
  void StepUpdateRoutes(uint64_t generation);
  void StepSendRegistration(uint64_t generation);

  void ContinueAttachHome(uint64_t generation);
  void BeginRegistrationAttempt();
  void SendRegistrationRequest(uint64_t generation, bool deregistration);
  void OnRegistrationDatagram(const std::vector<uint8_t>& data, const UdpSocket::Metadata& meta);
  void OnRetransmitTimer(uint64_t generation, bool deregistration);
  // Escalation on registration silence: after kFailoverAfterSends unanswered
  // sends, point the next (re)send at the other configured home agent.
  void MaybeFailoverHomeAgent();
  // Ends a failed (de)registration of the current generation.
  void FailRegistration(uint64_t generation);
  void ScheduleRenewal(uint16_t granted_lifetime_sec);
  void CancelPendingRegistration();

  Node& node_;
  Config config_;
  State state_ = State::kDetached;
  SwitchPhase phase_ = SwitchPhase::kSettled;
  Attachment attachment_;
  Attachment pending_attachment_;
  CompletionCallback pending_done_;
  bool pending_deregistration_ = false;
  // True while the MH is operating away from home (mobility policy active).
  bool away_ = false;
  // True while a lifetime-renewal registration is in flight.
  bool renewing_ = false;
  // True when the current attachment goes through a foreign agent.
  bool fa_mode_ = false;
  MacAddress fa_mac_;

  VirtualInterface* vif_ = nullptr;  // Owned by the node.
  std::unique_ptr<IpIpTunnelEndpoint> tunnel_;
  std::unique_ptr<UdpSocket> reg_socket_;
  std::unique_ptr<Pinger> pinger_;
  MobilePolicyTable policy_table_;

  RegistrationTimeline timeline_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;  // Fallback when unbound.
  MetricsRegistry* metrics_;  // config_.metrics, or owned_metrics_.
  Counters counters_;
  Histogram* handoff_histogram_ = nullptr;  // "mh.handoff_ms"

  // Invalidates scheduled steps of superseded attach operations.
  uint64_t attach_generation_ = 0;
  // Registration target; flips between home_agent and backup_home_agent on
  // failover (initialized to config_.home_agent in the constructor).
  Ipv4Address active_home_agent_;
  // Registration sends since the last reply from the active HA.
  uint64_t unanswered_sends_ = 0;
  uint64_t next_identification_ = 1;
  uint64_t outstanding_identification_ = 0;
  uint64_t last_accepted_identification_ = 0;
  int retransmits_left_ = 0;
  // Previous decorrelated-jitter wait; zero means a fresh attempt (the next
  // wait is exactly kRegistrationBackoffBase).
  Duration backoff_;
  // Whether the request currently in flight is a deregistration (needed to
  // re-send it verbatim on an identification resync).
  bool in_flight_deregistration_ = false;
  // Resync re-sends allowed for the current attempt (guards against a
  // mismatch loop with a broken HA).
  int resync_attempts_left_ = 0;
  // When the HA-side binding lapses if no renewal lands.
  Time binding_expires_;
  // The binding lifetime passed while a renewal was still in flight.
  bool binding_lost_ = false;
  EventId retransmit_event_;
  EventId renewal_event_;
};

}  // namespace msn

#endif  // MSN_SRC_MIP_MOBILE_HOST_H_
