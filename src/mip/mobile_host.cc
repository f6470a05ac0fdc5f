#include "src/mip/mobile_host.h"
#include "src/util/assert.h"

#include <utility>

#include "src/mip/calibration.h"
#include "src/util/logging.h"

namespace msn {

MobileHost::MobileHost(Node& node, Config config) : node_(node), config_(config) {
  metrics_ = config_.metrics;
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  metrics_->BindCounter("mh.registrations_sent", &counters_.registrations_sent);
  metrics_->BindCounter("mh.registrations_accepted", &counters_.registrations_accepted);
  metrics_->BindCounter("mh.registrations_denied", &counters_.registrations_denied);
  metrics_->BindCounter("mh.registrations_timed_out", &counters_.registrations_timed_out);
  metrics_->BindCounter("mh.renewals", &counters_.renewals);
  metrics_->BindCounter("mh.retransmissions", &counters_.retransmissions);
  metrics_->BindCounter("mh.bindings_lost", &counters_.bindings_lost);
  metrics_->BindCounter("mh.recoveries", &counters_.recoveries);
  metrics_->BindCounter("mh.resyncs", &counters_.resyncs);
  metrics_->BindCounter("mh.admission_backoffs", &counters_.admission_backoffs);
  metrics_->BindCounter("mh.duplicate_replies_dropped", &counters_.duplicate_replies_dropped);
  metrics_->BindCounter("mh.stale_replies_dropped", &counters_.stale_replies_dropped);
  metrics_->BindCounter("mh.packets_tunneled_out", &counters_.packets_tunneled_out);
  metrics_->BindCounter("mh.packets_triangle_out", &counters_.packets_triangle_out);
  metrics_->BindCounter("mh.packets_encap_direct_out", &counters_.packets_encap_direct_out);
  metrics_->BindCounter("mh.packets_decapsulated_in", &counters_.packets_decapsulated_in);
  metrics_->BindCounter("mh.probes_sent", &counters_.probes_sent);
  metrics_->BindCounter("mh.probe_fallbacks", &counters_.probe_fallbacks);
  metrics_->BindCounter("mh.failover_count", &counters_.failover_count);
  handoff_histogram_ = &metrics_->GetHistogram("mh.handoff_ms");
  active_home_agent_ = config_.home_agent;

  // The encapsulating virtual interface (paper Figure 4). While away from
  // home the home address is bound to it, so decapsulated packets addressed
  // to the home address are delivered locally.
  auto vif = std::make_unique<VirtualInterface>(node_.sim(), "vif");
  // msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
  vif->SetEncapHandler([this](const Ipv4Header& inner, Packet wire) {
    EncapsulateOut(inner, std::move(wire));
  });
  vif_ = static_cast<VirtualInterface*>(node_.AdoptDevice(std::move(vif)));

  // Decapsulation of tunneled packets arriving at the care-of address.
  tunnel_ = std::make_unique<IpIpTunnelEndpoint>(node_.stack());
  tunnel_->SetInspector([this](const Ipv4Header&, const Ipv4Header&, const Packet&) {
    ++counters_.packets_decapsulated_in;
    return true;
  });

  // Registration endpoint: one UDP socket whose bound source follows the
  // current care-of address (local-role traffic, exempt from mobility).
  reg_socket_ = std::make_unique<UdpSocket>(node_.stack());
  MSN_CHECK(reg_socket_->Bind(0)) << "mh registration ephemeral port";
  reg_socket_->SetReceiveHandler(
      [this](const std::vector<uint8_t>& data, const UdpSocket::Metadata& meta) {
        OnRegistrationDatagram(data, meta);
      });

  pinger_ = std::make_unique<Pinger>(node_.stack());

  // The paper's single kernel hook: the enhanced route lookup.
  node_.stack().SetRouteLookupOverride(
      [this](const RouteQuery& query) { return RouteOverride(query); });
}

MobileHost::~MobileHost() {
  CancelPendingRegistration();
  node_.sim().Cancel(renewal_event_);
  node_.stack().ClearRouteLookupOverride();
  metrics_->ReleaseCounters(counters_);
}

// --- Route policy (the enhanced ip_rt_route()) ----------------------------------

std::optional<RouteDecision> MobileHost::RouteOverride(const RouteQuery& query) {
  // Mobile hosts do not forward; and at home the normal table is correct.
  if (query.forwarding || !away_) {
    return std::nullopt;
  }
  // Local role: an application that bound a source address other than the
  // home address is mobile-aware (or local-network traffic such as the
  // registration socket and DHCP). Leave it alone (paper §3.3, §5.2).
  if (!query.src_hint.IsAny() && query.src_hint != config_.home_address) {
    return std::nullopt;
  }
  if (query.dst == config_.home_address || query.dst.IsLoopback() ||
      query.dst.IsBroadcast()) {
    return std::nullopt;
  }

  if (fa_mode_) {
    // With a foreign agent, the FA is our default router and essentially our
    // only connection to the network (paper §5.2); packets go out plain with
    // the home source address and the FA as next hop.
    RouteDecision decision;
    decision.device = attachment_.device;
    decision.src = config_.home_address;
    decision.next_hop = attachment_.gateway;  // The FA itself.
    return decision;
  }

  // Per-packet accounting (MPT entry hits, triangle counter) only for
  // lookups that send a packet.
  const MobilePolicy policy = query.advisory ? policy_table_.LookupConst(query.dst)
                                             : policy_table_.Lookup(query.dst);
  switch (policy) {
    case MobilePolicy::kTunnelHome:
    case MobilePolicy::kEncapDirect: {
      // Hand the packet to the VIF with the home source address; the encap
      // handler picks the outer destination (HA or the correspondent).
      RouteDecision decision;
      decision.device = vif_;
      decision.src = config_.home_address;
      decision.next_hop = Ipv4Address::Any();
      return decision;
    }
    case MobilePolicy::kTriangle: {
      // Straight out the physical interface, home address as source. Transit
      // filters on the visited network may drop this; the probe machinery
      // caches a fallback when they do.
      RouteDecision decision;
      decision.device = attachment_.device;
      decision.src = config_.home_address;
      const Subnet local(attachment_.care_of, attachment_.mask);
      decision.next_hop =
          local.Contains(query.dst) ? Ipv4Address::Any() : attachment_.gateway;
      if (!query.advisory) {
        ++counters_.packets_triangle_out;
      }
      return decision;
    }
    case MobilePolicy::kDirect: {
      // Pure local role: the normal routing table answers (care-of source),
      // but a matched MPT entry still records the hit.
      RouteDecision decision;
      decision.defer_to_table = true;
      return decision;
    }
  }
  return std::nullopt;
}

// msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
void MobileHost::EncapsulateOut(const Ipv4Header& inner, Packet inner_wire) {
  const MobilePolicy policy = policy_table_.LookupConst(inner.dst);
  Ipv4Address outer_dst;
  if (policy == MobilePolicy::kEncapDirect) {
    outer_dst = inner.dst;
    ++counters_.packets_encap_direct_out;
  } else {
    outer_dst = active_home_agent_;
    ++counters_.packets_tunneled_out;
  }
  // Outer source is the physical (care-of) address: valid on the local
  // network, so transit filters pass it, and the route lookup sees a
  // non-mobile source and does not encapsulate again (paper §3.3).
  Ipv4Header outer;
  Packet wire =
      EncapsulateIpIpPacket(outer, std::move(inner_wire), attachment_.care_of, outer_dst);
  node_.stack().SendPreformedPacket(outer, std::move(wire), /*forwarding=*/false);
}

// --- Attach pipeline --------------------------------------------------------------

uint64_t MobileHost::Begin(SwitchPhase phase, CompletionCallback done) {
  const uint64_t generation = ++attach_generation_;
  CancelPendingRegistration();
  if (pending_done_) {
    // The superseded operation reports failure before the new one starts.
    CompletionCallback superseded = std::move(pending_done_);
    pending_done_ = nullptr;
    superseded(false);
  }
  pending_done_ = std::move(done);
  pending_deregistration_ = false;
  timeline_ = RegistrationTimeline{};
  timeline_.start = node_.sim().Now();
  phase_ = phase;
  return generation;
}

void MobileHost::Complete(bool success) {
  timeline_.done = node_.sim().Now();
  timeline_.success = success;
  phase_ = SwitchPhase::kSettled;
  if (success && away_) {
    // Handoff downtime as the paper measures it: attach start to usable
    // binding (Figure 7's total). A return home records none.
    handoff_histogram_->Record(timeline_.Total().ToMillisF());
  }
  if (pending_done_) {
    CompletionCallback done = std::move(pending_done_);
    pending_done_ = nullptr;
    done(success);
  }
}

void MobileHost::RunAttachPipeline(uint64_t generation, const Attachment& attachment,
                                   bool skip_interface_config) {
  pending_attachment_ = attachment;
  fa_mode_ = false;
  state_ = State::kRegistering;

  // Bind the home address to the virtual interface while away (paper §5.2).
  if (node_.stack().GetInterfaceAddress(vif_) != config_.home_address) {
    node_.stack().ConfigureAddress(vif_, config_.home_address, SubnetMask(32));
  }
  StepConfigureInterface(generation, skip_interface_config);
}

void MobileHost::StepConfigureInterface(uint64_t generation, bool skip_cost) {
  const Duration cost =
      skip_cost ? Duration() : Calibration::Default().interface_config.Draw(node_.sim().rng());
  node_.sim().Schedule(cost, [this, generation] {
    if (generation != attach_generation_) {
      return;
    }
    const Attachment& att = pending_attachment_;
    if (node_.stack().GetInterfaceAddress(att.device) != att.care_of) {
      node_.stack().UnconfigureAddress(att.device);
      node_.stack().ConfigureAddress(att.device, att.care_of, att.mask);
    }
    timeline_.interface_configured = node_.sim().Now();
    StepUpdateRoutes(generation);
  });
}

void MobileHost::StepUpdateRoutes(uint64_t generation) {
  const Duration cost = Calibration::Default().route_update.Draw(node_.sim().rng());
  node_.sim().Schedule(cost, [this, generation] {
    if (generation != attach_generation_) {
      return;
    }
    const Attachment& att = pending_attachment_;
    node_.stack().routes().RemoveWhere(
        [](const RouteEntry& e) { return e.dest == Subnet::Default(); });
    node_.AddDefaultRoute(att.gateway, att.device);
    attachment_ = att;
    away_ = true;
    timeline_.route_changed = node_.sim().Now();
    StepSendRegistration(generation);
  });
}

void MobileHost::StepSendRegistration(uint64_t generation) {
  const Duration cost = Calibration::Default().request_build.Draw(node_.sim().rng());
  node_.sim().Schedule(cost, [this, generation] {
    if (generation != attach_generation_) {
      return;
    }
    // With a co-located care-of address the registration socket is bound to
    // it (local role); through a foreign agent the MH has no local address
    // and registers from its home address.
    reg_socket_->BindSourceAddress(fa_mode_ ? config_.home_address : attachment_.care_of);
    BeginRegistrationAttempt();
    SendRegistrationRequest(generation, /*deregistration=*/false);
  });
}

void MobileHost::BeginRegistrationAttempt() {
  retransmits_left_ = kMaxRetransmits;
  backoff_ = Duration();
  resync_attempts_left_ = 2;
}

void MobileHost::SendRegistrationRequest(uint64_t generation, bool deregistration) {
  in_flight_deregistration_ = deregistration;
  RegistrationRequest request;
  // Through an FA the *agent* decapsulates; co-located care-of means we do.
  request.flags = (fa_mode_ && !deregistration) ? 0 : kMipFlagDecapsulateSelf;
  request.lifetime_sec = deregistration ? 0 : config_.lifetime_sec;
  request.home_address = config_.home_address;
  request.home_agent = active_home_agent_;
  request.care_of_address = deregistration ? config_.home_address : attachment_.care_of;
  request.identification = next_identification_++;
  outstanding_identification_ = request.identification;
  if (config_.auth_key.has_value()) {
    request.Authenticate(*config_.auth_key);
  }

  ++counters_.registrations_sent;
  ++unanswered_sends_;
  if (timeline_.request_sent == Time::Zero() || timeline_.request_sent < timeline_.start) {
    timeline_.request_sent = node_.sim().Now();
  }
  MSN_DEBUG("mip-mh", "%s: %s", node_.name().c_str(), request.ToString().c_str());
  if (fa_mode_ && !deregistration) {
    // Relay via the foreign agent, framed straight to its hardware address
    // (the MH has no routable address on the visited network).
    UdpSocket::SendExtras extras;
    extras.force_device = attachment_.device;
    extras.force_dst_mac = fa_mac_;
    reg_socket_->SendToWithExtras(attachment_.care_of, kMipRegistrationPort,
                                  request.Serialize(), extras);
  } else {
    reg_socket_->SendTo(active_home_agent_, kMipRegistrationPort, request.Serialize());
  }

  backoff_ = NextRegistrationBackoff(backoff_, node_.sim().rng());
  retransmit_event_ = node_.sim().Schedule(backoff_, [this, generation, deregistration] {
    OnRetransmitTimer(generation, deregistration);
  });
}

void MobileHost::MaybeFailoverHomeAgent() {
  if (!config_.backup_home_agent.has_value() || unanswered_sends_ < kFailoverAfterSends) {
    return;
  }
  const Ipv4Address from = active_home_agent_;
  active_home_agent_ = active_home_agent_ == config_.home_agent
                           ? *config_.backup_home_agent
                           : config_.home_agent;
  ++counters_.failover_count;
  // Structured so chaos runs are greppable without pcap digging.
  MSN_WARN("mip-mh", "%s: event=ha_failover from=%s to=%s unanswered=%llu renewing=%d",
           node_.name().c_str(), from.ToString().c_str(),
           active_home_agent_.ToString().c_str(),
           static_cast<unsigned long long>(unanswered_sends_), renewing_ ? 1 : 0);
  // The switch starts a fresh silence window toward the new agent.
  unanswered_sends_ = 0;
}

void MobileHost::OnRetransmitTimer(uint64_t generation, bool deregistration) {
  if (generation != attach_generation_) {
    return;
  }
  MaybeFailoverHomeAgent();
  if (renewing_) {
    // A renewal must not give up silently: it keeps retrying with backoff
    // until the HA answers or the attachment changes. If the binding
    // lifetime has meanwhile passed, the HA-side binding is gone — record the
    // loss and demote so callers see the truth while we keep re-registering.
    if (!binding_lost_ && binding_expires_ != Time::Zero() &&
        node_.sim().Now() >= binding_expires_) {
      binding_lost_ = true;
      ++counters_.bindings_lost;
      if (state_ == State::kRegistered) {
        state_ = State::kRegistering;
      }
      MSN_WARN("mip-mh", "%s: binding expired with renewal still in flight",
               node_.name().c_str());
    }
    ++counters_.retransmissions;
    SendRegistrationRequest(generation, deregistration);
    return;
  }
  if (retransmits_left_ <= 0) {
    ++counters_.registrations_timed_out;
    MSN_WARN("mip-mh", "%s: registration timed out", node_.name().c_str());
    FailRegistration(generation);
    return;
  }
  --retransmits_left_;
  ++timeline_.retransmissions;
  ++counters_.retransmissions;
  SendRegistrationRequest(generation, deregistration);
}

void MobileHost::OnRegistrationDatagram(const std::vector<uint8_t>& data,
                                        const UdpSocket::Metadata& meta) {
  (void)meta;
  auto reply = RegistrationReply::Parse(data);
  if (!reply || reply->home_address != config_.home_address) {
    return;  // Malformed or foreign reply.
  }
  if (reply->home_agent == active_home_agent_) {
    // Any reply — even a duplicate or a denial — proves the active HA is
    // alive, so the failover escalation starts over.
    unanswered_sends_ = 0;
  }
  if (reply->identification != outstanding_identification_ ||
      outstanding_identification_ == 0) {
    // Duplicate (the medium can replicate frames) or stale (an answer to a
    // request we already gave up on). Either way, acting on it could roll
    // the binding back to an old care-of address — drop it.
    if (reply->identification == last_accepted_identification_ &&
        last_accepted_identification_ != 0) {
      ++counters_.duplicate_replies_dropped;
    } else {
      ++counters_.stale_replies_dropped;
    }
    return;
  }
  if (config_.auth_key.has_value() && !reply->VerifyAuthenticator(*config_.auth_key)) {
    MSN_WARN("mip-mh", "%s: discarding reply with bad authenticator", node_.name().c_str());
    return;  // Forged or corrupted; keep retransmitting.
  }
  node_.sim().Cancel(retransmit_event_);
  outstanding_identification_ = 0;
  const uint64_t generation = attach_generation_;
  MSN_DEBUG("mip-mh", "%s: %s", node_.name().c_str(), reply->ToString().c_str());

  if (!reply->accepted()) {
    if (reply->code == MipReplyCode::kDeniedIdentificationMismatch && resync_attempts_left_ > 0) {
      // The HA rejected our identification — typically because it restarted
      // and re-anchored its replay window. Re-send the same request with a
      // fresh identification instead of failing the whole attach.
      --resync_attempts_left_;
      ++counters_.resyncs;
      node_.sim().Cancel(retransmit_event_);
      MSN_WARN("mip-mh", "%s: identification mismatch from HA; resyncing",
               node_.name().c_str());
      SendRegistrationRequest(generation, in_flight_deregistration_);
      return;
    }
    if (reply->code == MipReplyCode::kDeniedInsufficientResources) {
      // The HA's admission filter shed us under load — an explicit "try
      // again later", not a verdict on this registration. Back off with the
      // decorrelated-jitter schedule and retry; deliberately does not
      // consume retransmits_left_, so a shed host converges once the
      // overload clears instead of exhausting its budget mid-storm.
      ++counters_.admission_backoffs;
      MSN_DEBUG("mip-mh", "%s: admission-denied by HA; backing off",
                node_.name().c_str());
      backoff_ = NextRegistrationBackoff(backoff_, node_.sim().rng());
      retransmit_event_ = node_.sim().Schedule(backoff_, [this, generation] {
        if (generation != attach_generation_) {
          return;
        }
        SendRegistrationRequest(generation, in_flight_deregistration_);
      });
      return;
    }
    ++counters_.registrations_denied;
    renewing_ = false;
    FailRegistration(generation);
    return;
  }
  ++counters_.registrations_accepted;
  last_accepted_identification_ = reply->identification;

  if (renewing_) {
    renewing_ = false;
    if (binding_lost_) {
      // The binding lapsed mid-renewal but we re-established it without a
      // new attach: the HA saw a fresh registration, we saw a recovery.
      binding_lost_ = false;
      ++counters_.recoveries;
    }
    state_ = State::kRegistered;
    ScheduleRenewal(reply->lifetime_sec);
    return;
  }

  timeline_.reply_received = node_.sim().Now();
  const uint16_t granted = reply->lifetime_sec;
  const Duration cost = Calibration::Default().post_registration.Draw(node_.sim().rng());
  node_.sim().Schedule(cost, [this, generation, granted] {
    if (generation != attach_generation_) {
      return;
    }
    if (pending_deregistration_) {
      state_ = State::kAtHome;
    } else {
      state_ = State::kRegistered;
      ScheduleRenewal(granted);
    }
    Complete(/*success=*/true);
  });
}

void MobileHost::FailRegistration(uint64_t generation) {
  if (generation != attach_generation_) {
    return;
  }
  // The attachment may still be usable in its local role (paper §5.2:
  // "especially useful if the home agent is not reachable or has crashed"),
  // but home-role traffic has no binding.
  state_ = pending_deregistration_ ? State::kAtHome : State::kDetached;
  Complete(/*success=*/false);
}

void MobileHost::ScheduleRenewal(uint16_t granted_lifetime_sec) {
  node_.sim().Cancel(renewal_event_);
  binding_expires_ = node_.sim().Now() + Seconds(granted_lifetime_sec);
  if (granted_lifetime_sec == 0) {
    return;
  }
  const Duration lead = Seconds(granted_lifetime_sec) * kRenewalFraction;
  renewal_event_ = node_.sim().Schedule(lead, [this, generation = attach_generation_] {
    // state_ alone is not enough: during an AttachHome whose deregistration
    // is still in flight the state stays kRegistered, but renewing the old
    // binding with the (now home) attachment would be wrong.
    if (generation != attach_generation_ || state_ != State::kRegistered) {
      return;
    }
    ++counters_.renewals;
    renewing_ = true;
    BeginRegistrationAttempt();
    SendRegistrationRequest(attach_generation_, /*deregistration=*/false);
  });
}

void MobileHost::CancelPendingRegistration() {
  node_.sim().Cancel(retransmit_event_);
  retransmit_event_ = EventId();
  // A renewal armed for the superseded attachment must die with it: left
  // alive it fires after AttachHome has pointed attachment_ at the home
  // device, re-registering the home address as its own care-of — the HA
  // would then tunnel home-bound packets to itself in a loop.
  node_.sim().Cancel(renewal_event_);
  renewal_event_ = EventId();
  outstanding_identification_ = 0;
  renewing_ = false;
  binding_lost_ = false;
  binding_expires_ = Time::Zero();
  backoff_ = Duration();
  unanswered_sends_ = 0;
  in_flight_deregistration_ = false;
}

// --- Public attach operations -------------------------------------------------------

void MobileHost::AttachForeign(const Attachment& attachment, CompletionCallback done) {
  RunAttachPipeline(Begin(SwitchPhase::kRegistering, std::move(done)), attachment,
                    /*skip_interface_config=*/false);
}

void MobileHost::SwitchCareOfAddress(Ipv4Address new_care_of, CompletionCallback done) {
  Attachment att = attachment_;
  att.care_of = new_care_of;
  RunAttachPipeline(Begin(SwitchPhase::kRegistering, std::move(done)), att,
                    /*skip_interface_config=*/false);
}

void MobileHost::HotSwitchTo(const Attachment& attachment, CompletionCallback done) {
  const bool already_configured =
      node_.stack().GetInterfaceAddress(attachment.device) == attachment.care_of;
  RunAttachPipeline(Begin(SwitchPhase::kRegistering, std::move(done)), attachment,
                    /*skip_interface_config=*/already_configured);
}

void MobileHost::ColdSwitchTo(const Attachment& attachment, CompletionCallback done) {
  const uint64_t generation = Begin(SwitchPhase::kBringingUp, std::move(done));
  NetDevice* old_device = attachment_.device != nullptr ? attachment_.device
                                                        : config_.home_device;
  if (fa_mode_ && old_device != nullptr && old_device->IsUp()) {
    // Smooth hand-off (extension): tell the old foreign agent we are leaving
    // so it buffers our packets until the home agent reports the new care-of
    // address. Sent before the interface goes down.
    BindingUpdate leaving;
    leaving.home_address = config_.home_address;
    leaving.new_care_of = Ipv4Address::Any();
    UdpSocket::SendExtras extras;
    extras.force_device = old_device;
    extras.force_dst_mac = fa_mac_;
    reg_socket_->SendToWithExtras(attachment_.care_of, kMipRegistrationPort,
                                  leaving.Serialize(), extras);
  }
  // Tear down the old interface: delete its routes, drop its address, take
  // the device down (paper §4: "deletes the route to the first interface,
  // brings the interface down, brings the new interface up, adds its route,
  // and finally registers the new IP address"). When a departure notice was
  // just queued for the old foreign agent, hold the teardown long enough for
  // the frame to serialize onto the (possibly slow) old link.
  Duration teardown = Calibration::Default().route_update.Draw(node_.sim().rng());
  if (fa_mode_) {
    teardown += Milliseconds(50);
  }
  node_.sim().Schedule(teardown, [this, generation, old_device, attachment] {
    if (generation != attach_generation_) {
      return;
    }
    if (old_device != nullptr && old_device != attachment.device) {
      node_.stack().routes().RemoveForDevice(old_device);
      node_.stack().UnconfigureAddress(old_device);
      old_device->TakeDown();
    }
    // From here until the new registration completes the host has no usable
    // attachment; stop claiming the old (torn-down) one is registered. This
    // is the handoff downtime window the paper measures in Figure 7.
    if (state_ == State::kRegistered || state_ == State::kAtHome) {
      state_ = State::kRegistering;
    }
    attachment.device->BringUp([this, generation, attachment] {
      if (generation != attach_generation_) {
        return;
      }
      // The registration steps are timed from the moment the device is up.
      timeline_.start = node_.sim().Now();
      phase_ = SwitchPhase::kRegistering;
      RunAttachPipeline(generation, attachment, /*skip_interface_config=*/false);
    });
  });
}

void MobileHost::AttachHome(CompletionCallback done) {
  // Cold return: the home device may have been taken down on departure.
  const bool home_up = config_.home_device->IsUp();
  const uint64_t generation =
      Begin(home_up ? SwitchPhase::kRegistering : SwitchPhase::kBringingUp, std::move(done));
  pending_deregistration_ =
      away_ || state_ == State::kRegistered || state_ == State::kRegistering;
  fa_mode_ = false;
  if (!home_up) {
    config_.home_device->BringUp([this, generation] {
      if (generation != attach_generation_) {
        return;
      }
      phase_ = SwitchPhase::kRegistering;
      ContinueAttachHome(generation);
    });
    return;
  }
  ContinueAttachHome(generation);
}

void MobileHost::ContinueAttachHome(uint64_t generation) {
  const bool was_away = pending_deregistration_;
  // Step 1: configure the home address on the home device.
  const Duration config_cost = Calibration::Default().interface_config.Draw(node_.sim().rng());
  node_.sim().Schedule(config_cost, [this, generation, was_away] {
    if (generation != attach_generation_) {
      return;
    }
    // The home address moves from the VIF back to the physical device.
    node_.stack().UnconfigureAddress(vif_);
    if (node_.stack().GetInterfaceAddress(config_.home_device) != config_.home_address) {
      node_.stack().UnconfigureAddress(config_.home_device);
      node_.stack().ConfigureAddress(config_.home_device, config_.home_address,
                                     config_.home_mask);
    }
    timeline_.interface_configured = node_.sim().Now();

    // Step 2: route update.
    const Duration route_cost = Calibration::Default().route_update.Draw(node_.sim().rng());
    node_.sim().Schedule(route_cost, [this, generation, was_away] {
      if (generation != attach_generation_) {
        return;
      }
      node_.stack().routes().RemoveWhere(
          [](const RouteEntry& e) { return e.dest == Subnet::Default(); });
      node_.AddDefaultRoute(config_.home_gateway, config_.home_device);
      attachment_ = Attachment{config_.home_device, config_.home_address, config_.home_mask,
                               config_.home_gateway};
      away_ = false;
      timeline_.route_changed = node_.sim().Now();

      // Announce our return: void stale ARP entries (including neighbours
      // still mapping the home address to the HA's proxy MAC).
      node_.stack().arp().AnnounceGratuitousArp(config_.home_device, config_.home_address);

      if (!was_away) {
        state_ = State::kAtHome;
        Complete(/*success=*/true);
        return;
      }
      // Step 3: deregister with the home agent.
      const Duration build = Calibration::Default().request_build.Draw(node_.sim().rng());
      node_.sim().Schedule(build, [this, generation] {
        if (generation != attach_generation_) {
          return;
        }
        reg_socket_->BindSourceAddress(config_.home_address);
        BeginRegistrationAttempt();
        SendRegistrationRequest(generation, /*deregistration=*/true);
      });
    });
  });
}

void MobileHost::AttachViaForeignAgent(NetDevice* device, Ipv4Address fa_address,
                                       CompletionCallback done) {
  const uint64_t generation = Begin(SwitchPhase::kRegistering, std::move(done));
  state_ = State::kRegistering;

  if (node_.stack().GetInterfaceAddress(vif_) != config_.home_address) {
    node_.stack().ConfigureAddress(vif_, config_.home_address, SubnetMask(32));
  }

  // Learn the FA's hardware address (ARP works even without our own IP).
  node_.stack().arp().Resolve(
      device, fa_address,
      [this, generation, device, fa_address](std::optional<MacAddress> mac) {
        if (generation != attach_generation_) {
          return;
        }
        if (!mac) {
          MSN_WARN("mip-mh", "%s: cannot resolve foreign agent %s", node_.name().c_str(),
                   fa_address.ToString().c_str());
          FailRegistration(generation);
          return;
        }
        fa_mac_ = *mac;
        fa_mode_ = true;
        // No interface configuration: the FA is the point of attachment.
        node_.stack().routes().RemoveWhere(
            [](const RouteEntry& e) { return e.dest == Subnet::Default(); });
        attachment_ = Attachment{device, fa_address, SubnetMask(32), fa_address};
        away_ = true;
        timeline_.interface_configured = node_.sim().Now();
        timeline_.route_changed = node_.sim().Now();
        StepSendRegistration(generation);
      });
}

// --- Probing --------------------------------------------------------------------------

void MobileHost::ProbeTriangleRoute(Ipv4Address correspondent, std::function<void(bool)> done) {
  ++counters_.probes_sent;
  // Probe with exactly the packets the triangle route would emit: echo
  // requests sourced from the home address, sent directly.
  const Subnet target(correspondent, SubnetMask(32));
  const MobilePolicy previous = policy_table_.LookupConst(correspondent);
  policy_table_.Set(target, MobilePolicy::kTriangle);
  pinger_->set_source(config_.home_address);
  pinger_->Ping(correspondent, kProbeTimeout,
                [this, target, correspondent, previous,
                 done = std::move(done)](const Pinger::Result& result) {
                  if (result.success) {
                    policy_table_.Set(target, MobilePolicy::kTriangle, /*verified=*/true);
                    MSN_INFO("mip-mh", "%s: triangle route to %s verified",
                             node_.name().c_str(), correspondent.ToString().c_str());
                    if (done) {
                      done(true);
                    }
                    return;
                  }
                  // Timeout or administratively prohibited: cache the
                  // fallback so future packets tunnel through the HA.
                  ++counters_.probe_fallbacks;
                  policy_table_.RecordFallback(correspondent);
                  (void)previous;
                  MSN_INFO("mip-mh", "%s: triangle route to %s failed (%s); falling back",
                           node_.name().c_str(), correspondent.ToString().c_str(),
                           result.admin_prohibited ? "filtered" : "timeout");
                  if (done) {
                    done(false);
                  }
                });
}

}  // namespace msn
