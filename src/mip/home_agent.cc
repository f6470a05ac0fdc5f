#include "src/mip/home_agent.h"

#include <algorithm>
#include <utility>

#include "src/util/assert.h"
#include "src/util/logging.h"

namespace msn {

HomeAgent::HomeAgent(Node& node, Config config)
    : node_(node), config_(std::move(config)), role_(config_.initial_role) {
  config_.num_shards = std::clamp(config_.num_shards, uint32_t{1}, kMaxShards);
  config_.batch_max = std::max(config_.batch_max, uint32_t{1});
  MetricsRegistry* metrics = config_.metrics;
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  const std::string& p = config_.metric_prefix;
  counters_.requests_received = metrics->GetCounterRef(p + "requests_received");
  counters_.registrations_accepted = metrics->GetCounterRef(p + "registrations_accepted");
  counters_.registrations_denied = metrics->GetCounterRef(p + "registrations_denied");
  counters_.deregistrations = metrics->GetCounterRef(p + "deregistrations");
  counters_.packets_tunneled = metrics->GetCounterRef(p + "packets_tunneled");
  counters_.reverse_decapsulated = metrics->GetCounterRef(p + "reverse_decapsulated");
  counters_.bindings_expired = metrics->GetCounterRef(p + "bindings_expired");
  counters_.tunnel_drops_no_binding = metrics->GetCounterRef(p + "tunnel_drops_no_binding");
  counters_.requests_dropped_outage = metrics->GetCounterRef(p + "requests_dropped_outage");
  counters_.requests_dropped_standby = metrics->GetCounterRef(p + "requests_dropped_standby");
  counters_.requests_dropped_crashed = metrics->GetCounterRef(p + "requests_dropped_crashed");
  counters_.tunnel_drops_crashed = metrics->GetCounterRef(p + "tunnel_drops_crashed");
  counters_.bindings_wiped = metrics->GetCounterRef(p + "bindings_wiped");
  counters_.resync_denials = metrics->GetCounterRef(p + "resync_denials");
  counters_.admission_denied = metrics->GetCounterRef(p + "admission.denied");
  counters_.admission_dropped = metrics->GetCounterRef(p + "admission.dropped");
  counters_.admission_superseded = metrics->GetCounterRef(p + "admission.superseded");
  bindings_gauge_ = &metrics->GetGauge(p + "bindings");
  role_gauge_ = &metrics->GetGauge(p + "role");
  processing_histogram_ = &metrics->GetHistogram(p + "processing_ms");
  batch_size_histogram_ = &metrics->GetHistogram(p + "batch_size");
  shards_.resize(config_.num_shards);
  for (size_t i = 0; i < shards_.size(); ++i) {
    const std::string sp = p + "shard." + std::to_string(i) + ".";
    shards_[i].queue_depth_gauge = &metrics->GetGauge(sp + "queue_depth");
    shards_[i].bindings_gauge = &metrics->GetGauge(sp + "bindings");
    shards_[i].processed = metrics->GetCounterRef(sp + "processed");
    shards_[i].batches = metrics->GetCounterRef(sp + "batches");
  }
  SetRoleGauge();

  // Registration service socket.
  socket_ = std::make_unique<UdpSocket>(node_.stack());
  MSN_CHECK(socket_->Bind(kMipRegistrationPort)) << "ha registration port";
  socket_->BindSourceAddress(config_.address);
  socket_->SetReceiveHandler(
      [this](const std::vector<uint8_t>& data, const UdpSocket::Metadata& meta) {
        OnRegistrationDatagram(data, meta);
      });

  // Encapsulating virtual interface (paper §3.4: the HA shares the MH's need
  // for a VIF).
  auto vif = std::make_unique<VirtualInterface>(node_.sim(), "ha-vif");
  vif->SetEncapHandler([this](const Ipv4Header& inner, const Packet& wire) {
    EncapsulateAndTunnel(inner, wire);
  });
  vif_ = static_cast<VirtualInterface*>(node_.AdoptDevice(std::move(vif)));

  // Reverse-tunnel decapsulation; inner packets are re-injected and forwarded
  // to the correspondent hosts (the node must have forwarding enabled).
  tunnel_ = std::make_unique<IpIpTunnelEndpoint>(node_.stack());
  tunnel_->SetInspector([this](const Ipv4Header& outer, const Ipv4Datagram& inner) {
    (void)outer;
    (void)inner;
    if (crashed_) {
      ++counters_.tunnel_drops_crashed;
      return false;
    }
    ++counters_.reverse_decapsulated;
    return true;
  });

  // The "special route table entry": packets for a bound home address are
  // redirected to the VIF. Installed as the route-lookup override so both
  // forwarded and locally originated packets are captured.
  node_.stack().SetRouteLookupOverride(
      [this](const RouteQuery& query) { return RouteOverride(query); });
}

HomeAgent::~HomeAgent() {
  node_.stack().ClearRouteLookupOverride();
  if (config_.home_device != nullptr) {
    for (Ipv4Address home : SortedBoundHomes()) {
      node_.stack().arp().RemoveProxyEntry(config_.home_device, home);
    }
  }
}

size_t HomeAgent::ShardIndexOf(Ipv4Address home_address) const {
  // Knuth multiplicative hash on the raw address; deterministic across
  // platforms (no std::hash).
  const uint32_t mixed = home_address.value() * 2654435761u;
  return (mixed >> 16) % shards_.size();
}

HomeAgent::Shard& HomeAgent::ShardOf(Ipv4Address home_address) {
  return shards_[ShardIndexOf(home_address)];
}

const HomeAgent::Shard& HomeAgent::ShardOf(Ipv4Address home_address) const {
  return shards_[ShardIndexOf(home_address)];
}

size_t HomeAgent::binding_count() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.bindings.size();
  }
  return total;
}

size_t HomeAgent::ShardBindingCount(size_t shard_index) const {
  return shards_[shard_index].bindings.size();
}

size_t HomeAgent::ShardQueueDepth(size_t shard_index) const {
  return shards_[shard_index].queue.size();
}

std::string HomeAgent::ShardConsistencyError() const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = shards_[i];
    for (const auto& [home, binding] : shard.bindings) {
      if (ShardIndexOf(home) != i) {
        return home.ToString() + " stored in shard " + std::to_string(i) +
               " but hashes to shard " + std::to_string(ShardIndexOf(home));
      }
      if (binding.home_address != home) {
        return "binding keyed by " + home.ToString() + " names " +
               binding.home_address.ToString();
      }
    }
    if (shard.queued_by_home.size() != shard.queue.size()) {
      return "shard " + std::to_string(i) + " queue index holds " +
             std::to_string(shard.queued_by_home.size()) + " entries for " +
             std::to_string(shard.queue.size()) + " queued requests";
    }
    for (const auto& [home, slot] : shard.queued_by_home) {
      if (ShardIndexOf(home) != i) {
        return home.ToString() + " queued in shard " + std::to_string(i) +
               " but hashes to shard " + std::to_string(ShardIndexOf(home));
      }
      if (slot == nullptr || slot->request.home_address != home) {
        return "queue index for " + home.ToString() + " points at a stale slot";
      }
    }
  }
  return std::string();
}

std::vector<Ipv4Address> HomeAgent::SortedBoundHomes() const {
  std::vector<Ipv4Address> homes;
  homes.reserve(binding_count());
  for (const Shard& shard : shards_) {
    for (const auto& [home, binding] : shard.bindings) {
      homes.push_back(home);
    }
  }
  std::sort(homes.begin(), homes.end());
  return homes;
}

void HomeAgent::SetGlobalBindingsGauge() {
  bindings_gauge_->Set(static_cast<double>(binding_count()));
}

void HomeAgent::FlushShardQueues(CounterRef& drop_counter) {
  for (Shard& shard : shards_) {
    for (size_t i = 0; i < shard.queue.size(); ++i) {
      ++drop_counter;
    }
    shard.queue.clear();
    shard.queued_by_home.clear();
    shard.denials_in_window = 0;
    shard.queue_depth_gauge->Set(0.0);
  }
}

void HomeAgent::AuthorizeMobileHost(Ipv4Address home_address) {
  authorized_.insert(home_address);
}

void HomeAgent::SetAuthKey(Ipv4Address home_address, const MipAuthKey& key) {
  auth_keys_[home_address] = key;
}

HomeAgent::Counters HomeAgent::counters() const {
  Counters c;
  c.requests_received = counters_.requests_received;
  c.registrations_accepted = counters_.registrations_accepted;
  c.registrations_denied = counters_.registrations_denied;
  c.deregistrations = counters_.deregistrations;
  c.packets_tunneled = counters_.packets_tunneled;
  c.reverse_decapsulated = counters_.reverse_decapsulated;
  c.bindings_expired = counters_.bindings_expired;
  c.tunnel_drops_no_binding = counters_.tunnel_drops_no_binding;
  c.requests_dropped_outage = counters_.requests_dropped_outage;
  c.requests_dropped_standby = counters_.requests_dropped_standby;
  c.requests_dropped_crashed = counters_.requests_dropped_crashed;
  c.tunnel_drops_crashed = counters_.tunnel_drops_crashed;
  c.bindings_wiped = counters_.bindings_wiped;
  c.resync_denials = counters_.resync_denials;
  c.admission_denied = counters_.admission_denied;
  c.admission_dropped = counters_.admission_dropped;
  c.admission_superseded = counters_.admission_superseded;
  return c;
}

bool HomeAgent::HasBinding(Ipv4Address home_address) const {
  const Shard& shard = ShardOf(home_address);
  return shard.bindings.find(home_address) != shard.bindings.end();
}

std::optional<HomeAgent::Binding> HomeAgent::GetBinding(Ipv4Address home_address) const {
  const Shard& shard = ShardOf(home_address);
  auto it = shard.bindings.find(home_address);
  if (it == shard.bindings.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<RouteDecision> HomeAgent::RouteOverride(const RouteQuery& query) {
  // A standby holds mirrored bindings but must not intercept traffic; a
  // crashed primary still captures so the drops can be counted — on a real
  // network those frames land on the dead host's MAC and die there.
  if (role_ != HaRole::kPrimary) {
    return std::nullopt;
  }
  const Shard& shard = ShardOf(query.dst);
  auto it = shard.bindings.find(query.dst);
  if (it == shard.bindings.end()) {
    return std::nullopt;
  }
  RouteDecision decision;
  decision.device = vif_;
  decision.src = query.src_hint.IsAny() ? config_.address : query.src_hint;
  decision.next_hop = Ipv4Address::Any();
  return decision;
}

void HomeAgent::EncapsulateAndTunnel(const Ipv4Header& inner, const Packet& inner_wire) {
  Shard& shard = ShardOf(inner.dst);
  auto it = shard.bindings.find(inner.dst);
  if (it == shard.bindings.end()) {
    ++counters_.tunnel_drops_no_binding;
    return;
  }
  if (crashed_) {
    ++counters_.tunnel_drops_crashed;
    return;
  }
  ++counters_.packets_tunneled;
  ++tunneled_by_epoch_[epoch_];
  Ipv4Header outer;
  Packet wire = EncapsulateIpIpPacket(outer, inner_wire, config_.address, it->second.care_of);
  MSN_TRACE("mip-ha", "%s: tunneling %s -> careof %s", node_.name().c_str(),
            inner.ToString().c_str(), it->second.care_of.ToString().c_str());
  node_.stack().SendPreformedPacket(outer, std::move(wire), /*forwarding=*/false);
}

void HomeAgent::BeginOutage(HaOutageKind kind) {
  service_available_ = false;
  switch (kind) {
    case HaOutageKind::kService:
      MSN_WARN("mip-ha", "%s: outage begins", node_.name().c_str());
      // Queued-but-unprocessed requests die with the daemon's service; the
      // MH retransmit machinery recovers, exactly as for in-flight frames.
      FlushShardQueues(counters_.requests_dropped_outage);
      return;
    case HaOutageKind::kDaemonRestart:
      MSN_WARN("mip-ha", "%s: outage begins (daemon restart: soft state wiped)",
               node_.name().c_str());
      FlushShardQueues(counters_.requests_dropped_outage);
      WipeSoftState();
      return;
    case HaOutageKind::kFailStop:
      MSN_WARN("mip-ha", "%s: outage begins (fail-stop crash)", node_.name().c_str());
      crashed_ = true;
      FlushShardQueues(counters_.requests_dropped_crashed);
      // The dead host answers no ARP; stale neighbor caches keep sending
      // frames its way for a while, and those show up as tunnel_drops_crashed
      // because the bindings themselves are kept until rejoin.
      for (Ipv4Address home : SortedBoundHomes()) {
        RemoveServingArpState(home);
      }
      return;
  }
}

void HomeAgent::EndOutage() {
  service_available_ = true;
  if (crashed_) {
    // Rejoin after a fail-stop crash: RAM is gone, and if a replica exists it
    // now owns the bindings — come back as a standby and resync from it
    // (HaReplicationLink requests a snapshot on the down->up transition)
    // instead of forcing every mobile host through identification resync.
    crashed_ = false;
    WipeSoftState();
    if (replication_sink_ && role_ == HaRole::kPrimary) {
      StepDown(epoch_);
    }
  }
  MSN_INFO("mip-ha", "%s: outage ends", node_.name().c_str());
}

void HomeAgent::WipeSoftState() {
  applying_peer_state_ = true;
  // Snapshot the keys first — RemoveBinding mutates the shard tables.
  for (Ipv4Address home : SortedBoundHomes()) {
    resync_required_.insert(home);
    ++counters_.bindings_wiped;
    RemoveBinding(home, /*expired=*/false);
  }
  last_identification_.clear();
  applying_peer_state_ = false;
}

void HomeAgent::Promote(uint64_t epoch) {
  MSN_WARN("mip-ha", "%s: promoted to primary (epoch %llu -> %llu, %zu bindings)",
           node_.name().c_str(), static_cast<unsigned long long>(epoch_),
           static_cast<unsigned long long>(epoch), binding_count());
  role_ = HaRole::kPrimary;
  epoch_ = epoch;
  SetRoleGauge();
  // Pull home-subnet traffic here: proxy ARP plus a gratuitous announcement
  // for every mirrored binding.
  for (Ipv4Address home : SortedBoundHomes()) {
    InstallServingArpState(home);
  }
}

void HomeAgent::StepDown(uint64_t epoch) {
  MSN_WARN("mip-ha", "%s: stepping down to standby (epoch %llu -> %llu)",
           node_.name().c_str(), static_cast<unsigned long long>(epoch_),
           static_cast<unsigned long long>(epoch));
  role_ = HaRole::kStandby;
  epoch_ = epoch;
  SetRoleGauge();
  // Anything still queued belongs to the new primary now.
  FlushShardQueues(counters_.requests_dropped_standby);
  for (Ipv4Address home : SortedBoundHomes()) {
    RemoveServingArpState(home);
  }
}

void HomeAgent::SetReplicationSink(ReplicationSink sink) {
  replication_sink_ = std::move(sink);
}

void HomeAgent::EmitMutation(const BindingMutation& mutation) {
  if (replication_sink_ && !applying_peer_state_) {
    replication_sink_(mutation);
  }
}

void HomeAgent::SetRoleGauge() {
  role_gauge_->Set(role_ == HaRole::kPrimary ? 1.0 : 0.0);
}

void HomeAgent::ApplyMutation(const BindingMutation& mutation) {
  applying_peer_state_ = true;
  switch (mutation.kind) {
    case BindingMutation::Kind::kInstall: {
      Binding binding;
      binding.home_address = mutation.home_address;
      binding.care_of = mutation.care_of;
      binding.expires = node_.sim().Now() + Seconds(mutation.lifetime_sec);
      binding.identification = mutation.identification;
      binding.registered_at = node_.sim().Now();
      binding.decapsulates_self = mutation.decapsulates_self;
      Shard& shard = ShardOf(mutation.home_address);
      shard.bindings[mutation.home_address] = binding;
      shard.bindings_gauge->Set(static_cast<double>(shard.bindings.size()));
      SetGlobalBindingsGauge();
      last_identification_[mutation.home_address] = mutation.identification;
      resync_required_.erase(mutation.home_address);
      ScheduleExpiry(mutation.home_address, binding.expires);
      if (serving()) {
        InstallServingArpState(mutation.home_address);
      }
      break;
    }
    case BindingMutation::Kind::kRemove:
      last_identification_[mutation.home_address] = mutation.identification;
      RemoveBinding(mutation.home_address, /*expired=*/false);
      break;
    case BindingMutation::Kind::kIdentification:
      last_identification_[mutation.home_address] = mutation.identification;
      resync_required_.erase(mutation.home_address);
      break;
  }
  applying_peer_state_ = false;
}

HaBindingState HomeAgent::SnapshotState() const {
  HaBindingState state;
  const Time now = node_.sim().Now();
  state.bindings.reserve(binding_count());
  // Shard-merged and address-sorted, preserving the documented snapshot
  // order regardless of the shard layout (peers may shard differently).
  for (Ipv4Address home : SortedBoundHomes()) {
    const auto& binding = ShardOf(home).bindings.at(home);
    HaBindingState::Entry entry;
    entry.home_address = home;
    entry.care_of = binding.care_of;
    const double remaining_ms = (binding.expires - now).ToMillisF();
    const double remaining_sec = (remaining_ms + 999.0) / 1000.0;
    entry.lifetime_sec = static_cast<uint16_t>(
        std::clamp(remaining_sec, 1.0, 65535.0));
    entry.identification = binding.identification;
    entry.decapsulates_self = binding.decapsulates_self;
    state.bindings.push_back(entry);
  }
  state.identifications.reserve(last_identification_.size());
  for (const auto& [home, identification] : last_identification_) {
    state.identifications.emplace_back(home, identification);
  }
  return state;
}

void HomeAgent::AdoptState(const HaBindingState& state) {
  applying_peer_state_ = true;
  for (Ipv4Address home : SortedBoundHomes()) {
    RemoveBinding(home, /*expired=*/false);
  }
  last_identification_.clear();
  for (const auto& [home, identification] : state.identifications) {
    last_identification_[home] = identification;
  }
  for (const auto& entry : state.bindings) {
    Binding binding;
    binding.home_address = entry.home_address;
    binding.care_of = entry.care_of;
    binding.expires = node_.sim().Now() + Seconds(entry.lifetime_sec);
    binding.identification = entry.identification;
    binding.registered_at = node_.sim().Now();
    binding.decapsulates_self = entry.decapsulates_self;
    Shard& shard = ShardOf(entry.home_address);
    shard.bindings[entry.home_address] = binding;
    shard.bindings_gauge->Set(static_cast<double>(shard.bindings.size()));
    ScheduleExpiry(entry.home_address, binding.expires);
    if (serving()) {
      InstallServingArpState(entry.home_address);
    }
  }
  SetGlobalBindingsGauge();
  // The replica's identification history supersedes the from-scratch resync:
  // a recovering agent that adopted a snapshot needs no one-shot denial.
  resync_required_.clear();
  applying_peer_state_ = false;
  MSN_INFO("mip-ha", "%s: adopted replica state (%zu bindings, %zu identifications)",
           node_.name().c_str(), state.bindings.size(), state.identifications.size());
}

void HomeAgent::InstallServingArpState(Ipv4Address home_address) {
  if (config_.home_device == nullptr) {
    return;
  }
  node_.stack().arp().AddProxyEntry(config_.home_device, home_address);
  node_.stack().arp().AddStaticEntry(home_address, config_.home_device->mac());
  node_.stack().arp().AnnounceGratuitousArp(config_.home_device, home_address);
}

void HomeAgent::RemoveServingArpState(Ipv4Address home_address) {
  if (config_.home_device == nullptr) {
    return;
  }
  node_.stack().arp().RemoveProxyEntry(config_.home_device, home_address);
  node_.stack().arp().RemoveEntry(home_address);
}

void HomeAgent::OnRegistrationDatagram(const std::vector<uint8_t>& data,
                                       const UdpSocket::Metadata& meta) {
  if (crashed_) {
    // Fail-stop: the whole host is gone; nothing answers on port 434.
    ++counters_.requests_dropped_crashed;
    return;
  }
  if (!service_available_) {
    // Down hard: no reply, no state change. The MH's retransmission and
    // backoff machinery is what recovers from this.
    ++counters_.requests_dropped_outage;
    return;
  }
  if (role_ != HaRole::kPrimary) {
    // A standby never answers registrations — doing so would let two agents
    // grant conflicting bindings (the split-brain the epoch rules forbid).
    ++counters_.requests_dropped_standby;
    return;
  }
  ++counters_.requests_received;
  auto request = RegistrationRequest::Parse(data);
  if (!request) {
    ++counters_.registrations_denied;
    return;  // Cannot even name the mobile host; drop silently.
  }
  // Admission front end (DESIGN.md §17). Everything here is stateless and
  // cheap — no authentication, no identification lookup — so an overloaded
  // agent sheds work at parse cost instead of collapsing under it.
  const Time arrival = node_.sim().Now();
  Shard& shard = ShardOf(request->home_address);
  auto queued = shard.queued_by_home.find(request->home_address);
  if (queued != shard.queued_by_home.end()) {
    // Retransmit-aware supersede: a newer copy from the same mobile host
    // replaces its stale queued copy in place, so a slow queue never burns
    // a batch slot answering a request the MH has already given up on.
    ++counters_.admission_superseded;
    if (request->identification >= queued->second->request.identification) {
      queued->second->request = *request;
      queued->second->meta = meta;
      queued->second->arrival = arrival;
    }
    return;
  }
  const size_t depth = shard.queue.size();
  if (config_.admission_queue_limit > 0) {
    const uint32_t drop_limit = config_.admission_drop_limit > 0
                                    ? config_.admission_drop_limit
                                    : 2 * config_.admission_queue_limit;
    if (depth + shard.denials_in_window >= drop_limit) {
      // Past the point where even a denial is worth sending: replies cost
      // socket work, so each daemon pass grants a bounded denial budget —
      // a flood cannot turn the agent into a full-time denial server.
      ++counters_.admission_dropped;
      return;
    }
    if (depth >= config_.admission_queue_limit) {
      // Explicit shed: an unauthenticated "insufficient resources" reply
      // sent before any per-MH work, telling the MH to back off and retry.
      ++shard.denials_in_window;
      ++counters_.admission_denied;
      RegistrationReply reply;
      reply.home_address = request->home_address;
      reply.home_agent = config_.address;
      reply.identification = request->identification;
      reply.lifetime_sec = 0;
      reply.code = MipReplyCode::kDeniedInsufficientResources;
      SendReply(reply, meta.src, meta.src_port);
      return;
    }
  }
  shard.queue.push_back(PendingRequest{*request, meta, arrival});
  shard.queued_by_home[request->home_address] = &shard.queue.back();
  shard.queue_depth_gauge->Set(static_cast<double>(shard.queue.size()));
  ScheduleShardBatch(ShardIndexOf(request->home_address));
}

void HomeAgent::ScheduleShardBatch(size_t shard_index) {
  Shard& shard = shards_[shard_index];
  if (shard.batch_scheduled || shard.queue.empty()) {
    return;
  }
  shard.batch_scheduled = true;
  const Time start = std::max(node_.sim().Now(), shard.busy_until);
  node_.sim().ScheduleAt(start, [this, shard_index] { RunShardBatch(shard_index); });
}

void HomeAgent::RunShardBatch(size_t shard_index) {
  Shard& shard = shards_[shard_index];
  shard.batch_scheduled = false;
  if (crashed_ || !service_available_ || role_ != HaRole::kPrimary) {
    // The state transition that got us here already flushed the queues into
    // the matching dropped counter; a stale batch event must not process.
    return;
  }
  if (shard.queue.empty()) {
    return;
  }
  shard.denials_in_window = 0;  // Each daemon pass refreshes the denial budget.
  // Drain up to batch_max queued requests in one go. A burst pays one fixed
  // dequeue/reply-flush overhead plus a per-request marginal cost; a batch
  // of one draws the classic serial ha_processing cost so the uncontended
  // path is calibrated identically to the paper's measurement.
  const size_t batch = std::min<size_t>(config_.batch_max, shard.queue.size());
  Rng& rng = node_.sim().rng();
  Duration cost;
  if (batch == 1) {
    cost = config_.calibration.ha_processing.Draw(rng);
  } else {
    cost = config_.calibration.ha_batch_fixed.Draw(rng);
    for (size_t i = 0; i < batch; ++i) {
      cost = cost + config_.calibration.ha_batch_item.Draw(rng);
    }
  }
  shard.busy_until = node_.sim().Now() + cost;
  const Time reply_at = shard.busy_until;
  ++shard.batches;
  batch_size_histogram_->Record(static_cast<double>(batch));
  for (size_t i = 0; i < batch; ++i) {
    PendingRequest pending = shard.queue.front();
    shard.queue.pop_front();
    shard.queued_by_home.erase(pending.request.home_address);
    ++shard.processed;
    const double processing_ms = (reply_at - pending.arrival).ToMillisF();
    processing_stats_ms_.Add(processing_ms);
    processing_histogram_->Record(processing_ms);
    // Kernel state (binding, route, proxy ARP) updates promptly at dequeue;
    // the reply goes out once the batch's full processing cost has elapsed.
    // Installing the binding early keeps the packet-loss window short
    // (paper: the loss interval ends when the HA registers the new care-of
    // address, not when the reply reaches the MH).
    ProcessRequest(pending.request, pending.meta, reply_at);
  }
  shard.queue_depth_gauge->Set(static_cast<double>(shard.queue.size()));
  if (!shard.queue.empty()) {
    ScheduleShardBatch(shard_index);
  }
}

void HomeAgent::ProcessRequest(const RegistrationRequest& request,
                               const UdpSocket::Metadata& meta, Time reply_at) {
  MSN_DEBUG("mip-ha", "%s: %s", node_.name().c_str(), request.ToString().c_str());

  RegistrationReply reply;
  reply.home_address = request.home_address;
  reply.home_agent = config_.address;
  reply.identification = request.identification;
  reply.lifetime_sec = 0;

  // Validation. Explicit authorization narrows service within the home
  // subnet; it never extends it (Config: "Home addresses must fall inside
  // this subnet to be served").
  const bool known =
      config_.home_subnet.Contains(request.home_address) &&
      (authorized_.empty() || authorized_.find(request.home_address) != authorized_.end());
  const auto key = auth_keys_.find(request.home_address);
  const bool must_authenticate =
      config_.require_authentication || key != auth_keys_.end();
  if (!known) {
    reply.code = MipReplyCode::kDeniedUnknownHomeAddress;
  } else if (must_authenticate &&
             (key == auth_keys_.end() || !request.VerifyAuthenticator(key->second))) {
    reply.code = MipReplyCode::kDeniedBadAuthenticator;
  } else if (request.home_agent != config_.address) {
    reply.code = MipReplyCode::kDeniedMalformed;
  } else if (!request.IsDeregistration() &&
             (request.care_of_address.IsAny() ||
              request.care_of_address == request.home_address)) {
    // A registration must name somewhere to tunnel to; accepting an empty
    // care-of address would install a black-hole binding, and a care-of
    // equal to the home address would make the HA tunnel home-bound
    // packets back into its own intercept route forever.
    reply.code = MipReplyCode::kDeniedMalformed;
  } else if (resync_required_.erase(request.home_address) > 0) {
    // First registration after a daemon restart: deny once with a mismatch,
    // re-anchoring the replay window at this request's identification. The
    // MH's resync re-send carries a higher identification and is accepted.
    last_identification_[request.home_address] = request.identification;
    ++counters_.resync_denials;
    BindingMutation mutation;
    mutation.kind = BindingMutation::Kind::kIdentification;
    mutation.home_address = request.home_address;
    mutation.identification = request.identification;
    EmitMutation(mutation);
    reply.code = MipReplyCode::kDeniedIdentificationMismatch;
  } else {
    auto last = last_identification_.find(request.home_address);
    if (last != last_identification_.end() && request.identification <= last->second) {
      reply.code = MipReplyCode::kDeniedIdentificationMismatch;
    } else if ((request.flags & kMipFlagSimultaneous) != 0) {
      reply.code = MipReplyCode::kAcceptedNoSimultaneous;
    } else {
      reply.code = MipReplyCode::kAccepted;
    }
  }

  if (reply.accepted()) {
    last_identification_[request.home_address] = request.identification;
    if (request.IsDeregistration()) {
      ++counters_.deregistrations;
      RemoveBinding(request.home_address, /*expired=*/false);
      reply.lifetime_sec = 0;
    } else {
      const uint16_t granted =
          std::min<uint16_t>(request.lifetime_sec, config_.max_lifetime_sec);
      reply.lifetime_sec = granted;
      InstallBinding(request, granted);
    }
    ++counters_.registrations_accepted;
  } else {
    ++counters_.registrations_denied;
  }

  if (key != auth_keys_.end()) {
    reply.Authenticate(key->second);
  }
  node_.sim().ScheduleAt(reply_at, [this, reply, dst = meta.src, port = meta.src_port] {
    SendReply(reply, dst, port);
  });
}

void HomeAgent::InstallBinding(const RegistrationRequest& request,
                               uint16_t granted_lifetime_sec) {
  const Ipv4Address home = request.home_address;
  Shard& shard = ShardOf(home);
  auto it = shard.bindings.find(home);
  const Ipv4Address old_care_of =
      it != shard.bindings.end() ? it->second.care_of : Ipv4Address::Any();

  const bool old_was_foreign_agent =
      it != shard.bindings.end() && !it->second.decapsulates_self;

  Binding binding;
  binding.home_address = home;
  binding.care_of = request.care_of_address;
  binding.expires = node_.sim().Now() + Seconds(granted_lifetime_sec);
  binding.identification = request.identification;
  binding.registered_at = node_.sim().Now();
  binding.decapsulates_self = (request.flags & kMipFlagDecapsulateSelf) != 0;
  // A binding serves exactly the home address it is keyed by, and only
  // addresses inside the served subnet ever reach this point (ProcessRequest
  // rejects the rest); a violation means tunnel traffic would be delivered
  // to the wrong mobile host.
  MSN_CHECK(binding.home_address == home);
  MSN_CHECK(config_.home_subnet.Contains(home))
      << home.ToString() << " outside " << config_.home_subnet.ToString();
  MSN_ASSERT(!binding.care_of.IsAny()) << "registration with an empty care-of address";
  shard.bindings[home] = binding;
  shard.bindings_gauge->Set(static_cast<double>(shard.bindings.size()));
  SetGlobalBindingsGauge();

  // Previous-FA notification: late tunnel packets still headed to the old
  // foreign agent can be forwarded to the new care-of address.
  if (config_.notify_previous_foreign_agent && old_was_foreign_agent &&
      !old_care_of.IsAny() && old_care_of != binding.care_of) {
    BindingUpdate update;
    update.home_address = home;
    update.new_care_of = binding.care_of;
    socket_->SendTo(old_care_of, kMipRegistrationPort, update.Serialize());
  }

  if (serving()) {
    // Become (or refresh as) the MH's ARP proxy and void stale neighbor
    // caches so traffic for the home address now lands on us.
    InstallServingArpState(home);
  }
  ScheduleExpiry(home, binding.expires);

  BindingMutation mutation;
  mutation.kind = BindingMutation::Kind::kInstall;
  mutation.home_address = home;
  mutation.care_of = binding.care_of;
  mutation.lifetime_sec = granted_lifetime_sec;
  mutation.identification = binding.identification;
  mutation.decapsulates_self = binding.decapsulates_self;
  EmitMutation(mutation);

  if (observer_) {
    observer_(home, old_care_of, binding.care_of);
  }
  MSN_INFO("mip-ha", "%s: binding %s -> %s (%us)", node_.name().c_str(),
           home.ToString().c_str(), binding.care_of.ToString().c_str(), granted_lifetime_sec);
}

void HomeAgent::RemoveBinding(Ipv4Address home_address, bool expired) {
  Shard& shard = ShardOf(home_address);
  auto it = shard.bindings.find(home_address);
  if (it == shard.bindings.end()) {
    return;
  }
  const Ipv4Address old_care_of = it->second.care_of;
  shard.bindings.erase(it);
  shard.bindings_gauge->Set(static_cast<double>(shard.bindings.size()));
  SetGlobalBindingsGauge();
  RemoveServingArpState(home_address);
  if (expired) {
    ++counters_.bindings_expired;
  }
  BindingMutation mutation;
  mutation.kind = BindingMutation::Kind::kRemove;
  mutation.home_address = home_address;
  auto last = last_identification_.find(home_address);
  mutation.identification = last != last_identification_.end() ? last->second : 0;
  EmitMutation(mutation);
  if (observer_) {
    observer_(home_address, old_care_of, Ipv4Address::Any());
  }
  MSN_INFO("mip-ha", "%s: binding for %s removed%s", node_.name().c_str(),
           home_address.ToString().c_str(), expired ? " (expired)" : "");
}

void HomeAgent::ScheduleExpiry(Ipv4Address home_address, Time expires) {
  node_.sim().ScheduleAt(expires, [this, home_address, expires] {
    const Shard& shard = ShardOf(home_address);
    auto it = shard.bindings.find(home_address);
    if (it == shard.bindings.end() || it->second.expires > expires) {
      return;  // Removed or refreshed meanwhile.
    }
    RemoveBinding(home_address, /*expired=*/true);
  });
}

void HomeAgent::SendReply(const RegistrationReply& reply, Ipv4Address dst, uint16_t port) {
  MSN_DEBUG("mip-ha", "%s: %s -> %s:%u", node_.name().c_str(), reply.ToString().c_str(),
            dst.ToString().c_str(), port);
  socket_->SendTo(dst, port, reply.Serialize());
}

}  // namespace msn
