#include "src/mip/home_agent.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/util/assert.h"
#include "src/util/logging.h"

namespace msn {
namespace {

// Appends the homes of one shard's records that `keep` selects, in bucket
// order. Every caller sorts them before their order can reach behaviour or
// a message.
template <typename Table, typename Keep>
void AppendHomes(const Table& table, Keep keep, std::vector<Ipv4Address>& homes) {
  // msn-analyze: allow(determinism/unordered-iteration)
  for (const auto& [home, record] : table) {
    if (keep(record)) {
      homes.push_back(home);
    }
  }
}

}  // namespace

HomeAgent::HomeAgent(Node& node, Config config)
    : node_(node), config_(std::move(config)), role_(config_.initial_role) {
  config_.num_shards = std::clamp(config_.num_shards, uint32_t{1}, kMaxShards);
  config_.batch_max = std::max(config_.batch_max, uint32_t{1});
  metrics_ = config_.metrics;
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  const std::string& p = config_.metric_prefix;
  metrics_->BindCounter(p + "requests_received", &counters_.requests_received);
  metrics_->BindCounter(p + "registrations_accepted", &counters_.registrations_accepted);
  metrics_->BindCounter(p + "registrations_denied", &counters_.registrations_denied);
  metrics_->BindCounter(p + "deregistrations", &counters_.deregistrations);
  metrics_->BindCounter(p + "packets_tunneled", &counters_.packets_tunneled);
  metrics_->BindCounter(p + "reverse_decapsulated", &counters_.reverse_decapsulated);
  metrics_->BindCounter(p + "bindings_expired", &counters_.bindings_expired);
  metrics_->BindCounter(p + "tunnel_drops_no_binding", &counters_.tunnel_drops_no_binding);
  metrics_->BindCounter(p + "requests_dropped_outage", &counters_.requests_dropped_outage);
  metrics_->BindCounter(p + "requests_dropped_standby", &counters_.requests_dropped_standby);
  metrics_->BindCounter(p + "requests_dropped_crashed", &counters_.requests_dropped_crashed);
  metrics_->BindCounter(p + "tunnel_drops_crashed", &counters_.tunnel_drops_crashed);
  metrics_->BindCounter(p + "bindings_wiped", &counters_.bindings_wiped);
  metrics_->BindCounter(p + "resync_denials", &counters_.resync_denials);
  metrics_->BindCounter(p + "admission.denied", &counters_.admission_denied);
  metrics_->BindCounter(p + "admission.dropped", &counters_.admission_dropped);
  metrics_->BindCounter(p + "admission.superseded", &counters_.admission_superseded);
  bindings_gauge_ = &metrics_->GetGauge(p + "bindings");
  role_gauge_ = &metrics_->GetGauge(p + "role");
  processing_histogram_ = &metrics_->GetHistogram(p + "processing_ms");
  batch_size_histogram_ = &metrics_->GetHistogram(p + "batch_size");
  shards_.resize(config_.num_shards);
  for (size_t i = 0; i < shards_.size(); ++i) {
    const std::string sp = p + "shard." + std::to_string(i) + ".";
    shards_[i].queue_depth_gauge = &metrics_->GetGauge(sp + "queue_depth");
    shards_[i].bindings_gauge = &metrics_->GetGauge(sp + "bindings");
    metrics_->BindCounter(sp + "processed", &shards_[i].processed);
    metrics_->BindCounter(sp + "batches", &shards_[i].batches);
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
  // msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
  vif->SetEncapHandler([this](const Ipv4Header& inner, Packet wire) {
    EncapsulateAndTunnel(inner, std::move(wire));
  });
  vif_ = static_cast<VirtualInterface*>(node_.AdoptDevice(std::move(vif)));

  // Reverse-tunnel decapsulation; inner packets are re-injected and forwarded
  // to the correspondent hosts (the node must have forwarding enabled).
  tunnel_ = std::make_unique<IpIpTunnelEndpoint>(node_.stack());
  tunnel_->SetInspector([this](const Ipv4Header&, const Ipv4Header&, const Packet&) {
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

  // Proxy ARP (paper §3.1) is answered from the records: a serving agent
  // proxies every bound home on the home device, and nothing else.
  node_.stack().arp().SetProxyOwner([this](NetDevice* device, Ipv4Address ip) {
    return device == config_.home_device && serving() && HasBinding(ip);
  });
}

HomeAgent::~HomeAgent() {
  node_.sim().Cancel(expiry_timer_);
  node_.stack().ClearRouteLookupOverride();
  node_.stack().arp().ClearProxyOwner();
  metrics_->ReleaseCounters(counters_);
  for (const Shard& shard : shards_) {
    metrics_->ReleaseCounters(shard);
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

HomeAgent::HomeRecord* HomeAgent::FindRecord(Ipv4Address home_address) {
  Shard& shard = ShardOf(home_address);
  auto it = shard.home_records.find(home_address);
  return it == shard.home_records.end() ? nullptr : &it->second;
}

const HomeAgent::Binding* HomeAgent::FindBinding(Ipv4Address home_address) const {
  const Shard& shard = ShardOf(home_address);
  auto it = shard.home_records.find(home_address);
  if (it == shard.home_records.end() || !it->second.binding) {
    return nullptr;
  }
  return &*it->second.binding;
}

void HomeAgent::StoreBinding(Shard& shard, HomeRecord& record, const Binding& binding) {
  if (!record.binding) {
    ++shard.bound;
  }
  record.binding = binding;
  shard.bindings_gauge->Set(static_cast<double>(shard.bound));
}

void HomeAgent::EraseIfEmpty(Ipv4Address home_address, const HomeRecord& record) {
  if (record.empty()) {
    ShardOf(home_address).home_records.erase(home_address);
  }
}

void HomeAgent::ClearReplayHistory(bool resync_too) {
  for (Shard& shard : shards_) {
    // Each step touches only its own record: bucket order cannot reach
    // behaviour.
    // msn-analyze: allow(determinism/unordered-iteration)
    for (auto it = shard.home_records.begin(); it != shard.home_records.end();) {
      it->second.last_identification.reset();
      if (resync_too) {
        it->second.resync_required = false;
      }
      it = it->second.empty() ? shard.home_records.erase(it) : std::next(it);
    }
  }
}

size_t HomeAgent::binding_count() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.bound;
  }
  return total;
}

size_t HomeAgent::ShardBindingCount(size_t shard_index) const {
  return shards_[shard_index].bound;
}

size_t HomeAgent::record_count() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.home_records.size();
  }
  return total;
}

size_t HomeAgent::ShardQueueDepth(size_t shard_index) const {
  return shards_[shard_index].queue.size();
}

std::string HomeAgent::ShardConsistencyError() const {
  std::vector<Ipv4Address> homes;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = shards_[i];
    const std::string where = "shard " + std::to_string(i);
    homes.clear();
    AppendHomes(shard.home_records, [](const HomeRecord&) { return true; }, homes);
    std::sort(homes.begin(), homes.end());
    size_t bound = 0;
    size_t queued = 0;
    for (Ipv4Address home : homes) {
      if (ShardIndexOf(home) != i) {
        return home.ToString() + " stored in " + where + " but hashes to shard " +
               std::to_string(ShardIndexOf(home));
      }
      const HomeRecord& record = shard.home_records.at(home);
      if (record.empty()) {
        return "empty record for " + home.ToString() + " in " + where;
      }
      if (record.binding) {
        ++bound;
        if (record.binding->home_address != home) {
          return "binding keyed by " + home.ToString() + " names " +
                 record.binding->home_address.ToString();
        }
      }
      if (record.queued != nullptr) {
        ++queued;
      }
    }
    if (bound != shard.bound) {
      return where + " counts " + std::to_string(shard.bound) + " bindings but " +
             std::to_string(bound) + " records hold one";
    }
    if (queued != shard.queue.size()) {
      return where + " has " + std::to_string(queued) + " records with a queued slot for " +
             std::to_string(shard.queue.size()) + " queued requests";
    }
    for (const PendingRequest& slot : shard.queue) {
      const Ipv4Address home = slot.request.home_address;
      auto it = shard.home_records.find(home);
      if (it == shard.home_records.end() || slot.record != &it->second ||
          it->second.queued != &slot) {
        return "queued request for " + home.ToString() + " in " + where +
               " and its record do not point at each other";
      }
    }
  }
  return std::string();
}

std::vector<Ipv4Address> HomeAgent::SortedBoundHomes() const {
  std::vector<Ipv4Address> homes;
  homes.reserve(binding_count());
  for (const Shard& shard : shards_) {
    AppendHomes(shard.home_records, [](const HomeRecord& r) { return r.binding.has_value(); },
                homes);
  }
  std::sort(homes.begin(), homes.end());
  return homes;
}

void HomeAgent::SetGlobalBindingsGauge() {
  bindings_gauge_->Set(static_cast<double>(binding_count()));
}

void HomeAgent::FlushShardQueues(uint64_t& drop_counter) {
  for (Shard& shard : shards_) {
    drop_counter += shard.queue.size();
    for (const PendingRequest& pending : shard.queue) {
      pending.record->queued = nullptr;
      EraseIfEmpty(pending.request.home_address, *pending.record);
    }
    shard.queue.clear();
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

bool HomeAgent::HasBinding(Ipv4Address home_address) const {
  return FindBinding(home_address) != nullptr;
}

std::optional<HomeAgent::Binding> HomeAgent::GetBinding(Ipv4Address home_address) const {
  const Binding* binding = FindBinding(home_address);
  if (binding == nullptr) {
    return std::nullopt;
  }
  return *binding;
}

std::optional<RouteDecision> HomeAgent::RouteOverride(const RouteQuery& query) {
  // A standby holds mirrored bindings but must not intercept traffic; a
  // crashed primary still captures so the drops can be counted — on a real
  // network those frames land on the dead host's MAC and die there.
  if (role_ != HaRole::kPrimary) {
    return std::nullopt;
  }
  // Admission serves only homes inside the served subnet, so an address
  // outside it has no binding: skip the record lookup (the tunnel's outer
  // packets and reverse-decapsulated inner packets).
  if (!config_.home_subnet.Contains(query.dst) || !HasBinding(query.dst)) {
    return std::nullopt;
  }
  RouteDecision decision;
  decision.device = vif_;
  decision.src = query.src_hint.IsAny() ? config_.address : query.src_hint;
  decision.next_hop = Ipv4Address::Any();
  return decision;
}

// msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
void HomeAgent::EncapsulateAndTunnel(const Ipv4Header& inner, Packet inner_wire) {
  const Binding* binding = FindBinding(inner.dst);
  if (binding == nullptr) {
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
  Packet wire =
      EncapsulateIpIpPacket(outer, std::move(inner_wire), config_.address, binding->care_of);
  MSN_TRACE("mip-ha", "%s: tunneling %s -> careof %s", node_.name().c_str(),
            inner.ToString().c_str(), binding->care_of.ToString().c_str());
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
    HomeRecord& record = *FindRecord(home);
    record.resync_required = true;
    ++counters_.bindings_wiped;
    RemoveBinding(home, record, /*expired=*/false);
  }
  ClearReplayHistory(/*resync_too=*/false);
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
      HomeRecord& record = shard.home_records[mutation.home_address];
      StoreBinding(shard, record, binding);
      SetGlobalBindingsGauge();
      record.last_identification = mutation.identification;
      record.resync_required = false;
      ScheduleExpiry(mutation.home_address, binding.expires);
      if (serving()) {
        InstallServingArpState(mutation.home_address);
      }
      break;
    }
    case BindingMutation::Kind::kRemove: {
      HomeRecord& record = ShardOf(mutation.home_address).home_records[mutation.home_address];
      record.last_identification = mutation.identification;
      RemoveBinding(mutation.home_address, record, /*expired=*/false);
      break;
    }
    case BindingMutation::Kind::kIdentification: {
      HomeRecord& record = ShardOf(mutation.home_address).home_records[mutation.home_address];
      record.last_identification = mutation.identification;
      record.resync_required = false;
      break;
    }
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
    const Binding& binding = *FindBinding(home);
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
  for (const Shard& shard : shards_) {
    // Sorted below.
    // msn-analyze: allow(determinism/unordered-iteration)
    for (const auto& [home, record] : shard.home_records) {
      if (record.last_identification) {
        state.identifications.emplace_back(home, *record.last_identification);
      }
    }
  }
  // Address-sorted, as documented on HaBindingState; homes are unique, so
  // the pair order is the address order.
  std::sort(state.identifications.begin(), state.identifications.end());
  return state;
}

void HomeAgent::AdoptState(const HaBindingState& state) {
  applying_peer_state_ = true;
  for (Ipv4Address home : SortedBoundHomes()) {
    RemoveBinding(home, *FindRecord(home), /*expired=*/false);
  }
  // The replica's identification history supersedes the from-scratch resync:
  // a recovering agent that adopted a snapshot needs no one-shot denial.
  ClearReplayHistory(/*resync_too=*/true);
  for (const auto& [home, identification] : state.identifications) {
    ShardOf(home).home_records[home].last_identification = identification;
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
    StoreBinding(shard, shard.home_records[entry.home_address], binding);
    ScheduleExpiry(entry.home_address, binding.expires);
    if (serving()) {
      InstallServingArpState(entry.home_address);
    }
  }
  SetGlobalBindingsGauge();
  applying_peer_state_ = false;
  MSN_INFO("mip-ha", "%s: adopted replica state (%zu bindings, %zu identifications)",
           node_.name().c_str(), state.bindings.size(), state.identifications.size());
}

void HomeAgent::InstallServingArpState(Ipv4Address home_address) {
  if (config_.home_device == nullptr) {
    return;
  }
  node_.stack().arp().AddStaticEntry(home_address, config_.home_device->mac());
  node_.stack().arp().AnnounceGratuitousArp(config_.home_device, home_address);
}

void HomeAgent::RemoveServingArpState(Ipv4Address home_address) {
  if (config_.home_device == nullptr) {
    return;
  }
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
  // The home's record is found (or created) here, once; the daemon reaches
  // it through the queued slot.
  const Time arrival = node_.sim().Now();
  Shard& shard = ShardOf(request->home_address);
  auto [it, created] = shard.home_records.try_emplace(request->home_address);
  HomeRecord& record = it->second;
  if (record.queued != nullptr) {
    // Retransmit-aware supersede: a newer copy from the same mobile host
    // replaces its stale queued copy in place, so a slow queue never burns
    // a batch slot answering a request the MH has already given up on.
    ++counters_.admission_superseded;
    if (request->identification >= record.queued->request.identification) {
      record.queued->request = *request;
      record.queued->meta = meta;
      record.queued->arrival = arrival;
    }
    return;
  }
  const size_t depth = shard.queue.size();
  if (config_.admission_queue_limit > 0) {
    if (depth + shard.denials_in_window >= 2 * config_.admission_queue_limit) {
      // Past the point where even a denial is worth sending: replies cost
      // socket work, so each daemon pass grants a bounded denial budget —
      // a flood cannot turn the agent into a full-time denial server.
      ++counters_.admission_dropped;
      if (created) {
        shard.home_records.erase(it);  // A shed request leaves no record.
      }
      return;
    }
    if (depth >= config_.admission_queue_limit) {
      // Explicit shed: an unauthenticated "insufficient resources" reply
      // sent before any per-MH work, telling the MH to back off and retry.
      if (created) {
        shard.home_records.erase(it);
      }
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
  shard.queue.push_back(PendingRequest{*request, meta, arrival, &record});
  record.queued = &shard.queue.back();
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
  const Calibration cal = Calibration::Default();
  Duration cost;
  if (batch == 1) {
    cost = cal.ha_processing.Draw(rng);
  } else {
    cost = cal.ha_batch_fixed.Draw(rng);
    for (size_t i = 0; i < batch; ++i) {
      cost = cost + cal.ha_batch_item.Draw(rng);
    }
  }
  shard.busy_until = node_.sim().Now() + cost;
  const Time reply_at = shard.busy_until;
  ++shard.batches;
  batch_size_histogram_->Record(static_cast<double>(batch));
  for (size_t i = 0; i < batch; ++i) {
    const PendingRequest pending = shard.queue.front();
    shard.queue.pop_front();
    pending.record->queued = nullptr;
    ++shard.processed;
    const double processing_ms = (reply_at - pending.arrival).ToMillisF();
    processing_stats_ms_.Add(processing_ms);
    processing_histogram_->Record(processing_ms);
    // Kernel state (binding, route, proxy ARP) updates promptly at dequeue;
    // the reply goes out once the batch's full processing cost has elapsed.
    // Installing the binding early keeps the packet-loss window short
    // (paper: the loss interval ends when the HA registers the new care-of
    // address, not when the reply reaches the MH).
    ProcessRequest(*pending.record, pending.request, pending.meta, reply_at);
  }
  shard.queue_depth_gauge->Set(static_cast<double>(shard.queue.size()));
  if (!shard.queue.empty()) {
    ScheduleShardBatch(shard_index);
  }
}

void HomeAgent::ProcessRequest(HomeRecord& record, const RegistrationRequest& request,
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
  } else if (record.resync_required) {
    // First registration after a daemon restart: deny once with a mismatch,
    // re-anchoring the replay window at this request's identification. The
    // MH's resync re-send carries a higher identification and is accepted.
    record.resync_required = false;
    record.last_identification = request.identification;
    ++counters_.resync_denials;
    BindingMutation mutation;
    mutation.kind = BindingMutation::Kind::kIdentification;
    mutation.home_address = request.home_address;
    mutation.identification = request.identification;
    EmitMutation(mutation);
    reply.code = MipReplyCode::kDeniedIdentificationMismatch;
  } else {
    if (record.last_identification && request.identification <= *record.last_identification) {
      reply.code = MipReplyCode::kDeniedIdentificationMismatch;
    } else if ((request.flags & kMipFlagSimultaneous) != 0) {
      reply.code = MipReplyCode::kAcceptedNoSimultaneous;
    } else {
      reply.code = MipReplyCode::kAccepted;
    }
  }

  // `record` is not touched past this point: RemoveBinding may erase it,
  // and a denial of a home with nothing else recorded erases it here.
  if (reply.accepted()) {
    record.last_identification = request.identification;
    if (request.IsDeregistration()) {
      ++counters_.deregistrations;
      RemoveBinding(request.home_address, record, /*expired=*/false);
      reply.lifetime_sec = 0;
    } else {
      const uint16_t granted =
          std::min<uint16_t>(request.lifetime_sec, kMaxLifetimeSec);
      reply.lifetime_sec = granted;
      InstallBinding(record, request, granted);
    }
    ++counters_.registrations_accepted;
  } else {
    ++counters_.registrations_denied;
    EraseIfEmpty(request.home_address, record);
  }

  if (key != auth_keys_.end()) {
    reply.Authenticate(key->second);
  }
  node_.sim().ScheduleAt(reply_at, [this, reply, dst = meta.src, port = meta.src_port] {
    SendReply(reply, dst, port);
  });
}

void HomeAgent::InstallBinding(HomeRecord& record, const RegistrationRequest& request,
                               uint16_t granted_lifetime_sec) {
  const Ipv4Address home = request.home_address;
  Shard& shard = ShardOf(home);
  const Ipv4Address old_care_of = record.binding ? record.binding->care_of : Ipv4Address::Any();
  const bool old_was_foreign_agent = record.binding && !record.binding->decapsulates_self;

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
  StoreBinding(shard, record, binding);
  SetGlobalBindingsGauge();

  // Previous-FA notification: late tunnel packets still headed to the old
  // foreign agent can be forwarded to the new care-of address.
  if (old_was_foreign_agent && !old_care_of.IsAny() && old_care_of != binding.care_of) {
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

void HomeAgent::RemoveBinding(Ipv4Address home_address, HomeRecord& record, bool expired) {
  if (!record.binding) {
    return;
  }
  const Ipv4Address old_care_of = record.binding->care_of;
  BindingMutation mutation;
  mutation.kind = BindingMutation::Kind::kRemove;
  mutation.home_address = home_address;
  mutation.identification = record.last_identification.value_or(0);
  record.binding.reset();
  Shard& shard = ShardOf(home_address);
  --shard.bound;
  EraseIfEmpty(home_address, record);
  shard.bindings_gauge->Set(static_cast<double>(shard.bound));
  SetGlobalBindingsGauge();
  RemoveServingArpState(home_address);
  if (expired) {
    ++counters_.bindings_expired;
  }
  EmitMutation(mutation);
  if (observer_) {
    observer_(home_address, old_care_of, Ipv4Address::Any());
  }
  MSN_INFO("mip-ha", "%s: binding for %s removed%s", node_.name().c_str(),
           home_address.ToString().c_str(), expired ? " (expired)" : "");
}

void HomeAgent::ScheduleExpiry(Ipv4Address home_address, Time expires) {
  const uint64_t seq = node_.sim().ReserveSequence(1);
  expiry_heap_.push_back(ExpiryEntry{expires, seq, home_address});
  std::push_heap(expiry_heap_.begin(), expiry_heap_.end(), ExpiresAfter{});
  if (expiry_heap_.front().seq == seq) {
    node_.sim().Cancel(expiry_timer_);
    ArmExpiryTimer();
  }
}

void HomeAgent::ArmExpiryTimer() {
  const ExpiryEntry& next = expiry_heap_.front();
  expiry_timer_ = node_.sim().ScheduleReserved(next.when, next.seq, [this] { OnExpiryTimer(); });
}

void HomeAgent::OnExpiryTimer() {
  std::pop_heap(expiry_heap_.begin(), expiry_heap_.end(), ExpiresAfter{});
  const ExpiryEntry entry = expiry_heap_.back();
  expiry_heap_.pop_back();
  // Re-arm first: RemoveBinding's observer and replication sink may install
  // bindings here, and ScheduleExpiry must find the timer on the heap's top;
  // and a same-time check must already be pending for the inline dispatch's
  // "nothing else pending now" test (DESIGN.md §18) while RemoveBinding runs.
  if (!expiry_heap_.empty()) {
    ArmExpiryTimer();
  }
  HomeRecord* record = FindRecord(entry.home);
  if (record == nullptr || !record->binding || record->binding->expires > entry.when) {
    return;  // Removed or refreshed meanwhile.
  }
  RemoveBinding(entry.home, *record, /*expired=*/true);
}

void HomeAgent::SendReply(const RegistrationReply& reply, Ipv4Address dst, uint16_t port) {
  MSN_DEBUG("mip-ha", "%s: %s -> %s:%u", node_.name().c_str(), reply.ToString().c_str(),
            dst.ToString().c_str(), port);
  socket_->SendTo(dst, port, reply.Serialize());
}

}  // namespace msn
