#include "src/repl/ha_replication.h"
#include "src/util/assert.h"

#include <algorithm>
#include <utility>

#include "src/node/node.h"
#include "src/util/logging.h"

namespace msn {

HaReplicationLink::HaReplicationLink(HomeAgent& ha, Config config)
    : ha_(ha), config_(std::move(config)) {
  metrics_ = config_.metrics;
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  const std::string& p = config_.metric_prefix;
  metrics_->BindCounter(p + "heartbeats_sent", &counters_.heartbeats_sent);
  metrics_->BindCounter(p + "mutations_sent", &counters_.mutations_sent);
  metrics_->BindCounter(p + "mutations_applied", &counters_.mutations_applied);
  metrics_->BindCounter(p + "duplicate_mutations", &counters_.duplicate_mutations);
  metrics_->BindCounter(p + "out_of_order", &counters_.out_of_order);
  metrics_->BindCounter(p + "acks_received", &counters_.acks_received);
  metrics_->BindCounter(p + "snapshot_requests", &counters_.snapshot_requests);
  metrics_->BindCounter(p + "snapshots_sent", &counters_.snapshots_sent);
  metrics_->BindCounter(p + "snapshots_applied", &counters_.snapshots_applied);
  metrics_->BindCounter(p + "takeovers", &counters_.takeovers);
  metrics_->BindCounter(p + "stepdowns", &counters_.stepdowns);
  sync_lag_gauge_ = &metrics_->GetGauge(ha_.config().metric_prefix + "sync_lag");
  UpdateLagGauge();

  socket_ = std::make_unique<UdpSocket>(ha_.node().stack());
  MSN_CHECK(socket_->Bind(kHaSyncPort)) << "sync port " << kHaSyncPort;
  socket_->BindSourceAddress(config_.self);
  socket_->SetReceiveHandler(
      [this](const std::vector<uint8_t>& data, const UdpSocket::Metadata& meta) {
        (void)meta;
        OnSyncDatagram(data);
      });

  ha_.SetReplicationSink(
      [this](const BindingMutation& mutation) { OnLocalMutation(mutation); });

  Simulator& sim = ha_.node().sim();
  last_primary_heard_ = sim.Now();
  next_snapshot_at_ = sim.Now() + kSnapshotInterval;
  tick_ = std::make_unique<PeriodicTask>(sim, kHeartbeatInterval, [this] { OnTick(); });
  tick_->Start();
}

HaReplicationLink::~HaReplicationLink() {
  ha_.SetReplicationSink(nullptr);
  metrics_->ReleaseCounters(counters_);
}

void HaReplicationLink::UpdateLagGauge() {
  sync_lag_gauge_->Set(static_cast<double>(sync_lag()));
}

void HaReplicationLink::OnLocalMutation(const BindingMutation& mutation) {
  // Only a live primary streams; a standby's local binding changes (expiry of
  // a mirrored binding it never heard a refresh for) stay local.
  if (!ha_.serving() || !ha_.service_available()) {
    return;
  }
  SyncMutation m;
  m.epoch = ha_.epoch();
  m.seq = ++last_sent_seq_;
  m.mutation = mutation;
  ++counters_.mutations_sent;
  socket_->SendTo(config_.peer, kHaSyncPort, m.Serialize());
  UpdateLagGauge();
}

void HaReplicationLink::OnTick() {
  const bool available = ha_.service_available() && !ha_.crashed();
  if (!available) {
    was_available_ = false;
    return;
  }
  Simulator& sim = ha_.node().sim();
  if (!was_available_) {
    // Rejoin: forgive the silence accumulated while we were down, and as a
    // standby pull a snapshot so we resync from the replica.
    was_available_ = true;
    last_primary_heard_ = sim.Now();
    if (ha_.role() == HaRole::kStandby) {
      RequestSnapshot();
    }
  }
  if (ha_.serving()) {
    SendHeartbeat();
    if (sim.Now() >= next_snapshot_at_) {
      SendSnapshot();
      next_snapshot_at_ = sim.Now() + kSnapshotInterval;
    }
    UpdateLagGauge();
    return;
  }
  if (ha_.role() == HaRole::kStandby &&
      sim.Now() - last_primary_heard_ > config_.takeover_timeout) {
    Takeover();
  }
}

void HaReplicationLink::Takeover() {
  ++counters_.takeovers;
  MSN_WARN("repl", "%s: primary silent for %.0f ms, taking over (epoch %llu -> %llu)",
           ha_.node().name().c_str(),
           (ha_.node().sim().Now() - last_primary_heard_).ToMillisF(),
           static_cast<unsigned long long>(ha_.epoch()),
           static_cast<unsigned long long>(ha_.epoch() + 1));
  ha_.Promote(ha_.epoch() + 1);
  // Sequences are per-epoch; the new reign starts its own stream.
  last_sent_seq_ = 0;
  last_acked_seq_ = 0;
  UpdateLagGauge();
  // Announce the new epoch immediately so a lingering old primary demotes
  // itself on the first packet rather than the next tick.
  SendHeartbeat();
}

void HaReplicationLink::StepDownInto(uint64_t epoch) {
  if (ha_.serving()) {
    ++counters_.stepdowns;
  }
  ha_.StepDown(epoch);
  last_primary_heard_ = ha_.node().sim().Now();
  RequestSnapshot();
}

void HaReplicationLink::SendHeartbeat() {
  SyncHeartbeat hb;
  hb.epoch = ha_.epoch();
  hb.role = ha_.role();
  hb.seq = last_sent_seq_;
  ++counters_.heartbeats_sent;
  socket_->SendTo(config_.peer, kHaSyncPort, hb.Serialize());
}

void HaReplicationLink::SendSnapshot() {
  SyncSnapshot snap;
  snap.epoch = ha_.epoch();
  snap.seq = last_sent_seq_;
  snap.state = ha_.SnapshotState();
  ++counters_.snapshots_sent;
  socket_->SendTo(config_.peer, kHaSyncPort, snap.Serialize());
}

void HaReplicationLink::SendAck() {
  SyncAck ack;
  ack.epoch = ha_.epoch();
  ack.seq = expected_seq_ - 1;
  socket_->SendTo(config_.peer, kHaSyncPort, ack.Serialize());
}

void HaReplicationLink::RequestSnapshot() {
  const Time now = ha_.node().sim().Now();
  if (snapshot_requested_ && now - last_snapshot_request_ < kHeartbeatInterval) {
    return;
  }
  snapshot_requested_ = true;
  last_snapshot_request_ = now;
  SyncSnapshotRequest req;
  req.epoch = ha_.epoch();
  ++counters_.snapshot_requests;
  socket_->SendTo(config_.peer, kHaSyncPort, req.Serialize());
}

void HaReplicationLink::OnSyncDatagram(const std::vector<uint8_t>& data) {
  // A dead agent hears nothing; anything in flight is lost with it.
  if (!ha_.service_available() || ha_.crashed()) {
    return;
  }
  const auto type = PeekSyncMessageType(data);
  if (!type) {
    return;
  }
  switch (*type) {
    case SyncMessageType::kHeartbeat:
      if (auto hb = SyncHeartbeat::Parse(data)) {
        OnHeartbeat(*hb);
      }
      return;
    case SyncMessageType::kMutation:
      if (auto m = SyncMutation::Parse(data)) {
        OnMutation(*m);
      }
      return;
    case SyncMessageType::kAck:
      if (auto ack = SyncAck::Parse(data)) {
        if (ack->epoch == ha_.epoch()) {
          ++counters_.acks_received;
          last_acked_seq_ = std::max(last_acked_seq_, ack->seq);
          UpdateLagGauge();
        }
      }
      return;
    case SyncMessageType::kSnapshotRequest:
      if (auto req = SyncSnapshotRequest::Parse(data)) {
        if (ha_.serving()) {
          SendSnapshot();
        }
      }
      return;
    case SyncMessageType::kSnapshot:
      if (auto snap = SyncSnapshot::Parse(data)) {
        OnSnapshot(*snap);
      }
      return;
  }
}

void HaReplicationLink::OnHeartbeat(const SyncHeartbeat& hb) {
  if (hb.role != HaRole::kPrimary) {
    return;  // Standby beacons carry no authority.
  }
  if (hb.epoch > ha_.epoch()) {
    // A superior reign exists; fall in line whatever our role was.
    StepDownInto(hb.epoch);
    expected_seq_ = hb.seq + 1;
    return;
  }
  if (hb.epoch < ha_.epoch()) {
    return;  // Stale primary; our own heartbeats will demote it.
  }
  if (ha_.role() == HaRole::kPrimary) {
    // Dual primary in the same epoch (partition heal): lower address wins.
    if (config_.self.value() > config_.peer.value()) {
      StepDownInto(hb.epoch);
      expected_seq_ = hb.seq + 1;
    }
    return;
  }
  last_primary_heard_ = ha_.node().sim().Now();
  if (hb.seq >= expected_seq_) {
    // The primary has sent mutations we never saw.
    RequestSnapshot();
  }
}

void HaReplicationLink::OnMutation(const SyncMutation& m) {
  if (m.epoch > ha_.epoch()) {
    StepDownInto(m.epoch);
    // The gap from our epoch into theirs is unknowable; the snapshot
    // requested by StepDownInto resynchronizes, so just resume in-order
    // delivery after this mutation.
    expected_seq_ = m.seq + 1;
    ha_.ApplyMutation(m.mutation);
    ++counters_.mutations_applied;
    SendAck();
    return;
  }
  if (m.epoch < ha_.epoch() || ha_.role() == HaRole::kPrimary) {
    return;  // Stale reign, or we are the authority; drop.
  }
  last_primary_heard_ = ha_.node().sim().Now();
  if (m.seq == expected_seq_) {
    ha_.ApplyMutation(m.mutation);
    ++counters_.mutations_applied;
    ++expected_seq_;
    SendAck();
    return;
  }
  if (m.seq < expected_seq_) {
    // Duplicate of something already applied (or covered by a snapshot);
    // re-ack so the primary's lag gauge drains.
    ++counters_.duplicate_mutations;
    SendAck();
    return;
  }
  // Gap: never apply out of order — heal through anti-entropy.
  ++counters_.out_of_order;
  MSN_WARN("repl", "%s: sequence gap (expected %llu, got %llu), requesting snapshot",
           ha_.node().name().c_str(), static_cast<unsigned long long>(expected_seq_),
           static_cast<unsigned long long>(m.seq));
  RequestSnapshot();
}

void HaReplicationLink::OnSnapshot(const SyncSnapshot& snap) {
  if (snap.epoch < ha_.epoch()) {
    return;
  }
  if (ha_.role() == HaRole::kPrimary) {
    if (snap.epoch == ha_.epoch() && config_.self.value() <= config_.peer.value()) {
      return;  // Equal-epoch tiebreak says we stay primary.
    }
    StepDownInto(snap.epoch);
  } else if (snap.epoch > ha_.epoch()) {
    ha_.StepDown(snap.epoch);  // Adopt the newer epoch (already standby).
  }
  ha_.AdoptState(snap.state);
  expected_seq_ = snap.seq + 1;
  ++counters_.snapshots_applied;
  last_primary_heard_ = ha_.node().sim().Now();
  SendAck();
}

}  // namespace msn
