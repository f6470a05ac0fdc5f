#include "src/mip/reg_load.h"

#include <algorithm>
#include <utility>

#include "src/util/assert.h"
#include "src/util/logging.h"

namespace msn {

RegistrationLoadGenerator::RegistrationLoadGenerator(Node& node, Config config)
    : node_(node), config_(std::move(config)) {
  MSN_CHECK(config_.count > 0) << "load generator needs at least one client";
  config_.care_of_span = std::max(config_.care_of_span, uint32_t{1});
  socket_ = std::make_unique<UdpSocket>(node_.stack());
  MSN_CHECK(socket_->Bind(0)) << "load generator ephemeral port";
  socket_->SetReceiveHandler(
      [this](const std::vector<uint8_t>& data, const UdpSocket::Metadata& meta) {
        OnDatagram(data, meta);
      });
  clients_.resize(config_.count);
  for (uint32_t i = 0; i < config_.count; ++i) {
    clients_[i].home = Ipv4Address(config_.first_home.value() + i);
    clients_[i].care_of =
        Ipv4Address(config_.first_care_of.value() + (i % config_.care_of_span));
    clients_[i].retransmits_left = config_.max_retransmits;
    clients_[i].resyncs_left = kMaxResyncs;
  }
}

RegistrationLoadGenerator::~RegistrationLoadGenerator() {
  node_.sim().Cancel(arrival_event_);
  for (Client& client : clients_) {
    node_.sim().Cancel(client.retransmit_event);
  }
}

void RegistrationLoadGenerator::Start() {
  arrivals_start_ = node_.sim().Now() + config_.start_delay;
  arrival_seq_ = node_.sim().ReserveSequence(clients_.size());
  ScheduleArrival(0);
}

void RegistrationLoadGenerator::ScheduleArrival(size_t index) {
  const Time at = arrivals_start_ + config_.interarrival * static_cast<int64_t>(index);
  arrival_event_ = node_.sim().ScheduleReserved(at, arrival_seq_ + index, [this, index] {
    // Next arrival first: while this send runs, the queue must hold every
    // event the up-front schedule would have, or the inline dispatch's
    // "nothing else pending now" test (DESIGN.md §18) could change its answer.
    if (index + 1 < clients_.size()) {
      ScheduleArrival(index + 1);
    }
    SendRequest(index, /*is_retransmit=*/false);
  });
}

void RegistrationLoadGenerator::SendRequest(size_t index, bool is_retransmit) {
  Client& client = clients_[index];
  if (client.done) {
    return;
  }
  if (client.first_send == Time()) {
    client.first_send = node_.sim().Now();
  }
  if (first_send_time_ == Time()) {
    first_send_time_ = node_.sim().Now();
  }
  RegistrationRequest request;
  request.flags = kMipFlagDecapsulateSelf;
  request.lifetime_sec = config_.lifetime_sec;
  request.home_address = client.home;
  request.home_agent = config_.home_agent;
  request.care_of_address = client.care_of;
  request.identification = client.next_identification++;
  client.outstanding = request.identification;
  ++stats_.sent;
  if (is_retransmit) {
    ++stats_.retransmissions;
  }
  socket_->SendTo(config_.home_agent, kMipRegistrationPort, request.Serialize());
  client.backoff = NextRegistrationBackoff(client.backoff, node_.sim().rng());
  client.retransmit_event =
      node_.sim().Schedule(client.backoff, [this, index] { OnTimeout(index); });
}

void RegistrationLoadGenerator::OnTimeout(size_t index) {
  Client& client = clients_[index];
  if (client.done) {
    return;
  }
  if (client.retransmits_left <= 0) {
    client.done = true;
    client.outstanding = 0;
    ++stats_.gave_up;
    return;
  }
  --client.retransmits_left;
  SendRequest(index, /*is_retransmit=*/true);
}

void RegistrationLoadGenerator::OnDatagram(const std::vector<uint8_t>& data,
                                           const UdpSocket::Metadata& meta) {
  (void)meta;
  auto reply = RegistrationReply::Parse(data);
  if (!reply) {
    return;
  }
  // One socket serves the whole fleet; replies demux by home address.
  const uint32_t offset = reply->home_address.value() - config_.first_home.value();
  if (offset >= clients_.size()) {
    return;
  }
  Client& client = clients_[offset];
  if (client.done || reply->identification != client.outstanding) {
    return;  // Stale or duplicate; the live request keeps retransmitting.
  }
  node_.sim().Cancel(client.retransmit_event);
  client.outstanding = 0;
  if (reply->accepted()) {
    client.done = true;
    ++stats_.accepted;
    const double completion_ms = (node_.sim().Now() - client.first_send).ToMillisF();
    completion_stats_ms_.Add(completion_ms);
    completion_samples_ms_.push_back(completion_ms);
    last_accept_time_ = node_.sim().Now();
    return;
  }
  if (reply->code == MipReplyCode::kDeniedIdentificationMismatch &&
      client.resyncs_left > 0) {
    // A restarted HA re-anchored its replay window at our denied request's
    // identification; re-send immediately with the next one, exactly as
    // MobileHost's resync path does.
    --client.resyncs_left;
    ++stats_.resyncs;
    SendRequest(offset, /*is_retransmit=*/false);
    return;
  }
  if (reply->code == MipReplyCode::kDeniedInsufficientResources) {
    // Admission shed: back off and retry without consuming the retransmit
    // budget, exactly as MobileHost does (the HA said "try again later").
    ++stats_.admission_denied;
    const size_t index = offset;
    client.backoff = NextRegistrationBackoff(client.backoff, node_.sim().rng());
    client.retransmit_event = node_.sim().Schedule(
        client.backoff, [this, index] { SendRequest(index, /*is_retransmit=*/false); });
    return;
  }
  client.done = true;
  ++stats_.denied_other;
}

}  // namespace msn
