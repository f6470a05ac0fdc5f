#include "src/tracing/probe.h"
#include "src/util/assert.h"

#include "src/util/byte_buffer.h"

namespace msn {

ProbeEchoServer::ProbeEchoServer(Node& node, uint16_t port) {
  socket_ = std::make_unique<UdpSocket>(node.stack());
  MSN_CHECK(socket_->Bind(port)) << "probe sink port " << port;
  socket_->SetReceiveHandler(
      [this](const std::vector<uint8_t>& data, const UdpSocket::Metadata& meta) {
        ++echoes_sent_;
        socket_->SendTo(meta.src, meta.src_port, data);
      });
}

ProbeSender::ProbeSender(Node& node, Config config) : node_(node), config_(config) {
  socket_ = std::make_unique<UdpSocket>(node_.stack());
  MSN_CHECK(socket_->Bind(0)) << "probe source ephemeral port";
  socket_->SetReceiveHandler(
      [this](const std::vector<uint8_t>& data, const UdpSocket::Metadata& meta) {
        (void)meta;
        OnEcho(data);
      });
  task_ = std::make_unique<PeriodicTask>(node_.sim(), config_.interval, [this] { SendProbe(); });
}

ProbeSender::~ProbeSender() = default;

void ProbeSender::Start() {
  SendProbe();  // First probe immediately; then one per interval.
  task_->Start();
}

void ProbeSender::Stop() { task_->Stop(); }

void ProbeSender::SendProbe() {
  const uint32_t seq = next_seq_++;
  records_.push_back(ProbeRecord{node_.sim().Now(), std::nullopt});
  ByteWriter w(12);
  w.WriteU32(seq);
  w.WriteU64(static_cast<uint64_t>(node_.sim().Now().nanos()));
  socket_->SendTo(config_.target, config_.port, w.Take());
}

void ProbeSender::OnEcho(const std::vector<uint8_t>& data) {
  ByteReader r(data);
  const uint32_t seq = r.ReadU32();
  if (!r.ok()) {
    return;
  }
  if (seq >= records_.size() || records_[seq].echoed_at.has_value()) {
    return;  // Unknown or duplicate echo.
  }
  records_[seq].echoed_at = node_.sim().Now();
  ++received_;
}

uint64_t ProbeSender::TotalLost() const {
  uint64_t lost = 0;
  for (const ProbeRecord& rec : records_) {
    if (!rec.echoed_at.has_value()) {
      ++lost;
    }
  }
  return lost;
}

uint64_t ProbeSender::LostInWindow(Time from, Time to) const {
  uint64_t lost = 0;
  for (const ProbeRecord& rec : records_) {
    if (rec.sent_at >= from && rec.sent_at < to && !rec.echoed_at.has_value()) {
      ++lost;
    }
  }
  return lost;
}

std::vector<Duration> ProbeSender::RttsInWindow(Time from, Time to) const {
  std::vector<Duration> rtts;
  for (const ProbeRecord& rec : records_) {
    if (rec.sent_at >= from && rec.sent_at < to && rec.echoed_at.has_value()) {
      rtts.push_back(rec.Rtt());
    }
  }
  return rtts;
}

}  // namespace msn
