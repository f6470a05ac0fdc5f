#include "src/mip/messages.h"

#include <algorithm>
#include <cstdio>

#include "src/util/byte_buffer.h"

namespace msn {

Duration NextRegistrationBackoff(Duration previous, Rng& rng) {
  if (previous.nanos() <= 0) {
    return kRegistrationBackoffBase;
  }
  const double base_s = kRegistrationBackoffBase.ToSecondsF();
  const double prev_s = previous.ToSecondsF();
  return std::min(kRegistrationBackoffCap, SecondsF(rng.UniformDouble(base_s, 3.0 * prev_s)));
}

const char* MipReplyCodeName(MipReplyCode code) {
  switch (code) {
    case MipReplyCode::kAccepted:
      return "accepted";
    case MipReplyCode::kAcceptedNoSimultaneous:
      return "accepted (no simultaneous bindings)";
    case MipReplyCode::kDeniedMalformed:
      return "denied: malformed request";
    case MipReplyCode::kDeniedLifetimeTooLong:
      return "denied: lifetime too long";
    case MipReplyCode::kDeniedUnknownHomeAddress:
      return "denied: unknown home address";
    case MipReplyCode::kDeniedInsufficientResources:
      return "denied: insufficient resources";
    case MipReplyCode::kDeniedBadAuthenticator:
      return "denied: bad authenticator";
    case MipReplyCode::kDeniedIdentificationMismatch:
      return "denied: identification mismatch";
  }
  return "denied: unknown code";
}

bool MipReplyCodeAccepted(MipReplyCode code) {
  return code == MipReplyCode::kAccepted || code == MipReplyCode::kAcceptedNoSimultaneous;
}

namespace {

// Mobile-home authentication extension: [type=32][length=8][64-bit MAC].
constexpr uint8_t kAuthExtensionType = 32;
constexpr size_t kAuthExtensionSize = 10;

void AppendAuthExtension(std::vector<uint8_t>& bytes, uint64_t mac) {
  ByteWriter w(kAuthExtensionSize);
  w.WriteU8(kAuthExtensionType);
  w.WriteU8(8);
  w.WriteU64(mac);
  const auto ext = w.Take();
  bytes.insert(bytes.end(), ext.begin(), ext.end());
}

std::optional<uint64_t> ParseAuthExtension(ByteReader& r) {
  if (r.remaining() < kAuthExtensionSize) {
    return std::nullopt;
  }
  if (r.ReadU8() != kAuthExtensionType || r.ReadU8() != 8) {
    return std::nullopt;
  }
  const uint64_t mac = r.ReadU64();
  if (!r.ok()) {
    return std::nullopt;
  }
  return mac;
}

}  // namespace

std::vector<uint8_t> RegistrationRequest::SerializeBase() const {
  ByteWriter w(kSize);
  w.WriteU8(static_cast<uint8_t>(MipMessageType::kRegistrationRequest));
  w.WriteU8(flags);
  w.WriteU16(lifetime_sec);
  w.WriteU32(home_address.value());
  w.WriteU32(home_agent.value());
  w.WriteU32(care_of_address.value());
  w.WriteU64(identification);
  return w.Take();
}

void RegistrationRequest::Authenticate(const MipAuthKey& key) {
  authenticator = SipHash24(key, SerializeBase());
}

bool RegistrationRequest::VerifyAuthenticator(const MipAuthKey& key) const {
  return authenticator.has_value() && *authenticator == SipHash24(key, SerializeBase());
}

std::vector<uint8_t> RegistrationRequest::Serialize() const {
  std::vector<uint8_t> bytes = SerializeBase();
  if (authenticator.has_value()) {
    AppendAuthExtension(bytes, *authenticator);
  }
  return bytes;
}

std::optional<RegistrationRequest> RegistrationRequest::Parse(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  if (r.remaining() < kSize) {
    return std::nullopt;
  }
  if (r.ReadU8() != static_cast<uint8_t>(MipMessageType::kRegistrationRequest)) {
    return std::nullopt;
  }
  RegistrationRequest req;
  req.flags = r.ReadU8();
  req.lifetime_sec = r.ReadU16();
  req.home_address = Ipv4Address(r.ReadU32());
  req.home_agent = Ipv4Address(r.ReadU32());
  req.care_of_address = Ipv4Address(r.ReadU32());
  req.identification = r.ReadU64();
  if (!r.ok()) {
    return std::nullopt;
  }
  if (r.remaining() > 0) {
    req.authenticator = ParseAuthExtension(r);
  }
  return req;
}

std::string RegistrationRequest::ToString() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "RegReq home=%s ha=%s careof=%s lifetime=%us id=%llu%s",
                home_address.ToString().c_str(), home_agent.ToString().c_str(),
                care_of_address.ToString().c_str(), lifetime_sec,
                static_cast<unsigned long long>(identification),
                IsDeregistration() ? " (deregister)" : "");
  return buf;
}

std::vector<uint8_t> RegistrationReply::SerializeBase() const {
  ByteWriter w(kSize);
  w.WriteU8(static_cast<uint8_t>(MipMessageType::kRegistrationReply));
  w.WriteU8(static_cast<uint8_t>(code));
  w.WriteU16(lifetime_sec);
  w.WriteU32(home_address.value());
  w.WriteU32(home_agent.value());
  w.WriteU64(identification);
  return w.Take();
}

void RegistrationReply::Authenticate(const MipAuthKey& key) {
  authenticator = SipHash24(key, SerializeBase());
}

bool RegistrationReply::VerifyAuthenticator(const MipAuthKey& key) const {
  return authenticator.has_value() && *authenticator == SipHash24(key, SerializeBase());
}

std::vector<uint8_t> RegistrationReply::Serialize() const {
  std::vector<uint8_t> bytes = SerializeBase();
  if (authenticator.has_value()) {
    AppendAuthExtension(bytes, *authenticator);
  }
  return bytes;
}

std::optional<RegistrationReply> RegistrationReply::Parse(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  if (r.remaining() < kSize) {
    return std::nullopt;
  }
  if (r.ReadU8() != static_cast<uint8_t>(MipMessageType::kRegistrationReply)) {
    return std::nullopt;
  }
  RegistrationReply reply;
  reply.code = static_cast<MipReplyCode>(r.ReadU8());
  reply.lifetime_sec = r.ReadU16();
  reply.home_address = Ipv4Address(r.ReadU32());
  reply.home_agent = Ipv4Address(r.ReadU32());
  reply.identification = r.ReadU64();
  if (!r.ok()) {
    return std::nullopt;
  }
  if (r.remaining() > 0) {
    reply.authenticator = ParseAuthExtension(r);
  }
  return reply;
}

std::vector<uint8_t> BindingUpdate::Serialize() const {
  ByteWriter w(kSize);
  w.WriteU8(static_cast<uint8_t>(MipMessageType::kBindingUpdate));
  w.WriteU32(home_address.value());
  w.WriteU32(new_care_of.value());
  w.WriteU16(grace_sec);
  return w.Take();
}

std::optional<BindingUpdate> BindingUpdate::Parse(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  if (r.remaining() < kSize ||
      r.ReadU8() != static_cast<uint8_t>(MipMessageType::kBindingUpdate)) {
    return std::nullopt;
  }
  BindingUpdate update;
  update.home_address = Ipv4Address(r.ReadU32());
  update.new_care_of = Ipv4Address(r.ReadU32());
  update.grace_sec = r.ReadU16();
  if (!r.ok()) {
    return std::nullopt;
  }
  return update;
}

std::vector<uint8_t> AgentAdvertisement::Serialize() const {
  ByteWriter w(kSize);
  w.WriteU8(static_cast<uint8_t>(MipMessageType::kAgentAdvertisement));
  w.WriteU32(agent_address.value());
  w.WriteU16(lifetime_sec);
  return w.Take();
}

std::optional<AgentAdvertisement> AgentAdvertisement::Parse(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  if (r.remaining() < kSize ||
      r.ReadU8() != static_cast<uint8_t>(MipMessageType::kAgentAdvertisement)) {
    return std::nullopt;
  }
  AgentAdvertisement adv;
  adv.agent_address = Ipv4Address(r.ReadU32());
  adv.lifetime_sec = r.ReadU16();
  if (!r.ok()) {
    return std::nullopt;
  }
  return adv;
}

std::string RegistrationReply::ToString() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "RegReply %s home=%s lifetime=%us id=%llu",
                MipReplyCodeName(code), home_address.ToString().c_str(), lifetime_sec,
                static_cast<unsigned long long>(identification));
  return buf;
}

}  // namespace msn
