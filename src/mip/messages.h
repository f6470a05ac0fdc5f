// Mobile IP registration protocol messages, closely following the IETF
// draft the paper based its implementation on (later RFC 2002): UDP port
// 434, a Registration Request carrying home address / home agent / care-of
// address / lifetime / identification, and a Registration Reply with a
// result code. The paper's system always uses a co-located care-of address
// (the "D" flag: decapsulation by the mobile host itself).
#ifndef MSN_SRC_MIP_MESSAGES_H_
#define MSN_SRC_MIP_MESSAGES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/net/address.h"
#include "src/sim/time.h"
#include "src/util/rng.h"
#include "src/util/siphash.h"

namespace msn {

// Shared secret between a mobile host and its home agent, used to compute
// the mobile-home authentication extension (the paper's §5.1: registrations
// "should be authenticated ... to protect against denial-of-service attacks
// in the form of malicious fraudulent registrations").
using MipAuthKey = SipHashKey;

// UDP port for registration traffic.
inline constexpr uint16_t kMipRegistrationPort = 434;

// Registration retransmit schedule, shared by MobileHost and the synthetic
// RegistrationLoadGenerator: decorrelated jitter. Given the previous wait
// (zero for a fresh attempt) returns the next one. The first wait is exactly
// kRegistrationBackoffBase, so loss-free runs never draw from `rng`; each
// later wait is drawn uniform from [base, 3 * previous] and capped at
// kRegistrationBackoffCap.
inline constexpr Duration kRegistrationBackoffBase = Seconds(1);
inline constexpr Duration kRegistrationBackoffCap = Seconds(8);
[[nodiscard]] Duration NextRegistrationBackoff(Duration previous, Rng& rng);

// Registration request flags.
inline constexpr uint8_t kMipFlagSimultaneous = 0x80;   // S: keep prior bindings.
inline constexpr uint8_t kMipFlagBroadcast = 0x40;      // B: forward broadcasts.
inline constexpr uint8_t kMipFlagDecapsulateSelf = 0x20;  // D: co-located care-of.

enum class MipMessageType : uint8_t {
  kRegistrationRequest = 1,
  kRegistrationReply = 3,
  // Extension (paper §5.1 "Packet loss" discussion): the home agent notifies
  // a mobile host's *previous* foreign agent of the new care-of address so
  // in-flight tunnel packets can be forwarded instead of lost.
  kBindingUpdate = 20,
  // Extension: foreign agent advertisement (paper §5.1: "we can extend our
  // protocol on mobile hosts so they can take advantage of any foreign
  // agents that happen to exist").
  kAgentAdvertisement = 16,
};

enum class MipReplyCode : uint8_t {
  kAccepted = 0,
  kAcceptedNoSimultaneous = 1,
  kDeniedMalformed = 70,
  kDeniedLifetimeTooLong = 69,
  kDeniedUnknownHomeAddress = 128,
  // Admission control: the HA's front end shed this request before doing any
  // authentication or identification work (queue over threshold). Explicitly
  // "try again later", so the MH backs off and retries instead of failing.
  kDeniedInsufficientResources = 130,
  kDeniedBadAuthenticator = 131,
  kDeniedIdentificationMismatch = 133,
};

const char* MipReplyCodeName(MipReplyCode code);
[[nodiscard]] bool MipReplyCodeAccepted(MipReplyCode code);

struct RegistrationRequest {
  static constexpr size_t kSize = 24;

  uint8_t flags = kMipFlagDecapsulateSelf;
  // Seconds the binding should remain valid. Zero requests deregistration.
  uint16_t lifetime_sec = 0;
  Ipv4Address home_address;
  Ipv4Address home_agent;
  Ipv4Address care_of_address;
  // Monotonically increasing per (MH, HA) pair; orders registrations and
  // rejects replays.
  uint64_t identification = 0;
  // Mobile-home authentication extension: SipHash-2-4 MAC over the fixed
  // header fields. Absent when authentication is not in use.
  std::optional<uint64_t> authenticator;

  [[nodiscard]] bool IsDeregistration() const { return lifetime_sec == 0; }

  // Computes and attaches the authenticator under `key`.
  void Authenticate(const MipAuthKey& key);
  // True iff an authenticator is present and matches `key`.
  [[nodiscard]] bool VerifyAuthenticator(const MipAuthKey& key) const;

  [[nodiscard]] std::vector<uint8_t> Serialize() const;
  [[nodiscard]] static std::optional<RegistrationRequest> Parse(const std::vector<uint8_t>& bytes);
  std::string ToString() const;

 private:
  std::vector<uint8_t> SerializeBase() const;
};

struct RegistrationReply {
  static constexpr size_t kSize = 20;

  MipReplyCode code = MipReplyCode::kAccepted;
  // Granted lifetime (may be clamped below the requested value).
  uint16_t lifetime_sec = 0;
  Ipv4Address home_address;
  Ipv4Address home_agent;
  uint64_t identification = 0;  // Echoes the request's identification.
  std::optional<uint64_t> authenticator;

  bool accepted() const { return MipReplyCodeAccepted(code); }

  void Authenticate(const MipAuthKey& key);
  [[nodiscard]] bool VerifyAuthenticator(const MipAuthKey& key) const;

  [[nodiscard]] std::vector<uint8_t> Serialize() const;
  [[nodiscard]] static std::optional<RegistrationReply> Parse(const std::vector<uint8_t>& bytes);
  std::string ToString() const;

 private:
  std::vector<uint8_t> SerializeBase() const;
};

// Sent to a mobile host's previous foreign agent around a hand-off:
//  * by the departing MH itself, with `new_care_of` = Any: "I am leaving and
//    do not yet know where to; buffer my packets" (smooth hand-off);
//  * by the home agent once the binding moves, with the real new care-of:
//    the FA flushes any buffer and forwards late tunnel packets there for
//    `grace_sec`.
struct BindingUpdate {
  static constexpr size_t kSize = 11;

  Ipv4Address home_address;
  Ipv4Address new_care_of;
  uint16_t grace_sec = 10;

  [[nodiscard]] std::vector<uint8_t> Serialize() const;
  [[nodiscard]] static std::optional<BindingUpdate> Parse(const std::vector<uint8_t>& bytes);
};

// Broadcast periodically by a foreign agent on its local segment (over UDP
// port 434); visiting mobile hosts learn the FA's address from it.
struct AgentAdvertisement {
  static constexpr size_t kSize = 7;

  Ipv4Address agent_address;
  uint16_t lifetime_sec = 3;  // Advertisement validity.

  [[nodiscard]] std::vector<uint8_t> Serialize() const;
  [[nodiscard]] static std::optional<AgentAdvertisement> Parse(const std::vector<uint8_t>& bytes);
};

}  // namespace msn

#endif  // MSN_SRC_MIP_MESSAGES_H_
