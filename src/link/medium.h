// Shared transmission media.
//
// A BroadcastMedium joins any number of attached devices into one broadcast
// domain: an Ethernet segment or a Metricom radio cell, differing only in
// parameters (propagation latency, jitter, random frame loss). Delivery is by
// destination MAC; broadcast frames reach every attached device but the
// sender.
#ifndef MSN_SRC_LINK_MEDIUM_H_
#define MSN_SRC_LINK_MEDIUM_H_

#include <functional>
#include <string>
#include <vector>

#include "src/net/frame.h"
#include "src/sim/simulator.h"
#include "src/telemetry/metrics.h"

namespace msn {

class LinkDevice;

// Why a frame vanished between sender and receiver. Distinguishing the three
// keeps chaos runs debuggable: injected-fault drops must never be confused
// with the medium's own random loss or with misaddressed frames.
enum class FrameDropReason {
  kRandomLoss,     // MediumParams::drop_probability fired.
  kFaultInjected,  // The installed fault hook (src/fault/) vetoed delivery.
  kUnmatched,      // No attached device owns the destination MAC.
};

// Verdict a fault hook returns for one frame delivery. The hook may also
// mutate the frame in place (bit corruption); the medium delivers whatever
// the hook leaves behind.
struct FaultVerdict {
  bool drop = false;
  int duplicates = 0;      // Extra copies delivered alongside the original.
  Duration extra_latency;  // Added queueing delay (reordering).
};

struct MediumParams {
  // One-way propagation + medium access latency.
  Duration latency = Microseconds(50);
  // Absolute stddev of per-frame latency jitter.
  Duration latency_jitter = Duration();
  // Independent per-frame loss probability (radio frames do occasionally
  // vanish; the paper observed one such drop during the hot-switch runs).
  double drop_probability = 0.0;
};

class BroadcastMedium {
 public:
  // Per-medium accounting is named in `metrics` as "link.<name>.*" when a
  // registry is given; counters() counts either way.
  BroadcastMedium(Simulator& sim, std::string name, MediumParams params,
                  MetricsRegistry* metrics = nullptr);
  // Unlinks any still-attached devices so a device that outlives its medium
  // (tests routinely scope a medium tighter than the fixture's devices)
  // doesn't detach from freed memory later.
  ~BroadcastMedium();

  BroadcastMedium(const BroadcastMedium&) = delete;
  BroadcastMedium& operator=(const BroadcastMedium&) = delete;

  void Attach(LinkDevice* device);
  void Detach(LinkDevice* device);

  // Called by an attached device once its serialization delay has elapsed.
  void FrameFromDevice(LinkDevice* sender, const EthernetFrame& frame);

  const std::string& name() const { return name_; }
  const MediumParams& params() const { return params_; }
  void set_params(const MediumParams& p) { params_ = p; }

  // Consulted once per (frame, receiver) after the medium's own random-loss
  // draw. At most one hook; a FaultInjector installs itself here.
  using FaultHook = std::function<FaultVerdict(LinkDevice* target, EthernetFrame& frame)>;
  void SetFaultHook(FaultHook hook) { fault_hook_ = std::move(hook); }
  void ClearFaultHook() { fault_hook_ = nullptr; }

  // Observes every frame the medium fails to deliver, with the reason.
  // PacketCapture taps this so drops show up (tagged) in traces.
  using DropTap = std::function<void(const EthernetFrame& frame, FrameDropReason reason)>;
  void SetDropTap(DropTap tap) { drop_tap_ = std::move(tap); }
  void ClearDropTap() { drop_tap_ = nullptr; }

  // Per-drop-reason accounting.
  struct Counters {
    uint64_t frames_carried = 0;
    uint64_t frames_dropped = 0;  // Random medium loss.
    uint64_t frames_fault_dropped = 0;  // Injected-fault loss (hook verdict).
    uint64_t frames_unmatched = 0;  // No attached device with that MAC.
  };
  const Counters& counters() const { return counters_; }

 private:
  void DeliverAfterLatency(LinkDevice* target, const EthernetFrame& frame);
  Duration DrawLatency();
  void NotifyDrop(const EthernetFrame& frame, FrameDropReason reason);

  Simulator& sim_;
  std::string name_;
  MediumParams params_;
  // Attachment-ordered vector, deliberately not a hash container: broadcast
  // delivery (and the per-receiver random-loss/fault draws it triggers)
  // walks this in order, so traversal order is part of the deterministic
  // replay contract. msn_analyze's determinism/unordered-iteration rule
  // exists to keep containers like this one insertion-ordered or sorted.
  std::vector<LinkDevice*> devices_;
  FaultHook fault_hook_;
  DropTap drop_tap_;
  MetricsRegistry* metrics_;  // Null: counters are not named.
  Counters counters_;
};

}  // namespace msn

#endif  // MSN_SRC_LINK_MEDIUM_H_
