// Software-overhead calibration for the mobile-IP control path.
//
// The paper's Figure 7 decomposes a same-subnet re-registration into steps
// measured on the real testbed (Gateway Handbook 486 mobile hosts, Pentium 90
// home agent): pre-registration (configure interface + change route table),
// the request->reply latency (4.79 ms, of which 1.48 ms is home-agent
// processing), and post-registration work, totalling 7.39 ms. Each step's
// cost here is a normal distribution tuned so the simulated decomposition
// lands on the paper's numbers. The costs are fixed: MobileHost and
// HomeAgent read Calibration::Default() directly.
#ifndef MSN_SRC_MIP_CALIBRATION_H_
#define MSN_SRC_MIP_CALIBRATION_H_

#include "src/sim/time.h"
#include "src/util/rng.h"

namespace msn {

// One calibrated step cost: a clamped normal distribution.
struct StepCost {
  Duration mean;
  Duration jitter;  // Standard deviation.

  Duration Draw(Rng& rng) const {
    const double ns = rng.NormalAtLeast(static_cast<double>(mean.nanos()),
                                        static_cast<double>(jitter.nanos()),
                                        static_cast<double>(mean.nanos()) * 0.3);
    return Duration::FromNanos(static_cast<int64_t>(ns));
  }
};

struct Calibration {
  // MH: assign the new care-of address to the interface (ifconfig path).
  StepCost interface_config{MillisecondsF(1.1), MillisecondsF(0.12)};
  // MH: delete/add routing-table entries for the new attachment.
  StepCost route_update{MillisecondsF(0.7), MillisecondsF(0.09)};
  // MH: build and hand the registration request to the socket layer.
  StepCost request_build{MillisecondsF(0.25), MillisecondsF(0.04)};
  // HA: validate request, install binding + proxy ARP, build reply.
  // Paper: 1.48 ms between receiving the request and sending the reply.
  StepCost ha_processing{MillisecondsF(1.48), MillisecondsF(0.12)};
  // HA batched registration pipeline (DESIGN.md §17): a burst of queued
  // requests pays one fixed dequeue/reply-flush overhead plus a per-request
  // marginal cost. Defaults are anchored so fixed + item == the serial
  // 1.48 ms — a two-request batch already amortizes the fixed share.
  StepCost ha_batch_fixed{MillisecondsF(0.90), MillisecondsF(0.08)};
  StepCost ha_batch_item{MillisecondsF(0.58), MillisecondsF(0.05)};
  // MH: apply the accepted registration (mobility state, policy table).
  StepCost post_registration{MillisecondsF(0.8), MillisecondsF(0.1)};

  static Calibration Default() { return Calibration{}; }
};

}  // namespace msn

#endif  // MSN_SRC_MIP_CALIBRATION_H_
