// The fleet benchmark's topology for tests: a 16-shard, 32-batch home agent
// with admission limit 64 on a router between the home segment (36.135/16)
// and the visited segment (36.8/16), and a registrant fleet on the visited
// segment offered at 0.75x the pipeline's knee. Members are declared in
// construction order, so they are destroyed in reverse.
#ifndef MSN_TESTS_FLEET_BED_H_
#define MSN_TESTS_FLEET_BED_H_

#include <cstdint>

#include "src/link/link_device.h"
#include "src/link/medium.h"
#include "src/mip/calibration.h"
#include "src/mip/home_agent.h"
#include "src/mip/reg_load.h"
#include "src/node/node.h"
#include "src/sim/simulator.h"

namespace msn {

struct FleetBed {
  static constexpr uint32_t kShards = 16;
  static constexpr uint32_t kBatchMax = 32;
  static constexpr uint32_t kAdmissionLimit = 64;

  // Offered registrations per second: 0.75x shards * batch / (fixed + batch
  // * item), from the calibration means.
  static double RatePerSec() {
    const Calibration cal = Calibration::Default();
    const double batch_ms =
        cal.ha_batch_fixed.mean.ToMillisF() + cal.ha_batch_item.mean.ToMillisF() * kBatchMax;
    return 0.75 * kShards * kBatchMax / batch_ms * 1000.0;
  }

  static HomeAgent::Config HaConfig(NetDevice* home_device) {
    HomeAgent::Config config;
    config.address = Ipv4Address(36, 135, 0, 1);
    config.home_device = home_device;
    config.home_subnet = Subnet::MustParse("36.0.0.0/8");
    config.num_shards = kShards;
    config.batch_max = kBatchMax;
    config.admission_queue_limit = kAdmissionLimit;
    return config;
  }

  static RegistrationLoadGenerator::Config LoadConfig(uint32_t clients) {
    RegistrationLoadGenerator::Config config;
    config.home_agent = Ipv4Address(36, 135, 0, 1);
    config.first_home = Ipv4Address(36, 100, 0, 0);
    config.count = clients;
    config.first_care_of = Ipv4Address(36, 8, 16, 1);
    config.start_delay = Seconds(1);
    config.interarrival = Duration::FromNanos(static_cast<int64_t>(1e9 / RatePerSec()));
    return config;
  }

  // Builds the topology; the fleet's arrivals begin with load.Start().
  explicit FleetBed(uint32_t clients)
      : sim(1),
        net135(sim, "net135", EthernetMediumParams()),
        net8(sim, "net8", EthernetMediumParams()),
        router(sim, "router"),
        r135(router.AddEthernet("eth135", &net135)),
        r8(router.AddEthernet("eth8", &net8)),
        ha(ConfigureRouter(), HaConfig(r135)),
        fleet_node(sim, "fleet"),
        load(ConfigureFleetNode(), LoadConfig(clients)) {}

  Simulator sim;
  BroadcastMedium net135;
  BroadcastMedium net8;
  Node router;
  EthernetDevice* r135;
  EthernetDevice* r8;
  HomeAgent ha;
  Node fleet_node;
  RegistrationLoadGenerator load;

 private:
  Node& ConfigureRouter() {
    router.stack().set_forwarding_enabled(true);
    for (EthernetDevice* dev : {r135, r8}) {
      dev->set_bandwidth_bps(1'000'000'000);
      dev->ForceUp();
    }
    router.ConfigureInterface(r135, "36.135.0.1/16");
    router.ConfigureInterface(r8, "36.8.0.1/16");
    return router;
  }

  Node& ConfigureFleetNode() {
    EthernetDevice* eth = fleet_node.AddEthernet("eth0", &net8);
    eth->set_bandwidth_bps(1'000'000'000);
    eth->ForceUp();
    fleet_node.ConfigureInterface(eth, "36.8.0.2/16");
    fleet_node.AddDefaultRoute(Ipv4Address(36, 8, 0, 1), eth);
    return fleet_node;
  }
};

}  // namespace msn

#endif  // MSN_TESTS_FLEET_BED_H_
