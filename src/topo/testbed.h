// The MosquitoNet testbed (paper Figure 5):
//
//   net 36.135.0.0/16 — wired home subnet of the mobile host;
//   net 36.8.0.0/16   — wired Computer Science Department subnet, visited via
//                       the MH's PCMCIA Ethernet; correspondent host lives
//                       here by default;
//   net 36.134.0.0/16 — Metricom radio subnet, visited via the STRIP driver;
//   campus            — optional extra subnet behind the router, for a
//                       correspondent "elsewhere in the Internet".
//
// A Pentium-90-class router connects the subnets and (by default) hosts the
// home agent; the paper notes the HA may instead be any host on the home
// network, which `ha_on_router = false` reproduces. All calibrated kernel
// delays and device timings are applied here so experiments see the paper's
// timing regime.
#ifndef MSN_SRC_TOPO_TESTBED_H_
#define MSN_SRC_TOPO_TESTBED_H_

#include <memory>

#include "src/dhcp/dhcp.h"
#include "src/link/link_device.h"
#include "src/fault/fault_injector.h"
#include "src/mip/home_agent.h"
#include "src/mip/mobile_host.h"
#include "src/mobility/mobility_driver.h"
#include "src/node/node.h"
#include "src/repl/ha_replication.h"
#include "src/sim/simulator.h"
#include "src/telemetry/metrics.h"

namespace msn {

struct TestbedConfig {
  uint64_t seed = 1;
  // Router refuses to forward transit traffic arriving on foreign subnets
  // (source address not local to the arrival subnet). Breaks the triangle
  // route, as some security-conscious networks did (paper §3.2).
  bool transit_filter = false;
  // Collocate the home agent on the router (the paper's usual setup) or on a
  // separate host in the home network.
  bool ha_on_router = true;
  // Deploy a replicated HA pair (DESIGN.md §14): primary on the HA host at
  // 36.135.0.2, standby on a second host at 36.135.0.3, sync channel between
  // them, and the MH configured to fail over. Forces ha_on_router = false
  // (the pair lives on dedicated home-network hosts).
  bool with_backup_ha = false;
  // Attach the correspondent host behind the campus subnet instead of 36.8.
  bool external_ch = false;
  // Apply calibrated mid-90s kernel processing delays. Disable for unit
  // tests needing exact timing.
  bool realistic_delays = true;
  uint16_t mh_lifetime_sec = 300;
  // HA registration pipeline knobs (DESIGN.md §17), applied to every agent
  // the testbed builds (primary and backup alike). Defaults keep the classic
  // serial single-shard daemon with unbounded queues.
  uint32_t ha_shards = 1;
  uint32_t ha_batch_max = 8;
  uint32_t ha_admission_limit = 0;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);
  Testbed() : Testbed(TestbedConfig{}) {}
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  // --- Canonical addresses ----------------------------------------------------
  static Ipv4Address HomeAddress() { return Ipv4Address(36, 135, 0, 10); }
  static Subnet HomeSubnet() { return Subnet(Ipv4Address(36, 135, 0, 0), SubnetMask(16)); }
  static Ipv4Address RouterOn135() { return Ipv4Address(36, 135, 0, 1); }
  static Ipv4Address RouterOn8() { return Ipv4Address(36, 8, 0, 1); }
  static Ipv4Address RouterOn134() { return Ipv4Address(36, 134, 0, 1); }
  static Ipv4Address RouterOnCampus() { return Ipv4Address(171, 64, 0, 1); }
  static Ipv4Address HaHostAddress() { return Ipv4Address(36, 135, 0, 2); }
  static Ipv4Address BackupHaAddress() { return Ipv4Address(36, 135, 0, 3); }
  static Subnet Net8() { return Subnet(Ipv4Address(36, 8, 0, 0), SubnetMask(16)); }
  static Subnet Net134() { return Subnet(Ipv4Address(36, 134, 0, 0), SubnetMask(16)); }
  static Subnet CampusNet() { return Subnet(Ipv4Address(171, 64, 0, 0), SubnetMask(16)); }

  Ipv4Address ch_address() const { return ch_address_; }
  Ipv4Address home_agent_address() const { return ha_address_; }

  // --- Components ---------------------------------------------------------------
  Simulator sim;
  // Shared registry every testbed component reports into: link media, node
  // IP stacks, device queue gauges, the home agent and the mobile host.
  // Declared before the components so it outlives them all. Benches sample
  // and export it; see src/telemetry/.
  MetricsRegistry metrics;
  std::unique_ptr<BroadcastMedium> net135;
  std::unique_ptr<BroadcastMedium> net8;
  std::unique_ptr<BroadcastMedium> radio134;
  std::unique_ptr<BroadcastMedium> campus;

  std::unique_ptr<Node> router;
  std::unique_ptr<Node> mh;
  std::unique_ptr<Node> ch;
  std::unique_ptr<Node> ha_host;         // Only when !config.ha_on_router.
  std::unique_ptr<Node> backup_ha_host;  // Only when config.with_backup_ha.

  std::unique_ptr<HomeAgent> home_agent;
  // Replicated pair (with_backup_ha): standby agent and the two sync-link
  // halves. The backup reports under "ha.backup.*" / "repl.backup.*".
  std::unique_ptr<HomeAgent> backup_agent;
  std::unique_ptr<HaReplicationLink> repl_primary;
  std::unique_ptr<HaReplicationLink> repl_backup;
  std::unique_ptr<MobileHost> mobile;
  std::unique_ptr<DhcpServer> dhcp_net8;
  std::unique_ptr<DhcpServer> dhcp_net134;

  EthernetDevice* mh_eth = nullptr;
  StripRadioDevice* mh_radio = nullptr;
  EthernetDevice* ch_dev = nullptr;

  const TestbedConfig& config() const { return config_; }

  // Replication-aware views of the HA pair. With no backup configured the
  // single home agent is the serving agent.
  int ServingAgentCount() const;
  // The agent currently serving bindings; falls back to the primary when
  // none is (e.g. mid-failover).
  HomeAgent* ServingAgent();

  // --- Scenario helpers ------------------------------------------------------------

  // Static care-of attachments in the two foreign subnets (host index names
  // the address, e.g. WiredAttachment(50) -> 36.8.0.50).
  MobileHost::Attachment WiredAttachment(uint32_t host_index = 50);
  MobileHost::Attachment WirelessAttachment(uint32_t host_index = 50);

  // Mobility-driver bindings for the two foreign media: the wired cells map
  // onto net8 (mh_eth) and the radio cells onto radio134 (mh_radio). The
  // injector must already be installed on the matching medium; `quality`
  // defaults differ per medium (short-range clean wired cells, longer-range
  // radio cells).
  MobilityDriver::MediumBinding WiredMobilityBinding(FaultInjector* injector);
  MobilityDriver::MediumBinding RadioMobilityBinding(FaultInjector* injector);

  // Moves the MH's Ethernet cable: detach from its current segment, attach
  // to `medium` (nullptr = unplugged).
  void MoveMhEthernetTo(BroadcastMedium* medium);

  // Boots the MH at home (Ethernet on net135, home address configured,
  // radio down) and runs the simulation until settled.
  void StartMobileAtHome();

  // Boots the MH already visiting net 36.8 with the given care-of address,
  // registered with the HA. Radio stays down.
  void StartMobileOnWired(uint32_t host_index = 50);

  // Boots the MH on the radio subnet, registered. Ethernet stays down.
  void StartMobileOnWireless(uint32_t host_index = 50);

  // Brings the radio up (paying no bring-up cost: setup-time convenience).
  void ForceRadioUp();
  void ForceEthUp();

  void RunFor(Duration d) { sim.RunFor(d); }

 private:
  void BuildMedia();
  void BuildRouter();
  void BuildMobileHost();
  void BuildCorrespondent();
  void InstallTransitFilter();
  static IpStack::DelayParams SlowHostDelays();   // 40 MHz 486.
  static IpStack::DelayParams RouterDelays();     // Pentium 90.

  TestbedConfig config_;
  Ipv4Address ch_address_;
  Ipv4Address ha_address_;
};

}  // namespace msn

#endif  // MSN_SRC_TOPO_TESTBED_H_
