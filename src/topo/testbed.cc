#include "src/topo/testbed.h"

#include "src/node/icmp.h"
#include "src/util/logging.h"

namespace msn {
namespace {

// A testbed home agent: the pipeline knobs apply to every agent built.
HomeAgent::Config HomeAgentConfig(const TestbedConfig& tc, Ipv4Address address,
                                  NetDevice* home_device, MetricsRegistry* metrics) {
  HomeAgent::Config c;
  c.address = address;
  c.home_device = home_device;
  c.home_subnet = Testbed::HomeSubnet();
  c.metrics = metrics;
  c.num_shards = tc.ha_shards;
  c.batch_max = tc.ha_batch_max;
  c.admission_queue_limit = tc.ha_admission_limit;
  return c;
}

}  // namespace

IpStack::DelayParams Testbed::SlowHostDelays() {
  IpStack::DelayParams p;
  // 40 MHz 486 subnotebook: around a millisecond of kernel path per packet.
  p.send_mean = MillisecondsF(1.0);
  p.send_jitter = MillisecondsF(0.12);
  p.deliver_mean = MillisecondsF(1.0);
  p.deliver_jitter = MillisecondsF(0.12);
  p.forward_mean = MillisecondsF(0.6);
  p.forward_jitter = MillisecondsF(0.08);
  return p;
}

IpStack::DelayParams Testbed::RouterDelays() {
  IpStack::DelayParams p;
  // Pentium 90 router / home agent.
  p.send_mean = MillisecondsF(0.55);
  p.send_jitter = MillisecondsF(0.06);
  p.deliver_mean = MillisecondsF(0.55);
  p.deliver_jitter = MillisecondsF(0.06);
  p.forward_mean = MillisecondsF(0.25);
  p.forward_jitter = MillisecondsF(0.04);
  return p;
}

Testbed::Testbed(TestbedConfig config) : sim(config.seed), config_(config) {
  // MAC assignment must depend only on the scenario, not on how many
  // testbeds this process built before: ARP payloads carry MACs, and the
  // differential datapath tests compare wire bytes across whole runs.
  Node::ResetMacAllocator();
  Pinger::ResetEchoIdAllocator();
  if (config_.with_backup_ha) {
    // The replicated pair lives on dedicated home-network hosts.
    config_.ha_on_router = false;
  }
  BuildMedia();
  BuildRouter();
  BuildMobileHost();
  BuildCorrespondent();
  if (config_.transit_filter) {
    InstallTransitFilter();
  }
}

Testbed::~Testbed() = default;

void Testbed::BuildMedia() {
  net135 = std::make_unique<BroadcastMedium>(sim, "net-36.135", EthernetMediumParams(), &metrics);
  net8 = std::make_unique<BroadcastMedium>(sim, "net-36.8", EthernetMediumParams(), &metrics);
  radio134 = std::make_unique<BroadcastMedium>(sim, "net-36.134", RadioMediumParams(), &metrics);
  MediumParams campus_params = EthernetMediumParams();
  campus_params.latency = MillisecondsF(2.0);  // A couple of campus hops away.
  campus_params.latency_jitter = MillisecondsF(0.3);
  campus = std::make_unique<BroadcastMedium>(sim, "campus", campus_params, &metrics);
}

void Testbed::BuildRouter() {
  router = std::make_unique<Node>(sim, "router", &metrics);
  if (config_.realistic_delays) {
    router->stack().set_delay_params(RouterDelays());
  }
  router->stack().set_forwarding_enabled(true);

  EthernetDevice* r135 = router->AddEthernet("eth135", net135.get());
  EthernetDevice* r8 = router->AddEthernet("eth8", net8.get());
  StripRadioDevice* r134 = router->AddRadio("radio134", radio134.get());
  EthernetDevice* rcampus = router->AddEthernet("ethcampus", campus.get());
  for (NetDevice* dev : {static_cast<NetDevice*>(r135), static_cast<NetDevice*>(r8),
                         static_cast<NetDevice*>(r134), static_cast<NetDevice*>(rcampus)}) {
    dev->ForceUp();
  }
  router->ConfigureInterface(r135, "36.135.0.1/16");
  router->ConfigureInterface(r8, "36.8.0.1/16");
  router->ConfigureInterface(r134, "36.134.0.1/16");
  router->ConfigureInterface(rcampus, "171.64.0.1/16");
  router->AddLoopback();

  // Home agent placement.
  if (config_.ha_on_router) {
    ha_address_ = RouterOn135();
    const HomeAgent::Config ha_config = HomeAgentConfig(config_, ha_address_, r135, &metrics);
    home_agent = std::make_unique<HomeAgent>(*router, ha_config);
  } else {
    ha_host = std::make_unique<Node>(sim, "ha-host", &metrics);
    if (config_.realistic_delays) {
      ha_host->stack().set_delay_params(RouterDelays());
    }
    ha_host->stack().set_forwarding_enabled(true);
    EthernetDevice* dev = ha_host->AddEthernet("eth0", net135.get());
    dev->ForceUp();
    ha_host->ConfigureInterface(dev, "36.135.0.2/16");
    ha_host->AddDefaultRoute(RouterOn135(), dev);
    ha_host->AddLoopback();
    ha_address_ = HaHostAddress();
    const HomeAgent::Config ha_config = HomeAgentConfig(config_, ha_address_, dev, &metrics);
    home_agent = std::make_unique<HomeAgent>(*ha_host, ha_config);

    if (config_.with_backup_ha) {
      backup_ha_host = std::make_unique<Node>(sim, "ha-backup", &metrics);
      if (config_.realistic_delays) {
        backup_ha_host->stack().set_delay_params(RouterDelays());
      }
      backup_ha_host->stack().set_forwarding_enabled(true);
      EthernetDevice* bdev = backup_ha_host->AddEthernet("eth0", net135.get());
      bdev->ForceUp();
      backup_ha_host->ConfigureInterface(bdev, "36.135.0.3/16");
      backup_ha_host->AddDefaultRoute(RouterOn135(), bdev);
      backup_ha_host->AddLoopback();

      HomeAgent::Config backup_config = HomeAgentConfig(config_, BackupHaAddress(), bdev, &metrics);
      backup_config.metric_prefix = "ha.backup.";
      backup_config.initial_role = HaRole::kStandby;
      backup_agent = std::make_unique<HomeAgent>(*backup_ha_host, backup_config);

      // Sync links, one per agent. Takeover timeouts are staggered so the
      // designated backup always moves first when both ends go quiet.
      HaReplicationLink::Config primary_link;
      primary_link.self = HaHostAddress();
      primary_link.peer = BackupHaAddress();
      primary_link.takeover_timeout = Milliseconds(2400);
      primary_link.metrics = &metrics;
      repl_primary = std::make_unique<HaReplicationLink>(*home_agent, primary_link);

      HaReplicationLink::Config backup_link;
      backup_link.self = BackupHaAddress();
      backup_link.peer = HaHostAddress();
      backup_link.takeover_timeout = Milliseconds(1600);
      backup_link.metrics = &metrics;
      backup_link.metric_prefix = "repl.backup.";
      repl_backup = std::make_unique<HaReplicationLink>(*backup_agent, backup_link);
    }
  }

  DhcpServer::Config d8;
  d8.device = r8;
  d8.subnet = Net8();
  d8.first_host_index = 100;
  d8.pool_size = 64;
  d8.gateway = RouterOn8();
  dhcp_net8 = std::make_unique<DhcpServer>(*router, d8);

  DhcpServer::Config d134;
  d134.device = r134;
  d134.subnet = Net134();
  d134.first_host_index = 100;
  d134.pool_size = 64;
  d134.gateway = RouterOn134();
  dhcp_net134 = std::make_unique<DhcpServer>(*router, d134);
}

void Testbed::BuildMobileHost() {
  mh = std::make_unique<Node>(sim, "mh", &metrics);
  if (config_.realistic_delays) {
    mh->stack().set_delay_params(SlowHostDelays());
  }
  mh->AddLoopback();
  mh_eth = mh->AddEthernet("eth0", net135.get());  // Starts at home.
  mh_radio = mh->AddRadio("strip0", radio134.get());

  MobileHost::Config mc;
  mc.home_address = HomeAddress();
  mc.home_mask = SubnetMask(16);
  mc.home_agent = ha_address_;
  mc.home_gateway = RouterOn135();
  mc.home_device = mh_eth;
  mc.lifetime_sec = config_.mh_lifetime_sec;
  mc.metrics = &metrics;
  if (config_.with_backup_ha) {
    mc.backup_home_agent = BackupHaAddress();
  }
  mobile = std::make_unique<MobileHost>(*mh, mc);
}

int Testbed::ServingAgentCount() const {
  int count = home_agent != nullptr && home_agent->serving() ? 1 : 0;
  if (backup_agent != nullptr && backup_agent->serving()) {
    ++count;
  }
  return count;
}

HomeAgent* Testbed::ServingAgent() {
  if (home_agent != nullptr && home_agent->serving()) {
    return home_agent.get();
  }
  if (backup_agent != nullptr && backup_agent->serving()) {
    return backup_agent.get();
  }
  return home_agent.get();
}

void Testbed::BuildCorrespondent() {
  ch = std::make_unique<Node>(sim, "ch", &metrics);
  if (config_.realistic_delays) {
    ch->stack().set_delay_params(SlowHostDelays());
  }
  ch->AddLoopback();
  if (config_.external_ch) {
    ch_dev = ch->AddEthernet("eth0", campus.get());
    ch_dev->ForceUp();
    ch->ConfigureInterface(ch_dev, "171.64.0.20/16");
    ch->AddDefaultRoute(RouterOnCampus(), ch_dev);
    ch_address_ = Ipv4Address(171, 64, 0, 20);
  } else {
    ch_dev = ch->AddEthernet("eth0", net8.get());
    ch_dev->ForceUp();
    ch->ConfigureInterface(ch_dev, "36.8.0.20/16");
    ch->AddDefaultRoute(RouterOn8(), ch_dev);
    ch_address_ = Ipv4Address(36, 8, 0, 20);
  }
}

void Testbed::InstallTransitFilter() {
  // Security-conscious router: traffic arriving on a *foreign* subnet's
  // interface must carry a source address local to that subnet.
  router->stack().SetForwardFilter([this](const Ipv4Header& header, NetDevice* ingress) {
    if (ingress == nullptr) {
      return true;
    }
    if (ingress->name() == "eth8") {
      return Net8().Contains(header.src);
    }
    if (ingress->name() == "radio134") {
      return Net134().Contains(header.src);
    }
    return true;  // Home subnet and campus: unfiltered.
  });
}

MobileHost::Attachment Testbed::WiredAttachment(uint32_t host_index) {
  MobileHost::Attachment att;
  att.device = mh_eth;
  att.care_of = Net8().HostAt(host_index);
  att.mask = SubnetMask(16);
  att.gateway = RouterOn8();
  return att;
}

MobileHost::Attachment Testbed::WirelessAttachment(uint32_t host_index) {
  MobileHost::Attachment att;
  att.device = mh_radio;
  att.care_of = Net134().HostAt(host_index);
  att.mask = SubnetMask(16);
  att.gateway = RouterOn134();
  return att;
}

MobilityDriver::MediumBinding Testbed::WiredMobilityBinding(FaultInjector* injector) {
  MobilityDriver::MediumBinding b;
  b.cell_medium = CellMedium::kWired;
  b.medium = net8.get();
  b.injector = injector;
  b.device = mh_eth;
  // Wired "cells" model office drops: short reach, clean until the edge.
  b.quality.range_m = 60.0;
  b.quality.good_range_fraction = 0.75;
  b.quality.edge_latency = MillisecondsF(0.5);
  return b;
}

MobilityDriver::MediumBinding Testbed::RadioMobilityBinding(FaultInjector* injector) {
  MobilityDriver::MediumBinding b;
  b.cell_medium = CellMedium::kRadio;
  b.medium = radio134.get();
  b.injector = injector;
  b.device = mh_radio;
  b.quality.range_m = 120.0;
  b.quality.good_range_fraction = 0.6;
  b.quality.edge_latency = MillisecondsF(1.5);
  return b;
}

void Testbed::MoveMhEthernetTo(BroadcastMedium* medium) { mh_eth->AttachTo(medium); }

void Testbed::ForceRadioUp() { mh_radio->ForceUp(); }

void Testbed::ForceEthUp() { mh_eth->ForceUp(); }

void Testbed::StartMobileAtHome() {
  mh_eth->ForceUp();
  bool done = false;
  mobile->AttachHome([&done](bool ok) {
    (void)ok;
    done = true;
  });
  sim.RunFor(Milliseconds(200));
  if (!done) {
    MSN_WARN("topo", "StartMobileAtHome did not settle");
  }
}

void Testbed::StartMobileOnWired(uint32_t host_index) {
  MoveMhEthernetTo(net8.get());
  mh_eth->ForceUp();
  bool done = false;
  mobile->AttachForeign(WiredAttachment(host_index), [&done](bool ok) {
    (void)ok;
    done = true;
  });
  sim.RunFor(Seconds(8));
  if (!done || !mobile->registered()) {
    MSN_WARN("topo", "StartMobileOnWired did not settle");
  }
}

void Testbed::StartMobileOnWireless(uint32_t host_index) {
  // Tear the wired interface down (an unplugged but still-configured device
  // would leave a stale connected route shadowing the default route).
  mh->stack().routes().RemoveForDevice(mh_eth);
  mh->stack().UnconfigureAddress(mh_eth);
  mh_eth->TakeDown();
  MoveMhEthernetTo(nullptr);
  mh_radio->ForceUp();
  bool done = false;
  mobile->AttachForeign(WirelessAttachment(host_index), [&done](bool ok) {
    (void)ok;
    done = true;
  });
  sim.RunFor(Seconds(8));
  if (!done || !mobile->registered()) {
    MSN_WARN("topo", "StartMobileOnWireless did not settle");
  }
}

}  // namespace msn
