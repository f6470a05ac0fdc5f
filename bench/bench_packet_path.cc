// Per-hop forwarding throughput of the packet datapath, plus the raw event
// engine: the two hot paths every other benchmark sits on.
//
// Part 1 (forwarding chain): a source pumps N datagrams through a chain of H
// forwarding routers to a sink. All model delays are zero and ARP caches are
// pre-filled, so wall-clock time measures exactly the per-hop software cost:
// frame handling, header parse, TTL/checksum update, route lookup, and the
// event engine carrying each hop. Reported as packets/sec of forwarding work
// (pps) and ns per hop.
//
// Part 2 (event engine): schedule/cancel/pop throughput of the simulator's
// event queue in isolation, with same-timestamp bursts to exercise the FIFO
// tie-break path.
//
// Wall-clock timing lives here, not in src/ (the determinism lint only
// guards the simulation core; benches measure real CPU cost by design).
// Deterministic fields (hops forwarded, delivered counts, events executed)
// are byte-identical across runs for a fixed seed; the timing-derived
// summaries (pps, ns/hop) vary with the host and are gated with a loose
// tolerance in CI (see tools/compare_bench_json.py).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/link/link_device.h"
#include "src/net/packet.h"
#include "src/net/packet_arena.h"
#include "src/node/node.h"
#include "src/sim/simulator.h"
#include "src/telemetry/export.h"
#include "src/telemetry/packet_probes.h"
#include "src/util/buffer_pool.h"

namespace msn {
namespace {

// An IP protocol number with no registered handler: the sink counts the
// delivery and stops, with no reply traffic and no payload parsing, so the
// measured cost is purely the per-hop datapath.
constexpr IpProto kBenchProto = static_cast<IpProto>(0xfd);

double WallSeconds(std::chrono::steady_clock::time_point start,
                   std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

struct ChainResult {
  uint64_t hops_forwarded = 0;
  uint64_t delivered = 0;
  uint64_t events_executed = 0;
  uint64_t packet_copies = 0;      // Deep copies made during the run.
  uint64_t packet_cow_breaks = 0;  // Subset forced by shared storage.
  uint64_t packet_allocations = 0;
  // Event-engine immediate-lane totals.
  uint64_t lane_scheduled = 0;
  uint64_t heap_scheduled = 0;
  double wall_sec = 0.0;
};

// Source -> H routers -> sink, every link its own broadcast medium with zero
// jitter and zero loss so the run draws no randomness at all.
ChainResult RunForwardingChain(int hops, int packets, size_t payload_bytes, uint64_t seed) {
  Simulator sim(seed);

  MediumParams wire;
  wire.latency = Microseconds(10);
  wire.latency_jitter = Duration();
  wire.drop_probability = 0.0;

  std::vector<std::unique_ptr<BroadcastMedium>> media;
  for (int i = 0; i <= hops; ++i) {
    media.push_back(
        std::make_unique<BroadcastMedium>(sim, "m" + std::to_string(i), wire));
  }

  auto addr = [](int net, int host) {
    return Ipv4Address(10, static_cast<uint8_t>(net), 0, static_cast<uint8_t>(host));
  };

  Node source(sim, "src");
  EthernetDevice* src_eth = source.AddEthernet("eth0", media[0].get());
  src_eth->ForceUp();
  src_eth->set_queue_capacity(static_cast<size_t>(packets) + 16);
  source.ConfigureInterface(src_eth, "10.0.0.10/24");
  source.AddDefaultRoute(addr(0, 1), src_eth);

  const Ipv4Address sink_addr = addr(hops, 10);
  std::vector<std::unique_ptr<Node>> routers;
  for (int i = 0; i < hops; ++i) {
    auto router = std::make_unique<Node>(sim, "r" + std::to_string(i));
    router->stack().set_forwarding_enabled(true);
    EthernetDevice* left = router->AddEthernet("left", media[i].get());
    EthernetDevice* right = router->AddEthernet("right", media[i + 1].get());
    left->ForceUp();
    right->ForceUp();
    left->set_queue_capacity(static_cast<size_t>(packets) + 16);
    right->set_queue_capacity(static_cast<size_t>(packets) + 16);
    router->ConfigureInterface(left, "10." + std::to_string(i) + ".0.1/24");
    router->ConfigureInterface(right, "10." + std::to_string(i + 1) + ".0.2/24");
    if (i + 1 < hops) {
      router->AddHostRoute(sink_addr, addr(i + 1, 1), right);
    }
    routers.push_back(std::move(router));
  }

  Node sink(sim, "sink");
  EthernetDevice* sink_eth = sink.AddEthernet("eth0", media[hops].get());
  sink_eth->ForceUp();
  sink.ConfigureInterface(sink_eth, "10." + std::to_string(hops) + ".0.10/24");

  // Pre-resolve every next hop so no ARP traffic rides along.
  const Duration arp_life = Seconds(1000000);
  source.stack().arp().set_entry_lifetime(arp_life);
  source.stack().arp().AddStaticEntry(addr(0, 1), routers[0]->FindDevice("left")->mac());
  for (int i = 0; i < hops; ++i) {
    routers[i]->stack().arp().set_entry_lifetime(arp_life);
    if (i + 1 < hops) {
      routers[i]->stack().arp().AddStaticEntry(addr(i + 1, 1),
                                               routers[i + 1]->FindDevice("left")->mac());
    } else {
      routers[i]->stack().arp().AddStaticEntry(sink_addr, sink_eth->mac());
    }
  }

  std::vector<uint8_t> payload(payload_bytes);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 131);
  }
  for (int i = 0; i < packets; ++i) {
    source.stack().SendDatagram(addr(0, 10), sink_addr, kBenchProto, payload);
  }

  const Packet::Stats before = Packet::stats();
  const auto start = std::chrono::steady_clock::now();
  sim.Run();
  const auto end = std::chrono::steady_clock::now();
  const Packet::Stats after = Packet::stats();

  ChainResult result;
  for (const auto& router : routers) {
    result.hops_forwarded += router->stack().counters().datagrams_forwarded;
  }
  result.delivered = sink.stack().counters().datagrams_delivered;
  result.events_executed = sim.events_executed();
  result.packet_copies = after.copies - before.copies;
  result.packet_cow_breaks = after.cow_breaks - before.cow_breaks;
  result.packet_allocations = after.allocations - before.allocations;
  result.lane_scheduled = sim.queue_lane_stats().lane_scheduled;
  result.heap_scheduled = sim.queue_lane_stats().heap_scheduled;
  result.wall_sec = WallSeconds(start, end);
  return result;
}

struct EventResult {
  uint64_t executed = 0;
  double wall_sec = 0.0;
};

// Schedule `count` events (every 8th one cancelled, every 4th sharing a
// timestamp with its neighbour to hit the FIFO tie-break), then drain.
EventResult RunEventEngine(int count, uint64_t seed) {
  Simulator sim(seed);
  uint64_t fired = 0;
  std::vector<EventId> cancellable;
  cancellable.reserve(static_cast<size_t>(count) / 8 + 1);
  for (int i = 0; i < count; ++i) {
    const int64_t us = (i % 4 == 0) ? i : i + 1;
    EventId id = sim.Schedule(Microseconds(us), [&fired] { ++fired; });
    if (i % 8 == 0) {
      cancellable.push_back(id);
    }
  }
  for (EventId id : cancellable) {
    sim.Cancel(id);
  }
  const auto start = std::chrono::steady_clock::now();
  sim.Run();
  const auto end = std::chrono::steady_clock::now();
  EventResult result;
  result.executed = fired;
  result.wall_sec = WallSeconds(start, end);
  return result;
}

int Main() {
  const bool smoke = BenchSmokeMode();
  const int kHops = 4;
  const int kPackets = BenchIterations(10000, 500);
  const int kReps = BenchIterations(5, 2);
  const int kEvents = BenchIterations(400000, 20000);
  const size_t kPayloadBytes = 1000;

  std::printf("==============================================================\n");
  std::printf("Packet datapath: %d-hop forwarding chain, %d packets of %zu B\n", kHops,
              kPackets, kPayloadBytes);
  std::printf("==============================================================\n\n");

  BenchReport report("packet_path",
                     "Per-hop forwarding throughput and event-engine cost");
  report.set_seed(4000);
  report.AddParam("hops", kHops);
  report.AddParam("packets", kPackets);
  report.AddParam("payload_bytes", static_cast<uint64_t>(kPayloadBytes));
  report.AddParam("reps", kReps);
  report.AddParam("event_count", kEvents);
  report.AddParam("smoke", smoke);

  std::vector<double> pps_samples;
  std::vector<double> ns_per_hop_samples;
  std::vector<double> copies_per_hop_samples;
  std::printf("%4s  %14s  %12s  %12s  %12s  %12s\n", "rep", "hops fwd", "wall ms", "pps",
              "ns/hop", "copies/hop");
  for (int rep = 0; rep < kReps; ++rep) {
    const ChainResult r =
        RunForwardingChain(kHops, kPackets, kPayloadBytes, 4000 + static_cast<uint64_t>(rep));
    const double pps = r.wall_sec > 0
                           ? static_cast<double>(r.hops_forwarded) / r.wall_sec
                           : 0.0;
    const double ns_per_hop =
        r.hops_forwarded > 0
            ? r.wall_sec * 1e9 / static_cast<double>(r.hops_forwarded)
            : 0.0;
    const double copies_per_hop =
        r.hops_forwarded > 0
            ? static_cast<double>(r.packet_copies) / static_cast<double>(r.hops_forwarded)
            : 0.0;
    pps_samples.push_back(pps);
    ns_per_hop_samples.push_back(ns_per_hop);
    copies_per_hop_samples.push_back(copies_per_hop);
    std::printf("%4d  %14llu  %12.2f  %12.0f  %12.0f  %12.3f\n", rep,
                static_cast<unsigned long long>(r.hops_forwarded), r.wall_sec * 1e3, pps,
                ns_per_hop, copies_per_hop);
    report.AddRow("chain_rep=" + std::to_string(rep),
                  {{"hops_forwarded", r.hops_forwarded},
                   {"delivered", r.delivered},
                   {"events_executed", r.events_executed},
                   {"packet_copies", r.packet_copies},
                   {"packet_cow_breaks", r.packet_cow_breaks},
                   {"packet_allocations", r.packet_allocations},
                   {"lane_scheduled", r.lane_scheduled},
                   {"heap_scheduled", r.heap_scheduled},
                   {"wall_ms", r.wall_sec * 1e3},
                   {"fwd_pps", pps},
                   {"ns_per_hop", ns_per_hop},
                   {"copies_per_hop", copies_per_hop}});
  }
  report.AddSummary("fwd_pps", "pps", pps_samples);
  report.AddSummary("ns_per_hop", "ns", ns_per_hop_samples);
  report.AddSummary("copies_per_hop", "copies", copies_per_hop_samples);

  const BufferPool::Stats pool = DefaultBufferPool().stats();
  std::printf("\npool: hits=%llu misses=%llu oversize=%llu free=%llu outstanding=%llu\n",
              static_cast<unsigned long long>(pool.hits),
              static_cast<unsigned long long>(pool.misses),
              static_cast<unsigned long long>(pool.oversize),
              static_cast<unsigned long long>(pool.free_blocks),
              static_cast<unsigned long long>(pool.outstanding));
  report.AddRow("pool", {{"hits", pool.hits},
                         {"misses", pool.misses},
                         {"oversize", pool.oversize},
                         {"released", pool.released},
                         {"discarded", pool.discarded},
                         {"free_blocks", pool.free_blocks},
                         {"outstanding", pool.outstanding},
                         {"batch_acquires", pool.batch_acquires},
                         {"batch_releases", pool.batch_releases}});

  const PacketArena::Stats arena = DefaultPacketArena().stats();
  std::printf("arena: allocs=%llu recycled=%llu refills=%llu free=%llu\n",
              static_cast<unsigned long long>(arena.node_allocs),
              static_cast<unsigned long long>(arena.recycled),
              static_cast<unsigned long long>(arena.refills),
              static_cast<unsigned long long>(arena.free_nodes));
  report.AddRow("arena", {{"node_allocs", arena.node_allocs},
                          {"recycled", arena.recycled},
                          {"refills", arena.refills},
                          {"drains", arena.drains},
                          {"free_nodes", arena.free_nodes}});

  std::vector<double> eps_samples;
  std::printf("\nEvent engine: %d scheduled (1/8 cancelled, same-time bursts)\n", kEvents);
  for (int rep = 0; rep < kReps; ++rep) {
    const EventResult r = RunEventEngine(kEvents, 9000 + static_cast<uint64_t>(rep));
    const double eps =
        r.wall_sec > 0 ? static_cast<double>(r.executed) / r.wall_sec : 0.0;
    eps_samples.push_back(eps);
    std::printf("  rep %d: %llu pops in %.2f ms (%.0f events/sec)\n", rep,
                static_cast<unsigned long long>(r.executed), r.wall_sec * 1e3, eps);
    report.AddRow("events_rep=" + std::to_string(rep),
                  {{"executed", r.executed}, {"wall_ms", r.wall_sec * 1e3}, {"eps", eps}});
  }
  report.AddSummary("event_pops_per_sec", "eps", eps_samples);

  // Cumulative datapath accounting (pool.* / packet.*) as probe gauges.
  MetricsRegistry probes;
  RegisterPacketPathProbes(probes);
  report.AddMetrics(probes);

  const std::string path = report.WriteFile();
  std::printf("\nreport: %s\n", path.empty() ? "WRITE FAILED" : path.c_str());
  return 0;
}

}  // namespace
}  // namespace msn

int main() { return msn::Main(); }
