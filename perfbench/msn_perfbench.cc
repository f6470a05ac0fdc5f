// msn_perfbench: runs one workload of the repository benchmark in this
// process and prints one JSON object on stdout. perfbench/run.py builds this
// binary, runs it, and turns the JSON into the benchmark's metrics.
//
//   msn_perfbench --workload <fuzz_soak|fleet_register|fleet_overload|tunnel_echo>
//                 --seed <n> --mode <timed|traced> [--seconds <s>]
//                 [--first-fuzz-seed <n>] [--fuzz-seeds <n>] [--inject-drift]
//
// timed:  untraced. Repeats one pass of fixed work a number of times set by
//         --seconds, timing every unit of work (seed, slice, teardown) and
//         every set-up (a fixture build, or a fuzz seed's boot) per pass.
// traced: the same pass run once untraced and once traced. The
//         traced pass records spans around every call into a layer and reads
//         deterministic counts at the same boundaries; an isolation pass then
//         times each layer's public entry point directly.
//
// The simulator is driven only through its public API. Every simulated input
// derives from --seed, so two processes given the same arguments must report
// identical counts (run.py checks this).
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/check/fuzzer.h"
#include "src/link/link_device.h"
#include "src/link/medium.h"
#include "src/mip/home_agent.h"
#include "src/mip/ipip.h"
#include "src/mip/messages.h"
#include "src/mip/reg_load.h"
#include "src/net/headers.h"
#include "src/net/packet.h"
#include "src/net/packet_arena.h"
#include "src/node/node.h"
#include "src/node/udp.h"
#include "src/sim/simulator.h"
#include "src/telemetry/export.h"
#include "src/topo/testbed.h"
#include "src/tracing/probe.h"
#include "src/util/buffer_pool.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace msn::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "msn_perfbench: %s\n", message.c_str());
  std::exit(2);
}

// ---- Spans ------------------------------------------------------------------

struct Span {
  const char* name = "";
  double start_us = 0;
  double end_us = 0;
  int parent = -1;
  uint64_t op = 0;      // Seed, registrant index, or echo sequence number.
  uint64_t ops = 0;     // Ops completed inside the span (simulation slices).
  uint64_t events = 0;  // Simulator events executed inside the span (slices).
};

// Spans are recorded from the benchmark's side of each call into a layer and
// kept in memory until the run ends. A disabled tracer records nothing, so
// the untraced pass runs the same code paths minus the bookkeeping.
class Tracer {
 public:
  Tracer(Clock::time_point origin, bool enabled) : origin_(origin), enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  int Open(const char* name, uint64_t op = 0) {
    if (!enabled_) {
      return -1;
    }
    Span span;
    span.name = name;
    span.start_us = NowUs();
    span.parent = open_.empty() ? -1 : open_.back();
    span.op = op;
    spans_.push_back(span);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void Close(int index, uint64_t ops = 0, uint64_t events = 0) {
    if (index < 0) {
      return;
    }
    if (open_.empty() || open_.back() != index) {
      Die(std::string("span closed out of order: ") + spans_[static_cast<size_t>(index)].name);
    }
    Span& span = spans_[static_cast<size_t>(index)];
    span.end_us = NowUs();
    span.ops = ops;
    span.events = events;
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t op = 0)
      : tracer_(tracer), index_(tracer.Open(name, op)) {}
  ~ScopedSpan() { tracer_.Close(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

// ---- Deterministic counts ---------------------------------------------------

using Counts = std::map<std::string, uint64_t>;

void AddCounts(Counts& into, const Counts& from) {
  for (const auto& [name, value] : from) {
    into[name] += value;
  }
}

Counts Delta(const Counts& after, const Counts& before) {
  Counts delta;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    delta[name] = value - (it == before.end() ? 0 : it->second);
  }
  return delta;
}

// Sum of every scalar whose name starts with `prefix` and ends with `suffix`
// ("ha." + ".requests_received" covers "ha.requests_received" and
// "ha.backup.requests_received").
uint64_t SumMatching(const std::map<std::string, double>& snapshot, const std::string& prefix,
                     const std::string& suffix) {
  uint64_t total = 0;
  for (auto it = snapshot.lower_bound(prefix);
       it != snapshot.end() && it->first.compare(0, prefix.size(), prefix) == 0; ++it) {
    const std::string& name = it->first;
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += static_cast<uint64_t>(it->second);
    }
  }
  return total;
}

// Counts a run's metrics registry holds (media, IP stacks, flow caches, home
// agents, mobile host, oracles, mobility, fault injectors, replication).
void AddRegistryCounts(Counts& c, const MetricsRegistry& metrics) {
  const std::map<std::string, double> snap = metrics.ScalarSnapshot();
  const auto sum = [&snap](const char* prefix, const char* suffix) {
    return SumMatching(snap, prefix, suffix);
  };
  c["link.frames"] += sum("link.", ".frames_carried");
  c["link.medium_drops"] += sum("link.", ".frames_dropped") +
                            sum("link.", ".frames_fault_dropped") +
                            sum("link.", ".frames_unmatched");
  c["node.forwards"] += sum("ip.", ".datagrams_forwarded");
  c["node.delivered"] += sum("ip.", ".datagrams_delivered");
  c["node.flow_hits"] += sum("flow_cache.", ".hits");
  c["node.flow_misses"] += sum("flow_cache.", ".misses");
  c["node.flow_invalidations"] += sum("flow_cache.", ".invalidations");
  c["mip.ha_requests"] += sum("ha.", ".requests_received");
  c["mip.ha_accepted"] += sum("ha.", ".registrations_accepted");
  c["mip.ha_denied"] += sum("ha.", ".registrations_denied") + sum("ha.", ".admission.denied");
  c["mip.ha_dropped"] += sum("ha.", ".admission.dropped");
  c["mip.tunneled"] += sum("ha.", ".packets_tunneled");
  c["mip.reverse_decaps"] += sum("ha.", ".reverse_decapsulated");
  c["mip.mh_encaps"] +=
      sum("mh.", ".packets_tunneled_out") + sum("mh.", ".packets_encap_direct_out");
  c["mip.mh_decaps"] += sum("mh.", ".packets_decapsulated_in");
  c["mip.client_retransmits"] += sum("mh.", ".retransmissions");
  c["check.oracle_checks"] += sum("check.", ".oracle_checks");
  c["check.violations"] += sum("check.", ".violations");
  c["mobility.ticks"] += sum("mobility.", ".ticks");
  c["fault.events"] += sum("fault.", ".burst_drops") + sum("fault.", ".blackout_drops") +
                       sum("fault.", ".duplicates") + sum("fault.", ".reorders") +
                       sum("fault.", ".corruptions");
  c["repl.messages"] += sum("repl.", ".heartbeats_sent") + sum("repl.", ".mutations_sent") +
                        sum("repl.", ".snapshots_sent") + sum("repl.", ".snapshot_requests");
}

// Device and ARP counts of one node (not registry-backed).
void AddNodeCounts(Counts& c, Node* node) {
  if (node == nullptr) {
    return;
  }
  for (NetDevice* device : node->stack().Interfaces()) {
    const NetDevice::Counters& d = device->counters();
    c["node.ingress_frames"] += d.rx_frames;
    c["link.device_drops"] += d.dropped_down + d.dropped_queue + d.dropped_rx_down;
    c["link.tx_bursts"] += d.tx_bursts;
    c["link.tx_burst_frames"] += d.tx_burst_frames;
  }
  const ArpService::Counters& arp = node->stack().arp().counters();
  c["node.arp_frames"] +=
      arp.requests_sent + arp.replies_sent + arp.proxy_replies_sent + arp.gratuitous_sent;
}

void AddSimCounts(Counts& c, const Simulator& sim) {
  const EventQueue::LaneStats& lanes = sim.queue_lane_stats();
  c["sim.events"] += sim.events_executed();
  c["sim.scheduled"] += lanes.lane_scheduled + lanes.heap_scheduled;
  c["sim.lane_scheduled"] += lanes.lane_scheduled;
}

Counts TestbedCounts(Testbed& tb) {
  Counts c;
  AddSimCounts(c, tb.sim);
  AddRegistryCounts(c, tb.metrics);
  for (Node* node : {tb.router.get(), tb.mh.get(), tb.ch.get(), tb.ha_host.get(),
                     tb.backup_ha_host.get()}) {
    AddNodeCounts(c, node);
  }
  for (DhcpServer* server : {tb.dhcp_net8.get(), tb.dhcp_net134.get()}) {
    if (server != nullptr) {
      c["dhcp.exchanges"] += server->counters().acks + server->counters().naks;
    }
  }
  return c;
}

// Process-global datapath accounting, read as deltas around a pass.
Counts GlobalCounts() {
  const Packet::Stats& packet = Packet::stats();
  const BufferPool::Stats& pool = DefaultBufferPool().stats();
  const PacketArena::Stats& arena = DefaultPacketArena().stats();
  return Counts{{"net.copies", packet.copies},
                {"net.cow_breaks", packet.cow_breaks},
                {"net.allocations", packet.allocations},
                {"net.pool_acquires", pool.hits + pool.misses + pool.oversize},
                {"net.arena_refills", arena.refills}};
}

// ---- Pass results -----------------------------------------------------------

struct Pass {
  uint64_t attempted = 0;
  // Ops completed: fuzz seeds checked (pass or fail), registrations accepted,
  // echoes returned byte-exact.
  uint64_t ops = 0;
  uint64_t failed = 0;
  double op_wall_s = 0;           // Wall time attributed to ops (set-up excluded).
  // Wall seconds of each unit of work in order: a fuzz seed, or a simulation
  // slice or the teardown of a rep. Passes over the same work yield the same
  // units, so a unit's fastest pass estimates its cost free of interference.
  std::vector<double> unit_s;
  std::vector<double> setup_s;    // One sample per fixture build.
  std::vector<std::string> failures;  // Counted op failures, described.
  std::vector<std::string> errors;    // Benchmark-correctness errors.
  Counts counts;
};

void NoteFailure(Pass& pass, const std::string& what) {
  if (pass.failures.size() < 32) {
    pass.failures.push_back(what);
  }
}

// ---- fuzz_soak ----------------------------------------------------------------

std::string ViolationNames(const RunResult& result) {
  std::string names;
  for (const auto& [oracle, violation] : result.report.violations) {
    (void)violation;
    names += names.empty() ? oracle : "," + oracle;
  }
  return names;
}

// `seeds` consecutive fuzz seeds, closed loop: GenerateScenario then
// RunScenario, one after another. An oracle violation is a failed op;
// nothing aborts or shrinks. A seed's set-up sample is its boot: from
// RunScenario entry to the `instrument` hook, when its first op can begin.
Pass FuzzPass(uint64_t first_seed, uint64_t seeds, Tracer& tracer) {
  Pass pass;
  const Counts global_before = GlobalCounts();
  for (uint64_t seed = first_seed; seed - first_seed < seeds; ++seed) {
    const Clock::time_point t0 = Clock::now();
    const int seed_span = tracer.Open("check.seed", seed);
    ScenarioSpec spec;
    {
      ScopedSpan generate(tracer, "check.generate", seed);
      spec = GenerateScenario(seed);
    }
    RunOptions options;
    Clock::time_point booted;
    int phase = -1;
    options.instrument = [&tracer, &phase, &booted, seed](Testbed&) {
      booted = Clock::now();
      tracer.Close(phase);
      phase = tracer.Open("check.scenario", seed);
    };
    if (tracer.enabled()) {
      options.on_complete = [&tracer, &phase, &pass, seed](Testbed& tb) {
        tracer.Close(phase);
        AddCounts(pass.counts, TestbedCounts(tb));
        phase = tracer.Open("check.teardown", seed);
      };
    }
    phase = tracer.Open("topo.boot", seed);
    const Clock::time_point run_start = Clock::now();
    const RunResult result = RunScenario(spec, options);
    tracer.Close(phase);
    tracer.Close(seed_span);
    const Clock::time_point t1 = Clock::now();
    pass.setup_s.push_back(SecondsBetween(run_start, booted));
    pass.unit_s.push_back(SecondsBetween(t0, t1));
    pass.op_wall_s += SecondsBetween(t0, t1);
    ++pass.attempted;
    ++pass.ops;
    if (result.failed()) {
      ++pass.failed;
      NoteFailure(pass, "seed " + std::to_string(seed) + ": " + ViolationNames(result));
    }
  }
  if (tracer.enabled()) {
    AddCounts(pass.counts, Delta(GlobalCounts(), global_before));
  }
  return pass;
}

// ---- Simulation slices ------------------------------------------------------

// Runs `sim` in slices of `slice` simulated time until `done()`, so wall time
// can be tied to the ops completed (`completed()`) in each slice.
template <typename Done, typename Completed>
void RunSlices(Simulator& sim, Duration slice, Done done, Completed completed, Tracer& tracer,
               Pass& pass) {
  while (!done()) {
    const uint64_t ops_before = completed();
    const uint64_t events_before = sim.events_executed();
    const Clock::time_point t0 = Clock::now();
    const int span = tracer.Open("sim.slice", ops_before);
    sim.RunFor(slice);
    tracer.Close(span, completed() - ops_before, sim.events_executed() - events_before);
    pass.unit_s.push_back(SecondsBetween(t0, Clock::now()));
  }
}

// ---- fleet_register / fleet_overload ----------------------------------------

struct FleetShape {
  uint32_t clients = 0;
  double knee_multiple = 0;
};

constexpr uint32_t kFleetShards = 16;
constexpr uint32_t kFleetBatchMax = 32;
constexpr uint32_t kFleetAdmissionLimit = 64;
constexpr Duration kFleetSlice = Milliseconds(100);
constexpr Duration kFleetHorizon = Seconds(90);

// Saturation knee of the sharded pipeline from the calibration means, as in
// bench_ha_scaling: shards * batch / (fixed + batch * item).
double FleetKneePerSec() {
  const Calibration cal = Calibration::Default();
  const double batch_ms = cal.ha_batch_fixed.mean.ToMillisF() +
                          cal.ha_batch_item.mean.ToMillisF() * kFleetBatchMax;
  return kFleetShards * kFleetBatchMax / batch_ms * 1000.0;
}

// One sharded HA on a router between the home segment and the visited wired
// segment, and a synthetic registrant fleet on the visited segment — the
// bench_ha_scaling topology. Members are declared in construction order so
// they are destroyed in reverse.
struct FleetFixture {
  std::unique_ptr<MetricsRegistry> metrics;
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<BroadcastMedium> net135;
  std::unique_ptr<BroadcastMedium> net8;
  std::unique_ptr<Node> router;
  std::unique_ptr<HomeAgent> ha;
  std::unique_ptr<Node> fleet_node;
  std::unique_ptr<RegistrationLoadGenerator> load;
};

std::unique_ptr<FleetFixture> BuildFleet(const FleetShape& shape, uint64_t seed, Tracer& tracer) {
  auto f = std::make_unique<FleetFixture>();
  {
    ScopedSpan build(tracer, "topo.build", seed);
    f->metrics = std::make_unique<MetricsRegistry>();
    f->sim = std::make_unique<Simulator>(seed);
    f->net135 = std::make_unique<BroadcastMedium>(*f->sim, "net135", EthernetMediumParams(),
                                                  f->metrics.get());
    f->net8 = std::make_unique<BroadcastMedium>(*f->sim, "net8", EthernetMediumParams(),
                                                f->metrics.get());
    f->router = std::make_unique<Node>(*f->sim, "router", f->metrics.get());
    f->router->stack().set_forwarding_enabled(true);
    EthernetDevice* r135 = f->router->AddEthernet("eth135", f->net135.get());
    EthernetDevice* r8 = f->router->AddEthernet("eth8", f->net8.get());
    for (EthernetDevice* dev : {r135, r8}) {
      dev->set_bandwidth_bps(1'000'000'000);
      dev->ForceUp();
    }
    f->router->ConfigureInterface(r135, "36.135.0.1/16");
    f->router->ConfigureInterface(r8, "36.8.0.1/16");
    f->fleet_node = std::make_unique<Node>(*f->sim, "fleet", f->metrics.get());
    EthernetDevice* eth = f->fleet_node->AddEthernet("eth0", f->net8.get());
    eth->set_bandwidth_bps(1'000'000'000);
    eth->ForceUp();
    f->fleet_node->ConfigureInterface(eth, "36.8.0.2/16");
    f->fleet_node->AddDefaultRoute(Ipv4Address(36, 8, 0, 1), eth);
  }
  ScopedSpan build(tracer, "mip.fleet_build", seed);
  HomeAgent::Config ha_config;
  ha_config.address = Ipv4Address(36, 135, 0, 1);
  ha_config.home_device = f->router->FindDevice("eth135");
  ha_config.home_subnet = Subnet::MustParse("36.0.0.0/8");
  ha_config.metrics = f->metrics.get();
  ha_config.num_shards = kFleetShards;
  ha_config.batch_max = kFleetBatchMax;
  ha_config.admission_queue_limit = kFleetAdmissionLimit;
  f->ha = std::make_unique<HomeAgent>(*f->router, ha_config);

  RegistrationLoadGenerator::Config lc;
  lc.home_agent = Ipv4Address(36, 135, 0, 1);
  lc.first_home = Ipv4Address(36, 100, 0, 0);
  lc.count = shape.clients;
  lc.first_care_of = Ipv4Address(36, 8, 16, 1);
  lc.start_delay = Seconds(1);
  lc.interarrival =
      Duration::FromNanos(static_cast<int64_t>(1e9 / (shape.knee_multiple * FleetKneePerSec())));
  f->load = std::make_unique<RegistrationLoadGenerator>(*f->fleet_node, lc);
  f->load->Start();
  return f;
}

uint64_t FleetResolved(const RegistrationLoadGenerator& load) {
  const RegistrationLoadGenerator::Stats& s = load.stats();
  return s.accepted + s.gave_up + s.denied_other;
}

// Benchmark-correctness checks on a finished fleet: every client resolved,
// every client registered, sampled homes bound, shard invariants intact.
void VerifyFleet(const FleetFixture& f, Pass& pass) {
  const RegistrationLoadGenerator::Stats& s = f.load->stats();
  const uint32_t clients = f.load->client_count();
  if (FleetResolved(*f.load) != clients) {
    pass.errors.push_back("fleet: " + std::to_string(clients - FleetResolved(*f.load)) +
                          " clients unresolved at the horizon");
  }
  if (s.accepted != clients) {
    pass.errors.push_back("fleet: registered " + std::to_string(s.accepted) + " != clients " +
                          std::to_string(clients));
  }
  if (f.ha->binding_count() != s.accepted) {
    pass.errors.push_back("fleet: HA holds " + std::to_string(f.ha->binding_count()) +
                          " bindings for " + std::to_string(s.accepted) + " accepted clients");
  }
  const uint32_t first_home = Ipv4Address(36, 100, 0, 0).value();
  for (uint32_t i = 0; i < clients; i += 997) {
    if (!f.ha->HasBinding(Ipv4Address(first_home + i))) {
      pass.errors.push_back("fleet: no binding for registrant " + std::to_string(i));
      break;
    }
  }
  const std::string shard_error = f.ha->ShardConsistencyError();
  if (!shard_error.empty()) {
    pass.errors.push_back("fleet: shard consistency: " + shard_error);
  }
}

// One fleet run: build (a set-up sample), simulate in slices until every
// client resolved, verify, tear down. Ops are accepted registrations.
void FleetRep(const FleetShape& shape, uint64_t seed, Tracer& tracer, Pass& pass) {
  const Clock::time_point t0 = Clock::now();
  const int rep = tracer.Open("mip.fleet_rep", seed);
  std::unique_ptr<FleetFixture> f = BuildFleet(shape, seed, tracer);
  const Clock::time_point t1 = Clock::now();
  const Counts global_before = GlobalCounts();
  Counts before;
  AddSimCounts(before, *f->sim);
  const Time horizon = f->sim->Now() + kFleetHorizon;
  RunSlices(
      *f->sim, kFleetSlice,
      [&] { return FleetResolved(*f->load) >= shape.clients || f->sim->Now() >= horizon; },
      [&] { return f->load->completed(); }, tracer, pass);
  const Clock::time_point t2 = Clock::now();
  {
    ScopedSpan verify(tracer, "mip.fleet_verify", seed);
    VerifyFleet(*f, pass);
  }
  const RegistrationLoadGenerator::Stats stats = f->load->stats();
  if (tracer.enabled()) {
    Counts c;
    AddSimCounts(c, *f->sim);
    c = Delta(c, before);
    AddRegistryCounts(c, *f->metrics);
    AddNodeCounts(c, f->router.get());
    AddNodeCounts(c, f->fleet_node.get());
    c["mip.client_retransmits"] += stats.retransmissions;
    AddCounts(c, Delta(GlobalCounts(), global_before));
    AddCounts(pass.counts, c);
  }
  const Clock::time_point t3 = Clock::now();
  {
    ScopedSpan teardown(tracer, "mip.fleet_teardown", seed);
    f.reset();
  }
  tracer.Close(rep);
  const Clock::time_point t4 = Clock::now();
  pass.setup_s.push_back(SecondsBetween(t0, t1));
  pass.op_wall_s += SecondsBetween(t1, t2) + SecondsBetween(t3, t4);
  pass.unit_s.push_back(SecondsBetween(t3, t4));
  pass.attempted += shape.clients;
  pass.ops += stats.accepted;
  pass.failed += stats.gave_up + stats.denied_other;
  if (stats.gave_up + stats.denied_other > 0) {
    NoteFailure(pass, "fleet seed " + std::to_string(seed) + ": gave_up=" +
                          std::to_string(stats.gave_up) +
                          " denied=" + std::to_string(stats.denied_other));
  }
}

// ---- tunnel_echo ----------------------------------------------------------------

constexpr uint16_t kEchoPort = 7;
constexpr uint32_t kEchoesPerRep = 50000;
constexpr Duration kEchoInterval = Milliseconds(5);
constexpr Duration kEchoSlice = Seconds(1);
constexpr Duration kEchoDrain = Seconds(2);
// Smallest payload that still carries the sequence number, and the largest
// whose tunneled form fits the 1500-byte MTU: 1500 - 20 (outer IPv4) - 20
// (inner IPv4) - 8 (UDP).
constexpr size_t kEchoSmall = 4;
constexpr size_t kEchoLarge = 1500 - 20 - 20 - 8;

std::vector<uint8_t> EchoTemplate(size_t size) {
  std::vector<uint8_t> bytes(size);
  for (size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  return bytes;
}

// Open-loop echo flow from the correspondent to the mobile host's home
// address: one datagram every kEchoInterval of simulated time, payloads
// alternating between the smallest and the largest size. Every echo is
// byte-compared against what was sent.
class EchoFlow {
 public:
  EchoFlow(Testbed& tb, uint32_t count)
      : tb_(tb),
        count_(count),
        small_(EchoTemplate(kEchoSmall)),
        large_(EchoTemplate(kEchoLarge)),
        seen_(count, false),
        server_(*tb.mh, kEchoPort),
        socket_(tb.ch->stack()) {
    if (!socket_.Bind(0)) {
      Die("tunnel_echo: no ephemeral port on the correspondent");
    }
    socket_.SetReceiveHandler(
        [this](const std::vector<uint8_t>& data, const UdpSocket::Metadata&) { OnEcho(data); });
  }

  void Start() { SendNext(); }

  bool Done() const {
    return sent_ == count_ &&
           (ok_ + corrupt_ == count_ || tb_.sim.Now() >= last_send_ + kEchoDrain);
  }
  uint32_t sent() const { return sent_; }
  uint64_t ok() const { return ok_; }
  uint64_t corrupt() const { return corrupt_; }
  uint64_t unexpected() const { return unexpected_; }

 private:
  std::vector<uint8_t> Payload(uint32_t seq) const {
    std::vector<uint8_t> bytes = seq % 2 == 0 ? small_ : large_;
    std::memcpy(bytes.data(), &seq, sizeof(seq));
    return bytes;
  }

  void SendNext() {
    const uint32_t seq = sent_++;
    last_send_ = tb_.sim.Now();
    socket_.SendTo(Testbed::HomeAddress(), kEchoPort, Payload(seq));
    if (sent_ < count_) {
      tb_.sim.Schedule(kEchoInterval, [this] { SendNext(); });
    }
  }

  void OnEcho(const std::vector<uint8_t>& data) {
    uint32_t seq = 0;
    if (data.size() < sizeof(seq)) {
      ++unexpected_;
      return;
    }
    std::memcpy(&seq, data.data(), sizeof(seq));
    if (seq >= sent_ || seen_[seq]) {
      ++unexpected_;  // Never sent, or echoed twice.
      return;
    }
    seen_[seq] = true;
    if (data == Payload(seq)) {
      ++ok_;
    } else {
      ++corrupt_;
    }
  }

  Testbed& tb_;
  uint32_t count_;
  std::vector<uint8_t> small_;
  std::vector<uint8_t> large_;
  std::vector<bool> seen_;
  ProbeEchoServer server_;
  UdpSocket socket_;
  uint32_t sent_ = 0;
  Time last_send_;
  uint64_t ok_ = 0;
  uint64_t corrupt_ = 0;
  uint64_t unexpected_ = 0;
};

// The echo fixture: the testbed with the MH booted and registered on the
// visited wired net, and the flow between the correspondent and the MH.
struct EchoFixture {
  std::unique_ptr<Testbed> tb;
  std::unique_ptr<EchoFlow> flow;  // Declared last: destroyed before the testbed.
};

EchoFixture BuildEcho(uint64_t seed, Tracer& tracer, Pass& pass) {
  EchoFixture f;
  TestbedConfig cfg;
  cfg.seed = seed;
  {
    ScopedSpan build(tracer, "topo.build", seed);
    f.tb = std::make_unique<Testbed>(cfg);
  }
  {
    ScopedSpan boot(tracer, "topo.mh_boot", seed);
    f.tb->StartMobileOnWired();
  }
  if (!f.tb->mobile->registered()) {
    pass.errors.push_back("tunnel_echo: mobile host not registered after boot");
  }
  f.flow = std::make_unique<EchoFlow>(*f.tb, kEchoesPerRep);
  return f;
}

// One echo run: build the fixture (a set-up sample), run the flow in
// one-second slices of simulated time, tear down.
void EchoRep(uint64_t seed, Tracer& tracer, Pass& pass) {
  const Clock::time_point t0 = Clock::now();
  const int rep = tracer.Open("mip.echo_rep", seed);
  EchoFixture f = BuildEcho(seed, tracer, pass);
  Testbed* tb = f.tb.get();
  EchoFlow* flow = f.flow.get();
  const Clock::time_point t1 = Clock::now();
  const Counts global_before = GlobalCounts();
  const Counts before = tracer.enabled() ? TestbedCounts(*tb) : Counts{};
  flow->Start();
  RunSlices(
      tb->sim, kEchoSlice, [&] { return flow->Done(); },
      [&] { return flow->ok() + flow->corrupt(); }, tracer, pass);
  const Clock::time_point t2 = Clock::now();
  if (flow->unexpected() > 0) {
    pass.errors.push_back("tunnel_echo: " + std::to_string(flow->unexpected()) +
                          " echoes never sent or echoed twice");
  }
  if (tracer.enabled()) {
    AddCounts(pass.counts, Delta(TestbedCounts(*tb), before));
    AddCounts(pass.counts, Delta(GlobalCounts(), global_before));
  }
  const uint64_t lost = flow->sent() - flow->ok() - flow->corrupt();
  pass.attempted += flow->sent();
  pass.ops += flow->ok();
  pass.failed += lost + flow->corrupt();
  if (lost + flow->corrupt() > 0) {
    NoteFailure(pass, "echo seed " + std::to_string(seed) + ": lost=" + std::to_string(lost) +
                          " corrupt=" + std::to_string(flow->corrupt()));
  }
  const Clock::time_point t3 = Clock::now();
  {
    ScopedSpan teardown(tracer, "mip.echo_teardown", seed);
    f.flow.reset();
    f.tb.reset();
  }
  tracer.Close(rep);
  const Clock::time_point t4 = Clock::now();
  pass.setup_s.push_back(SecondsBetween(t0, t1));
  pass.op_wall_s += SecondsBetween(t1, t2) + SecondsBetween(t3, t4);
  pass.unit_s.push_back(SecondsBetween(t3, t4));
}

FleetShape ShapeOf(const std::string& workload) {
  // fleet_register: 100k registrants at 0.75x the knee (bench_ha_scaling's
  // sharded_n=100000 row); fleet_overload: 50k at 2x the knee.
  return workload == "fleet_register" ? FleetShape{100000, 0.75} : FleetShape{50000, 2.0};
}

// Builds a fleet or echo fixture once and returns the build time; the fixture
// is discarded untimed. Fuzz seeds build their own (FuzzPass times it).
double SetupSample(const std::string& workload, uint64_t seed, Tracer& tracer, Pass& pass) {
  const Clock::time_point t0 = Clock::now();
  EchoFixture echo;
  std::unique_ptr<FleetFixture> fleet;
  if (workload == "tunnel_echo") {
    echo = BuildEcho(seed, tracer, pass);
  } else {
    fleet = BuildFleet(ShapeOf(workload), seed, tracer);
  }
  return SecondsBetween(t0, Clock::now());
}

// ---- Isolation pass ---------------------------------------------------------------

// Times `body` (which performs `calls` calls into one layer) `rounds` times
// and returns the median ns per call. `between` runs untimed after each round.
double NsPerCall(int rounds, size_t calls, const std::function<void()>& body,
                 const std::function<void()>& between = nullptr) {
  std::vector<double> samples;
  for (int r = 0; r < rounds; ++r) {
    const Clock::time_point t0 = Clock::now();
    body();
    const Clock::time_point t1 = Clock::now();
    samples.push_back(SecondsBetween(t0, t1) * 1e9 / static_cast<double>(calls));
    if (between) {
      between();
    }
  }
  return Percentile(samples, 50);
}

// The workload's own datagram: its UDP payload sizes.
std::vector<size_t> WorkloadPayloadSizes(const std::string& workload) {
  if (workload == "tunnel_echo") {
    return {kEchoSmall, kEchoLarge};
  }
  if (workload == "fuzz_soak") {
    return {12};  // The fuzzer's probe stream: u32 sequence + u64 send time.
  }
  RegistrationRequest request;
  return {request.Serialize().size()};
}

struct Isolation {
  std::map<std::string, double> ns;  // ns per call, by entry point.
  // Work one injected registration does below the mip layer, per call, so
  // the reconstruction can take the registration's own share apart.
  std::map<std::string, double> per_registration;
};

// Calls each layer's public entry point directly on a two-segment fixture
// (an HA router between a home and a visited segment, and a peer host on the
// visited one), with the workload's datagram sizes and its cancelled-event
// share.
Isolation IsolationPass(const std::string& workload, uint64_t seed, double cancel_share,
                        Tracer& tracer) {
  constexpr int kRounds = 9;
  Isolation result;
  std::map<std::string, double>& ns = result.ns;
  const std::vector<size_t> sizes = WorkloadPayloadSizes(workload);

  {
    ScopedSpan span(tracer, "iso.sim");
    constexpr size_t kEvents = 4096;
    Simulator sim(seed);
    Rng rng(seed);
    uint64_t fired = 0;
    std::vector<EventId> ids(kEvents);
    std::vector<double> samples;
    for (int r = 0; r < kRounds; ++r) {
      const uint64_t fired_before = fired;
      const Clock::time_point t0 = Clock::now();
      for (size_t i = 0; i < kEvents; ++i) {
        ids[i] = sim.Schedule(Microseconds(rng.UniformInt(int64_t{0}, int64_t{1000})),
                              [&fired] { ++fired; });
      }
      for (size_t i = 0; i < kEvents; ++i) {
        if (rng.Bernoulli(cancel_share)) {
          (void)sim.Cancel(ids[i]);
        }
      }
      (void)sim.Run();
      const Clock::time_point t1 = Clock::now();
      samples.push_back(SecondsBetween(t0, t1) * 1e9 /
                        static_cast<double>(std::max<uint64_t>(fired - fired_before, 1)));
    }
    ns["sim.event"] = Percentile(samples, 50);
  }

  Simulator sim(seed);
  MetricsRegistry metrics;
  MediumParams wire;
  wire.latency = Microseconds(50);
  BroadcastMedium home(sim, "iso_home", wire, &metrics);
  BroadcastMedium visited(sim, "iso_visited", wire, &metrics);
  Node router(sim, "iso_router", &metrics);
  router.stack().set_forwarding_enabled(true);
  EthernetDevice* r_home = router.AddEthernet("eth_home", &home);
  EthernetDevice* r_visited = router.AddEthernet("eth_visited", &visited);
  Node peer(sim, "iso_peer", &metrics);
  EthernetDevice* p_eth = peer.AddEthernet("eth0", &visited);
  for (EthernetDevice* dev : {r_home, r_visited, p_eth}) {
    dev->ForceUp();
    dev->set_queue_capacity(1 << 16);
  }
  router.ConfigureInterface(r_home, "36.135.0.1/16");
  router.ConfigureInterface(r_visited, "36.8.0.1/16");
  peer.ConfigureInterface(p_eth, "36.8.0.2/16");
  peer.AddDefaultRoute(Ipv4Address(36, 8, 0, 1), p_eth);
  const Ipv4Address router_addr(36, 8, 0, 1);
  const Ipv4Address peer_addr(36, 8, 0, 2);
  const Ipv4Address ha_addr(36, 135, 0, 1);
  peer.stack().arp().AddStaticEntry(router_addr, r_visited->mac());
  router.stack().arp().AddStaticEntry(peer_addr, p_eth->mac());
  HomeAgent::Config ha_config;
  ha_config.address = ha_addr;
  ha_config.home_device = r_home;
  ha_config.home_subnet = Testbed::HomeSubnet();
  ha_config.metrics = &metrics;
  HomeAgent ha(router, ha_config);
  constexpr uint16_t kDiscardPort = 9;
  constexpr uint16_t kReplyPort = 4340;
  UdpSocket discard(router.stack());
  UdpSocket replies(peer.stack());
  if (!discard.Bind(kDiscardPort) || !replies.Bind(kReplyPort)) {
    Die("isolation: cannot bind fixture sockets");
  }

  // Frames as the peer would put them on the visited segment.
  constexpr size_t kFrames = 2048;
  std::vector<EthernetFrame> frames;
  for (size_t i = 0; i < kFrames; ++i) {
    UdpDatagram udp;
    udp.src_port = kReplyPort;
    udp.dst_port = kDiscardPort;
    udp.payload = EchoTemplate(sizes[i % sizes.size()]);
    Ipv4Header header;
    header.protocol = IpProto::kUdp;
    header.src = peer_addr;
    header.dst = router_addr;
    EthernetFrame frame;
    frame.dst = r_visited->mac();
    frame.src = p_eth->mac();
    frame.ethertype = EtherType::kIpv4;
    frame.payload = BuildIpv4Packet(header, udp.Serialize(peer_addr, router_addr));
    frames.push_back(std::move(frame));
  }
  const auto drain = [&sim] { sim.RunFor(Milliseconds(10)); };

  {
    ScopedSpan span(tracer, "iso.link");
    ns["link.frame"] = NsPerCall(
        kRounds, kFrames,
        [&] {
          for (const EthernetFrame& frame : frames) {
            visited.FrameFromDevice(p_eth, frame);
          }
        },
        drain);
  }
  {
    ScopedSpan span(tracer, "iso.node.ingress");
    std::vector<EthernetFrame> batch = frames;
    ns["node.ingress"] = NsPerCall(
        kRounds, kFrames,
        [&] {
          for (EthernetFrame& frame : batch) {
            router.stack().ReceiveFrame(*r_visited, std::move(frame));
          }
        },
        [&] {
          drain();
          batch = frames;
        });
  }
  {
    // One registration per call, each for a fresh home address, injected
    // as received on the visited interface and simulated until answered.
    ScopedSpan span(tracer, "iso.mip.reg_request");
    constexpr size_t kRegs = 256;
    const auto below = [&] {
      Counts c;
      AddSimCounts(c, sim);
      AddRegistryCounts(c, metrics);
      AddNodeCounts(c, &router);
      AddNodeCounts(c, &peer);
      return c;
    };
    const Counts before = below();
    uint32_t next_home = Ipv4Address(36, 135, 100, 0).value();
    ns["mip.reg_request"] = NsPerCall(kRounds, kRegs, [&] {
      for (size_t i = 0; i < kRegs; ++i) {
        RegistrationRequest request;
        request.lifetime_sec = 300;
        request.home_address = Ipv4Address(next_home++);
        request.home_agent = ha_addr;
        request.care_of_address = peer_addr;
        request.identification = 1;
        UdpDatagram udp;
        udp.src_port = kReplyPort;
        udp.dst_port = kMipRegistrationPort;
        udp.payload = request.Serialize();
        Ipv4Datagram dg;
        dg.header.protocol = IpProto::kUdp;
        dg.header.src = peer_addr;
        dg.header.dst = ha_addr;
        dg.payload = udp.Serialize(peer_addr, ha_addr);
        router.stack().InjectReceivedDatagram(dg, r_visited);
        sim.RunFor(Milliseconds(5));
      }
    });
    const Counts delta = Delta(below(), before);
    for (const char* name : {"sim.events", "link.frames", "node.ingress_frames"}) {
      result.per_registration[name] =
          static_cast<double>(delta.at(name)) / static_cast<double>(kRounds * kRegs);
    }
  }
  {
    ScopedSpan span(tracer, "iso.node.route_lookup");
    constexpr size_t kLookups = 8192;
    RouteQuery query;
    query.dst = Ipv4Address(Ipv4Address(36, 135, 100, 0).value());
    query.forwarding = true;
    uint64_t found = 0;
    ns["node.route_lookup"] = NsPerCall(kRounds, kLookups, [&] {
      for (size_t i = 0; i < kLookups; ++i) {
        found += router.stack().RouteLookup(query).has_value() ? 1 : 0;
      }
    });
    ns["node.route_lookup_uncached"] = NsPerCall(kRounds, kLookups, [&] {
      for (size_t i = 0; i < kLookups; ++i) {
        found += router.stack().RouteLookupUncached(query).has_value() ? 1 : 0;
      }
    });
    if (found == 0) {
      Die("isolation: route lookups found no route");
    }
  }
  {
    ScopedSpan span(tracer, "iso.mip.ipip");
    constexpr size_t kPackets = 2048;
    std::vector<Packet> inner;
    std::vector<Packet> outer;
    const auto make_inner = [&] {
      inner.clear();
      outer.clear();
      for (size_t i = 0; i < kPackets; ++i) {
        UdpDatagram udp;
        udp.src_port = kReplyPort;
        udp.dst_port = kEchoPort;
        udp.payload = EchoTemplate(sizes[i % sizes.size()]);
        Ipv4Header header;
        header.protocol = IpProto::kUdp;
        header.src = router_addr;
        header.dst = Testbed::HomeAddress();
        inner.push_back(BuildIpv4Packet(header, udp.Serialize(router_addr, header.dst)));
      }
    };
    make_inner();
    ns["mip.encap"] = NsPerCall(
        kRounds, kPackets,
        [&] {
          for (Packet& packet : inner) {
            Ipv4Header outer_header;
            outer.push_back(
                EncapsulateIpIpPacket(outer_header, std::move(packet), ha_addr, peer_addr));
          }
        },
        make_inner);
    // make_inner ran after the last round: encapsulate one batch to decap.
    for (Packet& packet : inner) {
      Ipv4Header outer_header;
      outer.push_back(EncapsulateIpIpPacket(outer_header, std::move(packet), ha_addr, peer_addr));
    }
    size_t decapsulated = 0;
    ns["mip.decap"] = NsPerCall(kRounds, kPackets, [&] {
      for (const Packet& packet : outer) {
        decapsulated += DecapsulateIpIp(packet.span().subspan(Ipv4Header::kSize)) ? 1 : 0;
      }
    });
    if (decapsulated == 0) {
      Die("isolation: decapsulation produced nothing");
    }
  }
  if (workload != "fuzz_soak") {
    // The check and topo layers run only inside fuzz seeds; time a few here
    // so every workload reports them (fuzz_soak times them in its own pass).
    ScopedSpan span(tracer, "iso.check");
    (void)FuzzPass(seed * 10000 + 1, 4, tracer);
  }
  return result;
}

// ---- Output --------------------------------------------------------------------

class Json {
 public:
  Json& Key(const std::string& key) {
    Comma();
    Quote(key);
    out_ += ':';
    fresh_ = true;
    return *this;
  }
  Json& Str(const std::string& s) {
    Comma();
    Quote(s);
    return *this;
  }
  Json& Num(double v) {
    Comma();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
  }
  Json& Int(uint64_t v) {
    Comma();
    out_ += std::to_string(v);
    return *this;
  }
  Json& Bool(bool v) {
    Comma();
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& Open(char bracket) {
    Comma();
    out_ += bracket;
    fresh_ = true;
    return *this;
  }
  Json& Close(char bracket) {
    out_ += bracket;
    fresh_ = false;
    return *this;
  }
  const std::string& str() const { return out_; }

 private:
  void Quote(const std::string& s) {
    out_ += '"';
    out_ += JsonEscape(s);
    out_ += '"';
  }

  void Comma() {
    if (!fresh_ && !out_.empty()) {
      out_ += ',';
    }
    fresh_ = false;
  }

  std::string out_;
  bool fresh_ = true;
};

void WriteStrings(Json& j, const std::string& key, const std::vector<std::string>& items) {
  j.Key(key).Open('[');
  for (const std::string& s : items) {
    j.Str(s);
  }
  j.Close(']');
}

void WriteNumberLists(Json& j, const std::string& key,
                      const std::vector<std::vector<double>>& lists) {
  j.Key(key).Open('[');
  for (const std::vector<double>& items : lists) {
    j.Open('[');
    for (double v : items) {
      j.Num(v);
    }
    j.Close(']');
  }
  j.Close(']');
}

void WritePass(Json& j, const std::string& key, const Pass& pass) {
  j.Key(key).Open('{');
  j.Key("attempted").Int(pass.attempted);
  j.Key("ops").Int(pass.ops);
  j.Key("failed").Int(pass.failed);
  j.Key("op_wall_s").Num(pass.op_wall_s);
  WriteStrings(j, "failures", pass.failures);
  WriteStrings(j, "errors", pass.errors);
  j.Close('}');
}

uint64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

void WriteBuild(Json& j) {
  j.Key("build").Open('{');
  j.Key("type").Str(MSN_PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
  j.Key("compiler").Str(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  j.Key("compiler").Str(std::string("gcc ") + __VERSION__);
#else
  j.Key("compiler").Str("unknown");
#endif
  j.Key("asserts").Bool(MSN_ASSERTS_ENABLED != 0);
#if defined(__OPTIMIZE__)
  j.Key("optimized").Bool(true);
#else
  j.Key("optimized").Bool(false);
#endif
#if defined(__SANITIZE_ADDRESS__)
  j.Key("sanitizer").Bool(true);
#else
  j.Key("sanitizer").Bool(false);
#endif
  j.Close('}');
}

// ---- Driver ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::string mode = "timed";
  uint64_t seed = 1;
  double seconds = 10;
  std::optional<uint64_t> first_fuzz_seed;
  std::optional<uint64_t> fuzz_seeds;
  bool inject_drift = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Die("missing value for " + flag);
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--mode") {
      args.mode = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--first-fuzz-seed") {
      args.first_fuzz_seed = std::stoull(value());
    } else if (flag == "--fuzz-seeds") {
      args.fuzz_seeds = std::stoull(value());
    } else if (flag == "--inject-drift") {
      args.inject_drift = true;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.workload != "fuzz_soak" && args.workload != "fleet_register" &&
      args.workload != "fleet_overload" && args.workload != "tunnel_echo") {
    Die("unknown workload '" + args.workload + "'");
  }
  if (args.mode != "timed" && args.mode != "traced") {
    Die("unknown mode '" + args.mode + "'");
  }
  return args;
}

// Seeds per fuzz pass. A timed pass takes enough seeds that its mix, and the
// process's peak memory, vary little between seed windows; the traced pass
// only has to repeat its counts exactly.
constexpr uint64_t kTimedFuzzSeeds = 1000;
constexpr uint64_t kTracedFuzzSeeds = 200;

// Seeds of the simulated inputs, all derived from --seed.
uint64_t FirstFuzzSeed(const Args& args) {
  return args.first_fuzz_seed.value_or(args.seed * 10000 + 1);
}
uint64_t RepSeed(const Args& args, uint64_t rep) { return args.seed * 1000 + rep; }

// Passes in a timed run: --seconds over the wall time one pass took when the
// benchmark was introduced (Release, gcc 12, one core of a shared 4-core
// x86-64 VM). The count depends on --seconds alone, so two versions of the
// code take each unit's fastest time over the same number of passes.
uint64_t TimedPasses(const Args& args) {
  double pass_s = 0.33;  // tunnel_echo: one 50k-echo rep.
  if (args.workload == "fuzz_soak") {
    pass_s = 5.0;  // 1000 seeds.
  } else if (args.workload == "fleet_register") {
    pass_s = 0.85;
  } else if (args.workload == "fleet_overload") {
    pass_s = 0.8;
  }
  return std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(args.seconds / pass_s)));
}

// One pass of the workload's fixed quantum of work: the fuzz seed window, one
// fleet, or one echo rep. Every pass of a run does identical work.
Pass RunPass(const Args& args, Tracer& tracer) {
  Pass pass;
  if (args.workload == "fuzz_soak") {
    const uint64_t seeds =
        args.fuzz_seeds.value_or(args.mode == "traced" ? kTracedFuzzSeeds : kTimedFuzzSeeds);
    pass = FuzzPass(FirstFuzzSeed(args), seeds, tracer);
  } else if (args.workload == "tunnel_echo") {
    EchoRep(RepSeed(args, 0), tracer, pass);
  } else {
    FleetRep(ShapeOf(args.workload), RepSeed(args, 0), tracer, pass);
  }
  return pass;
}

int Main(int argc, char** argv) {
  const Clock::time_point origin = Clock::now();
  const Args args = ParseArgs(argc, argv);
  Json j;
  j.Open('{');
  j.Key("workload").Str(args.workload);
  j.Key("mode").Str(args.mode);
  j.Key("seed").Int(args.seed);
  WriteBuild(j);

  Tracer off(origin, false);
  if (args.mode == "timed") {
    // Every pass records the same set-ups, so each can be taken at its
    // fastest pass: a fuzz seed's boot, once per seed; for fleets and
    // echoes, two fixture builds of its own besides the rep's.
    Pass total;
    const uint64_t passes = TimedPasses(args);
    std::vector<std::vector<double>> unit_passes;
    std::vector<std::vector<double>> setup_passes;
    uint64_t ops_per_pass = 0;
    uint64_t peak_rss_kb = 0;
    for (uint64_t p = 0; p < passes; ++p) {
      std::vector<double> setups;
      if (args.workload != "fuzz_soak") {
        for (uint64_t rep = 1; rep <= 2; ++rep) {
          setups.push_back(SetupSample(args.workload, RepSeed(args, rep), off, total));
        }
      }
      Pass pass = RunPass(args, off);
      setups.insert(setups.end(), pass.setup_s.begin(), pass.setup_s.end());
      if (p == 0) {
        ops_per_pass = pass.ops;
        total.failures = pass.failures;  // Later passes repeat the same ones.
        // Set-up and one pass: later passes repeat the work, and the heap
        // they leave fragmented would make the peak depend on their number.
        peak_rss_kb = PeakRssKb();
      }
      unit_passes.push_back(std::move(pass.unit_s));
      setup_passes.push_back(std::move(setups));
      total.attempted += pass.attempted;
      total.ops += pass.ops;
      total.failed += pass.failed;
      total.op_wall_s += pass.op_wall_s;
      total.errors.insert(total.errors.end(), pass.errors.begin(), pass.errors.end());
    }
    j.Key("first_fuzz_seed").Int(FirstFuzzSeed(args));
    WritePass(j, "timed", total);
    j.Key("ops_per_pass").Int(ops_per_pass);
    WriteNumberLists(j, "unit_passes", unit_passes);
    WriteNumberLists(j, "setup_passes", setup_passes);
    j.Key("peak_rss_kb").Int(peak_rss_kb);
    j.Close('}');
    std::printf("%s\n", j.str().c_str());
    return 0;
  }

  // Traced mode: the same quantum untraced, then traced, then isolation.
  Tracer tracer(origin, true);
  Pass setup;
  const uint64_t setup_reps = args.workload == "fuzz_soak" ? 0 : 3;
  for (uint64_t rep = 0; rep < setup_reps; ++rep) {
    ScopedSpan span(tracer, "setup", rep);
    (void)SetupSample(args.workload, RepSeed(args, rep), tracer, setup);
  }
  const Pass untraced = RunPass(args, off);
  Pass traced = RunPass(args, tracer);
  traced.errors.insert(traced.errors.end(), setup.errors.begin(), setup.errors.end());
  if (args.inject_drift) {
    traced.counts["test.drift"] = static_cast<uint64_t>(getpid());
  }
  const uint64_t scheduled = traced.counts["sim.scheduled"];
  const double cancel_share =
      scheduled > 0 ? static_cast<double>(scheduled - std::min(scheduled, traced.counts["sim.events"])) /
                          static_cast<double>(scheduled)
                    : 0.0;
  const Isolation iso = IsolationPass(args.workload, args.seed, cancel_share, tracer);

  j.Key("first_fuzz_seed").Int(FirstFuzzSeed(args));
  WritePass(j, "untraced", untraced);
  WritePass(j, "traced", traced);
  j.Key("counts").Open('{');
  for (const auto& [name, value] : traced.counts) {
    j.Key(name).Int(value);
  }
  j.Close('}');
  j.Key("iso_ns").Open('{');
  for (const auto& [name, value] : iso.ns) {
    j.Key(name).Num(value);
  }
  j.Close('}');
  j.Key("iso_per_registration").Open('{');
  for (const auto& [name, value] : iso.per_registration) {
    j.Key(name).Num(value);
  }
  j.Close('}');
  j.Key("spans").Open('[');
  for (const Span& s : tracer.spans()) {
    j.Open('[').Str(s.name).Num(s.start_us).Num(s.end_us).Num(s.parent);
    j.Int(s.op).Int(s.ops).Int(s.events).Close(']');
  }
  j.Close(']');
  j.Key("peak_rss_kb").Int(PeakRssKb());
  j.Close('}');
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace
}  // namespace msn::perfbench

int main(int argc, char** argv) { return msn::perfbench::Main(argc, argv); }
