// Experiment E4 (paper §3.2): routing optimizations for outgoing packets.
//
// Measures, for each sending policy the paper describes, the UDP echo
// round-trip time between a visiting mobile host and a correspondent beyond
// the visited network, plus bytes on the wire (encapsulation overhead), with
// the visited network's transit filter off and on:
//
//   tunnel-home  — basic protocol: both directions via the home agent;
//   triangle     — direct to CH with home source (fails under the filter);
//   encap-direct — encapsulated direct to CH with local outer source
//                  (filter-proof, still pays 20 bytes);
//   direct       — local role (no mobility support; works but the CH replies
//                  to the care-of address, so it only suits short exchanges).
//
// Also demonstrates probe-driven fallback: with the filter on, a triangle
// probe fails with ICMP admin-prohibited and the Mobile Policy Table caches
// a tunnel fallback for that correspondent.
#include <cstdio>

#include "src/mip/ipip.h"
#include "src/telemetry/export.h"
#include "src/topo/testbed.h"
#include "src/tracing/probe.h"
#include "src/util/stats.h"

namespace msn {
namespace {

struct PolicyResult {
  double rtt_ms_mean = 0;
  double rtt_ms_stddev = 0;
  uint64_t sent = 0;
  uint64_t received = 0;
};

// Runs a UDP echo workload under one policy; CH is on the campus subnet
// (beyond the visited network's router).
PolicyResult RunPolicy(MobilePolicy policy, bool transit_filter, uint64_t seed,
                       Duration probe_window) {
  TestbedConfig cfg;
  cfg.seed = seed;
  cfg.external_ch = true;
  cfg.transit_filter = transit_filter;
  Testbed tb(cfg);
  tb.StartMobileAtHome();
  tb.StartMobileOnWired(50);
  tb.mobile->policy_table().Set(Subnet(tb.ch_address(), SubnetMask(32)), policy);

  // encap-direct requires a correspondent with "transparent IP-in-IP
  // decapsulation capability such as is found in recent Linux development
  // kernels" (paper §3.2): equip the CH with a tunnel endpoint.
  std::unique_ptr<IpIpTunnelEndpoint> ch_decap;
  if (policy == MobilePolicy::kEncapDirect) {
    ch_decap = std::make_unique<IpIpTunnelEndpoint>(tb.ch->stack());
  }

  ProbeEchoServer echo(*tb.mh, 7);
  ProbeSender sender(*tb.ch, ProbeSender::Config{Testbed::HomeAddress(), 7, Milliseconds(50)});
  sender.Start();
  tb.RunFor(probe_window);
  sender.Stop();
  tb.RunFor(Seconds(1));

  PolicyResult result;
  result.sent = sender.sent();
  result.received = sender.received();
  RunningStats rtt;
  for (Duration d : sender.RttsInWindow(Time::Zero(), Time::Max())) {
    rtt.Add(d.ToMillisF());
  }
  result.rtt_ms_mean = rtt.mean();
  result.rtt_ms_stddev = rtt.stddev();
  return result;
}

void PrintRow(const char* name, const PolicyResult& off, const PolicyResult& on) {
  char off_buf[64], on_buf[64];
  if (off.received > 0) {
    std::snprintf(off_buf, sizeof(off_buf), "%6.2f ms (%4.2f)  %3llu/%-3llu", off.rtt_ms_mean,
                  off.rtt_ms_stddev, static_cast<unsigned long long>(off.received),
                  static_cast<unsigned long long>(off.sent));
  } else {
    std::snprintf(off_buf, sizeof(off_buf), "no echoes        %3llu/%-3llu",
                  static_cast<unsigned long long>(off.received),
                  static_cast<unsigned long long>(off.sent));
  }
  if (on.received > 0) {
    std::snprintf(on_buf, sizeof(on_buf), "%6.2f ms (%4.2f)  %3llu/%-3llu", on.rtt_ms_mean,
                  on.rtt_ms_stddev, static_cast<unsigned long long>(on.received),
                  static_cast<unsigned long long>(on.sent));
  } else {
    std::snprintf(on_buf, sizeof(on_buf), "ALL LOST         %3llu/%-3llu",
                  static_cast<unsigned long long>(on.received),
                  static_cast<unsigned long long>(on.sent));
  }
  std::printf("%-14s | %-28s | %-28s\n", name, off_buf, on_buf);
}

int Main() {
  const Duration probe_window = BenchSmokeMode() ? Seconds(1) : Seconds(3);

  std::printf("==============================================================\n");
  std::printf("E4: routing optimizations for outgoing packets (paper S3.2)\n");
  std::printf("UDP echo CH(campus) <-> MH(visiting 36.8); RTT mean (stddev),\n");
  std::printf("echoes received/sent; %.0f s of probes every 50 ms\n",
              probe_window.ToSecondsF());
  std::printf("==============================================================\n\n");

  BenchReport report("route_opt",
                     "E4: outgoing-packet routing policies vs the transit filter");
  report.set_seed(7100);
  report.AddParam("probe_window_s", probe_window.ToSecondsF());
  report.AddParam("probe_interval_ms", 50);

  std::printf("%-14s | %-28s | %-28s\n", "MH tx policy", "filter OFF", "filter ON");
  std::printf("%.14s-+-%.28s-+-%.28s\n", "--------------",
              "----------------------------", "----------------------------");
  struct Policy {
    const char* name;
    MobilePolicy policy;
  };
  const Policy policies[] = {
      {"tunnel-home", MobilePolicy::kTunnelHome},
      {"triangle", MobilePolicy::kTriangle},
      {"encap-direct", MobilePolicy::kEncapDirect},
  };
  PolicyResult tunnel_off, triangle_off;
  for (const Policy& p : policies) {
    const PolicyResult off = RunPolicy(p.policy, false, 7100, probe_window);
    const PolicyResult on = RunPolicy(p.policy, true, 7100, probe_window);
    if (p.policy == MobilePolicy::kTunnelHome) {
      tunnel_off = off;
    }
    if (p.policy == MobilePolicy::kTriangle) {
      triangle_off = off;
    }
    PrintRow(p.name, off, on);
    report.AddRow(std::string(p.name) + " filter=off",
                  {{"rtt_ms_mean", off.rtt_ms_mean},
                   {"rtt_ms_stddev", off.rtt_ms_stddev},
                   {"received", off.received},
                   {"sent", off.sent}});
    report.AddRow(std::string(p.name) + " filter=on",
                  {{"rtt_ms_mean", on.rtt_ms_mean},
                   {"rtt_ms_stddev", on.rtt_ms_stddev},
                   {"received", on.received},
                   {"sent", on.sent}});
  }
  std::printf("\n");

  // Encapsulation overhead on the wire (paper: "20 bytes or more").
  {
    Ipv4Datagram inner;
    inner.header.protocol = IpProto::kUdp;
    inner.header.src = Ipv4Address(36, 135, 0, 10);
    inner.header.dst = Ipv4Address(36, 8, 0, 20);
    inner.payload.assign(100, 0);
    const size_t inner_bytes = inner.Serialize().size();
    Ipv4Header outer;
    const size_t outer_bytes =
        EncapsulateIpIpPacket(outer, BuildIpv4Packet(inner.header, inner.payload),
                              Ipv4Address(36, 8, 0, 50), Ipv4Address(36, 135, 0, 1))
            .size();
    std::printf("Encapsulation overhead: inner %zu B -> outer %zu B (+%zu B, paper: 20 B)\n\n",
                inner_bytes, outer_bytes, outer_bytes - inner_bytes);
    report.AddRow("encapsulation_overhead",
                  {{"inner_bytes", static_cast<uint64_t>(inner_bytes)},
                   {"outer_bytes", static_cast<uint64_t>(outer_bytes)},
                   {"overhead_bytes", static_cast<uint64_t>(outer_bytes - inner_bytes)}});
  }

  // Probe-driven fallback under the filter.
  {
    TestbedConfig cfg;
    cfg.seed = 7300;
    cfg.external_ch = true;
    cfg.transit_filter = true;
    Testbed tb(cfg);
    tb.StartMobileAtHome();
    tb.StartMobileOnWired(50);
    bool probe_ok = true;
    tb.mobile->ProbeTriangleRoute(tb.ch_address(), [&](bool ok) { probe_ok = ok; });
    tb.RunFor(Seconds(5));
    std::printf("Fallback check (filter ON): triangle probe %s; cached policy for CH: %s\n",
                probe_ok ? "SUCCEEDED (unexpected)" : "failed",
                MobilePolicyName(tb.mobile->policy_table().LookupConst(tb.ch_address())));
    std::printf("  probe fallbacks recorded: %llu\n\n",
                static_cast<unsigned long long>(tb.mobile->counters().probe_fallbacks));
    report.AddRow("triangle_probe_fallback",
                  {{"probe_failed", !probe_ok},
                   {"cached_policy",
                    MobilePolicyName(tb.mobile->policy_table().LookupConst(tb.ch_address()))},
                   {"probe_fallbacks", tb.mobile->counters().probe_fallbacks}});
    report.AddMetrics(tb.metrics);
  }

  std::printf("%-44s | %-12s | %s\n", "shape check", "paper", "measured");
  std::printf("%.44s-+-%.12s-+-%.16s\n", "--------------------------------------------",
              "------------", "----------------");
  std::printf("%-44s | %-12s | %s\n", "triangle faster than tunnel (no filter)", "yes",
              triangle_off.rtt_ms_mean < tunnel_off.rtt_ms_mean ? "yes" : "NO (!)");
  std::printf("\n");

  const std::string path = report.WriteFile();
  std::printf("report: %s\n", path.empty() ? "WRITE FAILED" : path.c_str());
  return 0;
}

}  // namespace
}  // namespace msn

int main() { return msn::Main(); }
