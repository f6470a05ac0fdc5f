// Ablation A2: the cost of IP-in-IP encapsulation (paper §3.2:
// "Encapsulation adds 20 bytes or more to the packet length and requires
// extra processing").
//
// Part 1 (google-benchmark): per-operation CPU cost of checksums, header
// serialization/parsing, and encapsulation/decapsulation in this library.
// Skipped under MSN_BENCH_SMOKE (wall-clock timing is meaningless on shared
// CI runners).
// Part 2 (scenario table, printed after the micro benchmarks): goodput over
// the 35 kb/s radio link with and without the 20-byte tunnel header for a
// range of payload sizes — the overhead matters most exactly where the paper
// deployed the tunnel: on slow wireless links with small packets.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/link/link_device.h"
#include "src/mip/ipip.h"
#include "src/net/checksum.h"
#include "src/net/headers.h"
#include "src/sim/simulator.h"
#include "src/telemetry/export.h"

namespace msn {
namespace {

std::vector<uint8_t> MakePayload(size_t n) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(i * 31);
  }
  return v;
}

void BM_InternetChecksum(benchmark::State& state) {
  const auto payload = MakePayload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeInternetChecksum(payload));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(64)->Arg(512)->Arg(1500);

void BM_Ipv4HeaderSerialize(benchmark::State& state) {
  Ipv4Header h;
  h.src = Ipv4Address(36, 135, 0, 10);
  h.dst = Ipv4Address(36, 8, 0, 20);
  h.total_length = 1500;
  for (auto _ : state) {
    ByteWriter w(Ipv4Header::kSize);
    h.Serialize(w);
    benchmark::DoNotOptimize(w.data());
  }
}
BENCHMARK(BM_Ipv4HeaderSerialize);

void BM_Ipv4DatagramParse(benchmark::State& state) {
  Ipv4Header h;
  h.protocol = IpProto::kUdp;
  const auto bytes = BuildIpv4Datagram(h, MakePayload(static_cast<size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ipv4Datagram::Parse(bytes));
  }
}
BENCHMARK(BM_Ipv4DatagramParse)->Arg(64)->Arg(512)->Arg(1500);

void BM_Encapsulate(benchmark::State& state) {
  Ipv4Datagram inner;
  inner.header.protocol = IpProto::kUdp;
  inner.payload = MakePayload(static_cast<size_t>(state.range(0)));
  const Ipv4Address src(36, 8, 0, 50), dst(36, 135, 0, 1);
  Ipv4Header outer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EncapsulateIpIpPacket(outer, BuildIpv4Packet(inner.header, inner.payload), src, dst));
  }
}
BENCHMARK(BM_Encapsulate)->Arg(64)->Arg(512)->Arg(1500);

void BM_Decapsulate(benchmark::State& state) {
  Ipv4Datagram inner;
  inner.header.protocol = IpProto::kUdp;
  inner.payload = MakePayload(static_cast<size_t>(state.range(0)));
  Ipv4Header outer;
  const Packet wire = EncapsulateIpIpPacket(outer, BuildIpv4Packet(inner.header, inner.payload),
                                            Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2));
  const auto outer_payload = wire.span().subspan(Ipv4Header::kSize);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecapsulateIpIp(outer_payload));
  }
}
BENCHMARK(BM_Decapsulate)->Arg(64)->Arg(512)->Arg(1500);

// Scenario: goodput over the radio with/without the tunnel header.
double MeasureRadioGoodput(size_t payload_bytes, bool encapsulated, uint64_t seed,
                           int packets) {
  Simulator sim(seed);
  MediumParams params = RadioMediumParams();
  params.drop_probability = 0.0;
  BroadcastMedium cell(sim, "cell", params);
  StripRadioDevice tx(sim, "tx", MacAddress::FromId(1));
  StripRadioDevice rx(sim, "rx", MacAddress::FromId(2));
  tx.AttachTo(&cell);
  rx.AttachTo(&cell);
  tx.ForceUp();
  rx.ForceUp();
  tx.set_queue_capacity(100000);

  uint64_t payload_received = 0;
  rx.SetReceiveHandler([&](NetDevice&, const EthernetFrame& frame) {
    auto dg = Ipv4Datagram::Parse(frame.payload);
    if (!dg) {
      return;
    }
    if (encapsulated) {
      auto inner = DecapsulateIpIp(dg->payload);
      if (inner) {
        payload_received += inner->payload.size();
      }
    } else {
      payload_received += dg->payload.size();
    }
  });

  Ipv4Datagram inner;
  inner.header.protocol = IpProto::kUdp;
  inner.header.src = Ipv4Address(1, 1, 1, 1);
  inner.header.dst = Ipv4Address(2, 2, 2, 2);
  inner.payload = MakePayload(payload_bytes);

  for (int i = 0; i < packets; ++i) {
    EthernetFrame frame;
    frame.src = tx.mac();
    frame.dst = rx.mac();
    frame.ethertype = EtherType::kIpv4;
    if (encapsulated) {
      Ipv4Header outer;
      frame.payload = EncapsulateIpIpPacket(outer, BuildIpv4Packet(inner.header, inner.payload),
                                            Ipv4Address(3, 3, 3, 3), Ipv4Address(4, 4, 4, 4));
    } else {
      frame.payload = inner.Serialize();
    }
    tx.Transmit(frame);
  }
  const Time start = sim.Now();
  sim.Run();
  const double secs = (sim.Now() - start).ToSecondsF();
  return secs > 0 ? static_cast<double>(payload_received) * 8.0 / secs : 0;
}

void PrintGoodputTable() {
  const int kPackets = BenchIterations(200, 50);

  BenchReport report("encap_overhead",
                     "A2: IP-in-IP tunnel-header cost on the 35 kb/s radio link");
  report.set_seed(1);
  report.AddParam("packets_per_run", kPackets);
  report.AddParam("micro_benchmarks_run", !BenchSmokeMode());

  std::printf("\n==============================================================\n");
  std::printf("A2 scenario: goodput over the 35 kb/s radio, with vs without\n");
  std::printf("the 20-byte IP-in-IP tunnel header (%d packets each)\n", kPackets);
  std::printf("==============================================================\n\n");
  std::printf("%10s  %14s  %14s  %10s\n", "payload B", "plain kb/s", "tunneled kb/s",
              "overhead");
  for (size_t payload : {16u, 64u, 256u, 1024u}) {
    const double plain = MeasureRadioGoodput(payload, false, 1, kPackets) / 1000.0;
    const double tunneled = MeasureRadioGoodput(payload, true, 1, kPackets) / 1000.0;
    const double overhead_pct = plain > 0 ? (plain - tunneled) / plain * 100.0 : 0.0;
    std::printf("%10zu  %14.2f  %14.2f  %9.1f%%\n", payload, plain, tunneled, overhead_pct);
    report.AddRow("payload=" + std::to_string(payload),
                  {{"payload_bytes", static_cast<uint64_t>(payload)},
                   {"plain_kbps", plain},
                   {"tunneled_kbps", tunneled},
                   {"overhead_pct", overhead_pct}});
  }
  std::printf("\nShape check: the fixed 20-byte header costs the most on small\n"
              "packets over slow links — the motivation for the triangle-route\n"
              "optimization, which removes encapsulation entirely (paper S3.2).\n\n");

  const std::string path = report.WriteFile();
  std::printf("report: %s\n", path.empty() ? "WRITE FAILED" : path.c_str());
}

}  // namespace
}  // namespace msn

int main(int argc, char** argv) {
  if (!msn::BenchSmokeMode()) {
    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
  }
  msn::PrintGoodputTable();
  return 0;
}
