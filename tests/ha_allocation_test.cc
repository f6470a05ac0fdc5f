// Heap allocations per unit of work on the two hot paths, with every global
// operator new counted while the simulation runs: per accepted registration
// on the fleet path (the fleet benchmark's shape: 16 shards, batch 32,
// admission 64, 0.75x the knee, at 2,000 registrants), and per echo through
// the home agent's tunnel and the mobile host's reverse tunnel. This binary
// replaces the global allocation functions, so it holds no other tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/node/udp.h"
#include "src/topo/testbed.h"
#include "src/tracing/probe.h"
#include "tests/fleet_bed.h"

namespace {

// Counted only while `counting` is set; the simulation is single-threaded.
bool counting = false;
uint64_t allocations = 0;

void* Allocate(std::size_t size) {
  if (counting) {
    ++allocations;
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  if (counting) {
    ++allocations;
  }
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace msn {
namespace {

// Each accepted registration costs its request and reply messages, the
// receive copies of both, and the home's one record; the datagrams and the
// gratuitous ARP frames are built straight into arena packets, and the
// per-home state must not add a table entry per fact.
TEST(HaAllocationTest, FleetRegistrationAllocatesAtMostSevenTimes) {
  constexpr uint32_t kClients = 2000;
  FleetBed bed(kClients);
  bed.load.Start();

  allocations = 0;
  counting = true;
  const Time horizon = bed.sim.Now() + Seconds(10);
  while (bed.load.completed() < kClients && bed.sim.Now() < horizon) {
    bed.sim.RunFor(Milliseconds(100));
  }
  bed.sim.RunFor(Seconds(1));  // Every gratuitous-ARP series completes.
  counting = false;

  ASSERT_EQ(bed.load.stats().accepted, kClients);
  const double per_registration =
      static_cast<double>(allocations) / static_cast<double>(bed.load.stats().accepted);
  RecordProperty("allocations_per_registration", std::to_string(per_registration));
  EXPECT_LE(per_registration, 7.0) << allocations << " allocations for "
                                   << bed.load.stats().accepted << " registrations";
}

// An echo from the correspondent through the HA's tunnel to the mobile
// host's echo server and back through the reverse tunnel. Each direction
// builds its datagram once, straight into an arena packet, and the echo
// server sends the received bytes without copying them; what remains is the
// one receive copy per direction (UdpDatagram::Parse into the handler's
// vector) and the testbed's periodic timers.
TEST(HaAllocationTest, TunnelEchoAllocatesAtMostTwoAndAHalfTimes) {
  TestbedConfig cfg;
  cfg.seed = 3;
  Testbed tb(cfg);
  tb.StartMobileOnWired();
  ASSERT_TRUE(tb.mobile->registered());
  ProbeEchoServer server(*tb.mh, 7);
  UdpSocket socket(tb.ch->stack());
  ASSERT_TRUE(socket.Bind(0));
  uint64_t echoes = 0;
  socket.SetReceiveHandler(
      [&](const std::vector<uint8_t>&, const UdpSocket::Metadata&) { ++echoes; });
  // Smallest and largest payloads, built before counting starts; the large
  // one is the biggest whose tunneled form fits the 1500-byte MTU.
  const std::vector<uint8_t> small(4, 0x5a);
  const std::vector<uint8_t> large(1452, 0xa5);
  const auto echo = [&](int i) {
    socket.SendTo(Testbed::HomeAddress(), 7, i % 2 == 0 ? small : large);
    tb.sim.RunFor(Milliseconds(50));
  };
  echo(0);  // Warm-up: fills the ARP caches along the path.
  ASSERT_EQ(echoes, 1u);

  constexpr int kEchoes = 200;
  allocations = 0;
  counting = true;
  for (int i = 1; i <= kEchoes; ++i) {
    echo(i);
  }
  counting = false;

  ASSERT_EQ(echoes, 1u + kEchoes);
  const double per_echo = static_cast<double>(allocations) / kEchoes;
  RecordProperty("allocations_per_echo", std::to_string(per_echo));
  EXPECT_LE(per_echo, 2.5) << allocations << " allocations for " << kEchoes << " echoes";
}

}  // namespace
}  // namespace msn
