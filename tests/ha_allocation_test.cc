// Heap allocations per accepted registration on the fleet path: the fleet
// benchmark's shape (16 shards, batch 32, admission 64, 0.75x the knee) at
// 2,000 registrants, with every global operator new counted while the
// simulation runs. This binary replaces the global allocation functions, so
// it holds no other test.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

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

// Each accepted registration costs its datagrams, frames, reply and the
// home's one record; the per-home state must not add a table entry per fact.
TEST(HaAllocationTest, FleetRegistrationAllocatesAtMostFifteenTimes) {
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
  EXPECT_LE(per_registration, 15.0) << allocations << " allocations for "
                                    << bed.load.stats().accepted << " registrations";
}

}  // namespace
}  // namespace msn
