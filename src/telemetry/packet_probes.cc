#include "src/telemetry/packet_probes.h"

#include "src/net/packet.h"
#include "src/net/packet_arena.h"
#include "src/util/buffer_pool.h"

namespace msn {

void RegisterPacketPathProbes(MetricsRegistry& registry) {
  registry.GetProbeGauge("packet.copies", [] {
    return static_cast<double>(Packet::stats().copies);
  });
  registry.GetProbeGauge("packet.cow_breaks", [] {
    return static_cast<double>(Packet::stats().cow_breaks);
  });
  registry.GetProbeGauge("packet.allocations", [] {
    return static_cast<double>(Packet::stats().allocations);
  });
  registry.GetProbeGauge("pool.misses", [] {
    return static_cast<double>(DefaultBufferPool().stats().misses);
  });
  registry.GetProbeGauge("pool.oversize", [] {
    return static_cast<double>(DefaultBufferPool().stats().oversize);
  });
  registry.GetProbeGauge("pool.released", [] {
    return static_cast<double>(DefaultBufferPool().stats().released);
  });
  registry.GetProbeGauge("pool.outstanding", [] {
    return static_cast<double>(DefaultBufferPool().stats().outstanding);
  });
  registry.GetProbeGauge("pool.arena_node_allocs", [] {
    return static_cast<double>(DefaultPacketArena().stats().node_allocs);
  });
  registry.GetProbeGauge("pool.arena_recycled", [] {
    return static_cast<double>(DefaultPacketArena().stats().recycled);
  });
  registry.GetProbeGauge("pool.arena_refills", [] {
    return static_cast<double>(DefaultPacketArena().stats().refills);
  });
  registry.GetProbeGauge("pool.arena_drains", [] {
    return static_cast<double>(DefaultPacketArena().stats().drains);
  });
  registry.GetProbeGauge("pool.arena_free_nodes", [] {
    return static_cast<double>(DefaultPacketArena().stats().free_nodes);
  });
}

}  // namespace msn
