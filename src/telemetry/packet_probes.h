// Registry-backed probes over the packet datapath's global accounting.
//
// Packet, PacketArena (src/net) and BufferPool (src/util) keep raw structs
// because their layers must not depend on telemetry. This shim registers
// probe gauges over those structs so benches and scenarios can sample
// "pool.*" / "packet.*" like any other metric and have them land in
// BENCH_*.json via BenchReport::AddMetrics.
#ifndef MSN_SRC_TELEMETRY_PACKET_PROBES_H_
#define MSN_SRC_TELEMETRY_PACKET_PROBES_H_

#include "src/telemetry/metrics.h"

namespace msn {

// Registers gauges over Packet::stats() (packet.copies, packet.cow_breaks,
// packet.allocations), DefaultBufferPool().stats() (pool.misses,
// pool.oversize, pool.released, pool.outstanding) and
// DefaultPacketArena().stats() (pool.arena_node_allocs, pool.arena_recycled,
// pool.arena_refills, pool.arena_drains, pool.arena_free_nodes). Safe to
// call more than once on the same registry: probes are rebound, not
// duplicated.
void RegisterPacketPathProbes(MetricsRegistry& registry);

}  // namespace msn

#endif  // MSN_SRC_TELEMETRY_PACKET_PROBES_H_
