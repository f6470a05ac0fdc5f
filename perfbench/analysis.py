"""Pure arithmetic behind the benchmark report: percentiles, ratios with their
base, span self time, the cross-process determinism check, per-layer metrics
and the layer reconstruction. run.py feeds it the driver's JSON; the tests in
test_perfbench.py exercise it directly."""

import math
import statistics

# Percentiles considered for a timing's tail, highest first.
TAIL_CANDIDATES = (99.99, 99.9, 99.0, 90.0, 50.0)
# A reported percentile needs at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10
# |trace.unexplained_share| within this counts as a reconstruction that
# explains the measured ns/op.
RECONSTRUCTION_TOLERANCE = 0.25


def percentile(values, p):
    """Nearest-rank percentile of `values` (p in (0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(n, candidates=TAIL_CANDIDATES, min_beyond=MIN_SAMPLES_BEYOND):
    """Highest candidate percentile with at least `min_beyond` of `n` samples
    beyond it, or None when even the median lacks them."""
    for p in candidates:
        if n * (100.0 - p) / 100.0 >= min_beyond - 1e-9:
            return p
    return None


def fastest_units(passes):
    """Per-unit minimum over repeated passes of identical work (each pass a
    list of unit wall times, in order). Interference on a shared host only
    ever slows a unit down, so its fastest pass estimates its own cost.
    None when the passes do not have the same number of units."""
    if not passes or len({len(p) for p in passes}) != 1:
        return None
    return [min(times) for times in zip(*passes)]


def ratio(num, den):
    return num / den if den else 0.0


def format_ratio(name, num, den, base):
    """One report line for a ratio, always with its base."""
    return f"{name} = {ratio(num, den):.6g} ({num:g} / {den:g} {base})"


def self_times(spans):
    """Self time per span: its duration minus the time its direct children
    cover. `spans` is a list of (name, start_us, end_us, parent_index) with
    properly nested children (parent_index -1 for a root). Returns a list of
    self times in µs, index-aligned with `spans`."""
    selfs = [end - start for _, start, end, _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


def self_time_by_name(spans):
    """Total self µs and span count, keyed by span name."""
    totals = {}
    for (name, *_), self_us in zip(spans, self_times(spans)):
        total, count = totals.get(name, (0.0, 0))
        totals[name] = (total + self_us, count + 1)
    return totals


def drifting_counts(runs):
    """Names of counts that differ between any two runs (missing counts as
    drift), sorted. `runs` is a list of {name: value} maps."""
    names = set()
    for counts in runs:
        names |= set(counts)
    return sorted(n for n in names if len({c.get(n) for c in runs}) > 1)


def per_op(counts, name, ops):
    return ratio(counts.get(name, 0), ops)


def mean_ms(by_name, name):
    total_us, count = by_name.get(name, (0.0, 0))
    return total_us / count / 1000.0 if count else 0.0


def reg_self_ns(iso_ns, per_registration):
    """ns of one injected registration net of the sim, link and node work it
    causes, each priced at its own isolated cost."""
    below = (per_registration.get("sim.events", 0) * iso_ns["sim.event"]
             + per_registration.get("link.frames", 0) * iso_ns["link.frame"]
             + per_registration.get("node.ingress_frames", 0) * iso_ns["node.ingress"])
    return max(0.0, iso_ns["mip.reg_request"] - below)


def reconstruct(counts, ops, iso_ns, per_registration, measured_ns_per_op, extra_ns_per_op=None):
    """Rebuilds ns/op as the sum over layers of (count per op) x (ns per call).

    Returns (terms, unexplained_share): terms maps layer -> ns/op it explains;
    the share is the part of the measured ns/op the sum leaves unexplained
    (negative when the layers over-explain it)."""
    c = lambda name: per_op(counts, name, ops)  # noqa: E731
    terms = {
        "sim": c("sim.events") * iso_ns["sim.event"],
        "link": c("link.frames") * iso_ns["link.frame"],
        "node": c("node.ingress_frames") * iso_ns["node.ingress"]
        + (c("node.flow_hits") + c("node.flow_misses")) * iso_ns["node.route_lookup"],
        "mip": (c("mip.tunneled") + c("mip.mh_encaps")) * iso_ns["mip.encap"]
        + (c("mip.reverse_decaps") + c("mip.mh_decaps")) * iso_ns["mip.decap"]
        + c("mip.ha_requests") * reg_self_ns(iso_ns, per_registration),
    }
    for layer, ns in (extra_ns_per_op or {}).items():
        terms[layer] = terms.get(layer, 0.0) + ns
    explained = sum(terms.values())
    return terms, 1.0 - ratio(explained, measured_ns_per_op)


def layer_metrics(counts, ops, iso_ns, by_name, overhead_ratio, unexplained_share):
    """Every per-layer metric, by name. Counts are per completed op of the
    traced pass; *_ns come from the isolation pass; *_ms are mean span self
    times; ratios are useful outcomes over attempts."""
    c = lambda name: per_op(counts, name, ops)  # noqa: E731
    n = lambda name: counts.get(name, 0)  # noqa: E731
    lookups = n("node.flow_hits") + n("node.flow_misses")
    return {
        "sim.events_per_op": c("sim.events"),
        "sim.scheduled_per_op": c("sim.scheduled"),
        "sim.lane_share": ratio(n("sim.lane_scheduled"), n("sim.scheduled")),
        "sim.unexecuted_per_op": ratio(n("sim.scheduled") - n("sim.events"), ops),
        "sim.ns_per_event": iso_ns["sim.event"],
        "link.frames_per_op": c("link.frames"),
        "link.drops_per_op": ratio(n("link.medium_drops") + n("link.device_drops"), ops),
        "link.frames_per_burst": ratio(n("link.tx_burst_frames"), n("link.tx_bursts")),
        "link.ns_per_frame": iso_ns["link.frame"],
        "net.copies_per_op": c("net.copies"),
        "net.allocations_per_op": c("net.allocations"),
        "net.cow_breaks_per_op": c("net.cow_breaks"),
        "net.pool_acquires_per_op": c("net.pool_acquires"),
        "net.arena_refills_per_op": c("net.arena_refills"),
        "node.forwards_per_op": c("node.forwards"),
        "node.route_lookups_per_op": ratio(lookups, ops),
        "node.ingress_ns": iso_ns["node.ingress"],
        "node.route_lookup_ns": iso_ns["node.route_lookup"],
        "node.route_lookup_uncached_ns": iso_ns["node.route_lookup_uncached"],
        "node.flow_cache_hit_ratio": ratio(n("node.flow_hits"), lookups),
        "node.flow_cache_invalidations_per_op": c("node.flow_invalidations"),
        "node.arp_frames_per_op": c("node.arp_frames"),
        "mip.ha_requests_per_op": c("mip.ha_requests"),
        "mip.ha_accept_ratio": ratio(n("mip.ha_accepted"), n("mip.ha_requests")),
        "mip.ha_denied_per_op": c("mip.ha_denied"),
        "mip.client_retransmits_per_op": c("mip.client_retransmits"),
        "mip.reg_request_ns": iso_ns["mip.reg_request"],
        "mip.tunneled_per_op": c("mip.tunneled"),
        "mip.reverse_decaps_per_op": c("mip.reverse_decaps"),
        "mip.encap_ns": iso_ns["mip.encap"],
        "mip.decap_ns": iso_ns["mip.decap"],
        "check.generate_ms": mean_ms(by_name, "check.generate"),
        "topo.boot_ms": mean_ms(by_name, "topo.boot"),
        "check.scenario_ms": mean_ms(by_name, "check.scenario"),
        "check.teardown_ms": mean_ms(by_name, "check.teardown"),
        "check.oracle_checks_per_op": c("check.oracle_checks"),
        "topo.build_ms": mean_ms(by_name, "topo.build"),
        "mobility.ticks_per_op": c("mobility.ticks"),
        "fault.events_per_op": c("fault.events"),
        "repl.messages_per_op": c("repl.messages"),
        "dhcp.exchanges_per_op": c("dhcp.exchanges"),
        "trace.overhead_ratio": overhead_ratio,
        "trace.unexplained_share": unexplained_share,
    }


# Bases printed beside each ratio metric:
# (numerator count, counts summed into the denominator, base name).
RATIO_BASES = {
    "sim.lane_share": ("sim.lane_scheduled", ("sim.scheduled",), "events scheduled"),
    "link.frames_per_burst": ("link.tx_burst_frames", ("link.tx_bursts",), "device bursts"),
    "node.flow_cache_hit_ratio": ("node.flow_hits", ("node.flow_hits", "node.flow_misses"),
                                  "flow-cache lookups"),
    "mip.ha_accept_ratio": ("mip.ha_accepted", ("mip.ha_requests",), "HA requests"),
}


def ratio_line(name, counts):
    num_name, den_names, base = RATIO_BASES[name]
    den = sum(counts.get(n, 0) for n in den_names)
    return format_ratio(name, counts.get(num_name, 0), den, base)


def median(values):
    return statistics.median(values) if values else 0.0
