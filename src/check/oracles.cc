#include "src/check/oracles.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/mip/reg_load.h"

namespace msn {
namespace {

// Margins around spec events inside which probe loss is explainable.
constexpr Duration kPreEventMargin = Seconds(1);
constexpr Duration kPostMoveMargin = Seconds(8);
constexpr Duration kPostFaultMargin = Seconds(3);
// A probe only counts as provably lost if it was sent this deep inside a
// quiet stretch (entry margin covers losses decided just before the stretch;
// exit margin covers round trips still in flight when it ends).
constexpr Duration kQuietEntryMargin = Seconds(1);
constexpr Duration kQuietExitMargin = Milliseconds(2500);

// coverage-continuity thresholds (in OracleSuite::kTickInterval ticks): some
// cell must have been cleanly covering continuously for this long...
constexpr int kCoveredStreakTicks = 40;  // 20 s.
// ...while the MH was unable to communicate for this long, before the broken
// handoff loop is called. Generous: a cold switch plus registration plus the
// detector's hysteresis and residency guard all fit several times over.
constexpr int kDisconnectedStreakTicks = 24;  // 12 s.
constexpr double kDeepCoverageLoss = 0.02;

std::string FormatMs(Duration d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64 "ms", d.millis());
  return buf;
}

// The last instant a fault event can still affect the run: the window end for
// timed faults, the event time for instantaneous ones. A profile's influence
// lasts until its clear, which is its own event in the list.
Duration FaultEffectEnd(const FaultEventSpec& f) {
  switch (f.kind) {
    case FaultEventSpec::Kind::kBlackout:
    case FaultEventSpec::Kind::kHaOutage:
      return f.at + f.length;
    case FaultEventSpec::Kind::kHaCrash:
      // Rejoin crash: the rejoin (resync, demotion) is the last disturbance.
      // Permanent crash: the disturbance ends once the backup has taken over
      // and the MH has failed over to it — bounded by the takeover timeout
      // plus the MH's renewal-escalation window.
      return f.length.nanos() > 0 ? f.at + f.length : f.at + Seconds(8);
    case FaultEventSpec::Kind::kProfile:
    case FaultEventSpec::Kind::kClearProfile:
      return f.at;
  }
  return f.at;
}

bool ProfileActive(const FaultInjector* injector) {
  if (injector == nullptr) {
    return false;
  }
  const FaultProfile& p = injector->profile();
  return p.burst_loss.has_value() || p.duplicate_probability > 0.0 ||
         p.reorder_probability > 0.0 || p.corrupt_probability > 0.0;
}

bool SpecInjectsDuplicates(const ScenarioSpec& spec) {
  for (const FaultEventSpec& f : spec.faults) {
    if (f.kind == FaultEventSpec::Kind::kProfile && f.duplicate_probability > 0.0) {
      return true;
    }
  }
  return false;
}

}  // namespace

void OracleReport::Add(const std::string& oracle, const std::string& detail) {
  Violation& v = violations[oracle];
  if (v.count == 0) {
    v.detail = detail;
  }
  ++v.count;
}

std::string OracleReport::ToString() const {
  std::string out;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "oracle checks: %" PRIu64 "\n", checks);
  out += buf;
  if (violations.empty()) {
    out += "violations: none\n";
    return out;
  }
  std::snprintf(buf, sizeof(buf), "violations: %zu\n", violations.size());
  out += buf;
  for (const auto& [oracle, v] : violations) {
    std::snprintf(buf, sizeof(buf), "  [%" PRIu64 "x] ", v.count);
    out += buf;
    out += oracle;
    out += ": ";
    out += v.detail;
    out += '\n';
  }
  return out;
}

bool SettlesCleanly(const ScenarioSpec& spec) {
  if (spec.mobility.enabled) {
    // Motion never stops, so no terminal state is promised: the host may end
    // the run mid-handoff at a cell edge.
    return false;
  }
  Duration last_fault_end;
  for (const FaultEventSpec& f : spec.faults) {
    last_fault_end = std::max(last_fault_end, FaultEffectEnd(f));
  }
  if (spec.moves.empty()) {
    // Nothing ever moves the host off its home network; the at-home terminal
    // state only needs the faults to be over by the end.
    return last_fault_end + Seconds(1) <= spec.duration;
  }
  const Duration last_move = spec.moves.back().at;
  return last_move >= last_fault_end + Seconds(1) &&
         spec.duration >= last_move + Seconds(10);
}

OracleSuite::OracleSuite(Testbed& testbed, const ScenarioSpec& spec,
                         const TrafficHarness& traffic, Media media)
    : tb_(testbed), spec_(spec), traffic_(traffic), media_(media) {
  settles_ = SettlesCleanly(spec_);
  for (const MoveEventSpec& m : spec_.moves) {
    noisy_.push_back({m.at - kPreEventMargin, m.at + kPostMoveMargin});
  }
  for (const FaultEventSpec& f : spec_.faults) {
    noisy_.push_back({f.at - kPreEventMargin, FaultEffectEnd(f) + kPostFaultMargin});
  }
  // Profiles stay active from install to clear; cover the whole span, not
  // just the endpoints (which the loop above already added).
  Duration profile_start[3] = {};
  bool profile_on[3] = {false, false, false};
  for (const FaultEventSpec& f : spec_.faults) {
    const size_t m = static_cast<size_t>(f.medium);
    if (f.kind == FaultEventSpec::Kind::kProfile && !profile_on[m]) {
      profile_on[m] = true;
      profile_start[m] = f.at;
    } else if (f.kind == FaultEventSpec::Kind::kClearProfile && profile_on[m]) {
      profile_on[m] = false;
      noisy_.push_back({profile_start[m] - kPreEventMargin, f.at + kPostFaultMargin});
    }
  }
  for (size_t m = 0; m < 3; ++m) {
    if (profile_on[m]) {  // Unpaired profile: noisy until the end.
      noisy_.push_back({profile_start[m] - kPreEventMargin, spec_.duration});
    }
  }
  if (spec_.overload.enabled) {
    // The registration burst plus the shed clients' capped backoff (8 s):
    // while the fleet converges, the MH's own control traffic may be shed
    // too, so probe loss in this span is explainable.
    noisy_.push_back({spec_.overload.start - kPreEventMargin,
                      spec_.overload.start + spec_.overload.window + Seconds(10)});
  }
  std::sort(noisy_.begin(), noisy_.end(),
            [](const NoisyWindow& a, const NoisyWindow& b) { return a.from < b.from; });

  // The agents' exported bindings gauges exist from construction on, so
  // they are resolved here once rather than by name on every tick.
  const auto watch = [this](std::string name) {
    const Gauge* gauge = tb_.metrics.FindGauge(name);
    return WatchedGauge{std::move(name), gauge};
  };
  for (const HomeAgent* agent : {tb_.home_agent.get(), tb_.backup_agent.get()}) {
    if (agent == nullptr) {
      continue;
    }
    AgentGauges& g = agents_.emplace_back();
    g.agent = agent;
    const std::string& prefix = agent->config().metric_prefix;
    g.bindings = watch(prefix + "bindings");
    for (size_t s = 0; s < agent->shard_count(); ++s) {
      g.shard_bindings.push_back(watch(prefix + "shard." + std::to_string(s) + ".bindings"));
    }
  }
}

void OracleSuite::Begin() { start_ = tb_.sim.Now(); }

bool OracleSuite::InNoisyWindow(Duration offset) const {
  for (const NoisyWindow& w : noisy_) {
    if (w.from > offset) {
      break;
    }
    if (offset < w.to) {
      return true;
    }
  }
  return false;
}

bool OracleSuite::QuietNow() const {
  if (spec_.mobility.enabled) {
    return false;  // Distance-derived loss can strike at any instant.
  }
  const MobileHost& mh = *tb_.mobile;
  if (tb_.ServingAgentCount() != 1) {
    return false;  // Failover in flight: zero (or two) agents serving.
  }
  const HomeAgent& ha = *tb_.ServingAgent();
  switch (mh.state()) {
    case MobileHost::State::kRegistered: {
      if (mh.active_home_agent() != ha.config().address) {
        return false;  // MH has not switched to the serving agent yet.
      }
      const auto binding = ha.GetBinding(Testbed::HomeAddress());
      if (!binding.has_value() || binding->care_of != mh.care_of()) {
        return false;  // Mid-renewal divergence; probes may black-hole.
      }
      break;
    }
    case MobileHost::State::kAtHome:
      if (ha.HasBinding(Testbed::HomeAddress())) {
        return false;  // Stale binding still diverts traffic.
      }
      break;
    default:
      return false;
  }
  if (mh.attachment().device == tb_.mh_radio) {
    return false;  // The radio has baseline loss; probes may legitimately die.
  }
  for (const FaultInjector* injector : {media_.home, media_.wired, media_.radio}) {
    if (injector != nullptr && injector->blackout_active()) {
      return false;
    }
    if (ProfileActive(injector)) {
      return false;
    }
  }
  if (!ha.service_available()) {
    return false;
  }
  return !InNoisyWindow(tb_.sim.Now() - start_);
}

void OracleSuite::CloseQuietStretch(Time end) {
  if (quiet_since_.has_value()) {
    quiet_stretches_.emplace_back(*quiet_since_, end);
    quiet_since_.reset();
  }
}

void OracleSuite::OnTick() {
  const Time now = tb_.sim.Now();
  const HomeAgent& ha = *tb_.home_agent;

  // ttl-loop: a routing/forwarding loop anywhere shows up as TTL-expired
  // drops on some stack. The walk reads the live registry, so a stack that
  // registers mid-run is covered too.
  ++report_.checks;
  tb_.metrics.ForEachScalar("ip.", [&](const std::string& name, double value) {
    if (value > 0 && name.ends_with(".drop_ttl")) {
      report_.Add("ttl-loop", name + " = " + FormatMetricValue(value) + " at " +
                                  FormatMs(now - start_));
    }
  });

  // binding-table: one mobile host (plus, on overload runs, at most one
  // binding per fleet client) => each agent's table is bounded, and every
  // exported bindings gauge tracks its agent's table exactly.
  ++report_.checks;
  const size_t max_bindings =
      1 + (spec_.overload.enabled ? spec_.overload.clients : 0);
  for (const AgentGauges& g : agents_) {
    if (g.agent->binding_count() > max_bindings) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%zu bindings for %zu registrant(s)",
                    g.agent->binding_count(), max_bindings);
      report_.Add("binding-table", buf);
    }
    CheckGauge("binding-table", g.bindings, g.agent->binding_count(), "binding table size");
  }

  ShardOracles();

  // split-brain (live): outside noisy windows at most one agent may serve the
  // home binding. Mid-fault a promoted backup is allowed to race the failing
  // primary; the post-fault margin covers the demotion converging.
  if (tb_.backup_agent != nullptr) {
    ++report_.checks;
    if (tb_.ServingAgentCount() > 1 && !InNoisyWindow(now - start_)) {
      report_.Add("split-brain",
                  "both home agents serving at " + FormatMs(now - start_));
    }
  }

  // stale-tunnel: once the run has settled at home (deregistered, quiet), no
  // agent may tunnel another packet.
  if (settles_ && spec_.ExpectsAtHomeTerminal() && !spec_.moves.empty() &&
      now - start_ >= spec_.moves.back().at + Seconds(5)) {
    ++report_.checks;
    uint64_t tunneled = ha.counters().packets_tunneled;
    if (tb_.backup_agent != nullptr) {
      tunneled += tb_.backup_agent->counters().packets_tunneled;
    }
    if (!stale_tunnel_marker_.has_value()) {
      stale_tunnel_marker_ = tunneled;
    } else if (tunneled > *stale_tunnel_marker_) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "HA tunneled %" PRIu64 " packet(s) after the MH settled at home",
                    tunneled - *stale_tunnel_marker_);
      report_.Add("stale-tunnel", buf);
    }
  }

  // coverage-continuity (mobility runs): the MH may transiently disconnect in
  // a coverage hole or mid-handoff, but while some cell has offered clean
  // coverage continuously, a long communication outage means the
  // signal-driven handoff loop is broken (detector stuck, ping-pong guard
  // wedged, association never happening).
  if (mobility_ != nullptr) {
    ++report_.checks;
    covered_ticks_ = mobility_->AnyDeepCoverage(kDeepCoverageLoss) ? covered_ticks_ + 1 : 0;
    const MobileHost::State mh_state = tb_.mobile->state();
    const bool connected = mh_state == MobileHost::State::kRegistered ||
                           mh_state == MobileHost::State::kAtHome;
    disconnected_ticks_ = connected ? 0 : disconnected_ticks_ + 1;
    if (covered_ticks_ >= kCoveredStreakTicks &&
        disconnected_ticks_ >= kDisconnectedStreakTicks) {
      report_.Add("coverage-continuity",
                  "MH unregistered for " +
                      FormatMs(Milliseconds(kTickInterval.millis() * disconnected_ticks_)) +
                      " despite continuous cell coverage, at " + FormatMs(now - start_));
    }
  }

  // Quiet-interval bookkeeping for the probe-conservation oracle.
  if (QuietNow()) {
    if (!quiet_since_.has_value()) {
      quiet_since_ = now;
    }
  } else {
    CloseQuietStretch(now - kTickInterval);
  }
}

void OracleSuite::ShardOracles() {
  // shard-consistency: the sharded table's internal invariants (every binding
  // and queued request in the shard its home hashes to, queue indexes in step
  // with queues) hold at every instant, and each shard's bindings gauge
  // agrees with its table. Unconditional — no fault or movement can excuse a
  // broken shard map.
  ++report_.checks;
  for (const AgentGauges& g : agents_) {
    if (std::string err = g.agent->ShardConsistencyError(); !err.empty()) {
      report_.Add("shard-consistency", err);
    }
    for (size_t s = 0; s < g.shard_bindings.size(); ++s) {
      CheckGauge("shard-consistency", g.shard_bindings[s], g.agent->ShardBindingCount(s),
                 "shard table size");
    }
  }
}

void OracleSuite::CheckGauge(const char* oracle, const WatchedGauge& watched, size_t table_size,
                             const char* table) {
  if (watched.gauge == nullptr) {
    return;  // Not exported under this name; nothing to cross-check.
  }
  if (const double value = watched.gauge->value(); value != static_cast<double>(table_size)) {
    report_.Add(oracle, watched.name + " gauge " + FormatMetricValue(value) + " != " + table);
  }
}

void OracleSuite::CheckQuietProbeLoss() {
  if (!spec_.traffic.probes) {
    return;
  }
  ++report_.checks;
  const auto& records = traffic_.probes().records();
  for (const auto& [from, to] : quiet_stretches_) {
    const Time lo = from + kQuietEntryMargin;
    const Time hi = to - kQuietExitMargin;
    if (hi <= lo) {
      continue;
    }
    for (uint32_t seq = 0; seq < records.size(); ++seq) {
      const ProbeSender::ProbeRecord& rec = records[seq];
      if (rec.sent_at < lo || rec.sent_at >= hi) {
        continue;
      }
      if (!rec.echoed_at.has_value()) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "probe #%u sent at %s in a quiet interval never echoed",
                      seq, FormatMs(rec.sent_at - start_).c_str());
        report_.Add("probe-conservation", buf);
      }
    }
  }
}

void OracleSuite::FinalStateOracles() {
  if (!settles_) {
    return;
  }
  const MobileHost& mh = *tb_.mobile;
  // Replicated runs judge terminal state against whichever agent ended up
  // serving; a permanently crashed primary's frozen table is not consulted.
  const HomeAgent& ha = *tb_.ServingAgent();
  const bool expect_home = spec_.ExpectsAtHomeTerminal();

  ++report_.checks;
  if (expect_home) {
    if (mh.state() != MobileHost::State::kAtHome) {
      report_.Add("registration-liveness",
                  "scenario settles at home but the MH never re-attached there");
    }
    for (const HomeAgent* agent : {tb_.home_agent.get(), tb_.backup_agent.get()}) {
      if (agent == nullptr || agent->crashed()) {
        continue;  // RAM died with the host; its table is not authoritative.
      }
      if (agent->HasBinding(Testbed::HomeAddress())) {
        report_.Add("binding-agreement", "MH is home but the HA still holds a binding");
      }
    }
  } else {
    if (mh.state() != MobileHost::State::kRegistered) {
      report_.Add("registration-liveness",
                  "scenario settles on a foreign net but the MH is not registered");
    } else {
      const auto binding = ha.GetBinding(Testbed::HomeAddress());
      if (!binding.has_value()) {
        report_.Add("binding-agreement", "MH believes it is registered but the HA has no binding");
      } else if (binding->care_of != mh.care_of()) {
        report_.Add("binding-agreement", "HA binding care-of " + binding->care_of.ToString() +
                                             " != MH care-of " + mh.care_of().ToString());
      }
    }
  }
}

void OracleSuite::TrafficOracles() {
  // Probe ledger: every probe sent is either echoed or lost — no
  // double-counted echoes.
  if (spec_.traffic.probes) {
    ++report_.checks;
    const ProbeSender& probes = traffic_.probes();
    if (probes.received() + probes.TotalLost() != probes.sent()) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "probe ledger: sent %" PRIu64 " != echoed %" PRIu64 " + lost %" PRIu64,
                    probes.sent(), probes.received(), probes.TotalLost());
      report_.Add("probe-conservation", buf);
    }
  }
  CheckQuietProbeLoss();

  if (spec_.traffic.tcp) {
    ++report_.checks;
    const TrafficHarness::TcpStats& tcp = traffic_.tcp();
    if (tcp.connect_failed) {
      report_.Add("tcp-delivery", "TCP-lite connect was reset (listener existed)");
    }
    if (!tcp.pattern_ok) {
      report_.Add("tcp-delivery",
                  "received byte stream diverged from the pattern (reorder/dup/loss)");
    }
    if (tcp.server_closed && tcp.server_received != spec_.traffic.tcp_bytes) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "FIN delivered after %" PRIu64 " of %u bytes", tcp.server_received,
                    spec_.traffic.tcp_bytes);
      report_.Add("tcp-delivery", buf);
    }
    if (settles_ && !tcp.server_closed) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "transfer never completed in a settling run (%" PRIu64 " of %u bytes)",
                    tcp.server_received, spec_.traffic.tcp_bytes);
      report_.Add("tcp-delivery", buf);
    }
  }

  // mpt-fallback: the triangle probe must leave a verified policy matching
  // its outcome, and a transit filter defeats the triangle route whenever the
  // probe has to cross it. The filter sits on the router's eth8/radio134
  // ingress, so a wired MH probing the internal CH (both on net-36.8) never
  // traverses it and may legitimately succeed.
  const TrafficHarness::TriangleResult& tri = traffic_.triangle();
  if (tri.fired) {
    ++report_.checks;
    const bool filter_on_path =
        spec_.transit_filter && (tri.on_radio || spec_.external_ch);
    if (!tri.done) {
      if (spec_.traffic.triangle_at + Seconds(4) <= spec_.duration) {
        report_.Add("mpt-fallback", "triangle probe callback never resolved");
      }
    } else {
      if (filter_on_path && tri.ok) {
        report_.Add("mpt-fallback", "triangle probe succeeded through a transit filter");
      }
      if (tri.ok && tri.policy_after != MobilePolicy::kTriangle) {
        report_.Add("mpt-fallback", std::string("successful probe left policy ") +
                                        MobilePolicyName(tri.policy_after));
      }
      if (!tri.ok && tri.policy_after != MobilePolicy::kTunnelHome) {
        report_.Add("mpt-fallback", std::string("failed probe did not fall back to tunneling: ") +
                                        MobilePolicyName(tri.policy_after));
      }
      if (!tri.ok && !filter_on_path && !tri.on_radio && spec_.faults.empty()) {
        report_.Add("mpt-fallback", "triangle probe failed with no filter and no faults");
      }
    }
  }
}

void OracleSuite::CounterOracles() {
  const MobileHost::Counters mh = tb_.mobile->counters();
  // Replicated runs account the pair as one logical HA: the MH's view must be
  // consistent with the sum of whatever both agents did across failovers.
  HomeAgent::Counters ha = tb_.home_agent->counters();
  if (tb_.backup_agent != nullptr) {
    const HomeAgent::Counters backup = tb_.backup_agent->counters();
    ha.registrations_accepted += backup.registrations_accepted;
    ha.packets_tunneled += backup.packets_tunneled;
    ha.reverse_decapsulated += backup.reverse_decapsulated;
  }

  ++report_.checks;
  if (mh.recoveries > mh.bindings_lost) {
    report_.Add("counter-consistency", "mh.recoveries > mh.bindings_lost");
  }
  // Frame duplication can replay registration traffic, which legitimately
  // perturbs the packet-count relations below; only assert them when the
  // scenario injected none.
  if (!SpecInjectsDuplicates(spec_)) {
    if (mh.registrations_accepted > ha.registrations_accepted) {
      report_.Add("counter-consistency",
                  "MH saw more accepted registrations than the HA issued");
    }
    if (mh.packets_decapsulated_in > ha.packets_tunneled) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "MH decapsulated %" PRIu64 " but HA only tunneled %" PRIu64,
                    mh.packets_decapsulated_in, ha.packets_tunneled);
      report_.Add("counter-consistency", buf);
    }
    if (ha.reverse_decapsulated > mh.packets_tunneled_out) {
      report_.Add("counter-consistency",
                  "HA reverse-decapsulated more than the MH reverse-tunneled");
    }
  }
}

void OracleSuite::FleetOracles() {
  if (fleet_ == nullptr || !settles_) {
    return;
  }
  const RegistrationLoadGenerator::Stats& stats = fleet_->stats();
  const uint64_t terminal = stats.accepted + stats.gave_up + stats.denied_other;

  // Ledger: by the settling window every client has converged — accepted, or
  // (only explicably) given up or terminally denied. A shortfall means some
  // client is wedged mid-backoff: a stuck shard queue or a lost-forever
  // registration, i.e. the admission path broke convergence.
  ++report_.checks;
  if (terminal != fleet_->client_count()) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "fleet ledger: %" PRIu64 " of %u clients terminal "
                  "(%" PRIu64 " accepted, %" PRIu64 " gave up, %" PRIu64 " denied)",
                  terminal, fleet_->client_count(), stats.accepted, stats.gave_up,
                  stats.denied_other);
    report_.Add("fleet-convergence", buf);
  }
  // Without faults every request is answered — accepted or admission-denied,
  // neither of which consumes the retransmit budget. The silent-drop path can
  // eat a few timeouts during the burst, but nowhere near the whole budget.
  if (spec_.faults.empty() && stats.gave_up > 0) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "%" PRIu64 " client(s) gave up with no faults scheduled", stats.gave_up);
    report_.Add("fleet-convergence", buf);
  }
  // Fresh identifications per send mean the HA never sees a replayed id unless
  // the scenario duplicates frames; any other terminal denial is a bug.
  if (!SpecInjectsDuplicates(spec_) && stats.denied_other > 0) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "%" PRIu64 " client(s) terminally denied without duplicate injection",
                  stats.denied_other);
    report_.Add("fleet-convergence", buf);
  }
}

void OracleSuite::Finish() {
  OnTick();  // One last live sample at the final instant.
  CloseQuietStretch(tb_.sim.Now());
  FinalStateOracles();
  TrafficOracles();
  CounterOracles();
  FleetOracles();

  // split-brain (per-epoch ledger): tunnel traffic for the home binding must
  // have come from exactly one agent in each epoch — even across partitions
  // and takeovers, where instantaneous dual-serving is transiently allowed.
  if (tb_.backup_agent != nullptr) {
    ++report_.checks;
    std::map<uint64_t, int> tunnel_sources;
    for (const HomeAgent* agent : {tb_.home_agent.get(), tb_.backup_agent.get()}) {
      for (const auto& [epoch, count] : agent->tunneled_by_epoch()) {
        if (count > 0) {
          ++tunnel_sources[epoch];
        }
      }
    }
    for (const auto& [epoch, sources] : tunnel_sources) {
      if (sources > 1) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "epoch %" PRIu64 " saw tunnel traffic from both home agents", epoch);
        report_.Add("split-brain", buf);
      }
    }
  }

  tb_.metrics.GetCounter("check.oracle_checks").Add(report_.checks);
  uint64_t total = 0;
  for (const auto& [oracle, v] : report_.violations) {
    total += v.count;
  }
  tb_.metrics.GetCounter("check.violations").Add(total);
}

}  // namespace msn
