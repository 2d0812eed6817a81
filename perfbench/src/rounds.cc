#include "rounds.h"

#include <cmath>
#include <optional>

#include "tocttou/common/state_hash.h"
#include "tocttou/core/analysis.h"
#include "tocttou/core/round_run.h"
#include "tocttou/detect/detector.h"

namespace perfbench {

namespace core = tocttou::core;

namespace {

bool same_window(const core::WindowMeasurement& a,
                 const core::WindowMeasurement& b) {
  return a.window_found == b.window_found && a.window_open == b.window_open &&
         a.t3 == b.t3 && a.detected == b.detected && a.t1 == b.t1 &&
         a.d == b.d && a.laxity == b.laxity;
}

}  // namespace

core::RoundResult traced_round(const core::ScenarioConfig& rc,
                               core::RoundContext* ctx, SpanLog* log,
                               std::uint64_t group, RoundTiming* t,
                               std::vector<std::string>* mismatches) {
  const auto t0 = Clock::now();
  std::optional<core::RoundRun> run;
  run.emplace(rc, ctx);
  const auto t1 = Clock::now();
  while (run->step()) {
  }
  const auto t2 = Clock::now();
  core::RoundResult res = run->finish();
  const auto t3 = Clock::now();
  run.reset();
  const auto t4 = Clock::now();

  const int round = log->add("round", -1, group, t0, t4);
  log->add("core.stage", round, group, t0, t1);
  log->add("core.step", round, group, t1, t2);
  log->add("core.finish", round, group, t2, t3);
  ++t->rounds;
  t->events += res.events;
  t->journal_records += res.trace.journal.records().size();
  t->round_ns += ns_between(t0, t4);
  t->stage_ns += ns_between(t0, t1);
  t->step_ns += ns_between(t1, t2);
  t->finish_ns += ns_between(t2, t3);
  t->round_ms.push_back(static_cast<double>(ns_between(t0, t4)) * 1e-6);

  // Outside re-calls of the analysis finish() ran inside the round.
  if (rc.detect) {
    const auto a = Clock::now();
    const auto rep = tocttou::detect::analyze_round(res.sync, res.trace.journal);
    const auto b = Clock::now();
    log->add("detect.analyze", round, group, a, b);
    t->detect_ns += ns_between(a, b);
    if (rep.summary() != res.detect.summary()) {
      mismatches->push_back("detect::analyze_round re-call disagrees with "
                            "the round's report");
    }
  }
  if (res.window) {
    const auto a = Clock::now();
    const auto w = core::analyze_window(res.trace.journal, res.victim_pid,
                                        res.attacker_pid,
                                        core::window_spec_for(rc),
                                        core::d_convention_for(rc.victim));
    const auto b = Clock::now();
    log->add("core.analyze_window", round, group, a, b);
    t->window_ns += ns_between(a, b);
    if (!same_window(w, *res.window)) {
      mismatches->push_back("analyze_window re-call disagrees with the "
                            "round's window");
    }
  }
  return res;
}

ForkHashTimes probe_fork_hash(const core::ScenarioConfig& rc,
                              std::uint64_t at_event, SpanLog* log) {
  core::RoundRun base(rc);
  while (base.events_executed() < at_event && base.step()) {
  }
  // Repeat each probe for at least 0.2 s (and 3 samples), then take the
  // median: a fork of the 1024-tenant world takes ~0.2 s, one of the
  // up/vi state a few microseconds.
  const auto repeat = [&](const char* name, auto&& body) {
    std::vector<double> us;
    const auto start = Clock::now();
    while (us.size() < 3 ||
           (seconds_since(start) < 0.2 && us.size() < 5000)) {
      const auto [a, b] = body();
      log->add(name, -1, us.size(), a, b);
      us.push_back(static_cast<double>(ns_between(a, b)) * 1e-3);
    }
    return median(us);
  };
  ForkHashTimes out;
  out.fork_us = repeat("core.fork", [&] {
    const auto a = Clock::now();
    const core::RoundRun copy(base);
    const auto b = Clock::now();
    return std::pair{a, b};
  });
  out.hash_us = repeat("core.hash_state", [&] {
    const auto a = Clock::now();
    tocttou::StateHasher h;
    base.hash_state(h);
    const auto b = Clock::now();
    return std::pair{a, b};
  });
  return out;
}

void set_round_metrics(const RoundTiming& t, Result* r) {
  if (t.rounds == 0) return;
  const double n = static_cast<double>(t.rounds);
  auto& m = r->metrics;
  m["core.events_per_round"] = static_cast<double>(t.events) / n;
  m["core.step_ns_per_event"] =
      t.events == 0 ? 0.0
                    : static_cast<double>(t.step_ns) /
                          static_cast<double>(t.events);
  m["core.stage_us_per_round"] = static_cast<double>(t.stage_ns) / n * 1e-3;
  m["core.finish_us_per_round"] = static_cast<double>(t.finish_ns) / n * 1e-3;
  m["core.round_ms_p50"] = median(t.round_ms);
  // The tail is the highest percentile with at least ten rounds beyond
  // it (p50 when there are fewer than twenty rounds).
  const double pct =
      std::max(50.0, std::floor(1000.0 * (1.0 - 10.0 / n)) / 10.0);
  m["core.round_ms_tail"] = quantile(t.round_ms, pct / 100.0);
  m["core.round_ms_tail_pct"] = pct;
  m["core.span_coverage_pct"] =
      100.0 * static_cast<double>(t.stage_ns + t.step_ns + t.finish_ns) /
      static_cast<double>(t.round_ns);
  m["core.analyze_window_us_per_round"] =
      static_cast<double>(t.window_ns) / n * 1e-3;
  m["detect.analyze_us_per_round"] =
      static_cast<double>(t.detect_ns) / n * 1e-3;
  m["trace.journal_records_per_round"] =
      static_cast<double>(t.journal_records) / n;
}

void set_count_metrics(const tocttou::metrics::Registry& reg,
                       std::uint64_t rounds, Result* r) {
  if (rounds == 0) return;
  const double n = static_cast<double>(rounds);
  const auto per_round = [&](const char* counter) {
    return static_cast<double>(reg.counter(counter)) / n;
  };
  auto& m = r->metrics;
  m["sim.syscalls_per_round"] = per_round("kernel.syscalls");
  m["sim.stat_per_round"] = per_round("kernel.syscalls.stat");
  m["sim.processes_max"] =
      static_cast<double>(reg.gauge("kernel.processes_max"));
  m["sched.context_switches_per_round"] = per_round("sched.context_switches");
  m["sched.preemptions_per_round"] = per_round("sched.preemptions");
  const auto* walk = reg.histogram("fs.path_walk_components");
  m["fs.path_walk_components_per_round"] =
      walk == nullptr ? 0.0 : static_cast<double>(walk->sum()) / n;
}

}  // namespace perfbench
