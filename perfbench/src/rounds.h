// Round-level probes shared by the campaign and sweep workloads: one
// round driven through core::RoundRun with a span per lifecycle call,
// the fork/hash probe on a mid-round state, and the deterministic
// per-layer counts read from a metrics::Registry.
#pragma once

#include <cstdint>
#include <vector>

#include "perfbench.h"
#include "tocttou/core/harness.h"
#include "tocttou/metrics/metrics.h"

namespace perfbench {

/// Host time and work of the rounds a traced run drove.
struct RoundTiming {
  std::uint64_t rounds = 0;
  std::uint64_t events = 0;
  std::uint64_t journal_records = 0;
  std::int64_t round_ns = 0;
  std::int64_t stage_ns = 0;
  std::int64_t step_ns = 0;
  std::int64_t finish_ns = 0;
  std::int64_t detect_ns = 0;
  std::int64_t window_ns = 0;
  std::vector<double> round_ms;
};

/// Runs one round as construct / step() until done / finish(), with
/// spans round -> core.stage, core.step, core.finish. When the round
/// records a journal, analyze_window (and, with detect on,
/// detect::analyze_round) is then called again from outside on the
/// round's streams, each under its own span caused by the round; a
/// re-call that disagrees with the round's own report is appended to
/// `mismatches`.
tocttou::core::RoundResult traced_round(const tocttou::core::ScenarioConfig& rc,
                                        tocttou::core::RoundContext* ctx,
                                        SpanLog* log, std::uint64_t group,
                                        RoundTiming* t,
                                        std::vector<std::string>* mismatches);

/// Median host time of the RoundRun copy constructor (a checkpoint
/// fork) and of hash_state, on the state `rc` reaches after
/// `at_event` events.
struct ForkHashTimes {
  double fork_us = 0;
  double hash_us = 0;
};
ForkHashTimes probe_fork_hash(const tocttou::core::ScenarioConfig& rc,
                              std::uint64_t at_event, SpanLog* log);

/// Event index the fork/hash probe pauses at.
inline constexpr std::uint64_t kProbeEvent = 100;

/// core.*, detect.analyze_us_per_round and trace.* from `t`.
void set_round_metrics(const RoundTiming& t, Result* r);
/// sim.*, sched.* and fs.* per-round counts from a collect_metrics
/// registry that covers `rounds` rounds.
void set_count_metrics(const tocttou::metrics::Registry& m,
                       std::uint64_t rounds, Result* r);

}  // namespace perfbench
