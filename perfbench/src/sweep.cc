// The sweep workload: one exhaustive explore::explore() call on up/vi
// with 64 think buckets and preemption bound 5, checkpointing, state
// hashing and DPOR at their defaults.
#include <cstdio>
#include <string>

#include "perfbench.h"
#include "rounds.h"
#include "tocttou/core/harness.h"
#include "tocttou/explore/explorer.h"
#include "tocttou/programs/testbeds.h"

namespace perfbench {

namespace core = tocttou::core;
namespace explore = tocttou::explore;

namespace {

constexpr int kBuckets = 64;
constexpr int kBound = 5;
/// Set-up warms up on this many of the canonical policy rounds.
constexpr int kWarmupRounds = 8;

core::ScenarioConfig make_config(std::uint64_t seed) {
  core::ScenarioConfig cfg;
  cfg.profile = tocttou::programs::testbed_uniprocessor_xeon();
  cfg.victim = core::VictimKind::vi;
  cfg.attacker = core::AttackerKind::naive;
  cfg.file_bytes = 100 * 1024;
  cfg.seed = seed;
  return cfg;
}

explore::ExploreConfig make_explore_config() {
  explore::ExploreConfig e;
  e.mode = explore::ExploreMode::exhaustive;
  e.think_buckets = kBuckets;
  e.preemption_bound = kBound;
  e.jobs = explore_jobs();
  return e;
}

/// The canonical round of think bucket k: the config every explored
/// leaf starts from, with the bucket's midpoint think time.
core::ScenarioConfig policy_round(const core::ScenarioConfig& cfg, int k) {
  core::ScenarioConfig rc = explore::canonical_explore_config(cfg);
  rc.record_journal = true;
  const auto [lo, hi] = core::victim_think_range(rc);
  rc.victim_think = lo + (hi - lo) * (2 * k + 1) / (2 * kBuckets);
  return rc;
}

/// The determinism-contract fields of ExploreResult.
Fields outcome_of(const explore::ExploreResult& r) {
  char exact[64];
  std::snprintf(exact, sizeof exact, "%a", r.exact_success);
  return {{"schedules", std::to_string(r.schedules)},
          {"rounds", std::to_string(r.rounds_executed)},
          {"exact", exact},
          {"successes", std::to_string(r.successes)},
          {"witness", r.witness ? r.witness->serialize() : "-"},
          {"bound", std::to_string(r.bound_reached)},
          {"complete", r.complete ? "1" : "0"},
          {"quarantined", std::to_string(r.quarantined)},
          {"divergence_errors", std::to_string(r.divergence_errors)}};
}

/// explore.* counters that the determinism contract covers (all but the
/// thread-timing ones).
std::string contract_counters(const explore::ExploreResult& r) {
  std::string out;
  for (const auto& [name, v] : r.metrics.counters()) {
    if (name == "explore.steals" || name == "explore.ctx_reuses") continue;
    out += name + "=" + std::to_string(v) + ";";
  }
  return out;
}

/// Per-layer counts of the 64 canonical policy rounds (collect_metrics),
/// run twice.
tocttou::metrics::Registry policy_counts(const core::ScenarioConfig& cfg,
                                         std::vector<std::string>* mismatches) {
  tocttou::metrics::Registry a, b;
  core::RoundContext ctx;
  for (int k = 0; k < kBuckets; ++k) {
    core::ScenarioConfig rc = policy_round(cfg, k);
    rc.collect_metrics = true;
    a.merge(core::run_round(rc, &ctx).metrics);
    b.merge(core::run_round(rc, &ctx).metrics);
  }
  if (a.to_json() != b.to_json()) {
    mismatches->push_back("policy-round counts differ between two runs");
  }
  return a;
}

/// The set-up's warm-up: a few canonical policy rounds, spread over the
/// think range. Returns their simulated events, which the correctness
/// gate checks alongside the sweep's own outputs.
std::uint64_t warm_up(const core::ScenarioConfig& cfg) {
  std::uint64_t events = 0;
  core::RoundContext ctx;
  for (int k = 0; k < kWarmupRounds; ++k) {
    events +=
        core::run_round(policy_round(cfg, k * kBuckets / kWarmupRounds), &ctx)
            .events;
  }
  return events;
}

std::string counts_digest(const explore::ExploreResult& r,
                          const tocttou::metrics::Registry& policy) {
  return digest_hex(contract_counters(r) + policy.to_json());
}

}  // namespace

Result run_sweep_workload(const Run& run) {
  Result res;
  const explore::ExploreConfig ecfg = make_explore_config();
  res.notes.push_back(
      "scenario: testbed=up victim=vi attacker=naive file=100KB "
      "explore=exhaustive buckets=64 bound=5 checkpoint=on state_hash=on "
      "dpor=on explore_jobs=" +
      std::to_string(ecfg.jobs));

  // The witness token carries the seed; expectations store it as {seed}.
  const auto seed_free = [&](Fields f) {
    for (auto& [k, v] : f) {
      const std::string s = "seed=" + std::to_string(run.seed) + ":";
      const auto at = v.find(s);
      if (k == "witness" && at != std::string::npos) {
        v.replace(at, s.size(), "seed={seed}:");
      }
    }
    return f;
  };

  if (run.emit_expected) {
    const core::ScenarioConfig cfg = make_config(run.seed);
    const explore::ExploreResult r = explore::explore(cfg, ecfg);
    Fields f = seed_free(outcome_of(r));
    f.emplace_back("warmup_events", std::to_string(warm_up(cfg)));
    f.emplace_back("counts",
                   counts_digest(r, policy_counts(cfg, &res.mismatches)));
    res.expectation = fields_line("sweep_up_vi", "*", f);
    return res;
  }
  const Expectation expect =
      load_expectation(run.expected_path, "sweep_up_vi", run.seed);

  // Set-up: generate the config, then run the warm-up rounds.
  core::ScenarioConfig cfg;
  std::uint64_t warmup_events = 0;
  const auto setup = [&] {
    cfg = make_config(run.seed);
    warmup_events = warm_up(cfg);
  };

  Fields first;
  std::string first_counters;
  double exact_success = 0;
  std::vector<double> job_s;
  const auto record = [&](const explore::ExploreResult& r) {
    const Fields f = outcome_of(r);
    if (first.empty()) {
      first = f;
      first_counters = contract_counters(r);
      exact_success = r.exact_success;
    } else if (f != first || contract_counters(r) != first_counters) {
      res.mismatches.push_back("a sweep differs from the first sweep");
    }
    res.attempted += static_cast<std::uint64_t>(r.schedules);
    res.failed +=
        static_cast<std::uint64_t>(r.quarantined + r.divergence_errors);
  };

  if (!run.trace) {
    const Timings t = time_jobs(run.seconds, setup,
                                [&] { record(explore::explore(cfg, ecfg)); });
    set_end_to_end(t, static_cast<double>(res.attempted) /
                          static_cast<double>(t.job_s.size()),
                   &res);
  } else {
    // Traced run: alternate an untraced sweep with one whose should_stop
    // poll, called once per reduction batch, stamps the batch spans.
    SpanLog log;
    std::vector<double> traced_s, batch_ms, cpu_per_wall;
    std::uint64_t batches = 0;
    explore::ExploreResult last;
    setup();
    const auto t_start = Clock::now();
    do {
      auto t0 = Clock::now();
      record(explore::explore(cfg, ecfg));
      job_s.push_back(seconds_since(t0));

      explore::ExploreConfig traced = ecfg;
      std::vector<Clock::time_point> polls;
      traced.should_stop = [&polls] {
        polls.push_back(Clock::now());
        return false;
      };
      const double c0 = process_cpu_s();
      t0 = Clock::now();
      last = explore::explore(cfg, traced);
      const auto t1 = Clock::now();
      const double wall = static_cast<double>(ns_between(t0, t1)) * 1e-9;
      traced_s.push_back(wall);
      cpu_per_wall.push_back((process_cpu_s() - c0) / wall);
      record(last);
      const auto group = static_cast<std::uint64_t>(traced_s.size());
      const int sweep = log.add("explore", -1, group, t0, t1);
      auto prev = t0;
      for (const auto& p : polls) {
        log.add("explore.batch", sweep, group, prev, p);
        batch_ms.push_back(static_cast<double>(ns_between(prev, p)) * 1e-6);
        prev = p;
      }
      batches = polls.size();
    } while (seconds_since(t_start) < run.seconds);

    const auto counter = [&](const char* name) {
      return static_cast<double>(last.metrics.counter(name));
    };
    auto& m = res.metrics;
    m["explore.rounds_executed"] = last.rounds_executed;
    m["explore.schedules"] = last.schedules;
    m["explore.leaves_executed"] = counter("explore.leaves_executed");
    m["explore.hash_merges"] = counter("explore.hash_merges");
    m["explore.forks"] = counter("explore.forks");
    m["explore.cache_hits"] = counter("explore.cache_hits");
    m["explore.degraded_groups"] = counter("explore.degraded_groups");
    m["explore.useful_share"] =
        static_cast<double>(last.schedules) / last.rounds_executed;
    m["explore.batches"] = static_cast<double>(batches);
    m["explore.batch_ms_p50"] = median(batch_ms);
    m["explore.cpu_per_wall"] = median(cpu_per_wall);
    m["perfbench.trace_overhead_pct"] =
        100.0 * (quantile(traced_s, 0.0) / quantile(job_s, 0.0) - 1.0);

    // Per-event cost of the sweep's own scenario: the 64 canonical
    // policy rounds driven through RoundRun.
    RoundTiming timing;
    core::RoundContext ctx;
    for (int k = 0; k < kBuckets; ++k) {
      traced_round(policy_round(cfg, k), &ctx, &log,
                   1000000 + static_cast<unsigned>(k), &timing,
                   &res.mismatches);
    }
    set_round_metrics(timing, &res);
    const tocttou::metrics::Registry counts = policy_counts(cfg, &res.mismatches);
    set_count_metrics(counts, kBuckets, &res);
    const ForkHashTimes fh =
        probe_fork_hash(policy_round(cfg, 0), kProbeEvent, &log);
    m["core.fork_us"] = fh.fork_us;
    m["core.hash_us"] = fh.hash_us;
    check_expectation({{"counts", counts_digest(last, counts)}}, expect,
                      run.seed, &res.mismatches);

    for (std::string& line : log.self_time_table()) {
      res.notes.push_back(std::move(line));
    }
    if (!run.spans_path.empty() && !log.write(run.spans_path)) {
      res.notes.push_back("warning: could not write spans to " +
                          run.spans_path);
    }
  }

  // Correctness gate: the determinism-contract fields of every sweep and
  // the warm-up rounds' events against the committed expectation.
  first.emplace_back("warmup_events", std::to_string(warmup_events));
  check_expectation(first, expect, run.seed, &res.mismatches);
  if (!expect.found) {
    res.mismatches.push_back("no committed expectation for sweep_up_vi");
  }
  res.notes.push_back("expectations: committed line " + expect.key);
  res.notes.push_back("accuracy: exact p(success) = " +
                      std::to_string(exact_success) +
                      "; paper: no reference (unvalidated)");
  return res;
}

}  // namespace perfbench
