/**
 * @file
 * Replay-cache benchmark and accuracy gate: the committed MLP-6
 * continuous-batching trace (fixed-seed Poisson, 24 requests, mean
 * inter-arrival 20us, max_batch 8, in_flight 2 — the same workload as
 * bench_serving's continuous leg) run three ways:
 *
 *  - detailed: replay off, the reference;
 *  - record:   full detail + profile recording into a shared
 *              ReplayCache.  Recording must not perturb execution, so
 *              every integer counter and latency percentile is
 *              compared exactly against the detailed leg;
 *  - replay:   the warmed cache; repeated layer kernels complete as
 *              coarse timeline events.  Its wall time is the median of
 *              9 identical repeats.
 *
 * Hard gates (always on):
 *  - record leg integer-identical to detailed (counters + percentiles);
 *  - replay leg instruction/HMMA totals exactly equal to detailed
 *    (profile counters are shape-deterministic);
 *  - replay leg serve.* latency percentiles (p50/p95/p99/p99.9 and
 *    the configurable p90) within TCSIM_REPLAY_ERR (default 2%) of
 *    detailed;
 *  - the replay leg actually replays (hits > 0).
 *
 * Wall-time gate: the replay leg must be >= TCSIM_REPLAY_MIN times
 * faster than detailed (default 3.0; set 0 to disable on noisy CI
 * hosts — the emitted wall metrics still chart the trajectory).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "driver/scenario.h"
#include "model/model_graph.h"
#include "serve/serving_engine.h"
#include "sim/replay/replay_cache.h"

using namespace tcsim;
using namespace tcsim::serve;

namespace {

model::ModelGraph
mlp6()
{
    model::ModelGraph g;
    g.name = "mlp6";
    g.tokens_per_request = 16;
    g.input_features = 256;
    for (int i = 1; i <= 6; ++i) {
        model::LayerSpec l;
        l.kind = model::LayerKind::kLinear;
        l.name = "fc" + std::to_string(i);
        l.out_features = 256;
        g.layers.push_back(l);
    }
    return g;
}

struct Leg
{
    std::string label;
    ServingReport rep;
    EngineStats totals;
    double wall_ms = 0;
};

Leg
run_leg(const std::string& label, const GpuConfig& cfg,
        const SimOptions& sim)
{
    model::ModelGraph graph = mlp6();
    std::vector<Request> trace = poisson_trace(
        2024, 96,
        static_cast<double>(driver::us_to_cycles(20.0, cfg.clock_ghz)));
    ContinuousBatcher policy(8, 2);
    bench::Timer t;
    ServingResult res =
        run_serving(cfg, sim, graph, trace, policy, {90.0});
    Leg leg;
    leg.label = label;
    leg.rep = res.report;
    leg.totals = res.totals;
    leg.wall_ms = t.ms();
    return leg;
}

/** The gated latency percentiles of one leg, in a fixed order. */
std::vector<std::pair<std::string, uint64_t>>
percentiles(const Leg& leg)
{
    std::vector<std::pair<std::string, uint64_t>> out = {
        {"p50", leg.rep.latency.latency_p50},
        {"p95", leg.rep.latency.latency_p95},
        {"p99", leg.rep.latency.latency_p99},
        {"p99.9", leg.rep.latency.latency_p999},
    };
    for (const auto& [pct, v] : leg.rep.latency.latency_extra) {
        char name[32];
        std::snprintf(name, sizeof(name), "p%g", pct);
        out.emplace_back(name, v);
    }
    return out;
}

}  // namespace

int
main()
{
    std::printf("Replay cache: detailed vs record vs replay on the "
                "MLP-6 continuous-batching trace\n\n");

    GpuConfig cfg = bench::titan_v_slice(8);
    ReplayCache cache;

    SimOptions detailed_sim;
    Leg detailed = run_leg("detailed", cfg, detailed_sim);

    SimOptions record_sim;
    record_sim.replay_mode = SimOptions::ReplayMode::kRecord;
    record_sim.replay_cache = &cache;
    Leg record = run_leg("record", cfg, record_sim);

    // The warm replay takes milliseconds, so one run's wall time is
    // mostly scheduler noise: report the median of several repeats.
    // Hits leave the cache unchanged, so every repeat is identical.
    SimOptions replay_sim;
    replay_sim.replay_mode = SimOptions::ReplayMode::kReplay;
    replay_sim.replay_cache = &cache;
    constexpr int kReplayRepeats = 9;
    std::vector<Leg> replays;
    for (int i = 0; i < kReplayRepeats; ++i)
        replays.push_back(run_leg("replay (warm cache)", cfg, replay_sim));
    std::sort(replays.begin(), replays.end(),
              [](const Leg& a, const Leg& b) { return a.wall_ms < b.wall_ms; });
    Leg replay = replays[kReplayRepeats / 2];

    TextTable tbl;
    tbl.set_header({"leg", "p50", "p99", "p99.9", "instructions",
                    "hits", "wall ms"});
    for (const Leg* leg : {&detailed, &record, &replay}) {
        tbl.add_row({leg->label,
                     std::to_string(leg->rep.latency.latency_p50),
                     std::to_string(leg->rep.latency.latency_p99),
                     std::to_string(leg->rep.latency.latency_p999),
                     std::to_string(leg->totals.instructions),
                     std::to_string(leg->totals.replay_hits),
                     fmt_double(leg->wall_ms, 1)});
    }
    bench::print_table(tbl);

    int failures = 0;

    // Recording must not perturb execution: every counter and
    // percentile of the record leg matches detailed exactly.
    auto exact = [&](const char* what, uint64_t want, uint64_t got) {
        if (want == got)
            return;
        std::fprintf(stderr, "FAIL: %s: detailed %llu vs %llu\n", what,
                     static_cast<unsigned long long>(want),
                     static_cast<unsigned long long>(got));
        ++failures;
    };
    exact("record instructions", detailed.totals.instructions,
          record.totals.instructions);
    exact("record hmma", detailed.totals.hmma_instructions,
          record.totals.hmma_instructions);
    auto dp = percentiles(detailed);
    auto rp = percentiles(record);
    for (size_t i = 0; i < dp.size(); ++i)
        exact(("record latency " + rp[i].first).c_str(), dp[i].second,
              rp[i].second);

    // Profile counters are shape-deterministic, so the replay leg's
    // instruction totals are exact even when its timing is bounded.
    exact("replay instructions", detailed.totals.instructions,
          replay.totals.instructions);
    exact("replay hmma", detailed.totals.hmma_instructions,
          replay.totals.hmma_instructions);
    if (replay.totals.replay_hits == 0) {
        std::fprintf(stderr, "FAIL: replay leg never hit the cache\n");
        ++failures;
    }

    const char* err_env = std::getenv("TCSIM_REPLAY_ERR");
    const double err_bound = err_env ? std::atof(err_env) : 0.02;
    auto pp = percentiles(replay);
    double worst = 0.0;
    for (size_t i = 0; i < dp.size(); ++i) {
        double want = static_cast<double>(dp[i].second);
        double got = static_cast<double>(pp[i].second);
        double err = want > 0 ? std::fabs(got - want) / want : 0.0;
        worst = std::max(worst, err);
        bool ok = err <= err_bound;
        std::printf("%s latency %-6s detailed=%llu replay=%llu "
                    "rel_err=%.4f (bound %.3f)\n",
                    ok ? "ok  " : "FAIL", dp[i].first.c_str(),
                    static_cast<unsigned long long>(dp[i].second),
                    static_cast<unsigned long long>(pp[i].second), err,
                    err_bound);
        if (!ok)
            ++failures;
    }

    const double speedup =
        replay.wall_ms > 0 ? detailed.wall_ms / replay.wall_ms : 0.0;
    std::printf("\nreplay wall speedup over detailed: %.1fx "
                "(%zu profile(s), %llu hit(s), %llu miss(es))\n",
                speedup, cache.size(),
                static_cast<unsigned long long>(replay.totals.replay_hits),
                static_cast<unsigned long long>(
                    replay.totals.replay_misses));

    bench::JsonEmitter json("serving_replay");
    json.add("detailed_latency_p50_cycles",
             static_cast<double>(detailed.rep.latency.latency_p50));
    json.add("detailed_latency_p99_cycles",
             static_cast<double>(detailed.rep.latency.latency_p99));
    json.add("detailed_latency_p999_cycles",
             static_cast<double>(detailed.rep.latency.latency_p999));
    json.add("replay_latency_p50_cycles",
             static_cast<double>(replay.rep.latency.latency_p50));
    json.add("replay_latency_p99_cycles",
             static_cast<double>(replay.rep.latency.latency_p99));
    json.add("replay_latency_p999_cycles",
             static_cast<double>(replay.rep.latency.latency_p999));
    json.add("replay_hit_count",
             static_cast<double>(replay.totals.replay_hits));
    json.add("replay_miss_count",
             static_cast<double>(replay.totals.replay_misses));
    json.add("profile_count", static_cast<double>(cache.size()));
    json.add("worst_percentile_rel_err", worst);
    json.add("detailed_wall_ms", detailed.wall_ms);
    json.add("replay_wall_ms", replay.wall_ms);
    json.add("wall_speedup", speedup);

    if (failures) {
        std::fprintf(stderr, "FAIL: %d replay gate(s) failed\n", failures);
        return 1;
    }
    const char* min = std::getenv("TCSIM_REPLAY_MIN");
    double need = min ? std::atof(min) : 3.0;
    if (speedup < need) {
        std::fprintf(stderr, "FAIL: wall speedup %.2fx below minimum "
                             "%.2fx (TCSIM_REPLAY_MIN)\n",
                     speedup, need);
        return 1;
    }
    return 0;
}
