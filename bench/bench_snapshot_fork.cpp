/**
 * @file
 * Snapshot-fork sweep throughput: the driver's sweep path (one shared
 * warm-up prefix simulated once, each point forked from the captured
 * snapshot) against the cold path (every point re-simulating the
 * prefix from cycle 0) on a 4-point warm-prefix sweep.
 *
 * The sweep is deliberately prefix-heavy — a 256^3 warm-up GEMM forked
 * at 90% of its solo drain cycle into four small problem sizes — the
 * shape snapshot forking exists for: the cold leg simulates the big
 * prefix four times, the forked leg once.
 *
 * Two things are gated in CI from BENCH_snapshot_fork.json:
 *  - identity: per-point cycle and instruction counts are committed as
 *    exact-match baselines, and the forked and cold legs must agree on
 *    every one of them (points_matched == point count).  Tick counts
 *    match too, by construction: a forked point's restored statistics
 *    include the prefix's ticks, so its report is indistinguishable
 *    from the cold rerun's;
 *  - the per-point totals themselves, as determinism baselines.
 *
 * Wall times and the wall speedup are emitted for the artifact charts
 * but deliberately not gated — they measure the host.  The binary
 * does fail below TCSIM_FORK_MIN (default 3.0, set 0 to disable) so
 * local runs still demonstrate the >= 3x reduction.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "driver/runner.h"
#include "driver/scenario.h"

using namespace tcsim;

namespace {

const char* kPrefixOnly = R"({
    "name": "bench_fork_prefix",
    "gpu": {"preset": "titan_v", "num_sms": 20},
    "kernels": [{"kernel": "wmma_naive", "name": "warmup",
                 "m": 256, "n": 256, "k": 256, "mode": "mixed"}]
})";

/** The warm-up prefix above plus four small points forked at
 *  @p fork_cycle. */
std::string
sweep_text(uint64_t fork_cycle)
{
    std::string points;
    const int sizes[] = {32, 48, 64, 80};
    for (int s : sizes) {
        if (!points.empty())
            points += ",";
        points += R"({"name": "p)" + std::to_string(s) + R"(",
            "kernels": [{"kernel": "wmma_naive",
                         "name": "p)" + std::to_string(s) + R"(",
                         "m": )" + std::to_string(s) +
                  R"(, "n": )" + std::to_string(s) +
                  R"(, "k": )" + std::to_string(s) +
                  R"(, "mode": "mixed"}]})";
    }
    return R"({
        "name": "bench_fork",
        "gpu": {"preset": "titan_v", "num_sms": 20},
        "kernels": [{"kernel": "wmma_naive", "name": "warmup",
                     "m": 256, "n": 256, "k": 256, "mode": "mixed"}],
        "sweep": {"fork_cycle": )" + std::to_string(fork_cycle) +
           R"(, "points": [)" + points + R"(]}
    })";
}

struct Leg
{
    double wall_ms = 0.0;
    std::vector<driver::ScenarioResult> results;
};

Leg
run_leg(const driver::Scenario& sc, bool cold)
{
    Leg leg;
    bench::Timer t;
    leg.results = driver::run_sweep(sc, /*jobs=*/1, /*sim_threads=*/-1, cold);
    leg.wall_ms = t.ms();
    return leg;
}

}  // namespace

int
main()
{
    bench::section("snapshot fork vs cold sweep (4-point warm-prefix)");

    // Size the fork point off the prefix's own drain cycle so the
    // bench tracks model changes instead of hard-coding a cycle.
    driver::Scenario prefix = driver::parse_scenario_text(kPrefixOnly);
    driver::ScenarioResult solo = driver::run_scenario(prefix);
    if (!solo.error.empty()) {
        std::fprintf(stderr, "FAIL: prefix run errored: %s\n",
                     solo.error.c_str());
        return 1;
    }
    uint64_t fork_cycle = solo.totals.cycles * 9 / 10;
    std::printf("prefix drains at cycle %llu; forking at %llu\n",
                static_cast<unsigned long long>(solo.totals.cycles),
                static_cast<unsigned long long>(fork_cycle));

    driver::Scenario sc = driver::parse_scenario_text(sweep_text(fork_cycle));
    Leg cold = run_leg(sc, /*cold=*/true);
    Leg forked = run_leg(sc, /*cold=*/false);

    bench::JsonEmitter em("snapshot_fork");
    TextTable table;
    table.set_header({"point", "cold cycles", "forked cycles",
                      "instructions", "match"});

    int matched = 0;
    for (size_t i = 0; i < cold.results.size(); ++i) {
        const auto& c = cold.results[i];
        const auto& f = forked.results[i];
        bool same = c.totals.cycles == f.totals.cycles &&
                    c.totals.ticks == f.totals.ticks &&
                    c.totals.instructions == f.totals.instructions &&
                    c.totals.hmma_instructions == f.totals.hmma_instructions;
        matched += same ? 1 : 0;
        table.add_row({c.sweep_point, std::to_string(c.totals.cycles),
                       std::to_string(f.totals.cycles),
                       std::to_string(f.totals.instructions),
                       same ? "yes" : "NO"});
        em.add(c.sweep_point + "_cycles",
               static_cast<double>(f.totals.cycles));
        em.add(c.sweep_point + "_instruction_count",
               static_cast<double>(f.totals.instructions));
    }
    bench::print_table(table);

    double speedup = forked.wall_ms > 0.0 ? cold.wall_ms / forked.wall_ms
                                          : 0.0;
    std::printf("\ncold:   %8.1f ms (prefix simulated %zu times)\n",
                cold.wall_ms, cold.results.size());
    std::printf("forked: %8.1f ms (prefix simulated once)\n",
                forked.wall_ms);
    std::printf("wall speedup %.2fx, %d/%zu points identical\n", speedup,
                matched, cold.results.size());

    em.add("points_matched_count", static_cast<double>(matched));
    em.add("cold_wall_ms", cold.wall_ms);
    em.add("forked_wall_ms", forked.wall_ms);
    em.add("wall_speedup", speedup);

    if (matched != static_cast<int>(cold.results.size())) {
        std::fprintf(stderr, "FAIL: forked points diverged from cold "
                             "reruns\n");
        return 1;
    }
    const char* min = std::getenv("TCSIM_FORK_MIN");
    double need = min ? std::atof(min) : 3.0;
    if (speedup < need) {
        std::fprintf(stderr, "FAIL: wall speedup %.2fx below minimum "
                             "%.2fx (TCSIM_FORK_MIN)\n", speedup, need);
        return 1;
    }
    return 0;
}
