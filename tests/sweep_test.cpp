/**
 * @file
 * Sweep-driver tests: schema validation of the "sweep" key, point
 * materialization, attach_sweep (the --grid form), and the central
 * runtime contract — every forked point's statistics are bit-identical
 * to a cold run of prefix + point from cycle 0, at every thread count.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "driver/runner.h"
#include "driver/scenario.h"

using namespace tcsim;
using namespace tcsim::driver;

namespace {

/** A cheap two-point sweep on a narrow chip.  @p extra is spliced
 *  into the scenario object (lead with a comma). */
std::string
sweep_text(const std::string& extra = "")
{
    return R"({
      "name": "mini_sweep",
      "gpu": {"preset": "titan_v", "num_sms": 4},
      "kernels": [
        {"kernel": "wmma_naive", "name": "warm", "m": 64, "n": 64,
         "k": 64}
      ],
      "sweep": {
        "fork_cycle": 200,
        "points": [
          {"name": "small",
           "kernels": [
             {"kernel": "hmma_stress", "name": "s", "ctas": 2,
              "warps_per_cta": 2, "wmma_per_warp": 16}
           ],
           "expect": [
             {"metric": "kernel.s.hmma_instructions", "min": 1}
           ]},
          {"name": "large",
           "kernels": [
             {"kernel": "wmma_naive", "name": "g", "m": 64, "n": 64,
              "k": 128}
           ]}
        ]
      })" + extra + R"(
    })";
}

/** Everything timing-relevant a report would carry must agree. */
void
expect_point_identical(const ScenarioResult& a, const ScenarioResult& b)
{
    ASSERT_TRUE(a.error.empty()) << a.name << ": " << a.error;
    ASSERT_TRUE(b.error.empty()) << b.name << ": " << b.error;
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.totals.cycles, b.totals.cycles) << a.name;
    EXPECT_EQ(a.totals.ticks, b.totals.ticks) << a.name;
    EXPECT_EQ(a.totals.instructions, b.totals.instructions) << a.name;
    EXPECT_EQ(a.totals.hmma_instructions, b.totals.hmma_instructions)
        << a.name;
    EXPECT_EQ(a.totals.skipped_cycles, b.totals.skipped_cycles) << a.name;
    EXPECT_EQ(a.totals.stalls.total(), b.totals.stalls.total()) << a.name;
    EXPECT_EQ(a.totals.mem.global_sectors, b.totals.mem.global_sectors)
        << a.name;
    EXPECT_EQ(a.totals.mem.l2_misses, b.totals.mem.l2_misses) << a.name;
    EXPECT_EQ(a.totals.mem.dram_bytes, b.totals.mem.dram_bytes) << a.name;
    ASSERT_EQ(a.kernels.size(), b.kernels.size());
    for (size_t i = 0; i < a.kernels.size(); ++i) {
        EXPECT_EQ(a.kernels[i].name, b.kernels[i].name);
        EXPECT_EQ(a.kernels[i].stats.start_cycle,
                  b.kernels[i].stats.start_cycle)
            << a.name << "/" << a.kernels[i].name;
        EXPECT_EQ(a.kernels[i].stats.finish_cycle,
                  b.kernels[i].stats.finish_cycle)
            << a.name << "/" << a.kernels[i].name;
        EXPECT_EQ(a.kernels[i].stats.instructions,
                  b.kernels[i].stats.instructions);
    }
    ASSERT_EQ(a.events.size(), b.events.size());
    for (size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].name, b.events[i].name);
        EXPECT_EQ(a.events[i].cycle, b.events[i].cycle);
    }
    ASSERT_EQ(a.assertions.size(), b.assertions.size());
    for (size_t i = 0; i < a.assertions.size(); ++i)
        EXPECT_EQ(a.assertions[i].value, b.assertions[i].value)
            << a.name << ": " << a.assertions[i].metric;
    EXPECT_EQ(a.passed, b.passed) << a.name;
}

TEST(SweepParse, InlineKeyRoundTrips)
{
    Scenario sc = parse_scenario_text(sweep_text());
    ASSERT_TRUE(sc.is_sweep());
    EXPECT_EQ(sc.sweep.fork_cycle, 200u);
    ASSERT_EQ(sc.sweep.points.size(), 2u);
    EXPECT_EQ(sc.sweep.points[0].name, "small");
    EXPECT_EQ(sc.sweep.points[0].kernels.size(), 1u);
    EXPECT_EQ(sc.sweep.points[0].expect.size(), 1u);

    Scenario pt = materialize_sweep_point(sc, 1);
    EXPECT_FALSE(pt.is_sweep());
    EXPECT_EQ(pt.name, "mini_sweep/large");
    ASSERT_EQ(pt.kernels.size(), 2u);
    EXPECT_EQ(pt.kernels[0].name, "warm");
    EXPECT_EQ(pt.kernels[1].name, "g");
}

TEST(SweepParse, RejectsBadSweeps)
{
    auto rejects = [](const std::string& text, const std::string& why) {
        EXPECT_THROW(parse_scenario_text(text), ScenarioError) << why;
    };
    // fork_cycle must exist and be >= 1.
    rejects(R"({"name": "x", "kernels": [{"kernel": "wmma_naive"}],
                "sweep": {"points": [{"name": "p", "kernels":
                  [{"kernel": "wmma_naive", "name": "g"}]}]}})",
            "missing fork_cycle");
    rejects(R"({"name": "x", "kernels": [{"kernel": "wmma_naive"}],
                "sweep": {"fork_cycle": 0, "points": [{"name": "p",
                  "kernels": [{"kernel": "wmma_naive", "name": "g"}]}]}})",
            "fork_cycle 0");
    // Timing-only: functional kernels are rejected in the prefix and
    // in points.
    rejects(R"({"name": "x", "kernels":
                 [{"kernel": "wmma_shared", "functional": true}],
                "sweep": {"fork_cycle": 10, "points": [{"name": "p",
                  "kernels": [{"kernel": "wmma_naive", "name": "g"}]}]}})",
            "functional prefix");
    rejects(R"({"name": "x", "kernels": [{"kernel": "wmma_naive"}],
                "sweep": {"fork_cycle": 10, "points": [{"name": "p",
                  "kernels": [{"kernel": "wmma_shared", "name": "g",
                               "functional": true}]}]}})",
            "functional point");
    // Kernel names must not collide with the prefix.
    rejects(R"({"name": "x", "kernels":
                 [{"kernel": "wmma_naive", "name": "warm"}],
                "sweep": {"fork_cycle": 10, "points": [{"name": "p",
                  "kernels": [{"kernel": "wmma_naive", "name": "warm"}]}]}})",
            "name collision");
    // Point expectations resolve against the merged kernel set.
    rejects(R"({"name": "x", "kernels": [{"kernel": "wmma_naive"}],
                "sweep": {"fork_cycle": 10, "points": [{"name": "p",
                  "kernels": [{"kernel": "wmma_naive", "name": "g"}],
                  "expect": [{"metric": "kernel.nope.cycles",
                              "min": 1}]}]}})",
            "unknown kernel in point expect");
    // verify.* needs a functional kernel, which sweeps forbid.
    rejects(R"({"name": "x", "kernels": [{"kernel": "wmma_naive"}],
                "sweep": {"fork_cycle": 10, "points": [{"name": "p",
                  "kernels": [{"kernel": "wmma_naive", "name": "g"}],
                  "expect": [{"metric": "verify.max_rel_err",
                              "max": 0.1}]}]}})",
            "verify metric in sweep");
    // Duplicate point names.
    rejects(R"({"name": "x", "kernels": [{"kernel": "wmma_naive"}],
                "sweep": {"fork_cycle": 10, "points": [
                  {"name": "p", "kernels":
                    [{"kernel": "wmma_naive", "name": "g"}]},
                  {"name": "p", "kernels":
                    [{"kernel": "wmma_naive", "name": "h"}]}]}})",
            "duplicate point name");
}

TEST(SweepParse, PointKernelErrorsNameTheFullPath)
{
    // An invalid point kernel is reported at its own path, not at the
    // prefix kernel with the same index.
    try {
        parse_scenario_text(R"({"name": "x",
          "kernels": [{"kernel": "wmma_naive"}],
          "sweep": {"fork_cycle": 10, "points": [
            {"name": "ok", "kernels": [{"kernel": "wmma_naive",
                                        "name": "g"}]},
            {"name": "bad", "kernels": [{"kernel": "wmma_naive",
                                         "name": "h", "m": 60}]}]}})");
        FAIL() << "expected ScenarioError";
    } catch (const ScenarioError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("sweep.points[1].kernels[0] (wmma_naive): "
                           "wmma_naive needs m % 16 == 0"),
                  std::string::npos)
            << msg;
    }
}

TEST(SweepParse, RejectsDependencyPlumbingInPoints)
{
    // Sweeps take the plain form: a point kernel with a stream, sync
    // or event key is a typed error naming the key and the
    // declarative alternative.
    const std::pair<std::string, std::string> cases[] = {
        {"stream", "1"},
        {"sync", "true"},
        {"record_event", R"("e")"},
        {"wait_event", R"("e")"}};
    for (const auto& [key, value] : cases) {
        try {
            parse_scenario_text(R"({"name": "x",
              "kernels": [{"kernel": "wmma_naive"}],
              "sweep": {"fork_cycle": 10, "points": [{"name": "p",
                "kernels": [{"kernel": "wmma_naive", "name": "g", ")" +
                                key + "\": " + value + "}]}]}}");
            ADD_FAILURE() << key << " accepted";
        } catch (const ScenarioError& e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("sweep.points[0].kernels[0]"),
                      std::string::npos)
                << msg;
            EXPECT_NE(msg.find("\"" + key + "\""), std::string::npos)
                << msg;
            EXPECT_NE(msg.find("\"tensors\""), std::string::npos) << msg;
            EXPECT_NE(msg.find("\"reads\"/\"writes\""), std::string::npos)
                << msg;
        }
    }
}

TEST(SweepParse, AttachSweepMatchesInline)
{
    Scenario base = parse_scenario_text(R"({
      "name": "mini_sweep",
      "gpu": {"preset": "titan_v", "num_sms": 4},
      "kernels": [
        {"kernel": "wmma_naive", "name": "warm", "m": 64, "n": 64,
         "k": 64}
      ]
    })");
    ASSERT_FALSE(base.is_sweep());
    JsonValue grid = json_parse(R"({
      "fork_cycle": 200,
      "points": [
        {"name": "small", "kernels":
          [{"kernel": "hmma_stress", "name": "s", "ctas": 2,
            "warps_per_cta": 2, "wmma_per_warp": 16}]}
      ]
    })");
    attach_sweep(&base, grid, "grid.json");
    ASSERT_TRUE(base.is_sweep());
    EXPECT_EQ(base.sweep.fork_cycle, 200u);
    ASSERT_EQ(base.sweep.points.size(), 1u);
    // A second sweep cannot be attached on top.
    EXPECT_THROW(attach_sweep(&base, grid, "grid.json"), ScenarioError);
}

TEST(SweepParse, AttachSweepRejectsFaults)
{
    // Forks restore onto a healthy chip, so --grid on a faulty scenario
    // is rejected like an inline "sweep" next to "faults" (a point's
    // fault.* assertion would otherwise read counters no fork keeps).
    Scenario base = parse_scenario_text(R"({
      "name": "faulty", "gpu": {"num_sms": 4},
      "faults": {"disabled_sms": [0]},
      "kernels": [{"kernel": "wmma_naive", "name": "warm"}]
    })");
    JsonValue grid = json_parse(R"({"fork_cycle": 10, "points": [
      {"name": "p", "kernels": [{"kernel": "wmma_naive", "name": "g"}],
       "expect": [{"metric": "fault.disabled_sms", "equals": 1}]}]})");
    EXPECT_THROW(attach_sweep(&base, grid, "grid.json"), ScenarioError);
}

TEST(SweepRun, ForkedMatchesColdAtEveryThreadCount)
{
    Scenario sc = parse_scenario_text(sweep_text());
    std::vector<ScenarioResult> cold =
        run_sweep(sc, /*jobs=*/1, /*sim_threads=*/-1, /*cold_sweep=*/true);
    ASSERT_EQ(cold.size(), 2u);
    for (const ScenarioResult& r : cold) {
        EXPECT_FALSE(r.sweep_forked);
        EXPECT_TRUE(r.passed) << r.name << ": " << r.error;
    }

    // Forked, serial and threaded, point-parallel and not: all four
    // configurations must reproduce the cold statistics exactly.
    for (int jobs : {1, 2}) {
        for (int threads : {-1, 2}) {
            std::vector<ScenarioResult> forked =
                run_sweep(sc, jobs, threads, /*cold_sweep=*/false);
            ASSERT_EQ(forked.size(), cold.size());
            for (size_t i = 0; i < forked.size(); ++i) {
                EXPECT_TRUE(forked[i].sweep_forked);
                EXPECT_EQ(forked[i].sweep_point, sc.sweep.points[i].name);
                expect_point_identical(forked[i], cold[i]);
            }
        }
    }
}

TEST(SweepRun, LateForkCycleFailsEveryPoint)
{
    Scenario sc = parse_scenario_text(sweep_text());
    sc.sweep.fork_cycle = 50'000'000;  // Far past the prefix drain.
    std::vector<ScenarioResult> out = run_sweep(sc);
    ASSERT_EQ(out.size(), 2u);
    for (const ScenarioResult& r : out) {
        EXPECT_FALSE(r.passed);
        EXPECT_NE(r.error.find("fork_cycle"), std::string::npos) << r.error;
    }
}

TEST(SweepRun, BatchExpandsPointsInOrder)
{
    std::vector<Scenario> suite;
    suite.push_back(parse_scenario_text(R"({
      "name": "plain",
      "gpu": {"preset": "titan_v", "num_sms": 2},
      "kernels": [{"kernel": "hmma_stress", "name": "s", "ctas": 2,
                   "warps_per_cta": 2, "wmma_per_warp": 16}]
    })"));
    suite.push_back(parse_scenario_text(sweep_text()));

    for (int jobs : {1, 2}) {
        BatchOptions opts;
        opts.jobs = jobs;
        BatchReport report = run_batch(suite, opts);
        ASSERT_EQ(report.results.size(), 3u) << "jobs=" << jobs;
        EXPECT_EQ(report.results[0].name, "plain");
        EXPECT_EQ(report.results[1].name, "mini_sweep/small");
        EXPECT_EQ(report.results[2].name, "mini_sweep/large");
        EXPECT_EQ(report.failed(), 0) << "jobs=" << jobs;
    }
}

}  // namespace
