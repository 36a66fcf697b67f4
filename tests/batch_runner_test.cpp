/**
 * @file
 * Batch runner tests: N scenarios on 4 worker threads must produce
 * per-scenario cycle counts identical to serial execution (each worker
 * owns a full simulator instance; the only cross-thread state is the
 * mutex-guarded decode/timing memoization caches), plus report
 * structure and error isolation.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "driver/runner.h"
#include "driver/scenario.h"

using namespace tcsim;
using namespace tcsim::driver;

namespace {

/** A small mixed bag of workloads, cheap enough for unit tests. */
std::vector<Scenario>
make_suite()
{
    std::vector<Scenario> suite;
    auto add = [&](const std::string& text) {
        suite.push_back(parse_scenario_text(text));
    };
    for (int i = 0; i < 3; ++i) {
        add(R"({
          "name": "stress_)" + std::to_string(i) + R"(",
          "gpu": {"preset": "titan_v", "num_sms": 2},
          "kernels": [
            {"kernel": "hmma_stress", "name": "s", "ctas": )" +
            std::to_string(2 + i) + R"(, "warps_per_cta": 2,
             "wmma_per_warp": 16}
          ]
        })");
    }
    add(R"({
      "name": "naive_gemm64",
      "gpu": {"preset": "titan_v", "num_sms": 2},
      "kernels": [
        {"kernel": "wmma_naive", "name": "g", "m": 64, "n": 64, "k": 64}
      ]
    })");
    add(R"({
      "name": "two_streams",
      "gpu": {"preset": "titan_v", "num_sms": 2},
      "tensors": [{"name": "A", "bytes": 256}, {"name": "B", "bytes": 256}],
      "kernels": [
        {"kernel": "hmma_stress", "name": "a", "ctas": 2,
         "warps_per_cta": 2, "wmma_per_warp": 16, "writes": ["A"]},
        {"kernel": "hmma_stress", "name": "b", "ctas": 2,
         "warps_per_cta": 2, "wmma_per_warp": 16, "writes": ["B"]}
      ]
    })");
    add(R"({
      "name": "lrr_gemm64",
      "gpu": {"preset": "titan_v", "num_sms": 2},
      "sim": {"scheduler": "lrr"},
      "kernels": [
        {"kernel": "wmma_naive", "name": "g", "m": 64, "n": 64, "k": 64}
      ]
    })");
    // Task-graph scenarios: a chain the compiler keeps on one stream,
    // and a fork-join it lowers to cross-stream record/wait pairs, must
    // stay bit-identical between serial and parallel batch execution
    // too.
    add(R"({
      "name": "event_chain",
      "gpu": {"preset": "titan_v", "num_sms": 2},
      "tensors": [{"name": "T", "bytes": 256}, {"name": "U", "bytes": 256}],
      "kernels": [
        {"kernel": "hmma_stress", "name": "p", "ctas": 2,
         "warps_per_cta": 2, "wmma_per_warp": 16, "writes": ["T"]},
        {"kernel": "hmma_stress", "name": "c", "ctas": 2,
         "warps_per_cta": 2, "wmma_per_warp": 16, "reads": ["T"],
         "writes": ["U"]}
      ]
    })");
    add(R"({
      "name": "event_fork_join",
      "gpu": {"preset": "titan_v", "num_sms": 2},
      "tensors": [{"name": "R", "bytes": 256}, {"name": "A", "bytes": 256},
                  {"name": "B", "bytes": 256}, {"name": "J", "bytes": 256}],
      "kernels": [
        {"kernel": "hmma_stress", "name": "root", "ctas": 1,
         "warps_per_cta": 2, "wmma_per_warp": 16, "writes": ["R"]},
        {"kernel": "hmma_stress", "name": "fa", "ctas": 1,
         "warps_per_cta": 2, "wmma_per_warp": 16, "reads": ["R"],
         "writes": ["A"]},
        {"kernel": "hmma_stress", "name": "fb", "ctas": 1,
         "warps_per_cta": 2, "wmma_per_warp": 16, "reads": ["R"],
         "writes": ["B"]},
        {"kernel": "hmma_stress", "name": "join", "ctas": 1,
         "warps_per_cta": 2, "wmma_per_warp": 16, "reads": ["A", "B"],
         "writes": ["J"]}
      ]
    })");
    return suite;
}

}  // namespace

TEST(BatchRunner, ParallelCyclesMatchSerial)
{
    std::vector<Scenario> suite = make_suite();
    BatchReport serial = run_batch(suite, {.jobs = 1});
    BatchReport parallel = run_batch(suite, {.jobs = 4});

    ASSERT_EQ(serial.results.size(), suite.size());
    ASSERT_EQ(parallel.results.size(), suite.size());
    EXPECT_EQ(serial.failed(), 0);
    EXPECT_EQ(parallel.failed(), 0);

    for (size_t i = 0; i < suite.size(); ++i) {
        const ScenarioResult& a = serial.results[i];
        const ScenarioResult& b = parallel.results[i];
        // Input order is preserved by both modes.
        EXPECT_EQ(a.name, suite[i].name);
        EXPECT_EQ(b.name, suite[i].name);
        EXPECT_EQ(a.totals.cycles, b.totals.cycles) << a.name;
        EXPECT_EQ(a.totals.instructions, b.totals.instructions) << a.name;
        ASSERT_EQ(a.kernels.size(), b.kernels.size());
        for (size_t k = 0; k < a.kernels.size(); ++k) {
            EXPECT_EQ(a.kernels[k].stats.cycles, b.kernels[k].stats.cycles)
                << a.name << "/" << a.kernels[k].name;
            EXPECT_EQ(a.kernels[k].stats.instructions,
                      b.kernels[k].stats.instructions)
                << a.name << "/" << a.kernels[k].name;
        }
    }
}

TEST(BatchRunner, RepeatedParallelRunsAreDeterministic)
{
    std::vector<Scenario> suite = make_suite();
    BatchReport r1 = run_batch(suite, {.jobs = 4});
    BatchReport r2 = run_batch(suite, {.jobs = 4});
    for (size_t i = 0; i < suite.size(); ++i)
        EXPECT_EQ(r1.results[i].totals.cycles, r2.results[i].totals.cycles)
            << r1.results[i].name;
}

TEST(BatchRunner, FailingScenarioDoesNotPoisonTheBatch)
{
    std::vector<Scenario> suite = make_suite();
    // Oversubscribed: reported as a per-scenario error, not a fatal().
    suite.insert(suite.begin() + 1, parse_scenario_text(R"({
      "name": "too_big",
      "gpu": {"preset": "titan_v", "num_sms": 1, "registers_per_sm": 1024},
      "kernels": [{"kernel": "hmma_stress", "warps_per_cta": 4}]
    })"));

    BatchReport report = run_batch(suite, {.jobs = 4});
    EXPECT_EQ(report.failed(), 1);
    EXPECT_FALSE(report.results[1].passed);
    EXPECT_FALSE(report.results[1].error.empty());
    for (size_t i = 0; i < report.results.size(); ++i) {
        if (i != 1) {
            EXPECT_TRUE(report.results[i].passed)
                << report.results[i].name << ": "
                << report.results[i].error;
        }
    }
}

TEST(BatchRunner, FailFastStopsSerialBatchAtFirstFailure)
{
    std::vector<Scenario> suite = make_suite();
    // Fail the second scenario; everything after it must be skipped.
    suite.insert(suite.begin() + 1, parse_scenario_text(R"({
      "name": "too_big",
      "gpu": {"preset": "titan_v", "num_sms": 1, "registers_per_sm": 1024},
      "kernels": [{"kernel": "hmma_stress", "warps_per_cta": 4}]
    })"));

    BatchReport report = run_batch(suite, {.jobs = 1, .fail_fast = true});
    EXPECT_EQ(report.failed(), 1);
    EXPECT_EQ(report.skipped(),
              static_cast<int>(suite.size()) - 2);
    EXPECT_TRUE(report.results[0].passed);
    EXPECT_FALSE(report.results[1].passed);
    EXPECT_FALSE(report.results[1].skipped);
    for (size_t i = 2; i < report.results.size(); ++i) {
        EXPECT_TRUE(report.results[i].skipped) << report.results[i].name;
        EXPECT_FALSE(report.results[i].passed);
        EXPECT_EQ(report.results[i].name, suite[i].name);
    }
}

TEST(BatchRunner, FailFastParallelSkipsScenariosNotYetStarted)
{
    std::vector<Scenario> suite = make_suite();
    suite.insert(suite.begin(), parse_scenario_text(R"({
      "name": "too_big",
      "gpu": {"preset": "titan_v", "num_sms": 1, "registers_per_sm": 1024},
      "kernels": [{"kernel": "hmma_stress", "warps_per_cta": 4}]
    })"));

    // Workers finish scenarios already in flight, so the exact skip
    // count depends on timing; the invariants are: the failure is
    // recorded, nothing reports as passed-and-skipped, and the batch
    // still fails.
    BatchReport report = run_batch(suite, {.jobs = 2, .fail_fast = true});
    EXPECT_GE(report.failed(), 1);
    EXPECT_FALSE(report.results[0].passed);
    for (const ScenarioResult& r : report.results)
        EXPECT_FALSE(r.passed && r.skipped);
}

TEST(BatchRunner, NoFailFastRunsEverythingDespiteFailure)
{
    std::vector<Scenario> suite = make_suite();
    suite.insert(suite.begin(), parse_scenario_text(R"({
      "name": "too_big",
      "gpu": {"preset": "titan_v", "num_sms": 1, "registers_per_sm": 1024},
      "kernels": [{"kernel": "hmma_stress", "warps_per_cta": 4}]
    })"));
    BatchReport report = run_batch(suite, {.jobs = 1});
    EXPECT_EQ(report.failed(), 1);
    EXPECT_EQ(report.skipped(), 0);
}

TEST(BatchRunner, ReportJsonRoundTrips)
{
    std::vector<Scenario> suite = make_suite();
    suite.resize(2);
    BatchReport report = run_batch(suite, {.jobs = 2});
    JsonValue doc = json_parse(report_to_json(report).dump(2));

    EXPECT_EQ(doc.find("schema")->as_string(), "tcsim-batch-report-v1");
    EXPECT_EQ(doc.find("scenarios")->as_int(), 2);
    EXPECT_EQ(doc.find("failed")->as_int(), 0);
    const auto& results = doc.find("results")->as_array();
    ASSERT_EQ(results.size(), 2u);
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].find("name")->as_string(), suite[i].name);
        EXPECT_EQ(
            static_cast<uint64_t>(
                results[i].find("total")->find("cycles")->as_int()),
            report.results[i].totals.cycles);
        // Speed telemetry rides in a dedicated "sim" block so the
        // serial-vs-threaded CI diff can strip it wholesale.
        const JsonValue* sim = results[i].find("sim");
        ASSERT_NE(sim, nullptr);
        EXPECT_NE(sim->find("wall_ms"), nullptr);
        EXPECT_NE(sim->find("ticks_per_sec"), nullptr);
        EXPECT_EQ(sim->find("sim_threads")->as_int(), 1);
    }
}

TEST(BatchRunner, ThreadBudgetClampsJobs)
{
    std::vector<Scenario> suite = make_suite();

    // 8-core budget, 4 intra-sim threads -> at most 2 batch workers.
    BatchOptions opts;
    opts.jobs = 8;
    opts.fail_fast = false;
    opts.sim_threads = 4;
    opts.thread_budget = 8;
    EXPECT_EQ(effective_jobs(opts, suite), 2);

    // Intra-sim width wins: never below one batch worker.
    opts.sim_threads = 32;
    EXPECT_EQ(effective_jobs(opts, suite), 1);

    // Serial sims use the whole budget for batch workers.
    opts.sim_threads = 1;
    EXPECT_EQ(effective_jobs(opts, suite), 8);

    // Default budget floors at the explicit jobs request: a batch of
    // serial sims may deliberately oversubscribe the host.
    opts.thread_budget = 0;
    opts.jobs = 64;
    EXPECT_EQ(effective_jobs(opts, suite), 64);

    // No override: the widest per-scenario sim.sim_threads counts.
    opts.jobs = 8;
    opts.thread_budget = 8;
    opts.sim_threads = -1;
    suite[0].sim.sim_threads = 4;
    EXPECT_EQ(effective_jobs(opts, suite), 2);
}

TEST(BatchRunner, SimThreadsOverrideKeepsResultsIdentical)
{
    std::vector<Scenario> suite = make_suite();
    BatchOptions serial;
    serial.jobs = 1;
    serial.sim_threads = 1;
    serial.thread_budget = 1;
    BatchOptions threaded;
    threaded.jobs = 1;
    threaded.sim_threads = 3;
    threaded.thread_budget = 3;

    BatchReport a = run_batch(suite, serial);
    BatchReport b = run_batch(suite, threaded);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (size_t i = 0; i < a.results.size(); ++i) {
        EXPECT_TRUE(b.results[i].passed) << b.results[i].name;
        EXPECT_EQ(a.results[i].totals.cycles, b.results[i].totals.cycles)
            << a.results[i].name;
        EXPECT_EQ(a.results[i].totals.instructions,
                  b.results[i].totals.instructions);
        EXPECT_EQ(a.results[i].totals.ticks, b.results[i].totals.ticks);
        EXPECT_EQ(b.results[i].sim_threads, 3);
    }
}

TEST(BatchRunner, OversubscribedScenarioIsATypedErrorRow)
{
    // SM-resource overflow is scenario input: the batch must finish
    // with one structured error row naming the offending kernel and
    // the limit, never a process-level fatal().
    std::vector<Scenario> suite = make_suite();
    suite.insert(suite.begin() + 2, parse_scenario_text(R"({
      "name": "too_big",
      "gpu": {"preset": "titan_v", "num_sms": 1, "registers_per_sm": 1024},
      "kernels": [{"kernel": "hmma_stress", "name": "fat",
                   "warps_per_cta": 4}]
    })"));

    BatchReport report = run_batch(suite, {.jobs = 4});
    EXPECT_EQ(report.failed(), 1);
    const ScenarioResult& bad = report.results[2];
    EXPECT_EQ(bad.name, "too_big");
    EXPECT_FALSE(bad.passed);
    EXPECT_NE(bad.error.find("exceeds SM resources"), std::string::npos)
        << bad.error;
    for (size_t i = 0; i < report.results.size(); ++i) {
        if (i != 2) {
            EXPECT_TRUE(report.results[i].passed)
                << report.results[i].name << ": "
                << report.results[i].error;
        }
    }
}

TEST(BatchRunner, HungScenarioIsContainedByTheWallWatchdog)
{
    // An injected kernel hang wedges one scenario; the per-scenario
    // wall budget (the simrunner --timeout-ms flag) cuts it short
    // with a SimHangError row while the rest of the batch completes.
    std::vector<Scenario> suite = make_suite();
    suite.insert(suite.begin(), parse_scenario_text(R"({
      "name": "hung",
      "gpu": {"preset": "titan_v", "num_sms": 2},
      "faults": {"hangs": [{"match": "s", "count": 1}]},
      "kernels": [
        {"kernel": "hmma_stress", "name": "s", "ctas": 2,
         "warps_per_cta": 2, "wmma_per_warp": 16}
      ]
    })"));

    BatchOptions opts;
    opts.jobs = 2;
    opts.timeout_ms = 2000;
    BatchReport report = run_batch(suite, opts);
    EXPECT_EQ(report.failed(), 1);
    const ScenarioResult& hung = report.results[0];
    EXPECT_FALSE(hung.passed);
    // The hang is detected as terminal (the chip wedges with only the
    // hung launch resident) or by the wall budget -- either way the
    // row carries the diagnostic dump.
    EXPECT_NE(hung.error.find("resident kernel"), std::string::npos)
        << hung.error;
    for (size_t i = 1; i < report.results.size(); ++i)
        EXPECT_TRUE(report.results[i].passed) << report.results[i].name;
}

TEST(BatchRunner, FaultMetricsSurfaceInScenarioResults)
{
    // A fault-injected scenario reports fault.* counters and stays
    // deterministic across batch parallelism.
    Scenario sc = parse_scenario_text(R"({
      "name": "degraded",
      "gpu": {"preset": "titan_v", "num_sms": 2},
      "faults": {"disabled_sms": [0],
                 "slowdowns": [{"match": "g", "factor": 2.0}]},
      "kernels": [
        {"kernel": "wmma_naive", "name": "g", "m": 64, "n": 64, "k": 64}
      ],
      "expect": [
        {"metric": "fault.disabled_sms", "equals": 1},
        {"metric": "fault.slowdowns", "equals": 1},
        {"metric": "fault.slowdown_extra_cycles", "min": 1}
      ]
    })");

    ScenarioResult serial = run_scenario(sc, 1);
    ScenarioResult threaded = run_scenario(sc, 3);
    EXPECT_TRUE(serial.passed) << serial.error;
    EXPECT_TRUE(threaded.passed) << threaded.error;
    EXPECT_TRUE(serial.has_faults);
    EXPECT_EQ(serial.fault_counters.slowdown_extra_cycles,
              threaded.fault_counters.slowdown_extra_cycles);
    EXPECT_EQ(serial.totals.cycles, threaded.totals.cycles);
}
