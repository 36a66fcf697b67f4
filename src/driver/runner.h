#pragma once
/**
 * @file
 * Scenario execution: ScenarioRunner instantiates one Gpu per
 * scenario (own memory system, executor cache, streams), runs every
 * declared launch through the stream-aware engine, verifies
 * functional kernels against the host reference, and evaluates the
 * scenario's expected-metric assertions.
 *
 * The batch runner executes N independent scenarios on a small thread
 * pool — one simulator instance per worker, no shared mutable state —
 * so scenario suites scale with host cores while every per-scenario
 * cycle count stays bit-identical to a serial run.
 */

#include <string>
#include <vector>

#include "driver/json.h"
#include "driver/scenario.h"
#include "serve/serving_engine.h"
#include "sim/engine.h"

namespace tcsim {
namespace driver {

/** Outcome of one expected-metric assertion. */
struct AssertionResult
{
    std::string metric;
    double value = 0.0;
    bool passed = false;
    std::string detail;  ///< Human-readable bound description.
};

/** Per-kernel outcome within a scenario. */
struct KernelResult
{
    std::string name;
    std::string family;
    int stream = 0;
    double flops = 0.0;
    double tflops = 0.0;
    /** Max |D - ref| / (1 + |ref|); negative when not verified. */
    double verify_rel_err = -1.0;
    LaunchStats stats;
};

/** Completion stamp of one named scenario event. */
struct EventResult
{
    std::string name;
    uint64_t cycle = 0;
};

/** Outcome of one scenario. */
struct ScenarioResult
{
    std::string name;
    std::string file;
    /** Ran to completion and every assertion passed. */
    bool passed = false;
    /** Never ran: an earlier failure stopped a --fail-fast batch. */
    bool skipped = false;
    /** Non-empty when the scenario failed to run at all. */
    std::string error;

    EngineStats totals;
    /** Core clock of the scenario's GPU config (for TFLOPS display). */
    double clock_ghz = 0.0;
    double total_flops = 0.0;
    double total_tflops = 0.0;
    /** Worst functional-verification error; negative = none ran. */
    double verify_max_rel_err = -1.0;
    std::vector<KernelResult> kernels;
    /** Named events the scenario recorded, with completion cycles. */
    std::vector<EventResult> events;
    std::vector<AssertionResult> assertions;
    double wall_ms = 0.0;
    /** Simulation throughput: engine ticks per wall-clock second
     *  (ticks, not simulated cycles — idle-skip jumps make cycles a
     *  poor rate denominator). */
    double ticks_per_sec = 0.0;
    /** Worker threads the simulation ran with (resolved, >= 1). */
    int sim_threads = 1;

    // Serving scenarios ("serving" key) only.
    /** True when `serving` below is populated. */
    bool has_serving = false;
    serve::ServingReport serving;

    // Fault-injected scenarios ("faults" key) only.
    /** True when the run injected faults (`fault_counters` is then
     *  meaningful and the report gains a "fault" block). */
    bool has_faults = false;
    FaultCounters fault_counters;

    /** Resolved SimOptions::ReplayMode the run used (0 = off); the
     *  hit/miss counters live in `totals`. */
    int replay_mode = 0;

    // Sweep metadata (set by run_sweep; sweep_point empty otherwise).
    /** Name of the sweep point this result expands. */
    std::string sweep_point;
    /** Cycle the shared prefix was snapshotted at. */
    uint64_t sweep_fork_cycle = 0;
    /** Total points in the owning sweep. */
    int sweep_points = 0;
    /** Ran as a snapshot fork (false = cold rerun of prefix+point). */
    bool sweep_forked = false;
};

/** Replay-cache overrides from the command line (--replay /
 *  --replay-cache).  `mode` replaces the scenario's sim.replay when
 *  >= 0 (values are SimOptions::ReplayMode casts); `cache` is a
 *  batch-shared profile store borrowed by every run that has replay
 *  enabled (nullptr = each engine owns a private cache). */
struct ReplayOverride
{
    int mode = -1;
    ReplayCache* cache = nullptr;
};

/** Run one scenario to completion; never throws (errors land in
 *  ScenarioResult::error).  @p sim_threads_override replaces the
 *  scenario's sim.sim_threads when >= 0 (the simrunner --sim-threads
 *  flag and the CI serial-vs-threaded identity legs);
 *  @p wall_budget_ms > 0 arms the engine wall-clock watchdog (the
 *  --timeout-ms flag): a scenario stuck past the budget dies with a
 *  SimHangError diagnostic in its error row while the rest of the
 *  batch completes. */
ScenarioResult run_scenario(const Scenario& scenario,
                            int sim_threads_override = -1,
                            const ReplayOverride& replay = {},
                            uint64_t wall_budget_ms = 0);

/**
 * Run a sweep scenario: simulate the shared kernel prefix once to
 * sweep.fork_cycle, snapshot, and fork one run per point (restore +
 * the point's kernels), with up to @p jobs points in flight at once.
 * Every result is bit-identical to running the materialized point
 * cold — which @p cold_sweep does instead (the CI fork-identity
 * reference leg).  Both paths pin the same SimOptions::min_sms floor,
 * sized from the largest point, so every run sees the same SM array.
 * Returns one result per point, in declaration order; a prefix
 * failure (or a fork_cycle the prefix never reaches) fails every
 * point.
 */
std::vector<ScenarioResult> run_sweep(const Scenario& scenario, int jobs = 1,
                                      int sim_threads_override = -1,
                                      bool cold_sweep = false,
                                      const ReplayOverride& replay = {});

/** Aggregate outcome of a scenario batch. */
struct BatchReport
{
    std::vector<ScenarioResult> results;  ///< Input order preserved.
    int jobs = 1;
    double wall_ms = 0.0;

    int failed() const;
    /** Scenarios never started because --fail-fast stopped the batch. */
    int skipped() const;
};

/** Batch execution knobs. */
struct BatchOptions
{
    /** Requested batch worker threads (scenarios in flight at once). */
    int jobs = 1;
    /** Stop starting new scenarios after the first failure. */
    bool fail_fast = false;
    /** Override every scenario's sim.sim_threads (-1 = keep the
     *  per-scenario setting). */
    int sim_threads = -1;
    /** Total thread budget shared between batch workers and each
     *  simulation's intra-sim workers (0 = the larger of hardware
     *  concurrency and the explicit jobs request, so batches of
     *  serial simulations keep exactly the workers they asked for):
     *  jobs is clamped to budget / sim_threads so batch parallelism
     *  times intra-sim parallelism never oversubscribes the host. */
    int thread_budget = 0;
    /** Run sweep points cold (prefix+point from cycle 0) instead of
     *  forking the prefix snapshot — the fork-identity reference. */
    bool cold_sweep = false;
    /** Replay-cache mode override + batch-shared profile store. */
    ReplayOverride replay = {};
    /** Per-scenario wall-clock watchdog in milliseconds (0 = none):
     *  a hung or runaway scenario is cut short with a structured
     *  error row instead of stalling the whole batch. */
    uint64_t timeout_ms = 0;
};

/** The batch worker count run_batch will actually use for @p opts
 *  over @p scenarios (the --jobs request after the thread-budget
 *  clamp). */
int effective_jobs(const BatchOptions& opts,
                   const std::vector<Scenario>& scenarios);

/**
 * Run @p scenarios on a batch worker pool.  Results keep input order;
 * per-scenario statistics are independent of jobs and of each
 * simulation's sim_threads.  With fail_fast, the first failure stops
 * the batch: scenarios not yet started are marked skipped
 * (already-running workers finish their current scenario).  A sweep
 * scenario expands to one result per point, flattened in place (so
 * BatchReport::results may be longer than @p scenarios).
 */
BatchReport run_batch(const std::vector<Scenario>& scenarios,
                      const BatchOptions& opts);

/** The batch report as JSON (schema "tcsim-batch-report-v1"). */
JsonValue report_to_json(const BatchReport& report);

/** Atomically write the JSON report (temp file + rename).
 *  Returns false (with a warning) when the path is not writable. */
bool write_report_file(const BatchReport& report, const std::string& path);

}  // namespace driver
}  // namespace tcsim
