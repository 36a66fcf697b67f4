#pragma once
/**
 * @file
 * Declarative simulation scenarios: a small JSON format that names a
 * GPU preset plus config overrides, a scheduler policy, a list of
 * kernel launches (family, GEMM shape, precision, layouts, read/write
 * sets), and expected-metric assertions.  Every workload the paper
 * sweeps by recompiling a bench binary becomes a data file under
 * scenarios/.
 *
 * Schema (all keys optional unless noted; unknown keys are errors):
 *
 *   {
 *     "name": "fig14a_gemm128",            // required
 *     "description": "...",
 *     "gpu": {"preset": "titan_v",          // or "rtx2080"
 *             "num_sms": 8, "clock_ghz": 1.53, ...},  // field overrides
 *     "sim": {"scheduler": "gto" | "lrr" | "two_level",
 *             "max_cycles": 100000000,
 *             "sim_threads": 1,      // intra-sim worker threads
 *                                    // (0 = hardware concurrency);
 *                                    // results are thread-invariant
 *             "idle_skip": true,     // false = lockstep main loop
 *             "replay": "off" | "record" | "replay"},
 *                                    // kernel-timing replay cache (see
 *                                    // SimOptions::replay_mode)
 *     "tensors": [                          // declarative form only
 *       {"name": "A0", "bytes": 32768},     // bump-placed, 256-aligned
 *       {"name": "A0_lo", "alias_of": "A0", // declared view (overlap
 *        "offset": 0, "bytes": 16384},      //   feeds hazard analysis)
 *       {"name": "X", "address": 0,         // absolute placement; any
 *        "bytes": 4096}],                   //   undeclared overlap is
 *                                           //   rejected at parse time
 *     "kernels": [                          // required, non-empty
 *       {"kernel": "wmma_shared",           // required; see registry
 *        "name": "gemm0",
 *        "m": 128, "n": 128, "k": 128,
 *        "mode": "mixed" | "fp16" | "int8" | "int4",
 *        "a_layout": "row" | "col", "b_layout": ..., "cd_layout": ...,
 *        "functional": false,
 *        "warps_per_cta": 8,                // wmma_naive only
 *        "ctas": 8, "wmma_per_warp": 64,    // hmma_stress only
 *        "accumulators": 4,
 *        "reads": ["A0"], "writes": ["A1"]}],// declarative form: the
 *                                           //   task-graph compiler
 *                                           //   derives streams/events
 *     "verify_tolerance": 0.05,             // max rel err, functional runs
 *     "expect": [
 *       {"metric": "total.cycles", "max": 60000, "min": 1000},
 *       {"metric": "kernel.gemm0.tflops", "min": 4.0},
 *       {"metric": "verify.max_rel_err", "max": 0.01}],
 *     "sweep": {                            // optional: parameter sweep
 *       "fork_cycle": 2000,                 // snapshot the shared prefix
 *                                           // here (>= 1, before any
 *                                           // prefix stream drains)
 *       "points": [                         // >= 1 sweep points
 *         {"name": "gemm64",                // required, unique
 *          "kernels": [...],                // appended after the prefix
 *          "expect": [...]}]},              // point-specific assertions
 *     "model": {                            // model form: a layer graph
 *       "batch": 4,                         //   lowered (src/model) to
 *       "tokens_per_request": 64,           //   tensors+kernels and fed
 *       "input_features": 256,              //   through the task-graph
 *       "precision": "mixed" | "fp16",      //   compiler; replaces
 *       "layers": [                         //   "kernels"/"tensors"
 *         {"type": "linear", "name": "fc1",
 *          "in_features": 256, "out_features": 256},
 *         {"type": "elementwise"},          // shape from activation
 *         {"type": "attention", "embed_dim": 256, "heads": 4},
 *         {"type": "conv2d", "in_channels": 3, "out_channels": 64,
 *          "kernel": 3, "stride": 1, "height": 32, "width": 32}]},
 *     "serving": {                          // serving-simulator form
 *       "model": { ...model object, no "batch"... },
 *       "trace": {"kind": "poisson", "seed": 42, "requests": 40,
 *                 "mean_interarrival_us": 2.0}
 *              | {"kind": "file",           // JSONL, one arrival per
 *                 "path": "traces/a.jsonl"},//   line (see --trace-out)
 *       "batching": {"policy": "static", "batch": 4,
 *                    "timeout_us": 10.0}
 *                 | {"policy": "continuous", "max_batch": 8,
 *                    "max_in_flight": 2},
 *       "percentiles": [99.5],              // extra latency percentiles
 *       "resilience": {                     // all optional, default off
 *         "deadline_us": 50.0,              // per-request deadline
 *         "batch_timeout_us": 100.0,        // kill a batch after this
 *         "max_retries": 2,                 // re-queues before drop
 *         "retry_backoff_us": 5.0,          // linear backoff per retry
 *         "shed_queue_depth": 8}},          // load-shed past this depth
 *     "faults": {                           // deterministic injection
 *       "seed": 7,                          //   (see sim/fault)
 *       "disabled_sms": [0, 3],             // never dispatched to
 *       "random_disabled_sms": 1,           // + seeded random picks
 *       "degraded_sms": [                   // reduced warp-slot caps
 *         {"sm": 1, "warp_slots": 16}],
 *       "random_degraded_sms": 2,           // + seeded random picks...
 *       "degraded_warp_slots": 16,          //   ...capped to this
 *       "slowdowns": [                      // kernel-name substring
 *         {"match": "fc1", "factor": 2.0,   //   rules, in promotion
 *          "count": 1}],                    //   order; count 0 = all
 *       "hangs": [{"match": "b0.", "count": 1}],  // never retires
 *       "ecc": {"prob": 0.001,              // per-sector retry odds on
 *               "extra_cycles": 200}}       //   the L2/DRAM path
 *   }
 *
 * A sweep scenario runs its top-level "kernels" as a *shared prefix*:
 * the runner simulates the prefix once, snapshots the complete
 * simulation state at fork_cycle, and forks one run per point (each a
 * restore + the point's kernels), bit-identical to running
 * prefix+point cold from cycle 0.  Sweeps take the plain form only,
 * so the prefix and every point run in declaration order on the
 * default stream.  Sweep constraints (validated at parse time): every
 * kernel must be timing-only (functional=false), and point kernel
 * names must not collide with prefix names.  The per-point "expect"
 * list is evaluated against the merged run (prefix + point kernels)
 * in addition to the top-level "expect".
 *
 * Metric paths ("expect" entries, top level and per sweep point) are
 * defined in driver/metric.h, one table entry per field, and checked
 * when the scenario is parsed: a path its run would not report (an
 * unknown field, kernel, event, stall reason or percentile, or a
 * serve.*, fault.* or resilience metric the scenario does not declare
 * the object for) is a ScenarioError naming the file and the path.
 * "faults" composes with the kernel, declarative, model and serving
 * forms, but is rejected alongside "sweep" and sim.replay (those
 * paths assume a healthy chip).
 *
 * The "gpu" object also accepts the memory-hierarchy knobs
 * l1_mshr_entries, l2_banks, l2_bank_bytes_per_cycle,
 * l2_bank_queue_depth, noc_bytes_per_cycle, noc_queue_depth,
 * dram_queue_depth and dram_rw_turnaround (see GpuConfig).
 *
 * Dependencies are stated one way.  A plain scenario runs its kernels
 * in declaration order on the default stream.  A scenario with a
 * "tensors" arena (or any kernel declaring "reads"/"writes") is in
 * the declarative form, handled by the task-graph frontend
 * (driver/taskgraph.h): every kernel declares its read/write sets and
 * the compiler derives streams and events, each event named
 * "<task>_done" after its producer.  The Scenario keeps the compiled
 * plan, and the runner enqueues it through Gpu::launch_graph.  There
 * is no "stream", "sync", "record_event" or "wait_event" key, in
 * either form: each is rejected with a ScenarioError that points to
 * "tensors" plus "reads"/"writes".
 */

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "arch/gpu_config.h"
#include "driver/json.h"
#include "driver/taskgraph.h"
#include "model/model_graph.h"
#include "serve/request_trace.h"
#include "sim/engine.h"
#include "sim/fault/fault_plan.h"
#include "sim/graph/task_graph.h"
#include "tensor/types.h"

namespace tcsim {
namespace driver {

/** Thrown on schema violations (unknown keys, bad values). */
class ScenarioError : public std::runtime_error
{
  public:
    explicit ScenarioError(const std::string& what)
        : std::runtime_error(what)
    {
    }
};

/** One kernel launch of a scenario. */
struct KernelSpec
{
    std::string family;  ///< Registry name ("wmma_shared", ...).
    std::string name;    ///< Display name; defaults to family_<index>.

    // GEMM families.
    int m = 64, n = 64, k = 64;
    TcMode mode = TcMode::kMixed;
    Layout a_layout = Layout::kRowMajor;
    Layout b_layout = Layout::kRowMajor;
    Layout cd_layout = Layout::kRowMajor;
    bool functional = false;
    int warps_per_cta = 8;  ///< wmma_naive only.

    // hmma_stress.
    int ctas = 8;
    int wmma_per_warp = 64;
    int accumulators = 4;

    // Declarative form (driver/taskgraph.h).
    /** Tensor names this kernel reads / writes. */
    std::vector<std::string> reads, writes;

    /** Source position of the kernel object (diagnostics). */
    int line = 0, col = 0;
};

/** One expected-metric assertion. */
struct Expectation
{
    std::string metric;
    bool has_min = false, has_max = false, has_equals = false;
    double min = 0.0, max = 0.0, equals = 0.0;
};

/** One point of a parameter sweep: kernels appended after the shared
 *  prefix, plus point-specific assertions. */
struct SweepPoint
{
    std::string name;
    std::vector<KernelSpec> kernels;
    std::vector<Expectation> expect;
};

/** A parameter sweep over a shared simulated prefix. */
struct SweepSpec
{
    /** Cycle the prefix is snapshotted at (>= 1). */
    uint64_t fork_cycle = 0;
    std::vector<SweepPoint> points;
};

/** The "serving" scenario form: a request trace served against a
 *  declarative model under a batching policy (src/serve).  Wall-clock
 *  times are kept in microseconds here and converted to cycles with
 *  the resolved GpuConfig::clock_ghz at run time. */
struct ServingSpec
{
    bool enabled = false;
    model::ModelGraph model;

    // Trace source.
    std::string trace_kind = "poisson";  ///< "poisson" | "file".
    uint64_t seed = 1;
    int requests = 0;
    double mean_interarrival_us = 0;
    /** Materialized arrivals for "file" traces. */
    std::vector<serve::Request> file_trace;

    // Batching policy.
    std::string policy = "static";  ///< "static" | "continuous".
    int batch = 1;                  ///< static: target batch size.
    double timeout_us = 0;          ///< static: partial-batch flush.
    int max_batch = 8;              ///< continuous: join cap.
    int max_in_flight = 2;          ///< continuous: concurrent batches.

    /** Extra end-to-end latency percentiles to report beyond the fixed
     *  p50/95/99/99.9 set, in percent (e.g. [99.5]). */
    std::vector<double> percentiles;

    // Resilience ("resilience" object; all default off).  Microsecond
    // knobs convert to cycles at run time like the other wall-clock
    // fields.
    bool resilience = false;
    double deadline_us = 0;
    double batch_timeout_us = 0;
    int max_retries = 0;
    double retry_backoff_us = 0;
    int shed_queue_depth = 0;
};

/** A parsed scenario. */
struct Scenario
{
    std::string name;
    std::string description;
    std::string file;  ///< Source path when loaded from disk.

    std::string gpu_preset = "titan_v";
    /** GpuConfig field overrides, in declaration order. */
    std::vector<std::pair<std::string, double>> gpu_overrides;

    SimOptions sim;
    std::vector<KernelSpec> kernels;
    /** Declarative form: the tensor arena ("tensors"). */
    std::vector<TensorSpec> tensors;
    /** True when the task-graph compiler derived streams/events. */
    bool declarative = false;
    /** The compiled task graph when declarative (kernels[t] is task
     *  t); empty for a plain scenario, one ordered queue on the default
     *  stream. */
    TaskGraph::Compiled plan;
    /** Engine stream of kernels[i]: its compiled stream (1..) when
     *  declarative, else 0 (the default stream). */
    int stream_of(size_t i) const
    {
        return declarative ? plan.stream_of[i] : 0;
    }
    std::vector<Expectation> expect;
    /** Max allowed |D - ref| / (1 + |ref|) for functional kernels. */
    double verify_tolerance = 0.05;

    /** Parameter sweep (empty points = a plain scenario). */
    SweepSpec sweep;
    bool is_sweep() const { return !sweep.points.empty(); }

    /** Serving form ("serving" key): no kernel list, the serving
     *  engine lowers and launches model batches itself. */
    ServingSpec serving;
    bool is_serving() const { return serving.enabled; }

    /** Deterministic fault injection ("faults" key; default: healthy
     *  chip). */
    FaultSpec faults;
    bool has_faults() const { return faults.enabled; }

    /** Preset with overrides applied. */
    GpuConfig gpu_config() const;
};

/** Names of the GpuConfig fields overridable from the "gpu" object. */
const std::vector<std::string>& gpu_override_keys();

/** Apply one override to @p cfg; throws ScenarioError when unknown. */
void apply_gpu_override(GpuConfig* cfg, const std::string& key,
                        double value);

/** Microseconds -> simulated cycles at @p clock_ghz, rounded to
 *  nearest.  The one conversion used for traces, timeouts and serving
 *  reports, so scenarios written in wall-clock terms stay consistent. */
uint64_t us_to_cycles(double us, double clock_ghz);

/** Parse a scenario document; @p file is used in error messages. */
Scenario parse_scenario(const JsonValue& doc, const std::string& file = "");

/** Parse from JSON text. */
Scenario parse_scenario_text(const std::string& text,
                             const std::string& file = "");

/** Load and parse scenarios/<name>.json. */
Scenario load_scenario_file(const std::string& path);

/**
 * Attach a standalone sweep/grid document ({"fork_cycle": ...,
 * "points": [...]}) to @p sc and validate the combination (the
 * simrunner --sweep/--grid form).  Throws ScenarioError when @p sc
 * already declares a sweep or any sweep constraint fails.
 */
void attach_sweep(Scenario* sc, const JsonValue& doc,
                  const std::string& file = "");

/**
 * Expand sweep point @p index into a standalone scenario: the shared
 * prefix kernels followed by the point's kernels, the merged expect
 * list, and the joined name "<scenario>/<point>".  Running the result
 * cold (with the same SimOptions::min_sms floor the sweep runner
 * pins) is the reference a forked run must match bit-identically.
 */
Scenario materialize_sweep_point(const Scenario& sc, size_t index);

const char* tc_mode_key(TcMode mode);
const char* scheduler_key(SchedulerPolicy policy);

}  // namespace driver
}  // namespace tcsim
