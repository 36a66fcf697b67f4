/**
 * @file
 * The inference-serving simulator: maps a request arrival trace onto
 * the resumable execution engine and measures request latency under a
 * batching policy.
 *
 * Mechanism.  One Gpu hosts the whole serving run.  A keepalive
 * stream waits on a never-recorded "shutdown" event, which keeps the
 * resumable run open (and the clock monotonic) across idle gaps
 * between batches.  The loop interleaves three stimuli, all expressed
 * in simulated cycles:
 *
 *  - request arrivals (from the trace);
 *  - batching-policy deadlines (timeout flushes);
 *  - in-flight batch progress: stream callbacks planted after each
 *    layer's last kernel (the continuous batcher's join points) and
 *    after the final kernel (request completion).
 *
 * Between stimuli the engine either simulates forward (run_until) or,
 * when the chip is fully idle, fast-forwards with
 * Gpu::advance_idle_to — so a sparse trace costs simulation time
 * proportional to work, not to wall-clock span.
 *
 * Each admitted batch ("wavefront") is lowered from the declarative
 * ModelGraph with a per-wavefront name prefix and enqueued on one
 * fresh stream in declaration order.  Every layer kind lowers to a
 * chain, and declaration order is a topological order of the lowered
 * tensor hazards, so the in-order stream is exact; different
 * wavefronts are independent streams, overlapping on the GPU exactly
 * as far as SM capacity allows.
 *
 * Every decision is a function of simulated cycles and queue state,
 * and callbacks fire on the engine thread in canonical order, so
 * serving results are bit-identical across `--jobs`/`--sim-threads`.
 */
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "arch/gpu_config.h"
#include "model/model_graph.h"
#include "serve/batching.h"
#include "serve/latency_stats.h"
#include "serve/request_trace.h"
#include "sim/engine.h"
#include "sim/fault/fault_plan.h"

namespace tcsim::serve {

/** The serving loop wedged itself (requests that can never finish). */
class ServingError : public std::runtime_error
{
  public:
    explicit ServingError(const std::string& what)
        : std::runtime_error(what)
    {
    }
};

/**
 * Resilience knobs for the serving loop, all in simulated cycles.
 * Every feature defaults to off, in which case the loop behaves (and
 * reports) exactly as it did without this struct — the happy path
 * stays byte-identical.
 */
struct ServingResilience
{
    /** Per-request end-to-end deadline; 0 = none.  A request whose
     *  finish - arrival exceeds this is counted as a deadline miss
     *  (shed and dropped requests always miss). */
    uint64_t deadline_cycles = 0;
    /** Kill an in-flight batch this many cycles after admission if it
     *  has not finished (the injected-kernel-hang escape hatch);
     *  0 = never kill. */
    uint64_t batch_timeout_cycles = 0;
    /** Times a request whose batch was killed may re-queue before it
     *  is dropped. */
    int max_retries = 0;
    /** Re-queue delay after a kill: backoff * (retry attempt). */
    uint64_t retry_backoff_cycles = 0;
    /** Shed arrivals once this many requests are queued; 0 = never
     *  (applied by wrapping the policy in LoadSheddingPolicy). */
    int shed_queue_depth = 0;

    bool enabled() const
    {
        return deadline_cycles != 0 || batch_timeout_cycles != 0 ||
               max_retries != 0 || retry_backoff_cycles != 0 ||
               shed_queue_depth != 0;
    }
};

/** Everything the driver reports about one serving run. */
struct ServingReport
{
    std::string policy;
    int requests = 0;
    int completed = 0;
    int batches = 0;
    double mean_batch_size = 0;
    LatencySummary latency;
    /** Cycle the last kernel retired, plus one (0 for empty traces). */
    uint64_t makespan_cycles = 0;
    /** Cycles with >= 1 kernel resident, and that as a fraction of
     *  the makespan (SM-occupancy over time is in `occupancy`). */
    uint64_t busy_cycles = 0;
    double busy_frac = 0;
    double total_flops = 0;
    // Resilience outcome (all zero when `resilience` is false; the
    // driver omits these fields from reports so happy-path output is
    // byte-identical to builds before fault injection existed).
    bool resilience = false;
    int deadline_miss = 0;   ///< Requests that finished late or never.
    double goodput = 0;      ///< In-deadline completions / requests.
    int retries = 0;         ///< Total request re-queues after kills.
    int shed = 0;            ///< Arrivals rejected by admission control.
    int dropped = 0;         ///< Requests whose retry budget ran out.
    int killed_batches = 0;  ///< Batches killed by the batch timeout.
    // Timelines, all in canonical (deterministic) order.
    std::vector<RequestRecord> request_records;
    std::vector<BatchRecord> batch_records;
    std::vector<QueueSample> queue_timeline;
    std::vector<OccupancySample> occupancy;
};

/** Report plus the raw engine statistics of the underlying run. */
struct ServingResult
{
    ServingReport report;
    EngineStats totals;
    /** Global memory at the end of the run: the bytes its allocations
     *  span, and the host bytes backing them.  Serving launches are
     *  timing-only and never write, so they back nothing. */
    uint64_t gmem_footprint = 0;
    uint64_t gmem_backed = 0;
    /** Injected-fault telemetry of the underlying Gpu (meaningful
     *  only when `faults_enabled`). */
    bool faults_enabled = false;
    FaultCounters faults;
};

/**
 * Simulate serving @p trace against @p graph under @p policy on a GPU
 * of @p cfg.  Throws ModelError/ServingError on invalid input or a
 * wedged loop, SimHangError when a watchdog fires (unless the batch
 * timeout recovers the run first), std::runtime_error when
 * sim.max_cycles is exceeded.  @p extra_percentiles requests
 * additional end-to-end latency percentiles (see summarize_latency).
 * @p resilience enables deadlines/retries/shedding (defaults: all
 * off); @p faults injects deterministic hardware faults into the
 * underlying Gpu (default: none).
 */
ServingResult run_serving(const GpuConfig& cfg, const SimOptions& sim,
                          const model::ModelGraph& graph,
                          const std::vector<Request>& trace,
                          const BatchingPolicy& policy,
                          const std::vector<double>& extra_percentiles = {},
                          const ServingResilience& resilience = {},
                          const FaultSpec& faults = {});

}  // namespace tcsim::serve
