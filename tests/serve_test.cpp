/**
 * @file
 * Serving-simulator tests: batching-policy decision tables, Poisson
 * trace determinism, percentile math on known distributions, the
 * engine's idle fast-forward (advance_idle_to), and end-to-end
 * run_serving behaviour -- empty trace, single request, static
 * timeout flush, continuous join, multi-kernel layers served in
 * declaration order, and bit-identity between serial and
 * multi-threaded simulation.
 */

#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "arch/gpu_config.h"
#include "kernels/gemm_kernels.h"
#include "kernels/kernel_registry.h"
#include "model/model_graph.h"
#include "serve/batching.h"
#include "serve/latency_stats.h"
#include "serve/request_trace.h"
#include "serve/serving_engine.h"
#include "sim/gpu.h"

using namespace tcsim;
using namespace tcsim::serve;

namespace {

/** Small GPU + serial sim so end-to-end runs stay fast. */
GpuConfig
small_gpu()
{
    GpuConfig cfg = titan_v_config();
    cfg.num_sms = 4;
    return cfg;
}

SimOptions
serial_sim()
{
    SimOptions sim;
    sim.sim_threads = 1;
    return sim;
}

/** Two 64-wide linear layers, one row per request: each wavefront is
 *  two chained 64x64x64 GEMMs. */
model::ModelGraph
tiny_mlp()
{
    model::ModelGraph g;
    g.name = "tiny";
    g.tokens_per_request = 1;
    g.input_features = 64;
    for (int i = 0; i < 2; ++i) {
        model::LayerSpec l;
        l.kind = model::LayerKind::kLinear;
        l.name = "fc" + std::to_string(i);
        l.out_features = 64;
        g.layers.push_back(l);
    }
    return g;
}

std::vector<Request>
at_cycles(std::initializer_list<uint64_t> cycles)
{
    std::vector<Request> trace;
    for (uint64_t c : cycles)
        trace.push_back({static_cast<int>(trace.size()), c});
    return trace;
}

}  // namespace

// --- Policies --------------------------------------------------------

TEST(Batching, StaticAdmitTable)
{
    StaticBatcher p(4, 1000);
    // Full batch ready, nothing running: admit exactly `batch`.
    EXPECT_EQ(p.admit(0, {5, 0, 0}), 4);
    // Under-full and young: wait.
    EXPECT_EQ(p.admit(500, {2, 100, 0}), 0);
    // Timeout flush: the partial batch goes out.
    EXPECT_EQ(p.admit(1100, {2, 100, 0}), 2);
    // One batch in flight at a time.
    EXPECT_EQ(p.admit(0, {5, 0, 1}), 0);
    // Deadline tracks the oldest queued request, idle only.
    EXPECT_EQ(p.next_deadline({2, 100, 0}), 1100u);
    EXPECT_EQ(p.next_deadline({2, 100, 1}), UINT64_MAX);
    EXPECT_EQ(p.next_deadline({0, 0, 0}), UINT64_MAX);
}

TEST(Batching, ContinuousAdmitTable)
{
    ContinuousBatcher p(8, 2);
    EXPECT_EQ(p.admit(0, {3, 0, 0}), 3);
    EXPECT_EQ(p.admit(0, {12, 0, 1}), 8);   // Capped at max_batch.
    EXPECT_EQ(p.admit(0, {3, 0, 2}), 0);    // At max_in_flight.
    EXPECT_EQ(p.next_deadline({3, 0, 0}), UINT64_MAX);
}

// --- Traces ----------------------------------------------------------

TEST(RequestTrace, PoissonDeterministicAndSorted)
{
    std::vector<Request> a = poisson_trace(42, 500, 1000.0);
    std::vector<Request> b = poisson_trace(42, 500, 1000.0);
    ASSERT_EQ(a.size(), 500u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival_cycle, b[i].arrival_cycle);
        EXPECT_EQ(a[i].id, static_cast<int>(i));
        if (i > 0) {
            EXPECT_GE(a[i].arrival_cycle, a[i - 1].arrival_cycle);
        }
    }
    // Mean inter-arrival gap converges on the requested mean.
    const double mean =
        static_cast<double>(a.back().arrival_cycle) / 500.0;
    EXPECT_NEAR(mean, 1000.0, 100.0);
    // A different seed is a different trace.
    EXPECT_NE(poisson_trace(43, 500, 1000.0)[10].arrival_cycle,
              a[10].arrival_cycle);
}

// --- Percentiles -----------------------------------------------------

TEST(LatencyStats, NearestRankPercentiles)
{
    // 1..100: nearest-rank p-th percentile is exactly p.
    std::vector<uint64_t> v(100);
    std::iota(v.begin(), v.end(), 1);
    EXPECT_EQ(percentile_nearest_rank(v, 50.0), 50u);
    EXPECT_EQ(percentile_nearest_rank(v, 95.0), 95u);
    EXPECT_EQ(percentile_nearest_rank(v, 99.0), 99u);
    EXPECT_EQ(percentile_nearest_rank(v, 100.0), 100u);
    // Small samples: ceil(rank) clamps into [1, n].
    EXPECT_EQ(percentile_nearest_rank({7}, 99.0), 7u);
    EXPECT_EQ(percentile_nearest_rank({10, 20}, 50.0), 10u);
    EXPECT_EQ(percentile_nearest_rank({10, 20}, 51.0), 20u);
    EXPECT_EQ(percentile_nearest_rank({}, 99.0), 0u);
    // Order-independent.
    EXPECT_EQ(percentile_nearest_rank({30, 10, 20}, 99.0), 30u);
}

TEST(LatencyStats, NearestRankBoundaries)
{
    // 1..1000: exact rank boundaries of the tail percentiles.  p99.9
    // is the 999th sample (ceil(0.999 * 1000) = 999), not the max.
    std::vector<uint64_t> v(1000);
    std::iota(v.begin(), v.end(), 1);
    EXPECT_EQ(percentile_nearest_rank(v, 99.9), 999u);
    EXPECT_EQ(percentile_nearest_rank(v, 99.91), 1000u);
    // With n = 10 the p99.9 rank clamps to the max sample.
    std::vector<uint64_t> w(10);
    std::iota(w.begin(), w.end(), 1);
    EXPECT_EQ(percentile_nearest_rank(w, 99.9), 10u);
    EXPECT_EQ(percentile_nearest_rank(w, 90.0), 9u);
    // Exact multiples never round up to the next rank.
    EXPECT_EQ(percentile_nearest_rank(w, 50.0), 5u);
    EXPECT_EQ(percentile_nearest_rank(w, 50.01), 6u);
}

TEST(LatencyStats, ExtraPercentilesInRequestOrder)
{
    std::vector<RequestRecord> reqs;
    for (int i = 0; i < 1000; ++i) {
        RequestRecord r;
        r.arrival_cycle = 0;
        r.admit_cycle = 0;
        r.finish_cycle = static_cast<uint64_t>(i + 1);
        reqs.push_back(r);
    }
    LatencySummary s =
        summarize_latency(reqs, {}, 1000, {90.0, 99.5, 50.0});
    EXPECT_EQ(s.latency_p999, 999u);
    ASSERT_EQ(s.latency_extra.size(), 3u);
    EXPECT_DOUBLE_EQ(s.latency_extra[0].first, 90.0);
    EXPECT_EQ(s.latency_extra[0].second, 900u);
    EXPECT_DOUBLE_EQ(s.latency_extra[1].first, 99.5);
    EXPECT_EQ(s.latency_extra[1].second, 995u);
    EXPECT_DOUBLE_EQ(s.latency_extra[2].first, 50.0);
    EXPECT_EQ(s.latency_extra[2].second, 500u);
}

TEST(LatencyStats, SummaryOnKnownRecords)
{
    std::vector<RequestRecord> reqs;
    for (int i = 0; i < 4; ++i) {
        RequestRecord r;
        r.arrival_cycle = 0;
        r.admit_cycle = static_cast<uint64_t>(10 * (i + 1));
        r.finish_cycle = static_cast<uint64_t>(100 * (i + 1));
        reqs.push_back(r);
    }
    std::vector<QueueSample> queue = {{0, 4}, {40, 0}};
    LatencySummary s = summarize_latency(reqs, queue, 400);
    EXPECT_EQ(s.latency_p50, 200u);
    EXPECT_EQ(s.latency_p99, 400u);
    EXPECT_EQ(s.latency_max, 400u);
    EXPECT_DOUBLE_EQ(s.latency_mean, 250.0);
    EXPECT_EQ(s.queue_wait_p50, 20u);
    EXPECT_EQ(s.queue_wait_max, 40u);
    EXPECT_EQ(s.queue_depth_peak, 4);
    // Depth 4 for 40 of 400 cycles.
    EXPECT_DOUBLE_EQ(s.queue_depth_mean, 0.4);
}

// --- Engine idle fast-forward ---------------------------------------

TEST(AdvanceIdleTo, JumpsBlockedRunsAndAccountsSkips)
{
    Gpu gpu(small_gpu(), serial_sim());
    Event& keepalive = gpu.create_event("keepalive");
    gpu.create_stream().wait(keepalive);
    gpu.run_until(0);  // Pauses blocked: only a host-resolvable wait.

    gpu.advance_idle_to(5000);
    EXPECT_EQ(gpu.current_cycle(), 5000u);
    gpu.advance_idle_to(100);  // Backwards: no-op.
    EXPECT_EQ(gpu.current_cycle(), 5000u);

    gpu.default_stream().record(keepalive);
    EngineStats stats = gpu.run();
    EXPECT_GE(stats.skipped_cycles, 5000u);
}

TEST(AdvanceIdleTo, RejectsRunnableWorkAndBadTargets)
{
    GpuConfig cfg = small_gpu();
    SimOptions sim = serial_sim();
    sim.max_cycles = 1000000;
    Gpu gpu(cfg, sim);
    // Not inside a resumable run.
    EXPECT_THROW(gpu.advance_idle_to(100), std::exception);

    Event& keepalive = gpu.create_event("keepalive");
    gpu.create_stream().wait(keepalive);

    // A resident kernel means the chip is not idle.
    const KernelFamilyInfo* info = find_kernel_family("wmma_naive");
    ASSERT_NE(info, nullptr);
    GemmKernelConfig kc;
    kc.arch = cfg.arch;
    kc.m = kc.n = kc.k = 16;
    GemmBuffers buf;
    buf.a = gpu.mem().alloc(16 * 16 * 2);
    buf.b = gpu.mem().alloc(16 * 16 * 2);
    buf.c = gpu.mem().alloc(16 * 16 * 4);
    buf.d = gpu.mem().alloc(16 * 16 * 4);
    gpu.default_stream().enqueue(
        build_gemm_kernel(info->family, kc, buf, /*warps_per_cta=*/8));
    gpu.run_until(1);
    EXPECT_THROW(gpu.advance_idle_to(5000), std::exception);

    // Drain the kernel; then a jump past max_cycles is rejected.
    gpu.run_until(sim.max_cycles);
    EXPECT_THROW(gpu.advance_idle_to(sim.max_cycles + 1), std::exception);
    gpu.default_stream().record(keepalive);
    gpu.run();
}

// --- End-to-end serving ---------------------------------------------

TEST(Serving, EmptyTrace)
{
    StaticBatcher policy(4, 1000);
    ServingResult r =
        run_serving(small_gpu(), serial_sim(), tiny_mlp(), {}, policy);
    EXPECT_EQ(r.report.requests, 0);
    EXPECT_EQ(r.report.completed, 0);
    EXPECT_EQ(r.report.batches, 0);
    EXPECT_EQ(r.report.latency.latency_p99, 0u);
    EXPECT_EQ(r.report.busy_cycles, 0u);
}

TEST(Serving, SingleRequest)
{
    StaticBatcher policy(1, 0);
    ServingResult r = run_serving(small_gpu(), serial_sim(), tiny_mlp(),
                                  at_cycles({100}), policy);
    EXPECT_EQ(r.report.completed, 1);
    ASSERT_EQ(r.report.batches, 1);
    const BatchRecord& b = r.report.batch_records[0];
    EXPECT_EQ(b.size, 1);
    EXPECT_EQ(b.admit_cycle, 100u);
    EXPECT_GT(b.finish_cycle, b.admit_cycle);
    const RequestRecord& q = r.report.request_records[0];
    EXPECT_EQ(q.arrival_cycle, 100u);
    EXPECT_EQ(q.admit_cycle, 100u);
    EXPECT_EQ(q.finish_cycle, b.finish_cycle);
    EXPECT_EQ(q.batch, 0);
    // Latency percentiles of one sample are that sample.
    EXPECT_EQ(r.report.latency.latency_p50,
              q.finish_cycle - q.arrival_cycle);
    EXPECT_EQ(r.report.latency.latency_p99,
              r.report.latency.latency_p50);
    // The arrival gap was fast-forwarded, not simulated.
    EXPECT_GE(r.totals.skipped_cycles, 99u);
}

TEST(Serving, StaticTimeoutFlushesPartialBatch)
{
    // Two requests, batch 4: only the timeout gets them admitted, as
    // one partial batch at exactly oldest_arrival + timeout.
    StaticBatcher policy(4, 50000);
    ServingResult r = run_serving(small_gpu(), serial_sim(), tiny_mlp(),
                                  at_cycles({1000, 2000}), policy);
    EXPECT_EQ(r.report.completed, 2);
    ASSERT_EQ(r.report.batches, 1);
    EXPECT_EQ(r.report.batch_records[0].size, 2);
    EXPECT_EQ(r.report.batch_records[0].admit_cycle, 51000u);
    EXPECT_EQ(r.report.latency.queue_wait_max, 50000u);
}

TEST(Serving, StaticFullBatchNeedsNoTimeout)
{
    StaticBatcher policy(2, 1000000);
    ServingResult r = run_serving(small_gpu(), serial_sim(), tiny_mlp(),
                                  at_cycles({1000, 2000}), policy);
    ASSERT_EQ(r.report.batches, 1);
    // Admitted the moment the second request arrives.
    EXPECT_EQ(r.report.batch_records[0].admit_cycle, 2000u);
}

TEST(Serving, ContinuousOverlapsAndJoinsOnCompletion)
{
    // Three back-to-back requests, one request per batch, two batches
    // in flight: b0 and b1 launch immediately, b2 joins when the first
    // completion frees a slot -- while the other batch is still on the
    // GPU.
    ContinuousBatcher policy(1, 2);
    ServingResult r = run_serving(small_gpu(), serial_sim(), tiny_mlp(),
                                  at_cycles({0, 0, 0}), policy);
    EXPECT_EQ(r.report.completed, 3);
    ASSERT_EQ(r.report.batches, 3);
    const std::vector<BatchRecord>& b = r.report.batch_records;
    EXPECT_EQ(b[0].admit_cycle, 0u);
    EXPECT_EQ(b[1].admit_cycle, 0u);
    const uint64_t first_done =
        std::min(b[0].finish_cycle, b[1].finish_cycle);
    EXPECT_EQ(b[2].admit_cycle, first_done);
    EXPECT_LT(b[2].admit_cycle,
              std::max(b[0].finish_cycle, b[1].finish_cycle));
    // Two kernels were concurrently resident at some point.
    int peak = 0;
    for (const OccupancySample& o : r.report.occupancy)
        peak = std::max(peak, o.running);
    EXPECT_GE(peak, 2);
}

TEST(Serving, WedgedPolicyThrows)
{
    // batch > queued and an effectively infinite timeout: the policy
    // can never admit, which must be a loud error, not a hang.
    StaticBatcher policy(4, UINT64_MAX / 2);
    EXPECT_THROW(run_serving(small_gpu(), serial_sim(), tiny_mlp(),
                             at_cycles({0}), policy),
                 ServingError);
}

TEST(Serving, BitIdenticalAcrossSimThreads)
{
    StaticBatcher policy(2, 30000);
    std::vector<Request> trace = poisson_trace(11, 6, 20000.0);
    SimOptions threaded;
    threaded.sim_threads = 4;
    ServingResult serial =
        run_serving(small_gpu(), serial_sim(), tiny_mlp(), trace, policy);
    ServingResult par =
        run_serving(small_gpu(), threaded, tiny_mlp(), trace, policy);
    EXPECT_EQ(serial.totals.cycles, par.totals.cycles);
    EXPECT_EQ(serial.totals.instructions, par.totals.instructions);
    ASSERT_EQ(serial.report.request_records.size(),
              par.report.request_records.size());
    for (size_t i = 0; i < serial.report.request_records.size(); ++i) {
        const RequestRecord& a = serial.report.request_records[i];
        const RequestRecord& b = par.report.request_records[i];
        EXPECT_EQ(a.admit_cycle, b.admit_cycle);
        EXPECT_EQ(a.finish_cycle, b.finish_cycle);
        EXPECT_EQ(a.batch, b.batch);
    }
    EXPECT_EQ(serial.report.latency.latency_p99,
              par.report.latency.latency_p99);
}

TEST(Serving, TimingOnlyTraceBacksNoMemory)
{
    // Serving allocates A/B/C/D for every kernel but never writes them:
    // the allocations move the cursor only, so the run backs no host
    // bytes however long the trace (a count guard on peak RSS).
    ContinuousBatcher policy(2, 2);
    ServingResult r = run_serving(small_gpu(), serial_sim(), tiny_mlp(),
                                  poisson_trace(7, 8, 20000.0), policy);
    EXPECT_EQ(r.report.completed, 8);
    EXPECT_GT(r.gmem_footprint, 0u);
    EXPECT_EQ(r.gmem_backed, 0u);
}

TEST(Serving, WedgeErrorCarriesLoopStateSnapshot)
{
    // The wedge diagnostic must say what the loop was looking at:
    // queue depth, in-flight count, and the policy's next deadline.
    StaticBatcher policy(4, UINT64_MAX / 2);
    try {
        run_serving(small_gpu(), serial_sim(), tiny_mlp(),
                    at_cycles({0}), policy);
        FAIL() << "expected ServingError";
    } catch (const ServingError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("[serving state:"), std::string::npos);
        EXPECT_NE(what.find("queued=1"), std::string::npos);
        EXPECT_NE(what.find("in_flight=0"), std::string::npos);
        EXPECT_NE(what.find("policy \"static\""), std::string::npos);
    }
}

// --- Batcher deadline edge cases -------------------------------------

TEST(Serving, StaticTimeoutOfZeroFlushesAtArrival)
{
    // timeout == 0: the deadline IS the arrival cycle.  Each request
    // must flush the moment it arrives, never wait a policy tick.
    StaticBatcher policy(4, 0);
    EXPECT_EQ(policy.next_deadline({1, 700, 0}), 700u);
    EXPECT_EQ(policy.admit(700, {1, 700, 0}), 1);

    ServingResult r = run_serving(small_gpu(), serial_sim(), tiny_mlp(),
                                  at_cycles({500}), policy);
    EXPECT_EQ(r.report.completed, 1);
    ASSERT_EQ(r.report.batches, 1);
    EXPECT_EQ(r.report.batch_records[0].admit_cycle, 500u);
    EXPECT_EQ(r.report.latency.queue_wait_max, 0u);
}

TEST(Serving, NoDeadlineWithNonEmptyQueueWakesOnCompletion)
{
    // One batch in flight, one request queued: StaticBatcher reports
    // next_deadline == UINT64_MAX (deadlines apply when idle only).
    // The loop must wake on batch completion, not spin or wedge.
    StaticBatcher policy(1, UINT64_MAX / 2);
    ServingResult r = run_serving(small_gpu(), serial_sim(), tiny_mlp(),
                                  at_cycles({0, 0}), policy);
    EXPECT_EQ(r.report.completed, 2);
    ASSERT_EQ(r.report.batches, 2);
    const std::vector<BatchRecord>& b = r.report.batch_records;
    EXPECT_EQ(b[0].admit_cycle, 0u);
    // Admitted exactly when the in-flight batch finished.
    EXPECT_EQ(b[1].admit_cycle, b[0].finish_cycle);
}

TEST(Serving, ContinuousAdmitsAtFinalLayerBoundary)
{
    // In-flight cap reached when the second request arrives: the only
    // remaining decision point of the running batch is its final
    // layer's completion callback, which must admit the latecomer.
    ContinuousBatcher policy(1, 1);
    ServingResult r = run_serving(small_gpu(), serial_sim(), tiny_mlp(),
                                  at_cycles({0, 10}), policy);
    EXPECT_EQ(r.report.completed, 2);
    ASSERT_EQ(r.report.batches, 2);
    const std::vector<BatchRecord>& b = r.report.batch_records;
    EXPECT_EQ(b[1].admit_cycle, b[0].finish_cycle);
}

TEST(Serving, MultiKernelLayersRunInDeclarationOrder)
{
    // Attention lowers to four GEMMs and elementwise to a wmma_naive
    // launch, so the continuous batcher's layer-boundary callbacks sit
    // mid-wavefront.  Each batch is one in-order stream: its kernels
    // (matched by the "b<id>." prefix) run back to back in declaration
    // order, and the report's flops are the lowered flops of every
    // batch.
    model::ModelGraph g;
    g.name = "attn";
    g.tokens_per_request = 16;
    g.input_features = 64;
    model::LayerSpec proj;
    proj.kind = model::LayerKind::kLinear;
    proj.out_features = 64;
    g.layers.push_back(proj);
    model::LayerSpec attn;
    attn.kind = model::LayerKind::kAttention;
    attn.heads = 2;
    g.layers.push_back(attn);
    model::LayerSpec act;
    act.kind = model::LayerKind::kElementwise;
    g.layers.push_back(act);

    ContinuousBatcher policy(2, 2);
    ServingResult r =
        run_serving(small_gpu(), serial_sim(), g,
                    at_cycles({0, 0, 0, 3000, 4000, 20000}), policy);
    EXPECT_EQ(r.report.completed, 6);
    ASSERT_GE(r.report.batches, 3);

    std::map<std::string, const LaunchStats*> by_name;
    for (const LaunchStats& k : r.totals.kernels)
        by_name[k.kernel] = &k;
    double flops = 0;
    for (const BatchRecord& b : r.report.batch_records) {
        const model::LoweredModel lm = model::lower_model(
            g, b.size, "b" + std::to_string(b.id) + ".");
        ASSERT_EQ(lm.kernels.size(), 6u);
        flops += lm.total_flops;
        const LaunchStats* prev = nullptr;
        for (const model::LoweredKernel& lk : lm.kernels) {
            auto it = by_name.find(lk.name);
            ASSERT_NE(it, by_name.end()) << lk.name;
            const LaunchStats* k = it->second;
            if (prev) {
                EXPECT_GE(k->start_cycle, prev->finish_cycle) << lk.name;
                EXPECT_EQ(k->stream, prev->stream) << lk.name;
            }
            prev = k;
        }
        EXPECT_EQ(prev->finish_cycle + 1, b.finish_cycle) << b.id;
    }
    EXPECT_EQ(by_name.size(), 6u * r.report.batch_records.size());
    EXPECT_DOUBLE_EQ(r.report.total_flops, flops);
}

// --- Resilience: deadlines, shedding, retries ------------------------

TEST(ServingResilience, DeadlineMissAccounting)
{
    StaticBatcher policy(1, 0);
    ServingResilience strict;
    strict.deadline_cycles = 1;  // Nothing finishes this fast.
    ServingResult r = run_serving(small_gpu(), serial_sim(), tiny_mlp(),
                                  at_cycles({0, 1000}), policy, {}, strict);
    EXPECT_TRUE(r.report.resilience);
    EXPECT_EQ(r.report.completed, 2);
    EXPECT_EQ(r.report.deadline_miss, 2);
    EXPECT_DOUBLE_EQ(r.report.goodput, 0.0);
    EXPECT_TRUE(r.report.request_records[0].deadline_missed);

    ServingResilience lax;
    lax.deadline_cycles = UINT64_MAX / 2;
    ServingResult ok = run_serving(small_gpu(), serial_sim(), tiny_mlp(),
                                   at_cycles({0, 1000}), policy, {}, lax);
    EXPECT_EQ(ok.report.deadline_miss, 0);
    EXPECT_DOUBLE_EQ(ok.report.goodput, 1.0);
}

TEST(ServingResilience, ShedsArrivalsPastQueueDepth)
{
    // Queue cap 2 with five simultaneous arrivals: two join, three are
    // shed at the door; the shed ones never admit and count as missed.
    StaticBatcher policy(4, 40000);
    ServingResilience res;
    res.shed_queue_depth = 2;
    ServingResult r =
        run_serving(small_gpu(), serial_sim(), tiny_mlp(),
                    at_cycles({0, 0, 0, 0, 0}), policy, {}, res);
    EXPECT_EQ(r.report.requests, 5);
    EXPECT_EQ(r.report.completed, 2);
    EXPECT_EQ(r.report.shed, 3);
    EXPECT_EQ(r.report.deadline_miss, 3);  // Shed always miss.
    EXPECT_DOUBLE_EQ(r.report.goodput, 2.0 / 5.0);
    ASSERT_EQ(r.report.batches, 1);
    EXPECT_EQ(r.report.batch_records[0].size, 2);
    int shed = 0;
    for (const RequestRecord& q : r.report.request_records)
        shed += q.shed;
    EXPECT_EQ(shed, 3);
}

TEST(ServingResilience, HangKillRetryCompletes)
{
    // Wavefront b0's first kernel hangs.  The batch timeout kills the
    // batch; the request re-queues after the backoff and its retry
    // wavefront (b1, unmatched by the hang rule) completes.
    FaultSpec faults;
    faults.enabled = true;
    faults.hangs.push_back({"b0.", 1.0, 1});

    StaticBatcher policy(1, 0);
    ServingResilience res;
    res.batch_timeout_cycles = 50000;
    res.max_retries = 2;
    res.retry_backoff_cycles = 1000;
    ServingResult r = run_serving(small_gpu(), serial_sim(), tiny_mlp(),
                                  at_cycles({0}), policy, {}, res, faults);
    EXPECT_TRUE(r.faults_enabled);
    EXPECT_EQ(r.faults.hangs, 1u);
    EXPECT_EQ(r.report.completed, 1);
    EXPECT_EQ(r.report.retries, 1);
    EXPECT_EQ(r.report.killed_batches, 1);
    EXPECT_EQ(r.report.dropped, 0);
    ASSERT_EQ(r.report.batches, 2);
    EXPECT_TRUE(r.report.batch_records[0].killed);
    EXPECT_FALSE(r.report.batch_records[1].killed);
    // Kill at admit + timeout, retry admitted after the backoff.
    EXPECT_EQ(r.report.batch_records[0].finish_cycle, 50000u);
    EXPECT_GE(r.report.batch_records[1].admit_cycle, 51000u);
    const RequestRecord& q = r.report.request_records[0];
    EXPECT_EQ(q.retries, 1);
    EXPECT_EQ(q.batch, 1);
    EXPECT_DOUBLE_EQ(r.report.goodput, 1.0);
}

TEST(ServingResilience, RetryBudgetExhaustionDrops)
{
    // Every wavefront's first-layer kernel hangs (count 0 = all): the
    // original admit and the single permitted retry both die, then the
    // request is dropped and the loop terminates cleanly.
    FaultSpec faults;
    faults.enabled = true;
    faults.hangs.push_back({"fc0", 1.0, 0});

    StaticBatcher policy(1, 0);
    ServingResilience res;
    res.batch_timeout_cycles = 20000;
    res.max_retries = 1;
    res.retry_backoff_cycles = 500;
    ServingResult r = run_serving(small_gpu(), serial_sim(), tiny_mlp(),
                                  at_cycles({0}), policy, {}, res, faults);
    EXPECT_EQ(r.report.completed, 0);
    EXPECT_EQ(r.report.dropped, 1);
    EXPECT_EQ(r.report.retries, 1);
    EXPECT_EQ(r.report.killed_batches, 2);
    EXPECT_EQ(r.report.deadline_miss, 1);
    EXPECT_DOUBLE_EQ(r.report.goodput, 0.0);
    EXPECT_TRUE(r.report.request_records[0].dropped);
}

TEST(ServingResilience, FaultyServingIsBitIdenticalAcrossSimThreads)
{
    FaultSpec faults;
    faults.enabled = true;
    faults.disabled_sms = {0};
    faults.ecc_prob = 0.02;
    faults.ecc_extra_cycles = 60;
    faults.hangs.push_back({"b0.", 1.0, 1});

    StaticBatcher policy(2, 30000);
    ServingResilience res;
    res.deadline_cycles = 400000;
    res.batch_timeout_cycles = 60000;
    res.max_retries = 2;
    res.retry_backoff_cycles = 2000;
    std::vector<Request> trace = poisson_trace(5, 6, 20000.0);

    SimOptions threaded;
    threaded.sim_threads = 4;
    ServingResult serial = run_serving(small_gpu(), serial_sim(),
                                       tiny_mlp(), trace, policy, {}, res,
                                       faults);
    ServingResult par = run_serving(small_gpu(), threaded, tiny_mlp(),
                                    trace, policy, {}, res, faults);
    EXPECT_EQ(serial.report.killed_batches, par.report.killed_batches);
    EXPECT_EQ(serial.report.retries, par.report.retries);
    EXPECT_EQ(serial.report.deadline_miss, par.report.deadline_miss);
    EXPECT_EQ(serial.faults.ecc_retries, par.faults.ecc_retries);
    ASSERT_EQ(serial.report.request_records.size(),
              par.report.request_records.size());
    for (size_t i = 0; i < serial.report.request_records.size(); ++i) {
        const RequestRecord& a = serial.report.request_records[i];
        const RequestRecord& b = par.report.request_records[i];
        EXPECT_EQ(a.admit_cycle, b.admit_cycle);
        EXPECT_EQ(a.finish_cycle, b.finish_cycle);
        EXPECT_EQ(a.retries, b.retries);
        EXPECT_EQ(a.deadline_missed, b.deadline_missed);
    }
}
