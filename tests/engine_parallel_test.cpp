/**
 * @file
 * Determinism tests for the parallel simulation core: sharding the SMs
 * across a worker pool (SimOptions::sim_threads > 1) must produce
 * results bit-identical to a serial run — every cycle stamp, memory
 * counter, stall counter and macro-latency sample — across
 * memory-pressure configs, multi-stream event DAGs, functional
 * (data-carrying) kernels, resumable runs, and both the idle-skip and
 * lockstep main loops.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "cutlass/gemm.h"
#include "kernels/gemm_kernels.h"
#include "sim/gpu.h"
#include "sim/mem/shared_memory.h"

namespace tcsim {
namespace {

GpuConfig
small_titan_v(int sms)
{
    GpuConfig cfg = titan_v_config();
    cfg.num_sms = sms;
    return cfg;
}

/** The memory-bound config the mem_pressure scenarios use: a tiny L1
 *  keeps transactions (and MIO-head refusals) in flight for most of
 *  the run, which is exactly where cross-SM ordering could leak. */
GpuConfig
mem_bound_config(int sms)
{
    GpuConfig cfg = small_titan_v(sms);
    cfg.l1_size = 16 * 1024;
    cfg.dram_latency = 400;
    return cfg;
}

void
expect_identical_kernel(const LaunchStats& a, const LaunchStats& b)
{
    EXPECT_EQ(a.kernel, b.kernel);
    EXPECT_EQ(a.stream, b.stream);
    EXPECT_EQ(a.start_cycle, b.start_cycle);
    EXPECT_EQ(a.finish_cycle, b.finish_cycle);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.hmma_instructions, b.hmma_instructions);
    EXPECT_EQ(a.mem.l1_hits, b.mem.l1_hits);
    EXPECT_EQ(a.mem.l1_misses, b.mem.l1_misses);
    for (size_t i = 0; i < kNumStallReasons; ++i) {
        StallReason r = static_cast<StallReason>(i);
        EXPECT_EQ(a.stalls[r], b.stalls[r])
            << a.kernel << ": " << stall_reason_name(r);
    }
    // Macro-latency histograms must hold the same samples in the same
    // order (the aggregation order across SM shards is canonical).
    ASSERT_EQ(a.macro_latency.size(), b.macro_latency.size());
    for (const auto& [mc, ha] : a.macro_latency) {
        auto it = b.macro_latency.find(mc);
        ASSERT_NE(it, b.macro_latency.end());
        EXPECT_EQ(ha.samples(), it->second.samples());
    }
}

void
expect_identical(const EngineStats& a, const EngineStats& b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.hmma_instructions, b.hmma_instructions);
    // A bounded advance (run_until) ticks at each chunk boundary where
    // an unbounded run idle-skips straight past it, so the tick/skip
    // split is chunking-dependent; the covered-cycle sum is the
    // invariant.
    EXPECT_EQ(a.ticks + a.skipped_cycles, b.ticks + b.skipped_cycles);
    EXPECT_EQ(a.current_cycle, b.current_cycle);
    EXPECT_EQ(a.mem.l1_hits, b.mem.l1_hits);
    EXPECT_EQ(a.mem.l1_misses, b.mem.l1_misses);
    EXPECT_EQ(a.mem.l2_hits, b.mem.l2_hits);
    EXPECT_EQ(a.mem.l2_misses, b.mem.l2_misses);
    EXPECT_EQ(a.mem.dram_bytes, b.mem.dram_bytes);
    EXPECT_EQ(a.mem.global_sectors, b.mem.global_sectors);
    EXPECT_EQ(a.mem.mshr_merges, b.mem.mshr_merges);
    EXPECT_EQ(a.mem.mshr_peak, b.mem.mshr_peak);
    EXPECT_EQ(a.mem.noc_queue_cycles, b.mem.noc_queue_cycles);
    EXPECT_EQ(a.mem.l2_queue_cycles, b.mem.l2_queue_cycles);
    EXPECT_EQ(a.mem.dram_queue_cycles, b.mem.dram_queue_cycles);
    EXPECT_EQ(a.mem.dram_turnarounds, b.mem.dram_turnarounds);
    for (size_t i = 0; i < kNumStallReasons; ++i) {
        StallReason r = static_cast<StallReason>(i);
        EXPECT_EQ(a.stalls[r], b.stalls[r]) << stall_reason_name(r);
    }
    ASSERT_EQ(a.kernels.size(), b.kernels.size());
    for (size_t k = 0; k < a.kernels.size(); ++k)
        expect_identical_kernel(a.kernels[k], b.kernels[k]);
}

/** Run one timing-only naive GEMM through the stream engine. */
EngineStats
run_gemm(const GpuConfig& cfg, SimOptions opts, int mnk = 128)
{
    Gpu gpu(cfg, opts);
    GemmKernelConfig kc;
    kc.m = kc.n = kc.k = mnk;
    kc.functional = false;
    GemmBuffers buf;
    buf.a = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.k * 2);
    buf.b = gpu.mem().alloc(static_cast<uint64_t>(kc.k) * kc.n * 2);
    buf.c = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.n * 4);
    buf.d = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.n * 4);
    gpu.default_stream().enqueue(make_wmma_gemm_naive(kc, buf));
    return gpu.run();
}

/** Identity of @p serial-vs-threaded runs for every thread count in
 *  @p threads, in both idle-skip and lockstep modes. */
void
expect_thread_identity(const GpuConfig& cfg,
                       std::initializer_list<int> threads)
{
    for (bool idle_skip : {true, false}) {
        SimOptions serial;
        serial.idle_skip = idle_skip;
        serial.sim_threads = 1;
        EngineStats base = run_gemm(cfg, serial);
        for (int t : threads) {
            SimOptions par = serial;
            par.sim_threads = t;
            EngineStats es = run_gemm(cfg, par);
            SCOPED_TRACE("sim_threads=" + std::to_string(t) +
                         " idle_skip=" + std::to_string(idle_skip));
            expect_identical(base, es);
        }
    }
}

TEST(ParallelIdentity, MemoryBoundGemm)
{
    expect_thread_identity(mem_bound_config(8), {2, 4});
}

TEST(ParallelIdentity, HeavyBackpressure)
{
    // Constrict every memory level so refusals and retry cycles
    // dominate: the serial Phase-A drain order is what keeps the
    // accept/refuse decisions canonical.
    GpuConfig cfg = mem_bound_config(8);
    cfg.l1_mshr_entries = 4;
    cfg.noc_bytes_per_cycle = 16.0;
    cfg.noc_queue_depth = 8;
    cfg.l2_bank_queue_depth = 2;
    cfg.dram_queue_depth = 4;
    cfg.l2_size = 64 * 1024;
    expect_thread_identity(cfg, {3});
}

TEST(ParallelIdentity, MoreThreadsThanSms)
{
    expect_thread_identity(mem_bound_config(2), {8});
}

TEST(ParallelIdentity, FunctionalEventDagAcrossStreams)
{
    // Functional kernels carry real data through the shared global
    // memory (the staged-commit path), on two streams gated by an
    // event: both the timing and the computed matrices must match a
    // serial run exactly.
    auto run = [](int threads) {
        SimOptions opts;
        opts.sim_threads = threads;
        Gpu gpu(mem_bound_config(4), opts);
        GemmProblem<float> p1(64, 64, 64, Layout::kRowMajor,
                              Layout::kRowMajor);
        GemmProblem<float> p2(64, 64, 64, Layout::kRowMajor,
                              Layout::kRowMajor);
        GemmKernelConfig kc;
        kc.m = kc.n = kc.k = 64;
        kc.functional = true;
        GemmBuffers b1 = p1.upload(&gpu.mem());
        GemmBuffers b2 = p2.upload(&gpu.mem());
        Stream& s1 = gpu.default_stream();
        Stream& s2 = gpu.create_stream();
        Event& e = gpu.create_event("producer_done");
        KernelDesc k1 = make_wmma_gemm_naive(kc, b1);
        k1.name = "producer";
        s1.enqueue(std::move(k1));
        s1.record(e);
        s2.wait(e);
        KernelDesc k2 = make_wmma_gemm_naive(kc, b2);
        k2.name = "consumer";
        s2.enqueue(std::move(k2));
        EngineStats es = gpu.run();
        EXPECT_LE(p1.verify(gpu.mem(), b1.d), 1e-3);
        EXPECT_LE(p2.verify(gpu.mem(), b2.d), 1e-3);
        return es;
    };
    EngineStats serial = run(1);
    EngineStats threaded = run(4);
    expect_identical(serial, threaded);
    ASSERT_EQ(serial.kernels.size(), 2u);
}

TEST(ParallelIdentity, SharedMemoryCutlassGemm)
{
    // The shared-memory pipe runs in the parallel phase while the
    // global pipe stays serial; a retiring global entry waits in a
    // per-SM stash until the parallel phase registers it after the
    // shared pipe's writeback.  A pipelined CUTLASS kernel keeps both
    // pipes busy every tick, with bank conflicts stretching the
    // shared pipe's occupancy: timing, macro-latency samples and the
    // computed matrix must all match a serial run.
    cutlass::GemmTemplate t;
    t.block_m = t.block_n = 64;
    t.block_k = 32;
    t.warp_m = t.warp_n = 32;
    t.double_buffer = true;
    const int m = 256, n = 128, k = 128;  // 8 CTAs over 8 SMs
    GemmProblem<float> prob(m, n, k, t.a_layout, t.b_layout);
    const GpuConfig cfg = small_titan_v(8);

    // Anti-vacuity: the kernel stages through shared memory, and some
    // of its shared accesses conflict.
    {
        GlobalMemory probe_mem;
        KernelDesc kd = cutlass::make_gemm(t, m, n, k,
                                           prob.upload(&probe_mem), false);
        int shared_ops = 0;
        int conflicted = 0;
        for (const Instruction& inst : kd.trace(0, 0)) {
            if (!inst.is_shared_space())
                continue;
            ++shared_ops;
            if (shared_bank_conflict_degree(inst, cfg.shared_mem_banks,
                                            0) > 1)
                ++conflicted;
        }
        ASSERT_GT(shared_ops, 0);
        ASSERT_GT(conflicted, 0);
    }

    struct Result
    {
        EngineStats stats;
        std::vector<float> d;
    };
    auto run = [&](const SimOptions& opts) {
        Gpu gpu(cfg, opts);
        GemmBuffers buf = prob.upload(&gpu.mem());
        gpu.default_stream().enqueue(
            cutlass::make_gemm(t, m, n, k, buf, true));
        Result r{gpu.run(), std::vector<float>(static_cast<size_t>(m) * n)};
        gpu.mem().read(buf.d, r.d.data(), r.d.size() * sizeof(float));
        EXPECT_LE(prob.verify(gpu.mem(), buf.d), 1e-3);
        return r;
    };
    for (bool idle_skip : {true, false}) {
        SimOptions serial;
        serial.idle_skip = idle_skip;
        const Result base = run(serial);
        ASSERT_FALSE(base.stats.kernels.empty());
        EXPECT_FALSE(base.stats.kernels[0].macro_latency.empty());
        for (int threads : {2, 4}) {
            SCOPED_TRACE("sim_threads=" + std::to_string(threads) +
                         " idle_skip=" + std::to_string(idle_skip));
            SimOptions par = serial;
            par.sim_threads = threads;
            const Result r = run(par);
            expect_identical(base.stats, r.stats);
            EXPECT_EQ(0, std::memcmp(base.d.data(), r.d.data(),
                                     base.d.size() * sizeof(float)));
        }
    }
}

TEST(ParallelIdentity, SleepingSmsBesideBusyOnes)
{
    // A memory-bound naive GEMM on a constricted hierarchy and a
    // compute-bound HMMA stress kernel run concurrently on two streams
    // of one chip, so stalled SMs sleep to their own next event while
    // others issue every cycle.  Idle-skip (with per-SM sleep) must
    // match lockstep at every thread count, and a mid-run snapshot
    // must resume to the uninterrupted result.
    GpuConfig cfg = mem_bound_config(8);
    cfg.l1_mshr_entries = 4;
    cfg.noc_queue_depth = 8;
    cfg.dram_queue_depth = 4;
    auto enqueue = [](Gpu& gpu) {
        GemmKernelConfig kc;
        kc.m = kc.n = kc.k = 64;  // 2 CTAs
        kc.functional = false;
        GemmBuffers buf;
        buf.a = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.k * 2);
        buf.b = gpu.mem().alloc(static_cast<uint64_t>(kc.k) * kc.n * 2);
        buf.c = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.n * 4);
        buf.d = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.n * 4);
        gpu.default_stream().enqueue(make_wmma_gemm_naive(kc, buf));
        gpu.create_stream().enqueue(
            make_hmma_stress(Arch::kVolta, TcMode::kMixed, 6, 4, 48));
    };
    auto run = [&](const SimOptions& opts) {
        Gpu gpu(cfg, opts);
        enqueue(gpu);
        return gpu.run();
    };

    SimOptions lockstep;
    lockstep.idle_skip = false;
    const EngineStats base = run(lockstep);

    // Anti-vacuity: the kernels overlap, the GEMM mostly waits on
    // memory while the stress kernel mostly issues.
    ASSERT_EQ(base.kernels.size(), 2u);
    const bool gemm_first = base.kernels[0].kernel == "wmma_gemm_naive";
    const LaunchStats& gemm = base.kernels[gemm_first ? 0 : 1];
    const LaunchStats& stress = base.kernels[gemm_first ? 1 : 0];
    ASSERT_EQ(stress.kernel, "hmma_stress");
    EXPECT_LT(gemm.start_cycle, stress.finish_cycle);
    EXPECT_LT(stress.start_cycle, gemm.finish_cycle);
    EXPECT_GT(gemm.stalls.cycles(StallReason::kScoreboard) +
                  gemm.stalls.cycles(StallReason::kMshrFull),
              gemm.instructions);
    EXPECT_GT(stress.hmma_instructions, 0u);
    EXPECT_FALSE(gemm.macro_latency.empty());

    for (bool idle_skip : {true, false}) {
        for (int threads : {1, 4}) {
            SCOPED_TRACE("sim_threads=" + std::to_string(threads) +
                         " idle_skip=" + std::to_string(idle_skip));
            SimOptions opts;
            opts.idle_skip = idle_skip;
            opts.sim_threads = threads;
            expect_identical(base, run(opts));

            Gpu gpu(cfg, opts);
            enqueue(gpu);
            gpu.run_until(base.cycles / 2);
            ASSERT_TRUE(gpu.run_active());
            Snapshot snap = gpu.snapshot();
            Gpu fork(cfg, opts);
            fork.restore(snap);
            expect_identical(base, fork.run());
        }
    }
}

TEST(ParallelIdentity, ResumableRunMatchesOneShot)
{
    // Pausing and resuming with run_until must not perturb the
    // sharded tick: a threaded chunked run equals a serial one-shot.
    GpuConfig cfg = mem_bound_config(4);
    SimOptions serial;
    EngineStats base = run_gemm(cfg, serial, 64);

    SimOptions par;
    par.sim_threads = 4;
    Gpu gpu(cfg, par);
    GemmKernelConfig kc;
    kc.m = kc.n = kc.k = 64;
    kc.functional = false;
    GemmBuffers buf;
    buf.a = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.k * 2);
    buf.b = gpu.mem().alloc(static_cast<uint64_t>(kc.k) * kc.n * 2);
    buf.c = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.n * 4);
    buf.d = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.n * 4);
    gpu.default_stream().enqueue(make_wmma_gemm_naive(kc, buf));
    RunProgress paused = gpu.run_until(base.cycles / 2);
    EXPECT_TRUE(paused.active);
    EXPECT_TRUE(gpu.run_active());
    expect_identical(base, gpu.run());
}

TEST(ParallelIdentity, AutoThreadCountRuns)
{
    // sim_threads = 0 resolves to the host's hardware concurrency;
    // whatever that is, results must equal the serial run.
    GpuConfig cfg = mem_bound_config(4);
    SimOptions serial;
    SimOptions autov;
    autov.sim_threads = 0;
    expect_identical(run_gemm(cfg, serial, 64), run_gemm(cfg, autov, 64));
}

}  // namespace
}  // namespace tcsim
