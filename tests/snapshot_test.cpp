/**
 * @file
 * Snapshot/restore correctness: a run forked from a Snapshot must be
 * bit-identical — every cycle stamp, memory counter, stall counter and
 * macro-latency sample — to the same run advanced without
 * interruption, for every sim-thread count and both main loops.  Also
 * pins the failure modes (version/config/scheduler mismatch, queued
 * callbacks, idle capture), the reset audit (restoring onto a dirty
 * Gpu equals restoring onto a fresh one), the archive bytes of a
 * workload that fills every section, and that a corrupted archive is
 * restored or rejected with a SnapshotError, never a crash.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "kernels/gemm_kernels.h"
#include "sim/gpu.h"
#include "sim/replay/replay_cache.h"
#include "sim/snapshot.h"

namespace tcsim {
namespace {

GpuConfig
small_titan_v(int sms)
{
    GpuConfig cfg = titan_v_config();
    cfg.num_sms = sms;
    return cfg;
}

/** Memory-bound config: a tiny L1 keeps MSHRs, NoC/DRAM queues and
 *  MIO retries in flight for most of the run — exactly the state a
 *  snapshot has to carry faithfully. */
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

GemmBuffers
alloc_gemm_buffers(Gpu& gpu, int mnk)
{
    uint64_t n = static_cast<uint64_t>(mnk);
    GemmBuffers buf;
    buf.a = gpu.mem().alloc(n * n * 2);
    buf.b = gpu.mem().alloc(n * n * 2);
    buf.c = gpu.mem().alloc(n * n * 4);
    buf.d = gpu.mem().alloc(n * n * 4);
    return buf;
}

/** Enqueue one timing-only naive GEMM on the default stream. */
void
enqueue_gemm(Gpu& gpu, int mnk, const std::string& name = "")
{
    GemmKernelConfig kc;
    kc.m = kc.n = kc.k = mnk;
    kc.functional = false;
    KernelDesc k = make_wmma_gemm_naive(kc, alloc_gemm_buffers(gpu, mnk));
    if (!name.empty())
        k.name = name;
    gpu.default_stream().enqueue(std::move(k));
}

/** Two timing-only GEMMs on two streams gated by an event (a
 *  producer/consumer DAG).  Returns the gating event. */
Event&
enqueue_event_dag(Gpu& gpu, int mnk)
{
    GemmKernelConfig kc;
    kc.m = kc.n = kc.k = mnk;
    kc.functional = false;
    auto alloc = [&] {
        GemmBuffers buf;
        buf.a = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.k * 2);
        buf.b = gpu.mem().alloc(static_cast<uint64_t>(kc.k) * kc.n * 2);
        buf.c = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.n * 4);
        buf.d = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.n * 4);
        return buf;
    };
    Stream& s1 = gpu.default_stream();
    Stream& s2 = gpu.create_stream();
    Event& e = gpu.create_event("producer_done");
    KernelDesc k1 = make_wmma_gemm_naive(kc, alloc());
    k1.name = "producer";
    s1.enqueue(std::move(k1));
    s1.record(e);
    s2.wait(e);
    KernelDesc k2 = make_wmma_gemm_naive(kc, alloc());
    k2.name = "consumer";
    s2.enqueue(std::move(k2));
    return e;
}

/** Run the single-GEMM workload cold (uninterrupted) with @p opts. */
EngineStats
cold_gemm(const GpuConfig& cfg, const SimOptions& opts, int mnk)
{
    Gpu gpu(cfg, opts);
    enqueue_gemm(gpu, mnk);
    return gpu.run();
}

TEST(Snapshot, ForkedRunMatchesColdRun)
{
    GpuConfig cfg = mem_bound_config(8);
    for (bool idle_skip : {true, false}) {
        SCOPED_TRACE("idle_skip=" + std::to_string(idle_skip));
        SimOptions opts;
        opts.idle_skip = idle_skip;
        EngineStats base = cold_gemm(cfg, opts, 128);

        // Capture mid-kernel, then finish both the capturing Gpu and
        // a fresh Gpu restored from the snapshot.
        Gpu gpu(cfg, opts);
        enqueue_gemm(gpu, 128);
        gpu.run_until(base.cycles / 2);
        ASSERT_TRUE(gpu.run_active());
        Snapshot snap = gpu.snapshot();
        EXPECT_GT(snap.size_bytes(), 0u);

        expect_identical(base, gpu.run());

        Gpu fork(cfg, opts);
        fork.restore(snap);
        ASSERT_TRUE(fork.run_active());
        expect_identical(base, fork.run());
    }
}

TEST(Snapshot, ForkRunsIdenticallyAtEveryThreadCount)
{
    // A snapshot captured by a serial run must resume bit-identically
    // under the parallel tick (and vice versa): SimOptions other than
    // the scheduler are free to differ between capture and restore.
    GpuConfig cfg = mem_bound_config(8);
    SimOptions serial;
    EngineStats base = cold_gemm(cfg, serial, 128);

    Gpu gpu(cfg, serial);
    enqueue_gemm(gpu, 128);
    gpu.run_until(base.cycles / 2);
    ASSERT_TRUE(gpu.run_active());
    Snapshot snap = gpu.snapshot();

    for (int threads : {2, 4}) {
        SCOPED_TRACE("sim_threads=" + std::to_string(threads));
        SimOptions par = serial;
        par.sim_threads = threads;
        Gpu fork(cfg, par);
        fork.restore(snap);
        expect_identical(base, fork.run());
    }
}

TEST(Snapshot, DoubleRestoreFromOneSnapshot)
{
    // One snapshot feeds many forks (the sweep runner's pattern); the
    // global-memory blob is shared copy-on-write, not duplicated.
    GpuConfig cfg = mem_bound_config(4);
    SimOptions opts;
    EngineStats base = cold_gemm(cfg, opts, 64);

    Gpu gpu(cfg, opts);
    enqueue_gemm(gpu, 64);
    gpu.run_until(base.cycles / 2);
    ASSERT_TRUE(gpu.run_active());
    Snapshot snap = gpu.snapshot();
    Snapshot copy = snap;
    EXPECT_EQ(copy.gmem_data.get(), snap.gmem_data.get());

    Gpu fork1(cfg, opts);
    fork1.restore(snap);
    Gpu fork2(cfg, opts);
    fork2.restore(copy);
    expect_identical(base, fork1.run());
    expect_identical(base, fork2.run());
}

TEST(Snapshot, CursorPastBackingRoundTrips)
{
    // Timing-only operands move the allocation cursor without backing
    // bytes, so the snapshot carries a cursor past the end of its byte
    // image.  A restored Gpu reads, allocates and runs exactly like
    // the original.
    GpuConfig cfg = mem_bound_config(4);
    SimOptions opts;
    auto setup = [](Gpu& gpu) {
        const uint64_t tag = gpu.mem().alloc(256);
        gpu.mem().write_u32(tag + 4, 0xC0FFEEu);
        enqueue_gemm(gpu, 64);  // Allocates its operands, writes none.
        return tag;
    };
    Gpu cold(cfg, opts);
    setup(cold);
    const EngineStats base = cold.run();

    Gpu gpu(cfg, opts);
    const uint64_t tag = setup(gpu);
    gpu.run_until(base.cycles / 2);
    ASSERT_TRUE(gpu.run_active());
    Snapshot snap = gpu.snapshot();
    const uint64_t footprint = gpu.mem().footprint();
    ASSERT_LT(gpu.mem().backed(), footprint);
    EXPECT_EQ(snap.gmem_next, footprint);
    EXPECT_EQ(snap.gmem_data->size(), gpu.mem().backed());

    Gpu fork(cfg, opts);
    fork.restore(snap);
    EXPECT_EQ(fork.mem().footprint(), footprint);
    EXPECT_EQ(fork.mem().backed(), gpu.mem().backed());
    std::vector<uint8_t> want(footprint), got(footprint);
    gpu.mem().read(0, want.data(), want.size());
    fork.mem().read(0, got.data(), got.size());
    EXPECT_EQ(got, want);
    EXPECT_EQ(fork.mem().read_u32(tag + 4), 0xC0FFEEu);
    EXPECT_EQ(fork.mem().alloc(64), gpu.mem().alloc(64));

    expect_identical(base, gpu.run());
    expect_identical(base, fork.run());
}

TEST(Snapshot, InPlaceRewindAcrossEventBoundary)
{
    // Restoring onto the capturing Gpu rewinds it: rerunning the tail
    // reproduces the identical result, including the event stamp.
    GpuConfig cfg = mem_bound_config(4);
    SimOptions opts;
    Gpu gpu(cfg, opts);
    Event& e = enqueue_event_dag(gpu, 64);

    // Pause exactly when the producer's record completes, snapshot,
    // then finish; rewind and finish again.
    gpu.synchronize(e);
    ASSERT_TRUE(gpu.run_active());
    ASSERT_TRUE(e.complete());
    uint64_t event_cycle = e.cycle();
    Snapshot snap = gpu.snapshot();

    EngineStats first = gpu.run();
    ASSERT_EQ(first.kernels.size(), 2u);

    gpu.restore(snap);
    ASSERT_TRUE(gpu.run_active());
    EXPECT_TRUE(e.complete());
    EXPECT_EQ(e.cycle(), event_cycle);
    EngineStats second = gpu.run();
    expect_identical(first, second);
    EXPECT_EQ(e.cycle(), event_cycle);
}

TEST(Snapshot, EventBoundaryForkOntoFreshGpu)
{
    // Fork at the event boundary: the fresh Gpu recreates the streams
    // and events from the archive and finishes identically to an
    // uninterrupted run.
    GpuConfig cfg = mem_bound_config(4);
    SimOptions opts;
    EngineStats base = [&] {
        Gpu gpu(cfg, opts);
        enqueue_event_dag(gpu, 64);
        return gpu.run();
    }();

    Gpu gpu(cfg, opts);
    Event& e = enqueue_event_dag(gpu, 64);
    gpu.synchronize(e);
    ASSERT_TRUE(gpu.run_active());
    Snapshot snap = gpu.snapshot();

    Gpu fork(cfg, opts);
    fork.restore(snap);
    expect_identical(base, fork.run());
}

TEST(Snapshot, FunctionalKernelsForkWithMemoryContents)
{
    // Functional kernels carry real data through global memory; the
    // snapshot's copy-on-write image must hand the fork bytes that let
    // the consumer produce a verifiable result.
    GpuConfig cfg = mem_bound_config(4);
    SimOptions opts;
    GemmKernelConfig kc;
    kc.m = kc.n = kc.k = 64;
    kc.functional = true;

    auto build = [&](Gpu& gpu, GemmProblem<float>& p1,
                     GemmProblem<float>& p2, GemmBuffers* b1,
                     GemmBuffers* b2) {
        *b1 = p1.upload(&gpu.mem());
        *b2 = p2.upload(&gpu.mem());
        Stream& s1 = gpu.default_stream();
        Stream& s2 = gpu.create_stream();
        Event& e = gpu.create_event("producer_done");
        KernelDesc k1 = make_wmma_gemm_naive(kc, *b1);
        k1.name = "producer";
        s1.enqueue(std::move(k1));
        s1.record(e);
        s2.wait(e);
        KernelDesc k2 = make_wmma_gemm_naive(kc, *b2);
        k2.name = "consumer";
        s2.enqueue(std::move(k2));
    };

    GemmProblem<float> p1(64, 64, 64, Layout::kRowMajor, Layout::kRowMajor);
    GemmProblem<float> p2(64, 64, 64, Layout::kRowMajor, Layout::kRowMajor);

    EngineStats base = [&] {
        Gpu gpu(cfg, opts);
        GemmBuffers b1, b2;
        build(gpu, p1, p2, &b1, &b2);
        return gpu.run();
    }();

    Gpu gpu(cfg, opts);
    GemmBuffers b1, b2;
    build(gpu, p1, p2, &b1, &b2);
    gpu.run_until(base.cycles / 2);
    ASSERT_TRUE(gpu.run_active());
    Snapshot snap = gpu.snapshot();

    Gpu fork(cfg, opts);
    fork.restore(snap);
    expect_identical(base, fork.run());
    EXPECT_LE(p1.verify(fork.mem(), b1.d), 1e-3);
    EXPECT_LE(p2.verify(fork.mem(), b2.d), 1e-3);

    // The capturing Gpu was never advanced past the fork point by the
    // fork's run: finishing it still verifies too.
    expect_identical(base, gpu.run());
    EXPECT_LE(p1.verify(gpu.mem(), b1.d), 1e-3);
}

TEST(Snapshot, RestoreOntoDirtyGpuEqualsFreshRestore)
{
    // The reset audit: a restore must fully overwrite cache arrays,
    // MSHR files, queue rings and DRAM state left behind by an earlier
    // completed run — a dirty Gpu and a fresh Gpu restore identically.
    GpuConfig cfg = mem_bound_config(4);
    SimOptions opts;
    EngineStats base = cold_gemm(cfg, opts, 64);

    Gpu gpu(cfg, opts);
    enqueue_gemm(gpu, 64);
    gpu.run_until(base.cycles / 2);
    ASSERT_TRUE(gpu.run_active());
    Snapshot snap = gpu.snapshot();

    Gpu fresh(cfg, opts);
    fresh.restore(snap);

    Gpu dirty(cfg, opts);
    enqueue_gemm(dirty, 96, "warmup");  // Different footprint on purpose.
    dirty.run();
    dirty.restore(snap);

    EngineStats a = fresh.run();
    EngineStats b = dirty.run();
    expect_identical(base, a);
    expect_identical(base, b);
}

TEST(Snapshot, ReusedGpuSecondRunEqualsFreshRun)
{
    // Companion reset audit without snapshots: run boundaries reset
    // all timing state, so a reused Gpu replays a workload exactly
    // like a fresh one.
    GpuConfig cfg = mem_bound_config(4);
    SimOptions opts;
    Gpu reused(cfg, opts);
    enqueue_gemm(reused, 64);
    reused.run();
    enqueue_gemm(reused, 64);
    EngineStats second = reused.run();

    // Give the fresh Gpu the same address layout: pad with the first
    // run's allocations, enqueue only the replay.
    Gpu fresh(cfg, opts);
    (void)alloc_gemm_buffers(fresh, 64);
    enqueue_gemm(fresh, 64);
    expect_identical(second, fresh.run());
}

TEST(Snapshot, CaptureRequiresActiveRun)
{
    Gpu idle(mem_bound_config(2));
    EXPECT_THROW(idle.snapshot(), SnapshotError);

    Gpu done(mem_bound_config(2));
    enqueue_gemm(done, 64);
    done.run();
    EXPECT_THROW(done.snapshot(), SnapshotError);
}

TEST(Snapshot, QueuedHostCallbackRefused)
{
    Gpu gpu(mem_bound_config(2));
    enqueue_gemm(gpu, 64);
    gpu.default_stream().add_callback([](uint64_t) {});
    gpu.run_until(16);
    ASSERT_TRUE(gpu.run_active());
    EXPECT_THROW(gpu.snapshot(), SnapshotError);
    gpu.run();  // Drain so teardown is clean.
}

TEST(Snapshot, MismatchesRejectedBeforeMutation)
{
    GpuConfig cfg = mem_bound_config(4);
    SimOptions opts;
    EngineStats base = cold_gemm(cfg, opts, 64);

    Gpu gpu(cfg, opts);
    enqueue_gemm(gpu, 64);
    gpu.run_until(base.cycles / 2);
    Snapshot snap = gpu.snapshot();

    // Empty snapshot.
    Gpu target(cfg, opts);
    EXPECT_THROW(target.restore(Snapshot{}), SnapshotError);

    // Format version.
    Snapshot bad_version = snap;
    bad_version.version = kSnapshotVersion + 1;
    EXPECT_THROW(target.restore(bad_version), SnapshotError);
    // v3 archives still carry the removed replay verify-mode fields.
    bad_version.version = 3;
    EXPECT_THROW(target.restore(bad_version), SnapshotError);

    // GpuConfig.
    Gpu other_config(mem_bound_config(8), opts);
    EXPECT_THROW(other_config.restore(snap), SnapshotError);

    // Scheduler policy (baked into sub-cores at construction).
    SimOptions lrr = opts;
    lrr.scheduler = SchedulerPolicy::kLrr;
    Gpu other_sched(cfg, lrr);
    EXPECT_THROW(other_sched.restore(snap), SnapshotError);

    // All rejections happen before mutation: the pristine target
    // still restores and runs identically afterwards.
    target.restore(snap);
    expect_identical(base, target.run());
}

/** FNV-1a 64 digest of an archive. */
uint64_t
fnv1a(const std::vector<uint8_t>& bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(Snapshot, ArchiveBytesArePinned)
{
    // A timing-only workload that fills every archive section: two
    // streams with queued launches, an event record and an event
    // wait; a replayed launch mid-flight beside a recording launch
    // whose global loads are still in the MIO queues.  A change to
    // the archive layout must bump kSnapshotVersion and these two
    // constants together.
    constexpr uint64_t kPinnedDigest = 3408635479989332597ull;
    constexpr size_t kPinnedSize = 58926;

    GpuConfig cfg = mem_bound_config(4);
    cfg.l2_size = 64 * 1024;
    GemmKernelConfig kc;
    kc.m = kc.n = kc.k = 64;
    kc.functional = false;
    auto shared_gemm = [&](Gpu& gpu) {
        return make_wmma_gemm_shared(kc, alloc_gemm_buffers(gpu, 64));
    };
    ReplayCache cache;
    {
        SimOptions record;
        record.replay_mode = SimOptions::ReplayMode::kRecord;
        record.replay_cache = &cache;
        Gpu warm(cfg, record);
        warm.default_stream().enqueue(shared_gemm(warm));
        warm.run();
    }
    SimOptions replay;
    replay.replay_mode = SimOptions::ReplayMode::kReplay;
    replay.replay_cache = &cache;
    Gpu gpu(cfg, replay);
    Stream& s1 = gpu.default_stream();
    Stream& s2 = gpu.create_stream();
    Event& e = gpu.create_event("replayed_done");
    s1.enqueue(shared_gemm(gpu));  // Hit: replays.
    s1.record(e);
    s1.enqueue(shared_gemm(gpu));
    s2.enqueue(make_wmma_gemm_naive(kc, alloc_gemm_buffers(gpu, 64)));
    s2.wait(e);
    s2.enqueue(make_wmma_gemm_naive(kc, alloc_gemm_buffers(gpu, 64)));
    gpu.run_until(600);
    ASSERT_TRUE(gpu.run_active());
    ASSERT_FALSE(e.complete());
    Snapshot snap = gpu.snapshot();
    EXPECT_EQ(snap.version, 4u);
    EXPECT_EQ(snap.archive.size(), kPinnedSize);
    EXPECT_EQ(fnv1a(snap.archive), kPinnedDigest);

    // Both sides of the fork finish identically, each recording into
    // its own copy of the cache.
    ReplayCache fork_cache = cache;
    EngineStats straight = gpu.run();
    SimOptions fork_opts = replay;
    fork_opts.replay_cache = &fork_cache;
    Gpu fork(cfg, fork_opts);
    fork.restore(snap);
    expect_identical(straight, fork.run());
    EXPECT_EQ(straight.replay_hits, 1u);
}

TEST(Snapshot, CorruptArchiveIsRestoredOrRejected)
{
    // Flip bytes of a mid-run archive in turn: each restore onto a
    // fresh Gpu either succeeds or throws SnapshotError.  Anything
    // else (a crash, std::length_error, std::bad_alloc, a hang) is a
    // reader that trusted a count, an enum or an index.  Every byte
    // from the events section onward is flipped; the memory section
    // before it (mostly cache tags, no counts) every 16th byte.
    GpuConfig cfg = small_titan_v(2);
    cfg.l1_size = 16 * 1024;
    cfg.l2_size = 64 * 1024;
    SimOptions opts;
    Gpu gpu(cfg, opts);
    enqueue_gemm(gpu, 64);
    gpu.run_until(800);
    ASSERT_TRUE(gpu.run_active());
    const Snapshot snap = gpu.snapshot();
    ASSERT_EQ(snap.archive.size(), 41015u);
    // The events section: its tag, no events, then the streams tag.
    const std::vector<uint8_t> events = {kTagEvents, 0, 0, 0, 0, 0,
                                         0,          0, 0, kTagStreams};
    const size_t events_at = static_cast<size_t>(
        std::search(snap.archive.begin(), snap.archive.end(),
                    events.begin(), events.end()) -
        snap.archive.begin());
    ASSERT_LT(events_at, snap.archive.size());

    Snapshot bad = snap;
    size_t restored = 0, rejected = 0;
    for (size_t i = 0; i < snap.archive.size();
         i += i < events_at ? 16 : 1) {
        bad.archive[i] ^= 0xFF;
        Gpu fresh(cfg, opts);
        try {
            fresh.restore(bad);
            ++restored;
        } catch (const SnapshotError&) {
            ++rejected;
        }
        bad.archive[i] = snap.archive[i];
    }
    EXPECT_GT(restored, 0u);
    EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace tcsim
