/**
 * @file
 * Tests for the CUDA-runtime-style event & synchronization API:
 * cross-stream happens-before via record/wait, event cycle stamps and
 * elapsed_cycles, host callbacks, resumable runs (run_until /
 * synchronize) with bit-identical timing, deadlock detection with the
 * wait graph, per-kernel stall attribution, and the event edge cases
 * (never-recorded wait, re-record, record+wait on one stream).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kernels/gemm_kernels.h"
#include "sim/gpu.h"

namespace tcsim {
namespace {

GpuConfig
small_titan_v(int sms)
{
    GpuConfig cfg = titan_v_config();
    cfg.num_sms = sms;
    return cfg;
}

KernelDesc
stress(const char* name, int ctas = 1, int warps = 2, int wmma = 16)
{
    KernelDesc kd = make_hmma_stress(Arch::kVolta, TcMode::kMixed, ctas,
                                     warps, wmma, /*accumulators=*/4);
    kd.name = name;
    return kd;
}

KernelDesc
small_gemm(Gpu* gpu, GemmProblem<float>* prob, const char* name)
{
    GemmKernelConfig cfg;
    cfg.m = prob->m();
    cfg.n = prob->n();
    cfg.k = prob->k();
    GemmBuffers buf = prob->upload(&gpu->mem());
    KernelDesc kd = make_wmma_gemm_shared(cfg, buf);
    kd.name = name;
    return kd;
}

TEST(Event, CrossStreamHappensBefore)
{
    // consumer waits on an event recorded after producer: its window
    // must start strictly after the producer finished, even though the
    // streams would otherwise overlap.
    Gpu gpu(small_titan_v(2));
    Stream& s1 = gpu.create_stream();
    Stream& s2 = gpu.create_stream();
    Event& done = gpu.create_event("done");

    s1.enqueue(stress("producer"));
    s1.record(done);
    s2.wait(done);
    s2.enqueue(stress("consumer"));
    EngineStats es = gpu.run();

    ASSERT_EQ(es.kernels.size(), 2u);
    EXPECT_EQ(es.kernels[0].kernel, "producer");
    EXPECT_EQ(es.kernels[1].kernel, "consumer");
    EXPECT_GT(es.kernels[1].start_cycle, es.kernels[0].finish_cycle);
    EXPECT_TRUE(done.complete());
    EXPECT_GT(done.cycle(), es.kernels[0].finish_cycle);
    EXPECT_LE(done.cycle(), es.kernels[1].start_cycle);
}

TEST(Event, WithoutWaitStreamsStillOverlap)
{
    // Same workload minus the wait: the two streams overlap.  Guards
    // against the event machinery accidentally serializing everything.
    Gpu gpu(small_titan_v(2));
    Stream& s1 = gpu.create_stream();
    Stream& s2 = gpu.create_stream();
    Event& done = gpu.create_event("done");
    s1.enqueue(stress("producer"));
    s1.record(done);
    s2.enqueue(stress("consumer"));
    EngineStats es = gpu.run();

    ASSERT_EQ(es.kernels.size(), 2u);
    EXPECT_EQ(es.kernels[0].start_cycle, 0u);
    EXPECT_EQ(es.kernels[1].start_cycle, 0u);
}

TEST(Event, ElapsedCyclesTimesSubWindow)
{
    // Events recorded before and after a kernel time its window, the
    // cudaEventElapsedTime analog.
    Gpu gpu(small_titan_v(2));
    Stream& s = gpu.default_stream();
    Event& t0 = gpu.create_event("t0");
    Event& t1 = gpu.create_event("t1");

    s.record(t0);
    s.enqueue(stress("k"));
    s.record(t1);
    EngineStats es = gpu.run();

    ASSERT_EQ(es.kernels.size(), 1u);
    ASSERT_TRUE(t0.complete());
    ASSERT_TRUE(t1.complete());
    // t0 completes on the first promote tick, t1 on the tick after the
    // kernel retires: the span covers exactly the kernel's cycles.
    EXPECT_EQ(Event::elapsed_cycles(t0, t1), es.kernels[0].cycles);
}

TEST(Event, WaitOnNeverRecordedEventReportsDeadlock)
{
    Gpu gpu(small_titan_v(2));
    Stream& s1 = gpu.create_stream();
    Event& never = gpu.create_event("never");
    s1.wait(never);
    s1.enqueue(stress("blocked"));

    try {
        gpu.run();
        FAIL() << "expected EngineDeadlockError";
    } catch (const EngineDeadlockError& e) {
        std::string what = e.what();
        EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
        EXPECT_NE(what.find("\"never\""), std::string::npos) << what;
        EXPECT_NE(what.find("never recorded"), std::string::npos) << what;
    }
}

TEST(Event, CyclicWaitReportsWaitGraph)
{
    // s1 waits on an event s2 records only after its own blocked wait,
    // and vice versa: a true dependency cycle.  The report names both
    // streams and both events.
    Gpu gpu(small_titan_v(2));
    Stream& s1 = gpu.create_stream();
    Stream& s2 = gpu.create_stream();
    Event& ea = gpu.create_event("ea");
    Event& eb = gpu.create_event("eb");

    s1.wait(eb);
    s1.enqueue(stress("k1"));
    s1.record(ea);
    s2.wait(ea);
    s2.enqueue(stress("k2"));
    s2.record(eb);

    try {
        gpu.run();
        FAIL() << "expected EngineDeadlockError";
    } catch (const EngineDeadlockError& e) {
        std::string what = e.what();
        EXPECT_NE(what.find("\"ea\""), std::string::npos) << what;
        EXPECT_NE(what.find("\"eb\""), std::string::npos) << what;
        EXPECT_NE(what.find("record queued on stream"), std::string::npos)
            << what;
    }
}

TEST(Event, ReRecordedEventLastWins)
{
    // The same event recorded on two streams: after the run its stamp
    // is the later record's, and a second run may re-record it again.
    Gpu gpu(small_titan_v(2));
    Stream& s1 = gpu.create_stream();
    Stream& s2 = gpu.create_stream();
    Event& e = gpu.create_event("e");

    s1.enqueue(stress("short"));
    s1.record(e);
    s2.enqueue(stress("long", /*ctas=*/1, /*warps=*/4, /*wmma=*/64));
    s2.record(e);
    EngineStats es = gpu.run();

    ASSERT_EQ(es.kernels.size(), 2u);
    uint64_t last_finish = 0;
    for (const LaunchStats& k : es.kernels)
        last_finish = std::max(last_finish, k.finish_cycle);
    ASSERT_TRUE(e.complete());
    // The surviving stamp is from the later (slower) stream's record.
    EXPECT_GT(e.cycle(), last_finish);

    // Host-side re-record resets completion until processed again.
    s1.record(e);
    EXPECT_FALSE(e.complete());
    s1.clear();
}

TEST(Event, RecordThenWaitSameStreamIsNoop)
{
    // A stream waiting on an event it just recorded must not deadlock
    // or change timing: in-stream order already provides the edge.
    Gpu plain(small_titan_v(2));
    plain.default_stream().enqueue(stress("a"));
    plain.default_stream().enqueue(stress("b"));
    EngineStats base = plain.run();

    Gpu gpu(small_titan_v(2));
    Stream& s = gpu.default_stream();
    Event& e = gpu.create_event("e");
    s.enqueue(stress("a"));
    s.record(e);
    s.wait(e);
    s.enqueue(stress("b"));
    EngineStats es = gpu.run();

    ASSERT_EQ(es.kernels.size(), 2u);
    EXPECT_EQ(es.kernels[0].cycles, base.kernels[0].cycles);
    EXPECT_EQ(es.kernels[1].cycles, base.kernels[1].cycles);
    EXPECT_TRUE(e.complete());
}

TEST(Event, CallbackFiresAfterPriorWork)
{
    Gpu gpu(small_titan_v(2));
    Stream& s = gpu.default_stream();
    std::vector<uint64_t> fired;
    s.enqueue(stress("k"));
    s.add_callback([&](uint64_t cycle) { fired.push_back(cycle); });
    EngineStats es = gpu.run();

    ASSERT_EQ(fired.size(), 1u);
    EXPECT_GT(fired[0], es.kernels[0].finish_cycle);
}

TEST(Event, CallbackMayEnqueueMoreWork)
{
    // A callback that chains another launch onto the stream: the
    // engine picks it up within the same run.
    Gpu gpu(small_titan_v(2));
    Stream& s = gpu.default_stream();
    s.enqueue(stress("first"));
    s.add_callback([&](uint64_t) { s.enqueue(stress("chained")); });
    EngineStats es = gpu.run();

    ASSERT_EQ(es.kernels.size(), 2u);
    EXPECT_EQ(es.kernels[1].kernel, "chained");
    EXPECT_GT(es.kernels[1].start_cycle, es.kernels[0].finish_cycle);
}

TEST(Event, CallbackEnqueuedKernelGetsFullChip)
{
    // A kernel injected by a callback must run on an SM array sized
    // for it, not for the work visible when the run began: its timing
    // matches the same kernel enqueued up front.
    Gpu upfront(small_titan_v(4));
    upfront.default_stream().enqueue(stress("tiny", /*ctas=*/1));
    upfront.default_stream().enqueue(stress("wide", /*ctas=*/4));
    EngineStats ref = upfront.run();

    Gpu chained(small_titan_v(4));
    Stream& s = chained.default_stream();
    s.enqueue(stress("tiny", /*ctas=*/1));
    s.add_callback([&](uint64_t) { s.enqueue(stress("wide", 4)); });
    EngineStats es = chained.run();

    ASSERT_EQ(es.kernels.size(), 2u);
    ASSERT_EQ(ref.kernels.size(), 2u);
    EXPECT_EQ(es.kernels[1].kernel, "wide");
    EXPECT_EQ(es.kernels[1].cycles, ref.kernels[1].cycles);
}

TEST(Event, CallbackCreatedStreamJoinsTheRun)
{
    // A callback that creates a stream and enqueues onto it: the run
    // must execute that work before reporting itself drained.
    Gpu gpu(small_titan_v(2));
    Stream& s = gpu.default_stream();
    s.enqueue(stress("first"));
    s.add_callback([&](uint64_t) {
        gpu.create_stream().enqueue(stress("on_new_stream"));
    });
    EngineStats es = gpu.run();

    ASSERT_EQ(es.kernels.size(), 2u);
    EXPECT_EQ(es.kernels[1].kernel, "on_new_stream");
    EXPECT_FALSE(gpu.run_active());
}

TEST(Resume, RunUntilThenResumeIsBitIdentical)
{
    // The same two-stream workload run in one shot and in many
    // run_until increments must retire every kernel on identical
    // cycles — pausing is timing-invisible.
    GemmProblem<float> pa(64, 64, 64, Layout::kRowMajor, Layout::kRowMajor);
    GemmProblem<float> pb(64, 64, 64, Layout::kRowMajor, Layout::kRowMajor);

    Gpu one(small_titan_v(2));
    one.create_stream().enqueue(small_gemm(&one, &pa, "a"));
    one.create_stream().enqueue(small_gemm(&one, &pb, "b"));
    EngineStats whole = one.run();

    Gpu chunked(small_titan_v(2));
    chunked.create_stream().enqueue(small_gemm(&chunked, &pa, "a"));
    chunked.create_stream().enqueue(small_gemm(&chunked, &pb, "b"));
    RunProgress step1 = chunked.run_until(1000);
    EXPECT_TRUE(chunked.run_active());
    EXPECT_TRUE(step1.active);
    EXPECT_GT(step1.current_cycle, 1000u);
    RunProgress step2 = chunked.run_until(5000);
    EngineStats final = chunked.run();
    EXPECT_FALSE(chunked.run_active());

    ASSERT_EQ(final.kernels.size(), whole.kernels.size());
    for (size_t i = 0; i < whole.kernels.size(); ++i) {
        EXPECT_EQ(final.kernels[i].kernel, whole.kernels[i].kernel);
        EXPECT_EQ(final.kernels[i].start_cycle,
                  whole.kernels[i].start_cycle);
        EXPECT_EQ(final.kernels[i].finish_cycle,
                  whole.kernels[i].finish_cycle);
        EXPECT_EQ(final.kernels[i].instructions,
                  whole.kernels[i].instructions);
    }
    EXPECT_EQ(final.cycles, whole.cycles);
    EXPECT_EQ(final.instructions, whole.instructions);
    // Progress is monotone and bounded by the final result.
    EXPECT_LE(step1.kernels_retired, step2.kernels_retired);
    EXPECT_LE(step2.kernels_retired, final.kernels.size());
}

TEST(Resume, WorkEnqueuedBetweenAdvancesJoinsTheRun)
{
    // Service-style operation: a paused run accepts new launches and
    // keeps its warm memory timing (second identical GEMM is no
    // slower), unlike separate runs which reset at the boundary.
    GemmProblem<float> prob(64, 64, 64, Layout::kRowMajor,
                            Layout::kRowMajor);
    Gpu gpu(small_titan_v(2));
    Stream& s = gpu.default_stream();
    GemmKernelConfig cfg;
    cfg.m = cfg.n = cfg.k = 64;
    GemmBuffers buf = prob.upload(&gpu.mem());
    s.enqueue(make_wmma_gemm_naive(cfg, buf));
    RunProgress mid = gpu.run_until(10);
    ASSERT_TRUE(gpu.run_active());

    s.enqueue(make_wmma_gemm_naive(cfg, buf));  // same operands: warm
    EngineStats final = gpu.run();

    ASSERT_EQ(final.kernels.size(), 2u);
    EXPECT_LT(final.kernels[1].mem.l2_misses,
              final.kernels[0].mem.l2_misses);
    EXPECT_LE(final.kernels[1].cycles, final.kernels[0].cycles);
    EXPECT_LE(mid.kernels_retired, 1u);
}

TEST(Resume, SynchronizeStreamDrainsOnlyThatStream)
{
    Gpu gpu(small_titan_v(2));
    Stream& fast = gpu.create_stream();
    Stream& slow = gpu.create_stream();
    fast.enqueue(stress("fast"));
    slow.enqueue(stress("slow", /*ctas=*/1, /*warps=*/4, /*wmma=*/128));

    RunProgress at_sync = gpu.synchronize(fast);
    EXPECT_TRUE(fast.empty());
    // The fast kernel retired; the slow one may still be in flight.
    const EngineStats so_far = gpu.stats();
    ASSERT_GE(so_far.kernels.size(), 1u);
    EXPECT_EQ(so_far.kernels[0].kernel, "fast");
    EXPECT_EQ(at_sync.kernels_retired, so_far.kernels.size());

    EngineStats final = gpu.run();
    ASSERT_EQ(final.kernels.size(), 2u);
    EXPECT_FALSE(gpu.run_active());
}

TEST(Resume, SynchronizeIdleStreamIsNoop)
{
    // cudaStreamSynchronize on an idle stream: no run begins, no
    // timing resets, and a later launch() still works.
    Gpu gpu(small_titan_v(2));
    Stream& busy = gpu.create_stream();
    Stream& idle = gpu.create_stream();
    busy.enqueue(stress("queued"));

    RunProgress p = gpu.synchronize(idle);
    EXPECT_EQ(p.kernels_retired, 0u);
    EXPECT_FALSE(p.active);
    EXPECT_FALSE(gpu.run_active());
    EXPECT_EQ(busy.depth(), 1u);  // Queued work untouched.

    LaunchStats solo = gpu.launch(stress("solo"));  // Must not throw.
    EXPECT_GT(solo.cycles, 0u);
    EngineStats final = gpu.run();
    EXPECT_EQ(final.kernels.size(), 1u);
}

TEST(Resume, SynchronizeEventStopsAtCompletion)
{
    Gpu gpu(small_titan_v(2));
    Stream& s1 = gpu.create_stream();
    Stream& s2 = gpu.create_stream();
    Event& e = gpu.create_event("phase");
    s1.enqueue(stress("first"));
    s1.record(e);
    s1.enqueue(stress("second", /*ctas=*/1, /*warps=*/4, /*wmma=*/64));
    s2.enqueue(stress("other"));

    RunProgress at_event = gpu.synchronize(e);
    EXPECT_TRUE(e.complete());
    EXPECT_TRUE(gpu.run_active());
    EXPECT_GE(at_event.current_cycle, e.cycle());

    EngineStats final = gpu.run();
    EXPECT_EQ(final.kernels.size(), 3u);
}

TEST(Resume, RunUntilPausesOnHostResolvableWait)
{
    // A bounded advance hitting a wait on a not-yet-recorded event
    // pauses instead of throwing: the host records and resumes.
    Gpu gpu(small_titan_v(2));
    Stream& s = gpu.create_stream();
    Event& e = gpu.create_event("host_gate");
    s.wait(e);
    s.enqueue(stress("gated"));

    RunProgress paused = gpu.run_until(1000);
    EXPECT_TRUE(gpu.run_active());
    EXPECT_EQ(paused.kernels_retired, 0u);

    // Host resolves the wait: record on an idle stream and resume
    // with the full-drain call (which would throw were it unresolved).
    gpu.create_stream().record(e);
    EngineStats final = gpu.run();
    ASSERT_EQ(final.kernels.size(), 1u);
    EXPECT_EQ(final.kernels[0].kernel, "gated");
    EXPECT_FALSE(gpu.run_active());
}

TEST(Resume, SynchronizeNeverRecordedEventThrows)
{
    Gpu gpu(small_titan_v(2));
    gpu.default_stream().enqueue(stress("k"));
    Event& never = gpu.create_event("never");
    EXPECT_THROW(gpu.synchronize(never), EngineDeadlockError);
}

TEST(Resume, LaunchWhilePausedThrows)
{
    Gpu gpu(small_titan_v(2));
    gpu.default_stream().enqueue(stress("k"));
    gpu.run_until(10);
    ASSERT_TRUE(gpu.run_active());
    EXPECT_THROW(gpu.launch(stress("solo")), std::runtime_error);
    gpu.run();  // Drain so the Gpu tears down cleanly.
}

/** Four kernels of different lengths on four streams. */
void
enqueue_staggered(Gpu* gpu)
{
    const char* names[] = {"w16", "w32", "w64", "w128"};
    for (int i = 0; i < 4; ++i)
        gpu->create_stream().enqueue(
            stress(names[i], /*ctas=*/1, /*warps=*/2, /*wmma=*/16 << i));
}

TEST(Progress, PausedProgressMatchesStatsAndResumeIsBitIdentical)
{
    // Each bounded advance reports its progress in O(1); stats() builds
    // the same run's statistics on demand, its retired kernels are a
    // prefix of the one-shot result, and asking for them does not
    // perturb the resumed run.
    Gpu one(small_titan_v(2));
    enqueue_staggered(&one);
    const EngineStats whole = one.run();
    ASSERT_EQ(whole.kernels.size(), 4u);

    Gpu gpu(small_titan_v(2));
    enqueue_staggered(&gpu);
    uint64_t seen = 0;
    for (uint64_t c = whole.cycles / 5; gpu.run_active() || seen == 0;
         c += whole.cycles / 5) {
        const RunProgress p = gpu.run_until(c);
        const EngineStats s = gpu.stats();
        EXPECT_EQ(p.active, gpu.run_active());
        EXPECT_EQ(p.kernels_retired, s.kernels.size());
        EXPECT_EQ(p.current_cycle, s.current_cycle);
        EXPECT_GE(p.kernels_retired, seen);
        seen = p.kernels_retired;
        ASSERT_LE(s.kernels.size(), whole.kernels.size());
        for (size_t i = 0; i < s.kernels.size(); ++i) {
            EXPECT_EQ(s.kernels[i].kernel, whole.kernels[i].kernel);
            EXPECT_EQ(s.kernels[i].finish_cycle,
                      whole.kernels[i].finish_cycle);
        }
    }
    const EngineStats final = gpu.stats();
    ASSERT_EQ(final.kernels.size(), whole.kernels.size());
    for (size_t i = 0; i < whole.kernels.size(); ++i) {
        EXPECT_EQ(final.kernels[i].kernel, whole.kernels[i].kernel);
        EXPECT_EQ(final.kernels[i].start_cycle, whole.kernels[i].start_cycle);
        EXPECT_EQ(final.kernels[i].finish_cycle,
                  whole.kernels[i].finish_cycle);
        EXPECT_EQ(final.kernels[i].instructions,
                  whole.kernels[i].instructions);
    }
    EXPECT_EQ(final.cycles, whole.cycles);
    EXPECT_EQ(final.instructions, whole.instructions);
    EXPECT_EQ(final.ticks + final.skipped_cycles,
              whole.ticks + whole.skipped_cycles);
}

TEST(Progress, DrainingSynchronizeKeepsFinalStats)
{
    // A synchronize that drains the run hands back only its progress;
    // stats() then returns that run's final statistics — the ones run()
    // would have returned — until the next run begins.
    Gpu ref(small_titan_v(2));
    ref.default_stream().enqueue(stress("a"));
    ref.default_stream().enqueue(stress("b"));
    const EngineStats want = ref.run();
    EXPECT_EQ(ref.stats().cycles, want.cycles);  // run() keeps them too.

    Gpu gpu(small_titan_v(2));
    EXPECT_TRUE(gpu.stats().kernels.empty());  // No run yet.
    Stream& s = gpu.default_stream();
    s.enqueue(stress("a"));
    s.enqueue(stress("b"));
    const RunProgress p = gpu.synchronize(s);
    EXPECT_FALSE(p.active);
    EXPECT_FALSE(gpu.run_active());
    EXPECT_EQ(p.kernels_retired, 2u);

    const EngineStats got = gpu.stats();
    EXPECT_EQ(p.current_cycle, got.current_cycle);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.instructions, want.instructions);
    EXPECT_EQ(got.ticks, want.ticks);
    EXPECT_EQ(got.skipped_cycles, want.skipped_cycles);
    ASSERT_EQ(got.kernels.size(), want.kernels.size());
    for (size_t i = 0; i < want.kernels.size(); ++i) {
        EXPECT_EQ(got.kernels[i].kernel, want.kernels[i].kernel);
        EXPECT_EQ(got.kernels[i].finish_cycle, want.kernels[i].finish_cycle);
    }

    // The next run releases them: stats() follows the new run.
    s.enqueue(stress("c"));
    gpu.run_until(0);
    ASSERT_TRUE(gpu.run_active());
    EXPECT_TRUE(gpu.stats().kernels.empty());
    EXPECT_EQ(gpu.run().kernels.size(), 1u);
}

TEST(Progress, RunAndTakeStatsMovesTheFinalStatsOut)
{
    // The same statistics run() returns, macro-latency samples
    // included, but the Gpu keeps no copy.
    Gpu ref(small_titan_v(2));
    ref.default_stream().enqueue(stress("a"));
    ref.default_stream().enqueue(stress("b"));
    const EngineStats want = ref.run();

    Gpu gpu(small_titan_v(2));
    gpu.default_stream().enqueue(stress("a"));
    gpu.default_stream().enqueue(stress("b"));
    const EngineStats got = gpu.run_and_take_stats();
    ASSERT_FALSE(want.kernels.empty());
    EXPECT_FALSE(want.kernels[0].macro_latency.empty());
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.instructions, want.instructions);
    EXPECT_EQ(got.ticks, want.ticks);
    EXPECT_EQ(got.current_cycle, want.current_cycle);
    ASSERT_EQ(got.kernels.size(), want.kernels.size());
    for (size_t i = 0; i < want.kernels.size(); ++i) {
        EXPECT_EQ(got.kernels[i].finish_cycle, want.kernels[i].finish_cycle);
        EXPECT_EQ(got.kernels[i].macro_latency.size(),
                  want.kernels[i].macro_latency.size());
    }
    EXPECT_TRUE(gpu.stats().kernels.empty());
    EXPECT_FALSE(gpu.run_active());
}

TEST(Progress, CallbackWakesParkedStreamsInScanOrder)
{
    // A stream whose queue ran empty is parked (promotion stops
    // visiting it).  A callback appending to parked streams wakes them
    // in the order a scan of every stream would reach them: a woken
    // stream after the callback's joins the same promotion pass, one
    // before it the next pass, both on the callback's cycle.  Each
    // kernel fills the single SM, so kernels run in promotion order.
    const GpuConfig cfg = small_titan_v(1);
    auto whole_sm = [&cfg](const char* name) {
        KernelDesc k = stress(name);
        k.shared_mem_bytes = cfg.shared_mem_per_sm;
        return k;
    };
    Gpu gpu(cfg);
    Stream& before = gpu.create_stream();
    Stream& host = gpu.create_stream();
    Stream& after = gpu.create_stream();
    Stream& other = gpu.create_stream();
    Event& gate_done = gpu.create_event("gate_done");
    before.enqueue(whole_sm("early"));
    host.enqueue(whole_sm("gate"));
    host.record(gate_done);
    uint64_t fired = 0;
    host.add_callback([&](uint64_t cycle) {
        fired = cycle;
        before.enqueue(whole_sm("late_before"));
        after.enqueue(whole_sm("late_after"));
    });
    other.wait(gate_done);
    other.enqueue(whole_sm("other"));
    const EngineStats es = gpu.run();

    const std::vector<std::string> order = {"early", "gate", "late_after",
                                            "other", "late_before"};
    ASSERT_EQ(es.kernels.size(), order.size());
    for (size_t i = 0; i < order.size(); ++i) {
        EXPECT_EQ(es.kernels[i].kernel, order[i]);
        if (i >= 2) {
            EXPECT_EQ(es.kernels[i].start_cycle, fired) << order[i];
        }
    }
}

TEST(Progress, CallbackStreamsKeepCreationOrder)
{
    // A host callback creates many streams at once: they join the run in
    // creation order, so their launches promote and dispatch in
    // stream-id order.  Each leaf claims the single SM's whole shared
    // memory, so leaves run one at a time and retire in dispatch order,
    // whether the run goes in one shot or in chunks.
    constexpr int kStreams = 500;
    const GpuConfig cfg = small_titan_v(1);
    auto build = [&cfg](Gpu* gpu) {
        Stream& head = gpu->default_stream();
        head.enqueue(stress("head"));
        head.add_callback([gpu, &cfg](uint64_t) {
            for (int i = 0; i < kStreams; ++i) {
                KernelDesc leaf = stress("leaf");
                leaf.shared_mem_bytes = cfg.shared_mem_per_sm;
                gpu->create_stream().enqueue(std::move(leaf));
            }
        });
    };
    Gpu one(cfg);
    build(&one);
    const EngineStats whole = one.run();

    Gpu chunked(cfg);
    build(&chunked);
    for (uint64_t c = 0; chunked.run_active() || c == 0; c += 5000)
        chunked.run_until(c);
    const EngineStats got = chunked.stats();

    for (const EngineStats* es : {&whole, &got}) {
        ASSERT_EQ(es->kernels.size(), size_t{kStreams} + 1);
        EXPECT_EQ(es->kernels[0].stream, 0);
        for (int i = 1; i <= kStreams; ++i)
            EXPECT_EQ(es->kernels[static_cast<size_t>(i)].stream, i);
    }
    for (size_t i = 0; i < whole.kernels.size(); ++i)
        EXPECT_EQ(got.kernels[i].finish_cycle, whole.kernels[i].finish_cycle);
}

TEST(Stalls, PerKernelAttributionFilledInMultiKernelRuns)
{
    // Two concurrent GEMMs: each kernel's LaunchStats carries its own
    // stall attribution (not just Gpu::launch()'s chip-wide copy), and
    // the per-kernel counts are bounded by the chip-wide total.
    GemmProblem<float> pa(64, 64, 64, Layout::kRowMajor, Layout::kRowMajor);
    GemmProblem<float> pb(64, 64, 64, Layout::kRowMajor, Layout::kRowMajor);
    Gpu gpu(small_titan_v(2));
    gpu.create_stream().enqueue(small_gemm(&gpu, &pa, "a"));
    gpu.create_stream().enqueue(small_gemm(&gpu, &pb, "b"));
    EngineStats es = gpu.run();

    ASSERT_EQ(es.kernels.size(), 2u);
    EXPECT_GT(es.stalls.total(), 0u);
    uint64_t per_kernel = 0;
    for (const LaunchStats& k : es.kernels) {
        EXPECT_GT(k.stalls.total(), 0u) << k.kernel;
        per_kernel += k.stalls.total();
    }
    // Unattributable stalls (empty sub-cores, drained warps) stay
    // chip-wide only.
    EXPECT_LE(per_kernel, es.stalls.total());
    // Named accessor: a memory-bound WMMA GEMM spends cycles blocked
    // on the scoreboard.
    EXPECT_GT(es.stalls.cycles(SubCore::StallReason::kScoreboard), 0u);
}

TEST(Stalls, LaunchKeepsChipWideAttribution)
{
    // Gpu::launch() preserves the legacy semantics: the single
    // kernel's stall array equals the chip-wide one.
    GemmProblem<float> prob(64, 64, 64, Layout::kRowMajor,
                            Layout::kRowMajor);
    Gpu gpu(small_titan_v(2));
    LaunchStats s = gpu.launch(small_gemm(&gpu, &prob, "solo"));
    EXPECT_GT(s.stalls.total(), 0u);
}

}  // namespace
}  // namespace tcsim
