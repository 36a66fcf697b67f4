/**
 * @file
 * Fault-injection tests: FaultPlan compilation (random picks are
 * seed-deterministic, unsatisfiable plans are rejected), kernel rule
 * budgets, the stateless ECC hash, and end-to-end engine behaviour --
 * disabled/degraded SMs slow a multi-CTA kernel, slowdowns stretch
 * completion, hangs block the run until kill_stream() or a watchdog
 * contains them, and every faulty run stays bit-identical across
 * sim_threads.  The launch lifecycle: a profile records the natural
 * duration under a slowdown, snapshots refuse an enabled fault plan,
 * the hang dump names each launch's state, and every launch kind
 * (detailed, recording, replayed) under every fault (none, slowdown,
 * hang + kill_stream) agrees across lockstep/idle-skip x sim_threads.
 */

#include <gtest/gtest.h>

#include "arch/gpu_config.h"
#include "common/sim_error.h"
#include "kernels/kernel_registry.h"
#include "sim/fault/fault_plan.h"
#include "sim/gpu.h"
#include "sim/replay/replay_cache.h"
#include "sim/snapshot.h"

using namespace tcsim;

namespace {

GpuConfig
small_gpu(int sms = 4)
{
    GpuConfig cfg = titan_v_config();
    cfg.num_sms = sms;
    return cfg;
}

SimOptions
serial_sim()
{
    SimOptions sim;
    sim.sim_threads = 1;
    return sim;
}

/** A multi-CTA GEMM so SM-level faults have something to slow down.
 *  A timing-only one (@p functional false) is replay-cacheable. */
KernelDesc
gemm_kernel(Gpu& gpu, const GpuConfig& cfg, int mn = 128,
            bool functional = true)
{
    const KernelFamilyInfo* info = find_kernel_family("wmma_naive");
    EXPECT_NE(info, nullptr);
    GemmKernelConfig kc;
    kc.arch = cfg.arch;
    kc.m = kc.n = mn;
    kc.k = 64;
    kc.functional = functional;
    GemmBuffers buf;
    buf.a = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.k * 2);
    buf.b = gpu.mem().alloc(static_cast<uint64_t>(kc.k) * kc.n * 2);
    buf.c = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.n * 4);
    buf.d = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.n * 4);
    KernelDesc desc =
        build_gemm_kernel(info->family, kc, buf, /*warps_per_cta=*/8);
    return desc;
}

/** A timing-only (cacheable) 128x128x64 GEMM named @p name. */
KernelDesc
named_gemm(Gpu& gpu, const char* name)
{
    KernelDesc k = gemm_kernel(gpu, gpu.config(), 128, false);
    k.name = name;
    return k;
}

/** Cycles to run one GEMM to completion under @p faults. */
uint64_t
faulty_cycles(const FaultSpec& faults, FaultCounters* counters = nullptr,
              int sim_threads = 1)
{
    GpuConfig cfg = small_gpu();
    SimOptions sim = serial_sim();
    sim.sim_threads = sim_threads;
    Gpu gpu(cfg, sim, faults);
    gpu.default_stream().enqueue(gemm_kernel(gpu, cfg));
    EngineStats stats = gpu.run();
    if (counters)
        *counters = gpu.fault_counters();
    return stats.cycles;
}

}  // namespace

// --- FaultPlan compilation -------------------------------------------

TEST(FaultPlan, RandomPicksAreSeedDeterministic)
{
    GpuConfig cfg = small_gpu(16);
    FaultSpec spec;
    spec.enabled = true;
    spec.seed = 7;
    spec.random_disabled_sms = 3;
    spec.random_degraded_sms = 2;
    spec.degraded_warp_slots = 4;

    FaultPlan a(spec, cfg);
    FaultPlan b(spec, cfg);
    int disabled = 0, degraded = 0;
    for (int sm = 0; sm < cfg.num_sms; ++sm) {
        EXPECT_EQ(a.sm_disabled(sm), b.sm_disabled(sm));
        EXPECT_EQ(a.warp_slot_cap(sm), b.warp_slot_cap(sm));
        disabled += a.sm_disabled(sm);
        degraded += a.warp_slot_cap(sm) != 0;
    }
    EXPECT_EQ(disabled, 3);
    EXPECT_EQ(degraded, 2);
    EXPECT_EQ(a.counters().disabled_sms, 3u);
    EXPECT_EQ(a.counters().degraded_sms, 2u);
}

TEST(FaultPlan, RejectsUnsatisfiablePlans)
{
    GpuConfig cfg = small_gpu(4);
    FaultSpec bad_id;
    bad_id.enabled = true;
    bad_id.disabled_sms = {4};  // Out of range on a 4-SM chip.
    EXPECT_THROW(FaultPlan(bad_id, cfg), SimError);

    FaultSpec all_dead;
    all_dead.enabled = true;
    all_dead.disabled_sms = {0, 1, 2};
    all_dead.random_disabled_sms = 1;  // Would disable every SM.
    EXPECT_THROW(FaultPlan(all_dead, cfg), SimError);

    FaultSpec bad_degrade;
    bad_degrade.enabled = true;
    bad_degrade.degraded_sms = {{7, 4}};
    EXPECT_THROW(FaultPlan(bad_degrade, cfg), SimError);
}

TEST(FaultPlan, KernelRuleBudgets)
{
    GpuConfig cfg = small_gpu();
    FaultSpec spec;
    spec.enabled = true;
    spec.hangs.push_back({"fc0", 1.0, 2});
    spec.slowdowns.push_back({"gemm", 3.0, 1});
    FaultPlan plan(spec, cfg);

    // Hang budget: two matches, then exhausted; non-matches never hit.
    EXPECT_FALSE(plan.take_hang("other"));
    EXPECT_TRUE(plan.take_hang("b0.fc0.k0"));
    EXPECT_TRUE(plan.take_hang("b1.fc0.k0"));
    EXPECT_FALSE(plan.take_hang("b2.fc0.k0"));
    EXPECT_EQ(plan.counters().hangs, 2u);

    // Slowdown budget: first match gets the factor, later ones don't.
    EXPECT_DOUBLE_EQ(plan.take_slowdown("gemm_0"), 3.0);
    EXPECT_DOUBLE_EQ(plan.take_slowdown("gemm_1"), 1.0);
    EXPECT_EQ(plan.counters().slowdowns, 1u);
}

TEST(FaultPlan, EccHashIsStatelessAndDeterministic)
{
    GpuConfig cfg = small_gpu();
    FaultSpec spec;
    spec.enabled = true;
    spec.ecc_prob = 0.5;
    spec.ecc_extra_cycles = 40;
    FaultPlan a(spec, cfg);
    FaultPlan b(spec, cfg);

    uint64_t hits = 0;
    for (uint64_t addr = 0; addr < 256 * 32; addr += 32) {
        const uint64_t da = a.ecc_delay(1, addr, 1000);
        // Same (sm, addr, cycle) -> same decision in any plan instance,
        // regardless of what either plan was asked before.
        EXPECT_EQ(da, b.ecc_delay(1, addr, 1000));
        EXPECT_TRUE(da == 0 || da == 40);
        hits += da != 0;
    }
    // p = 0.5 over 256 draws: comfortably away from 0 and 256.
    EXPECT_GT(hits, 64u);
    EXPECT_LT(hits, 192u);
    EXPECT_EQ(a.counters().ecc_retries, hits);
    EXPECT_EQ(a.counters().ecc_extra_cycles, hits * 40);
}

// --- End-to-end engine behaviour -------------------------------------

TEST(FaultEngine, DisabledAndDegradedSmsSlowTheChip)
{
    const uint64_t healthy = faulty_cycles(FaultSpec{});

    FaultSpec disabled;
    disabled.enabled = true;
    disabled.disabled_sms = {0, 1, 2};
    FaultCounters dc;
    const uint64_t one_sm = faulty_cycles(disabled, &dc);
    EXPECT_GT(one_sm, healthy);
    EXPECT_EQ(dc.disabled_sms, 3u);

    // Cap every SM to one CTA's worth of warp slots: the chip still
    // finishes, just with far less concurrency.
    FaultSpec degraded;
    degraded.enabled = true;
    for (int sm = 0; sm < 4; ++sm)
        degraded.degraded_sms.push_back({sm, 8});
    FaultCounters gc;
    const uint64_t capped = faulty_cycles(degraded, &gc);
    EXPECT_GT(capped, healthy);
    EXPECT_EQ(gc.degraded_sms, 4u);
}

TEST(FaultEngine, UndispatchableDegradedPlanIsATypedError)
{
    // Warp caps below the kernel's warps-per-CTA on every SM: no CTA
    // can ever dispatch.  Scenario input, so a typed SimError (with
    // the diagnostic dump), never a process abort.
    FaultSpec starved;
    starved.enabled = true;
    for (int sm = 0; sm < 4; ++sm)
        starved.degraded_sms.push_back({sm, 2});
    try {
        faulty_cycles(starved);
        FAIL() << "expected SimError";
    } catch (const SimError& e) {
        EXPECT_NE(std::string(e.what()).find("undispatchable"),
                  std::string::npos);
    }
}

TEST(FaultEngine, SlowdownStretchesCompletion)
{
    const uint64_t healthy = faulty_cycles(FaultSpec{});

    FaultSpec slow;
    slow.enabled = true;
    slow.slowdowns.push_back({"wmma", 2.0, 0});
    FaultCounters fc;
    const uint64_t stretched = faulty_cycles(slow, &fc);
    EXPECT_EQ(fc.slowdowns, 1u);
    EXPECT_GT(fc.slowdown_extra_cycles, 0u);
    // Held to ~2x its natural duration.
    EXPECT_GE(stretched, healthy + fc.slowdown_extra_cycles);
    EXPECT_GT(stretched, healthy * 3 / 2);
}

TEST(FaultEngine, FaultyRunsAreBitIdenticalAcrossSimThreads)
{
    FaultSpec faults;
    faults.enabled = true;
    faults.disabled_sms = {1};
    faults.degraded_sms = {{2, 4}};
    faults.slowdowns.push_back({"wmma", 1.5, 0});
    faults.ecc_prob = 0.05;
    faults.ecc_extra_cycles = 60;

    FaultCounters serial_c, par_c;
    const uint64_t serial = faulty_cycles(faults, &serial_c, 1);
    const uint64_t par = faulty_cycles(faults, &par_c, 4);
    EXPECT_EQ(serial, par);
    EXPECT_EQ(serial_c.ecc_retries, par_c.ecc_retries);
    EXPECT_EQ(serial_c.ecc_extra_cycles, par_c.ecc_extra_cycles);
    EXPECT_EQ(serial_c.slowdown_extra_cycles, par_c.slowdown_extra_cycles);
}

TEST(FaultEngine, EccRetriesAddLatencyDeterministically)
{
    const uint64_t healthy = faulty_cycles(FaultSpec{});

    FaultSpec ecc;
    ecc.enabled = true;
    ecc.ecc_prob = 0.5;
    ecc.ecc_extra_cycles = 100;
    FaultCounters c1, c2;
    const uint64_t a = faulty_cycles(ecc, &c1);
    const uint64_t b = faulty_cycles(ecc, &c2);
    EXPECT_EQ(a, b);
    EXPECT_EQ(c1.ecc_retries, c2.ecc_retries);
    EXPECT_GT(c1.ecc_retries, 0u);
    EXPECT_GT(a, healthy);
}

TEST(FaultEngine, HangBlocksRunUntilAndKillStreamRecovers)
{
    GpuConfig cfg = small_gpu();
    Gpu gpu(cfg, serial_sim(), [] {
        FaultSpec f;
        f.enabled = true;
        f.hangs.push_back({"doomed", 1.0, 1});
        return f;
    }());

    Stream& victim = gpu.create_stream();
    KernelDesc doomed = gemm_kernel(gpu, cfg, 64);
    doomed.name = "doomed";
    victim.enqueue(doomed);

    // A resumable advance pauses blocked once the hung launch is the
    // only thing left on the chip -- it never retires on its own.
    gpu.run_until(50'000'000);
    EXPECT_TRUE(gpu.run_active());
    EXPECT_EQ(gpu.fault_counters().hangs, 1u);
    EXPECT_TRUE(gpu.stream_quiescent(victim));
    // Run to completion cannot hand control back: it reports the hang
    // with the launch's state and leaves the run paused.
    try {
        gpu.run();
        FAIL() << "expected SimHangError";
    } catch (const SimHangError& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "resident: \"doomed\" stream=1 grid=0 hung\n"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(gpu.run_active());

    // Host containment: kill the stream, then healthy work completes.
    gpu.kill_stream(victim);
    gpu.default_stream().enqueue(gemm_kernel(gpu, cfg, 64));
    EngineStats stats = gpu.run();
    EXPECT_EQ(stats.kernels.size(), 1u);
}

TEST(FaultEngine, HangIsTerminalForRunToCompletion)
{
    GpuConfig cfg = small_gpu();
    FaultSpec f;
    f.enabled = true;
    f.hangs.push_back({"wmma", 1.0, 1});
    Gpu gpu(cfg, serial_sim(), f);
    gpu.default_stream().enqueue(gemm_kernel(gpu, cfg, 64));
    try {
        gpu.run();
        FAIL() << "expected SimHangError";
    } catch (const SimHangError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("injected kernel hang"), std::string::npos);
        EXPECT_NE(what.find("resident kernel"), std::string::npos);
    }
}

namespace {

/** The SimHangError dump of a single-GEMM run on @p sim, stopped by
 *  its max_cycles watchdog (empty when the run finished). */
std::string
watchdog_dump(const SimOptions& sim, const FaultSpec& faults = {})
{
    Gpu gpu(small_gpu(), sim, faults);
    gpu.default_stream().enqueue(named_gemm(gpu, "g"));
    try {
        gpu.run();
    } catch (const SimHangError& e) {
        return e.what();
    }
    return "";
}

}  // namespace

TEST(FaultEngine, MaxCyclesWatchdogCarriesDiagnosticDump)
{
    // The dump names each resident launch's lifecycle state.
    SimOptions sim = serial_sim();
    sim.max_cycles = 200;  // Far below one GEMM's duration.
    std::string what = watchdog_dump(sim);
    EXPECT_NE(what.find("max_cycles"), std::string::npos);
    EXPECT_NE(what.find("resident kernel"), std::string::npos);
    EXPECT_NE(what.find("busy SM"), std::string::npos);
    EXPECT_NE(what.find("resident: \"g\" stream=0 grid=0 dispatching 0/"),
              std::string::npos)
        << what;

    // A 3x slowdown's release lands at 3x the natural duration.
    // Lockstep stops the run between the natural finish and the
    // release: held.  Idle-skip jumps straight from the finish to the
    // release, past max_cycles, where the launch is drained and due to
    // retire on the next tick.
    SimOptions healthy = serial_sim();
    ReplayCache cache;
    healthy.replay_mode = SimOptions::ReplayMode::kRecord;
    healthy.replay_cache = &cache;
    Gpu recorder(small_gpu(), healthy);
    recorder.default_stream().enqueue(named_gemm(recorder, "g"));
    const uint64_t natural = recorder.run().cycles;
    FaultSpec slow;
    slow.enabled = true;
    slow.slowdowns.push_back({"g", 3.0, 0});
    sim.max_cycles = 2 * natural;
    what = watchdog_dump(sim, slow);
    EXPECT_NE(what.find("cycle " + std::to_string(3 * natural - 1) + ":"),
              std::string::npos);
    EXPECT_NE(what.find("grid=0 drained\n"), std::string::npos) << what;
    sim.idle_skip = false;
    what = watchdog_dump(sim, slow);
    EXPECT_NE(what.find("grid=0 held until " +
                        std::to_string(3 * natural - 1) + "\n"),
              std::string::npos)
        << what;

    // Replaying: a warm hit completes by the clock at its recorded
    // duration.
    sim.max_cycles = 200;
    sim.replay_mode = SimOptions::ReplayMode::kReplay;
    sim.replay_cache = &cache;
    what = watchdog_dump(sim);
    EXPECT_NE(what.find("grid=0 replaying until " +
                        std::to_string(natural - 1) + "\n"),
              std::string::npos)
        << what;
}

TEST(FaultEngine, FaultsAreTimingOnly)
{
    // A heavily faulted run still completes and verifies: faults are
    // timing-only and must never corrupt functional results.
    GpuConfig cfg = small_gpu();
    FaultSpec faults;
    faults.enabled = true;
    faults.disabled_sms = {0, 3};
    faults.ecc_prob = 0.3;
    faults.ecc_extra_cycles = 80;
    faults.slowdowns.push_back({"wmma", 2.0, 0});
    Gpu gpu(cfg, serial_sim(), faults);
    KernelDesc k = gemm_kernel(gpu, cfg, 64);
    gpu.default_stream().enqueue(k);
    EngineStats stats = gpu.run();
    EXPECT_EQ(stats.kernels.size(), 1u);
    EXPECT_GT(gpu.fault_counters().ecc_retries, 0u);
}

// --- Launch lifecycle --------------------------------------------------

namespace {

/** One timing-only 128x128x64 naive GEMM on 4 SMs, run with @p
 *  replay_mode against @p cache under a 3x slowdown plan. */
EngineStats
slowed_gemm(SimOptions::ReplayMode replay_mode, ReplayCache* cache)
{
    SimOptions sim = serial_sim();
    sim.replay_mode = replay_mode;
    sim.replay_cache = cache;
    FaultSpec slow;
    slow.enabled = true;
    slow.slowdowns.push_back({"wmma", 3.0, 0});
    Gpu gpu(small_gpu(), sim, slow);
    gpu.default_stream().enqueue(named_gemm(gpu, "wmma"));
    return gpu.run();
}

}  // namespace

TEST(FaultEngine, SlowdownRecordsTheNaturalDuration)
{
    // A profile holds the launch's natural (drain) duration; the hold
    // applies on top of it, so a warm replay under the same plan must
    // not stretch the launch a second time.
    ReplayCache cache;
    const EngineStats recorded =
        slowed_gemm(SimOptions::ReplayMode::kRecord, &cache);
    const EngineStats replayed =
        slowed_gemm(SimOptions::ReplayMode::kReplay, &cache);
    EXPECT_EQ(replayed.replay_hits, 1u);
    EXPECT_EQ(replayed.cycles, recorded.cycles);
    EXPECT_EQ(replayed.cycles, slowed_gemm(SimOptions::ReplayMode::kOff,
                                           nullptr).cycles);
}

TEST(FaultEngine, SnapshotRefusesAnEnabledFaultPlan)
{
    // Rule budgets and hung/held launches are not serialized: a
    // snapshot would silently drop them, so it is refused instead.
    GpuConfig cfg = small_gpu();
    FaultSpec slow;
    slow.enabled = true;
    slow.slowdowns.push_back({"wmma", 3.0, 0});
    Gpu gpu(cfg, serial_sim(), slow);
    gpu.default_stream().enqueue(named_gemm(gpu, "wmma"));
    gpu.run_until(1000);
    ASSERT_TRUE(gpu.run_active());
    EXPECT_THROW(gpu.snapshot(), SnapshotError);
}

namespace {

enum class LaunchKind { kDetailed, kRecording, kReplayed };
enum class LaunchFault { kNone, kSlowdown, kHangKill };

/** What a lifecycle run must reproduce under every engine setting. */
struct LifecycleOutcome
{
    uint64_t cycles = 0;
    std::vector<std::string> retired;  ///< Kernel names, retire order.
    uint64_t clock = 0;                ///< ticks + skipped_cycles.
    uint64_t replay_hits = 0;
};

/** Enqueue g0 then g1 on a new stream; returns the stream. */
Stream&
enqueue_lifecycle_program(Gpu& gpu)
{
    Stream& s = gpu.create_stream();
    s.enqueue(named_gemm(gpu, "g0"));
    s.enqueue(named_gemm(gpu, "g1"));
    return s;
}

/** Stream 1 runs g0 then g1.  Under kHangKill g0 hangs: the bounded
 *  advance pauses, the host kills stream 1 (dropping g1) and runs g2
 *  on the default stream instead. */
LifecycleOutcome
lifecycle_run(LaunchKind kind, LaunchFault fault, bool idle_skip,
              int threads, const ReplayCache& warm)
{
    SimOptions sim = serial_sim();
    sim.idle_skip = idle_skip;
    sim.sim_threads = threads;
    // Recording starts from an empty cache, replay from the warm one.
    ReplayCache cache =
        kind == LaunchKind::kReplayed ? warm : ReplayCache{};
    if (kind != LaunchKind::kDetailed) {
        sim.replay_mode = kind == LaunchKind::kRecording
                              ? SimOptions::ReplayMode::kRecord
                              : SimOptions::ReplayMode::kReplay;
        sim.replay_cache = &cache;
    }
    FaultSpec faults;
    faults.enabled = fault != LaunchFault::kNone;
    if (fault == LaunchFault::kSlowdown)
        faults.slowdowns.push_back({"g", 3.0, 0});
    if (fault == LaunchFault::kHangKill)
        faults.hangs.push_back({"g0", 1.0, 1});

    Gpu gpu(small_gpu(), sim, faults);
    Stream& s = enqueue_lifecycle_program(gpu);
    if (fault == LaunchFault::kHangKill) {
        gpu.run_until(50'000'000);
        EXPECT_TRUE(gpu.run_active());
        EXPECT_TRUE(gpu.stream_quiescent(s));
        gpu.kill_stream(s);
        gpu.default_stream().enqueue(named_gemm(gpu, "g2"));
    }
    const EngineStats st = gpu.run();
    LifecycleOutcome out;
    out.cycles = st.cycles;
    for (const LaunchStats& k : st.kernels)
        out.retired.push_back(k.kernel);
    out.clock = st.ticks + st.skipped_cycles;
    out.replay_hits = st.replay_hits;
    return out;
}

}  // namespace

TEST(Lifecycle, EveryKindAndFaultAgreesAcrossEngineSettings)
{
    // Warm the replay cache from a fault-free detailed run of the same
    // stream program, so every replayed launch is a hit.
    ReplayCache warm;
    SimOptions rec = serial_sim();
    rec.replay_mode = SimOptions::ReplayMode::kRecord;
    rec.replay_cache = &warm;
    Gpu recorder(small_gpu(), rec);
    enqueue_lifecycle_program(recorder);
    recorder.run();
    ASSERT_GT(warm.size(), 0u);

    const char* kinds[] = {"detailed", "recording", "replayed"};
    const char* faults[] = {"none", "slowdown", "hang+kill_stream"};
    LifecycleOutcome reference[3][3];
    for (int k = 0; k < 3; ++k) {
        for (int f = 0; f < 3; ++f) {
            const auto kind = static_cast<LaunchKind>(k);
            const auto fault = static_cast<LaunchFault>(f);
            SCOPED_TRACE(std::string(kinds[k]) + " x " + faults[f]);
            // Lockstep serial is the reference the others must match.
            std::vector<LifecycleOutcome> runs;
            for (bool skip : {false, true})
                for (int threads : {1, 4})
                    runs.push_back(
                        lifecycle_run(kind, fault, skip, threads, warm));
            const LifecycleOutcome& ref = runs[0];
            for (size_t i = 1; i < runs.size(); ++i) {
                SCOPED_TRACE("engine setting " + std::to_string(i) +
                             " (lockstep t4, idle-skip t1, idle-skip t4)");
                EXPECT_EQ(runs[i].cycles, ref.cycles);
                EXPECT_EQ(runs[i].retired, ref.retired);
                EXPECT_EQ(runs[i].clock, ref.clock);
                EXPECT_EQ(runs[i].replay_hits, ref.replay_hits);
            }
            if (kind == LaunchKind::kReplayed) {
                EXPECT_GT(ref.replay_hits, 0u);
            }
            const std::vector<std::string> order =
                fault == LaunchFault::kHangKill
                    ? std::vector<std::string>{"g2"}
                    : std::vector<std::string>{"g0", "g1"};
            EXPECT_EQ(ref.retired, order);
            reference[k][f] = ref;
        }
    }
    // Holds apply on top of the natural duration, whichever way the
    // launch reached it; the record mode never perturbs timing.
    for (int f : {0, 1}) {
        SCOPED_TRACE(faults[f]);
        const LifecycleOutcome& detailed = reference[0][f];
        EXPECT_EQ(reference[1][f].cycles, detailed.cycles);
        EXPECT_EQ(reference[2][f].cycles, detailed.cycles);
        EXPECT_EQ(reference[2][f].retired, detailed.retired);
    }
    EXPECT_GT(reference[0][1].cycles, reference[0][0].cycles * 2);
}
