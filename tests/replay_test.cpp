/**
 * @file
 * Kernel-timing replay cache (sim/replay/): profile and archive codec
 * round-trips, fingerprint isolation across GpuConfigs, the
 * bit-identity contract for same-context hits, determinism under the
 * parallel tick, snapshot/restore with a replayed
 * kernel in flight (including restoring onto a replay-off engine), the
 * archive bytes of a recorded run, and that a corrupted archive is
 * loaded or rejected with a SnapshotError, never a crash.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

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

/** Enqueue one timing-only shared-memory GEMM (it carries a
 *  timing_key, so it is cacheable) on the default stream. */
void
enqueue_gemm(Gpu& gpu, int mnk, const std::string& name = "")
{
    GemmKernelConfig kc;
    kc.m = kc.n = kc.k = mnk;
    kc.functional = false;
    uint64_t n = static_cast<uint64_t>(mnk);
    GemmBuffers buf;
    buf.a = gpu.mem().alloc(n * n * 2);
    buf.b = gpu.mem().alloc(n * n * 2);
    buf.c = gpu.mem().alloc(n * n * 4);
    buf.d = gpu.mem().alloc(n * n * 4);
    KernelDesc k = make_wmma_gemm_shared(kc, buf);
    if (!name.empty())
        k.name = name;
    gpu.default_stream().enqueue(std::move(k));
}

EngineStats
run_serial_gemms(const GpuConfig& cfg, const SimOptions& opts, int count,
                 int mnk)
{
    Gpu gpu(cfg, opts);
    for (int i = 0; i < count; ++i)
        enqueue_gemm(gpu, mnk, "g" + std::to_string(i));
    return gpu.run();
}

KernelTimingProfile
sample_profile()
{
    KernelTimingProfile p;
    p.cycles = 12345;
    p.instructions = 777;
    p.hmma_instructions = 111;
    p.mem.l1_hits = 5;
    p.mem.l1_misses = 3;
    p.mem.dram_bytes = 4096;
    p.stalls[StallReason::kScoreboard] = 42;
    Histogram h;
    h.add(10);
    h.add(20);
    p.macro_latency[MacroClass::kWmmaMma] = h;
    p.occupancy.push_back({0, 8});
    p.occupancy.push_back({6000, 4});
    return p;
}

void
expect_profiles_equal(const KernelTimingProfile& a,
                      const KernelTimingProfile& b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.hmma_instructions, b.hmma_instructions);
    EXPECT_EQ(a.mem.l1_hits, b.mem.l1_hits);
    EXPECT_EQ(a.mem.l1_misses, b.mem.l1_misses);
    EXPECT_EQ(a.mem.dram_bytes, b.mem.dram_bytes);
    EXPECT_EQ(a.stalls[StallReason::kScoreboard],
              b.stalls[StallReason::kScoreboard]);
    ASSERT_EQ(a.macro_latency.size(), b.macro_latency.size());
    for (const auto& [mc, ha] : a.macro_latency) {
        auto it = b.macro_latency.find(mc);
        ASSERT_NE(it, b.macro_latency.end());
        EXPECT_EQ(ha.samples(), it->second.samples());
    }
    EXPECT_EQ(a.occupancy, b.occupancy);
}

TEST(ReplayCache, ProfileCodecRoundTrip)
{
    KernelTimingProfile p = sample_profile();
    SnapshotWriter w;
    transfer(w, p);
    std::vector<uint8_t> bytes = w.take();
    SnapshotReader r(bytes);
    KernelTimingProfile q;
    transfer(r, q);
    EXPECT_TRUE(r.done());
    expect_profiles_equal(p, q);
}

TEST(ReplayCache, DurationSequenceServedInPromotionOrder)
{
    ReplayCache cache;
    KernelTimingProfile p = sample_profile();
    // Slots recorded out of order (launches can retire out of
    // promotion order); slot 1 is a hole.
    p.cycles = 300;
    cache.record("k", 2, p);
    p.cycles = 100;
    cache.record("k", 0, p);

    KernelTimingProfile out;
    ASSERT_TRUE(cache.lookup("k", 0, &out));
    EXPECT_EQ(out.cycles, 100u);
    // Counter fields always come from the first recording.
    EXPECT_EQ(out.instructions, 777u);
    // An unfilled slot falls back to the first-recorded duration.
    ASSERT_TRUE(cache.lookup("k", 1, &out));
    EXPECT_EQ(out.cycles, 300u);
    ASSERT_TRUE(cache.lookup("k", 2, &out));
    EXPECT_EQ(out.cycles, 300u);
    // Past the end the sequence cycles.
    ASSERT_TRUE(cache.lookup("k", 3, &out));
    EXPECT_EQ(out.cycles, 100u);
    EXPECT_FALSE(cache.lookup("other", 0, &out));
}

TEST(ReplayCache, ArchiveRoundTripAndCorruptionRejected)
{
    ReplayCache cache;
    KernelTimingProfile p = sample_profile();
    cache.record("a", 0, p);
    p.cycles = 999;
    cache.record("a", 1, p);
    p.cycles = 555;
    cache.record("b", 0, p);

    std::vector<uint8_t> bytes = cache.serialize();
    ReplayCache back;
    back.deserialize(bytes);
    EXPECT_EQ(back.size(), 2u);
    KernelTimingProfile out;
    ASSERT_TRUE(back.lookup("a", 0, &out));
    EXPECT_EQ(out.cycles, 12345u);
    expect_profiles_equal(out, sample_profile());
    ASSERT_TRUE(back.lookup("a", 1, &out));
    EXPECT_EQ(out.cycles, 999u);
    ASSERT_TRUE(back.lookup("b", 0, &out));
    EXPECT_EQ(out.cycles, 555u);

    // Bad magic and truncation are loud failures, not quiet misses.
    std::vector<uint8_t> bad = bytes;
    bad[0] = 'X';
    ReplayCache reject;
    EXPECT_THROW(reject.deserialize(bad), SnapshotError);
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + 12);
    EXPECT_THROW(reject.deserialize(cut), SnapshotError);

    // File + directory round trip (only *.rpc files are merged).
    namespace fs = std::filesystem;
    fs::path dir =
        fs::temp_directory_path() / "tcsim_replay_cache_test";
    fs::create_directories(dir);
    ASSERT_TRUE(cache.save_file((dir / "profiles.rpc").string()));
    ReplayCache loaded;
    EXPECT_EQ(loaded.load_dir(dir.string()), 1u);
    EXPECT_EQ(loaded.size(), 2u);
    ASSERT_TRUE(loaded.lookup("a", 1, &out));
    EXPECT_EQ(out.cycles, 999u);
    EXPECT_EQ(loaded.load_dir((dir / "missing").string()), 0u);
    fs::remove_all(dir);
}

TEST(Replay, RecordingDoesNotPerturbExecution)
{
    GpuConfig cfg = small_titan_v(4);
    SimOptions detailed;
    EngineStats base = run_serial_gemms(cfg, detailed, 3, 64);

    ReplayCache cache;
    SimOptions record;
    record.replay_mode = SimOptions::ReplayMode::kRecord;
    record.replay_cache = &cache;
    EngineStats rec = run_serial_gemms(cfg, record, 3, 64);

    EXPECT_EQ(rec.cycles, base.cycles);
    EXPECT_EQ(rec.instructions, base.instructions);
    EXPECT_EQ(rec.hmma_instructions, base.hmma_instructions);
    ASSERT_EQ(rec.kernels.size(), base.kernels.size());
    for (size_t i = 0; i < base.kernels.size(); ++i) {
        EXPECT_EQ(rec.kernels[i].start_cycle,
                  base.kernels[i].start_cycle);
        EXPECT_EQ(rec.kernels[i].finish_cycle,
                  base.kernels[i].finish_cycle);
    }
    // Three serial launches of one shape: cold (w0), self-warmed twice
    // (w1 x2) -> two fingerprints, each with every occurrence recorded.
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(rec.replay_misses, 2u);
    EXPECT_EQ(rec.replay_hits, 1u);
}

TEST(Replay, WarmSameContextReplayIsBitIdentical)
{
    GpuConfig cfg = small_titan_v(4);
    SimOptions detailed;
    EngineStats base = run_serial_gemms(cfg, detailed, 3, 64);

    ReplayCache cache;
    SimOptions record;
    record.replay_mode = SimOptions::ReplayMode::kRecord;
    record.replay_cache = &cache;
    run_serial_gemms(cfg, record, 3, 64);

    SimOptions replay;
    replay.replay_mode = SimOptions::ReplayMode::kReplay;
    replay.replay_cache = &cache;
    EngineStats rep = run_serial_gemms(cfg, replay, 3, 64);

    // Same trace, same context: every launch is served its own
    // recorded duration and deltas — results are bit-identical.
    EXPECT_EQ(rep.replay_hits, 3u);
    EXPECT_EQ(rep.replay_misses, 0u);
    EXPECT_EQ(rep.cycles, base.cycles);
    EXPECT_EQ(rep.instructions, base.instructions);
    EXPECT_EQ(rep.hmma_instructions, base.hmma_instructions);
    EXPECT_EQ(rep.mem.l1_hits, base.mem.l1_hits);
    EXPECT_EQ(rep.mem.l1_misses, base.mem.l1_misses);
    EXPECT_EQ(rep.mem.dram_bytes, base.mem.dram_bytes);
    for (size_t i = 0; i < kNumStallReasons; ++i) {
        StallReason r = static_cast<StallReason>(i);
        // Idle-attribution stalls (empty / drained) accrue per SM
        // tick and a replayed launch never ticks an SM: the replay
        // contract covers launch-attributed counters, not chip idle
        // accounting.
        if (r == StallReason::kEmpty || r == StallReason::kDrained)
            continue;
        EXPECT_EQ(rep.stalls[r], base.stalls[r]) << stall_reason_name(r);
    }
    ASSERT_EQ(rep.kernels.size(), base.kernels.size());
    for (size_t i = 0; i < base.kernels.size(); ++i) {
        EXPECT_EQ(rep.kernels[i].start_cycle,
                  base.kernels[i].start_cycle);
        EXPECT_EQ(rep.kernels[i].finish_cycle,
                  base.kernels[i].finish_cycle);
        EXPECT_EQ(rep.kernels[i].instructions,
                  base.kernels[i].instructions);
    }
}

TEST(Replay, DifferentConfigNeverHits)
{
    // The fingerprint embeds the GpuConfig hash: profiles recorded on
    // one chip must never replay on another.
    ReplayCache cache;
    SimOptions record;
    record.replay_mode = SimOptions::ReplayMode::kRecord;
    record.replay_cache = &cache;
    run_serial_gemms(small_titan_v(4), record, 2, 64);
    EXPECT_GT(cache.size(), 0u);

    SimOptions replay;
    replay.replay_mode = SimOptions::ReplayMode::kReplay;
    replay.replay_cache = &cache;
    EngineStats rep = run_serial_gemms(small_titan_v(8), replay, 2, 64);
    EXPECT_EQ(rep.replay_hits, 0u);
    EXPECT_EQ(rep.replay_misses, 2u);
}

TEST(Replay, WarmthClassSeparatesColdFromWarm)
{
    // The first (cold-cache) occurrence and the self-warmed repeats
    // are distinct fingerprints: a cache warmed only by repeats can
    // never serve the cold launch.
    GpuConfig cfg = small_titan_v(4);
    ReplayCache cache;
    SimOptions record;
    record.replay_mode = SimOptions::ReplayMode::kRecord;
    record.replay_cache = &cache;
    run_serial_gemms(cfg, record, 1, 64);
    // One launch -> only the w0 (cold) fingerprint exists.
    EXPECT_EQ(cache.size(), 1u);

    SimOptions replay;
    replay.replay_mode = SimOptions::ReplayMode::kReplay;
    replay.replay_cache = &cache;
    EngineStats rep = run_serial_gemms(cfg, replay, 2, 64);
    // Cold launch hits w0; the second launch is w1 — a miss.
    EXPECT_EQ(rep.replay_hits, 1u);
    EXPECT_EQ(rep.replay_misses, 1u);
}

TEST(Replay, DeterministicAcrossSimThreads)
{
    GpuConfig cfg = small_titan_v(8);
    ReplayCache cache;
    SimOptions record;
    record.replay_mode = SimOptions::ReplayMode::kRecord;
    record.replay_cache = &cache;
    run_serial_gemms(cfg, record, 3, 64);

    SimOptions serial;
    serial.replay_mode = SimOptions::ReplayMode::kReplay;
    serial.replay_cache = &cache;
    serial.sim_threads = 1;
    EngineStats a = run_serial_gemms(cfg, serial, 3, 64);
    for (int t : {2, 4}) {
        SCOPED_TRACE("sim_threads=" + std::to_string(t));
        SimOptions par = serial;
        par.sim_threads = t;
        EngineStats b = run_serial_gemms(cfg, par, 3, 64);
        EXPECT_EQ(b.cycles, a.cycles);
        EXPECT_EQ(b.instructions, a.instructions);
        EXPECT_EQ(b.replay_hits, a.replay_hits);
        ASSERT_EQ(b.kernels.size(), a.kernels.size());
        for (size_t i = 0; i < a.kernels.size(); ++i)
            EXPECT_EQ(b.kernels[i].finish_cycle,
                      a.kernels[i].finish_cycle);
    }
}

TEST(Replay, SnapshotMidReplayedKernelRoundTrips)
{
    GpuConfig cfg = small_titan_v(4);
    ReplayCache cache;
    SimOptions record;
    record.replay_mode = SimOptions::ReplayMode::kRecord;
    record.replay_cache = &cache;
    EngineStats base = run_serial_gemms(cfg, record, 3, 64);

    SimOptions replay;
    replay.replay_mode = SimOptions::ReplayMode::kReplay;
    replay.replay_cache = &cache;

    // Pause inside the second (replayed) kernel's window, snapshot,
    // and finish three ways: the original, a restored replay engine,
    // and a restored replay-OFF engine (the in-flight profile rides
    // in the snapshot, so its completion no longer needs the cache).
    ASSERT_GE(base.kernels.size(), 2u);
    uint64_t mid = (base.kernels[1].start_cycle +
                    base.kernels[1].finish_cycle) / 2;
    Gpu gpu(cfg, replay);
    for (int i = 0; i < 3; ++i)
        enqueue_gemm(gpu, 64, "g" + std::to_string(i));
    gpu.run_until(mid);
    ASSERT_TRUE(gpu.run_active());
    Snapshot snap = gpu.snapshot();

    EngineStats straight = gpu.run();
    EXPECT_EQ(straight.cycles, base.cycles);
    EXPECT_EQ(straight.replay_hits, 3u);

    Gpu fork(cfg, replay);
    fork.restore(snap);
    EngineStats forked = fork.run();
    EXPECT_EQ(forked.cycles, base.cycles);
    EXPECT_EQ(forked.instructions, base.instructions);
    EXPECT_EQ(forked.replay_hits, 3u);
    ASSERT_EQ(forked.kernels.size(), base.kernels.size());
    for (size_t i = 0; i < base.kernels.size(); ++i)
        EXPECT_EQ(forked.kernels[i].finish_cycle,
                  base.kernels[i].finish_cycle);

    SimOptions off;
    Gpu plain(cfg, off);
    plain.restore(snap);
    EngineStats mixed = plain.run();
    // The already-replayed kernel completes from its profile; the
    // still-queued third kernel runs in detail on the replay-off
    // engine.  Same context — the timeline is unchanged.
    EXPECT_EQ(mixed.cycles, base.cycles);
    EXPECT_EQ(mixed.instructions, base.instructions);
    ASSERT_EQ(mixed.kernels.size(), base.kernels.size());
    for (size_t i = 0; i < base.kernels.size(); ++i)
        EXPECT_EQ(mixed.kernels[i].finish_cycle,
                  base.kernels[i].finish_cycle);
}

TEST(Replay, SnapshotMidRecordingKeepsSequenceSlots)
{
    // Snapshot taken while a recording launch is in flight: the
    // restored engine must finish the recording into the *same*
    // sequence slot (record_seq rides in the snapshot), so a replay
    // of the full trace still walks the recorded sequence exactly.
    GpuConfig cfg = small_titan_v(4);
    SimOptions detailed;
    EngineStats base = run_serial_gemms(cfg, detailed, 3, 64);

    ReplayCache cache;
    SimOptions record;
    record.replay_mode = SimOptions::ReplayMode::kRecord;
    record.replay_cache = &cache;
    Gpu gpu(cfg, record);
    for (int i = 0; i < 3; ++i)
        enqueue_gemm(gpu, 64, "g" + std::to_string(i));
    uint64_t mid = (base.kernels[1].start_cycle +
                    base.kernels[1].finish_cycle) / 2;
    gpu.run_until(mid);
    ASSERT_TRUE(gpu.run_active());
    Snapshot snap = gpu.snapshot();

    Gpu fork(cfg, record);
    fork.restore(snap);
    fork.run();
    // Recording resumed on the fork: the w1 fingerprint holds both
    // repeat occurrences in their promotion-order slots.
    KernelTimingProfile out;
    EXPECT_EQ(cache.size(), 2u);

    SimOptions replay;
    replay.replay_mode = SimOptions::ReplayMode::kReplay;
    replay.replay_cache = &cache;
    EngineStats rep = run_serial_gemms(cfg, replay, 3, 64);
    EXPECT_EQ(rep.replay_hits, 3u);
    EXPECT_EQ(rep.cycles, base.cycles);
    (void)out;
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

/** The .rpc archive of three recorded serial GEMMs. */
std::vector<uint8_t>
recorded_archive()
{
    ReplayCache cache;
    SimOptions record;
    record.replay_mode = SimOptions::ReplayMode::kRecord;
    record.replay_cache = &cache;
    run_serial_gemms(small_titan_v(4), record, 3, 64);
    return cache.serialize();
}

TEST(ReplayCache, ArchiveBytesArePinned)
{
    // A change to the .rpc layout must bump the archive version
    // (kReplayArchiveVersion) and these two constants together.
    constexpr uint64_t kPinnedDigest = 15672900863245874855ull;
    constexpr size_t kPinnedSize = 3858;
    std::vector<uint8_t> bytes = recorded_archive();
    EXPECT_EQ(bytes.size(), kPinnedSize);
    EXPECT_EQ(fnv1a(bytes), kPinnedDigest);
}

/** Overwrite @p n little-endian bytes of @p bytes at @p at. */
void
patch(std::vector<uint8_t>* bytes, size_t at, uint64_t v, int n)
{
    for (int i = 0; i < n; ++i)
        (*bytes)[at + static_cast<size_t>(i)] =
            static_cast<uint8_t>(v >> (8 * i));
}

TEST(ReplayCache, CorruptArchiveIsLoadedOrRejected)
{
    // Every single-byte corruption of a recorded archive either loads
    // or throws SnapshotError.
    const std::vector<uint8_t> good = recorded_archive();
    std::vector<uint8_t> bad = good;
    size_t loaded = 0, rejected = 0;
    for (size_t i = 0; i < good.size(); ++i) {
        bad[i] ^= 0xFF;
        ReplayCache cache;
        try {
            cache.deserialize(bad);
            ++loaded;
        } catch (const SnapshotError&) {
            ++rejected;
        }
        bad[i] = good[i];
    }
    EXPECT_GT(loaded, 0u);
    EXPECT_GT(rejected, 0u);

    // Crafted archives over one entry whose profile holds a single
    // empty macro-latency histogram and no occupancy samples.  The
    // archive ends with: the macro class (i32), its sample count, the
    // occupancy count, the duration count and the one duration.
    ReplayCache one;
    KernelTimingProfile p;
    p.cycles = 100;
    p.macro_latency[MacroClass::kWmmaMma];
    one.record("k", 0, p);
    const std::vector<uint8_t> base = one.serialize();
    const size_t end = base.size();
    ReplayCache ok;
    ok.deserialize(base);
    EXPECT_EQ(ok.size(), 1u);

    const uint64_t huge = 0x4000000000000000ull;
    std::vector<uint8_t> occupancy = base;
    patch(&occupancy, end - 24, huge, 8);
    std::vector<uint8_t> durations = base;
    patch(&durations, end - 16, huge, 8);
    std::vector<uint8_t> macro = base;
    patch(&macro, end - 36, 99, 4);
    for (const auto* crafted : {&occupancy, &durations, &macro}) {
        ReplayCache cache;
        EXPECT_THROW(cache.deserialize(*crafted), SnapshotError);
        EXPECT_EQ(cache.size(), 0u);
    }
}

}  // namespace
}  // namespace tcsim
