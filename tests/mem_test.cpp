/**
 * @file
 * Unit tests for the memory-system substrates: coalescer, sectored
 * caches, DRAM bandwidth model, banked shared memory, and the
 * functional global memory.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "sim/mem/cache.h"
#include "sim/mem/coalescer.h"
#include "sim/mem/dram.h"
#include "sim/mem/global_memory.h"
#include "sim/mem/memory_system.h"
#include "sim/mem/mshr.h"
#include "sim/mem/queueing.h"
#include "sim/mem/shared_memory.h"

namespace tcsim {
namespace {

Instruction
make_load(std::array<uint64_t, kWarpSize> addrs, int width_bits,
          Opcode op = Opcode::kLdg)
{
    Instruction inst;
    inst.op = op;
    inst.width_bits = static_cast<uint16_t>(width_bits);
    inst.n_dst = 1;
    inst.dst[0] = 8;
    inst.addr = std::make_unique<std::array<uint64_t, kWarpSize>>(addrs);
    return inst;
}

TEST(Coalescer, FullyCoalescedWarp)
{
    // 32 lanes x 4B contiguous = 128 B = 4 sectors.
    std::array<uint64_t, kWarpSize> a{};
    for (int i = 0; i < kWarpSize; ++i)
        a[i] = 0x1000 + 4 * static_cast<uint64_t>(i);
    auto sectors = coalesce_sectors(make_load(a, 32));
    EXPECT_EQ(sectors.size(), 4u);
    EXPECT_EQ(sectors.front(), 0x1000u);
}

TEST(Coalescer, SameAddressBroadcast)
{
    std::array<uint64_t, kWarpSize> a{};
    a.fill(0x2000);
    EXPECT_EQ(coalesce_sectors(make_load(a, 32)).size(), 1u);
}

TEST(Coalescer, ScatteredAccesses)
{
    std::array<uint64_t, kWarpSize> a{};
    for (int i = 0; i < kWarpSize; ++i)
        a[i] = static_cast<uint64_t>(i) * 256;
    EXPECT_EQ(coalesce_sectors(make_load(a, 32)).size(), 32u);
}

TEST(Coalescer, InactiveLanesSkipped)
{
    std::array<uint64_t, kWarpSize> a{};
    a.fill(kNoAddr);
    a[3] = 0x40;
    EXPECT_EQ(coalesce_sectors(make_load(a, 32)).size(), 1u);
}

TEST(Coalescer, LoopIterationAdvancesAddresses)
{
    std::array<uint64_t, kWarpSize> a{};
    for (int i = 0; i < kWarpSize; ++i)
        a[i] = 4 * static_cast<uint64_t>(i);
    Instruction inst = make_load(a, 32);
    inst.loop_stride = 128;
    auto s0 = coalesce_sectors(inst, 32, 0);
    auto s1 = coalesce_sectors(inst, 32, 1);
    EXPECT_EQ(s0.front() + 128, s1.front());
}

TEST(Cache, HitAfterFill)
{
    CacheConfig cfg;
    cfg.size_bytes = 4096;
    cfg.assoc = 4;
    Cache c(cfg);
    EXPECT_EQ(c.access(0x100, false), CacheOutcome::kLineMiss);
    EXPECT_EQ(c.access(0x100, false), CacheOutcome::kHit);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, SectorMissWithinCachedLine)
{
    CacheConfig cfg;
    cfg.size_bytes = 4096;
    Cache c(cfg);
    EXPECT_EQ(c.access(0x100, false), CacheOutcome::kLineMiss);
    // Same 128B line, different 32B sector.
    EXPECT_EQ(c.access(0x120, false), CacheOutcome::kSectorMiss);
    EXPECT_EQ(c.access(0x120, false), CacheOutcome::kHit);
}

TEST(Cache, LruEviction)
{
    CacheConfig cfg;
    cfg.size_bytes = 1024;  // 2 sets x 4 ways
    cfg.assoc = 4;
    Cache c(cfg);
    // Fill all 4 ways of set 0 (line addresses with even line index).
    for (uint64_t i = 0; i < 4; ++i)
        c.access(i * 2 * 128, false);
    for (uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(c.access(i * 2 * 128, false), CacheOutcome::kHit);
    // A fifth line evicts the LRU (line 0).
    c.access(4 * 2 * 128, false);
    EXPECT_EQ(c.access(0, false), CacheOutcome::kLineMiss);
}

TEST(Cache, WriteNoAllocate)
{
    CacheConfig cfg;
    cfg.size_bytes = 4096;
    cfg.write_allocate = false;
    Cache c(cfg);
    EXPECT_EQ(c.access(0x100, true), CacheOutcome::kLineMiss);
    // Still a miss: the write did not allocate.
    EXPECT_EQ(c.access(0x100, false), CacheOutcome::kLineMiss);
}

TEST(Cache, FlushResets)
{
    CacheConfig cfg;
    cfg.size_bytes = 4096;
    Cache c(cfg);
    c.access(0x100, false);
    c.flush();
    EXPECT_EQ(c.access(0x100, false), CacheOutcome::kLineMiss);
    EXPECT_EQ(c.misses(), 1u);  // counters reset by flush
}

TEST(Dram, LatencyOnly)
{
    DramModel d(4, 16.0, 200);
    uint64_t t = d.access(0, 32, false, 1000);
    EXPECT_EQ(t, 1000 + 2 + 200u);  // 32B at 16B/cyc = 2 cycles + latency
}

TEST(Dram, BandwidthQueueing)
{
    DramModel d(1, 16.0, 200);
    // Ten back-to-back 32B requests to one partition serialize at
    // 2 cycles each.
    uint64_t last = 0;
    for (int i = 0; i < 10; ++i)
        last = d.access(0, 32, false, 0);
    EXPECT_EQ(last, 20 + 200u);
    EXPECT_EQ(d.total_bytes(), 320u);
    EXPECT_EQ(d.queue_cycles(), 2u + 4 + 6 + 8 + 10 + 12 + 14 + 16 + 18);
}

TEST(Dram, PartitionInterleaving)
{
    DramModel d(2, 16.0, 100, 256);
    // Addresses 0 and 256 hit different partitions: both complete at
    // the unloaded latency.
    uint64_t t0 = d.access(0, 32, false, 0);
    uint64_t t1 = d.access(256, 32, false, 0);
    EXPECT_EQ(t0, t1);
    // 256 B interleave: addresses 256 B apart land on distinct
    // partitions, wrapping after num_partitions.
    EXPECT_EQ(d.partition(0), 0);
    EXPECT_EQ(d.partition(256), 1);
    EXPECT_EQ(d.partition(512), 0);
    EXPECT_EQ(d.partition(255), 0);  // Same 256 B block, same partition.
}

TEST(Dram, ContentionIsolatedPerPartition)
{
    DramModel d(2, 16.0, 100, 256, /*queue_depth=*/128);
    // Hammer partition 0 with 64 requests; partition 1 must still
    // answer at the unloaded latency.
    uint64_t p0_last = 0;
    for (int i = 0; i < 64; ++i)
        p0_last = d.access(0, 32, false, 0);
    uint64_t p1 = d.access(256, 32, false, 0);
    EXPECT_EQ(p1, 2 + 100u);             // Unloaded: service + latency.
    EXPECT_EQ(p0_last, 64 * 2 + 100u);   // Fully serialized.
}

TEST(Dram, QueueDepthBackpressure)
{
    DramModel d(1, 16.0, 100, 256, /*queue_depth=*/4);
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(d.can_accept(0, 0));
        d.access(0, 32, false, 0);
    }
    // All four slots held by unfinished requests: refuse, and report
    // the cycle the oldest one's service completes (2 cycles each).
    EXPECT_FALSE(d.can_accept(0, 0));
    EXPECT_EQ(d.retry_cycle(0, 0), 2u);
    // At the retry cycle a slot has freed.
    EXPECT_TRUE(d.can_accept(0, 2));
    // The other partition-independent path: a second partition is
    // unaffected by partition 0's full queue.
    EXPECT_TRUE(d.can_accept(256, 0));
}

TEST(Dram, ReadWriteTurnaround)
{
    DramModel d(1, 16.0, 100, 256, 32, /*rw_turnaround=*/8);
    uint64_t r1 = d.access(0, 32, false, 0);   // read: 0..2, done 102
    EXPECT_EQ(r1, 2 + 100u);
    uint64_t w1 = d.access(0, 32, true, 0);    // +8 turnaround: 10..12
    EXPECT_EQ(w1, 2 + 8 + 2 + 100u);
    uint64_t w2 = d.access(0, 32, true, 0);    // same direction: no penalty
    EXPECT_EQ(w2, w1 + 2);
    EXPECT_EQ(d.turnarounds(), 1u);
}

TEST(BoundedChannel, QueueingAndBackpressure)
{
    BoundedChannel ch(32.0, /*depth=*/2);  // 1 cycle per 32 B sector.
    EXPECT_TRUE(ch.can_accept(0));
    EXPECT_EQ(ch.submit(0, 32), 0.0);  // starts immediately
    EXPECT_EQ(ch.submit(0, 32), 1.0);  // queues one cycle
    EXPECT_FALSE(ch.can_accept(0));    // both slots held
    EXPECT_EQ(ch.retry_cycle(0), 1u);  // first service completes at 1
    EXPECT_TRUE(ch.can_accept(1));
    EXPECT_EQ(ch.queue_cycles(), 1u);
}

TEST(Mshr, MergeOnSectorOneEntryPerLine)
{
    // Four sector misses to one 128 B line occupy ONE entry.
    MshrFile m(/*entries=*/2, 128, 32);
    m.track(0x1000, 0, 500);
    m.track(0x1020, 0, 510);
    m.track(0x1040, 0, 520);
    m.track(0x1060, 0, 530);
    EXPECT_EQ(m.occupancy(0), 1u);
    EXPECT_EQ(m.peak(), 1u);
    // A second line takes the second entry.
    m.track(0x2000, 0, 540);
    EXPECT_EQ(m.occupancy(0), 2u);
    // A redundant request to a pending sector merges at its fill time
    // and generates no new entry or traffic.
    EXPECT_EQ(m.merge(0x1020, 100), 510u);
    EXPECT_EQ(m.merges(), 1u);
    // Once the fill has arrived the MSHR no longer answers (the L1
    // tag store does).
    EXPECT_EQ(m.merge(0x1020, 510), 0u);
}

TEST(Mshr, FullAndRetry)
{
    MshrFile m(2, 128, 32);
    m.track(0x1000, 0, 300);
    m.track(0x2000, 0, 400);
    // Both entries held: a third *line* cannot be tracked...
    EXPECT_FALSE(m.can_track(0x3000, 0));
    EXPECT_EQ(m.retry_cycle(0), 300u);
    // ...but a sector of an already-tracked line still merges in.
    EXPECT_TRUE(m.can_track(0x1060, 0));
    // At cycle 300 the first entry's fill arrived and it frees.
    EXPECT_TRUE(m.can_track(0x3000, 300));
    EXPECT_EQ(m.occupancy(300), 1u);
}

TEST(SharedMemory, ConflictFree)
{
    std::array<uint64_t, kWarpSize> a{};
    for (int i = 0; i < kWarpSize; ++i)
        a[i] = 4 * static_cast<uint64_t>(i);  // one word per bank
    EXPECT_EQ(shared_bank_conflict_degree(make_load(a, 32, Opcode::kLds)), 1);
}

TEST(SharedMemory, Broadcast)
{
    std::array<uint64_t, kWarpSize> a{};
    a.fill(64);  // all lanes read the same word: broadcast, no conflict
    EXPECT_EQ(shared_bank_conflict_degree(make_load(a, 32, Opcode::kLds)), 1);
}

TEST(SharedMemory, WorstCaseConflict)
{
    std::array<uint64_t, kWarpSize> a{};
    for (int i = 0; i < kWarpSize; ++i)
        a[i] = 128 * static_cast<uint64_t>(i);  // all lanes in bank 0
    EXPECT_EQ(shared_bank_conflict_degree(make_load(a, 32, Opcode::kLds)),
              32);
}

TEST(SharedMemory, TwoWayConflict)
{
    std::array<uint64_t, kWarpSize> a{};
    for (int i = 0; i < kWarpSize; ++i)
        a[i] = 4 * static_cast<uint64_t>(i % 16) + 64 * (i / 16) * 4;
    // Lanes i and i+16 share a bank with different words.
    EXPECT_EQ(shared_bank_conflict_degree(make_load(a, 32, Opcode::kLds)), 2);
}

/** The per-phase bank model the allocation-free implementation
 *  replaced, kept verbatim as the reference it must match. */
int
reference_bank_conflict_degree(const Instruction& inst, int num_banks,
                                int iter)
{
    const int word_bytes = 4;
    const int words = std::max(1, inst.width_bits / 32);
    int worst = 1;
    for (int phase = 0; phase < words; ++phase) {
        std::array<std::vector<uint64_t>, 32> bank_words;
        for (int lane = 0; lane < kWarpSize; ++lane) {
            uint64_t a = inst.effective_addr(lane, iter);
            if (a == kNoAddr)
                continue;
            uint64_t word_addr = a / word_bytes + phase;
            int bank = static_cast<int>(word_addr % num_banks);
            auto& v = bank_words[static_cast<size_t>(bank)];
            if (std::find(v.begin(), v.end(), word_addr) == v.end())
                v.push_back(word_addr);
        }
        for (const auto& v : bank_words)
            worst = std::max(worst, static_cast<int>(v.size()));
    }
    return worst;
}

TEST(SharedMemory, MatchesReferenceOnRandomAccesses)
{
    // Random warps over a small window (so lanes collide on banks and
    // words), mixing strided, broadcast-heavy and scattered patterns,
    // inactive lanes, every LDS/STS width, loop offsets and small bank
    // counts.
    Pcg32 rng(0x5eed, 7);
    const int widths[] = {32, 64, 128};
    const int banks[] = {32, 16, 8, 1};
    int conflicted = 0;
    for (int trial = 0; trial < 4000; ++trial) {
        std::array<uint64_t, kWarpSize> a{};
        const int pattern = static_cast<int>(rng.next_u32() % 3);
        const uint64_t base = 4 * (rng.next_u32() % 256);
        const uint64_t stride = 4 * (rng.next_u32() % 40);
        const uint32_t inactive_pct = rng.next_u32() % 60;
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (rng.next_u32() % 100 < inactive_pct) {
                a[lane] = kNoAddr;
                continue;
            }
            uint64_t word;
            switch (pattern) {
              case 0: word = base / 4 + lane * stride / 4; break;
              case 1: word = base / 4 + rng.next_u32() % 4; break;
              default: word = rng.next_u32() % 2048; break;
            }
            // Byte offsets inside a word must not change the answer.
            a[lane] = 4 * word + rng.next_u32() % 4;
        }
        Instruction inst = make_load(
            a, widths[rng.next_u32() % 3],
            rng.next_u32() % 2 ? Opcode::kLds : Opcode::kSts);
        inst.loop_stride = 4 * static_cast<int64_t>(rng.next_u32() % 64);
        inst.ping_pong = 4 * static_cast<int64_t>(rng.next_u32() % 64);
        const int iter = static_cast<int>(rng.next_u32() % 4);
        const int nb = banks[rng.next_u32() % 4];
        const int want = reference_bank_conflict_degree(inst, nb, iter);
        ASSERT_EQ(shared_bank_conflict_degree(inst, nb, iter), want)
            << "trial " << trial << " width " << inst.width_bits
            << " banks " << nb << " iter " << iter;
        conflicted += want > 1;
    }
    // The draws must exercise conflicts, not only conflict-free warps.
    EXPECT_GT(conflicted, 1000);
}

TEST(SharedMemoryStorage, ReadWrite)
{
    SharedMemoryStorage s(1024);
    uint32_t v = 0xdeadbeef;
    s.write(64, &v, 4);
    uint32_t r = 0;
    s.read(64, &r, 4);
    EXPECT_EQ(r, v);
}

TEST(GlobalMemory, AllocAlignment)
{
    GlobalMemory g;
    uint64_t a = g.alloc(100);
    uint64_t b = g.alloc(100);
    EXPECT_EQ(a % 256, 0u);
    EXPECT_EQ(b % 256, 0u);
    EXPECT_GE(b, a + 100);
}

TEST(GlobalMemory, ReadWriteRoundTrip)
{
    GlobalMemory g;
    uint64_t a = g.alloc(64);
    g.write_u32(a + 8, 42);
    EXPECT_EQ(g.read_u32(a + 8), 42u);
}

TEST(GlobalMemory, AllocBacksNoBytes)
{
    // Allocation moves the cursor only; a write backs the store up to
    // the end of the written range, not the end of the allocation.
    GlobalMemory g;
    uint64_t a = g.alloc(1 << 20);
    uint64_t b = g.alloc(1 << 20);
    EXPECT_GE(g.footprint(), b + (1 << 20));
    EXPECT_EQ(g.backed(), 0u);
    g.write_u32(a + 16, 7);
    EXPECT_EQ(g.backed(), a + 20);
}

TEST(GlobalMemory, NeverWrittenReadsZero)
{
    GlobalMemory g;
    uint64_t a = g.alloc(4096);
    std::vector<uint8_t> buf(4096, 0xAB);
    g.read(a, buf.data(), buf.size());
    EXPECT_EQ(std::count(buf.begin(), buf.end(), uint8_t{0}), 4096);
    EXPECT_EQ(g.backed(), 0u);  // Reading backs nothing.
}

TEST(GlobalMemory, ReadStraddlingBackedEnd)
{
    // A read that starts in the backed range and ends past it returns
    // the written bytes followed by zeros.
    GlobalMemory g;
    uint64_t a = g.alloc(64);
    const uint32_t words[2] = {0x11111111u, 0x22222222u};
    g.write(a, words, sizeof(words));
    ASSERT_EQ(g.backed(), a + 8);
    uint32_t out[4] = {9, 9, 9, 9};
    g.read(a, out, sizeof(out));
    EXPECT_EQ(out[0], 0x11111111u);
    EXPECT_EQ(out[1], 0x22222222u);
    EXPECT_EQ(out[2], 0u);
    EXPECT_EQ(out[3], 0u);
    uint32_t mid[2] = {9, 9};
    g.read(a + 4, mid, sizeof(mid));
    EXPECT_EQ(mid[0], 0x22222222u);
    EXPECT_EQ(mid[1], 0u);
}

TEST(GlobalMemoryDeathTest, AccessPastCursorFails)
{
    GlobalMemory g;
    uint64_t a = g.alloc(64);
    uint32_t v = 0;
    EXPECT_DEATH(g.read(a + 62, &v, 4), "check failed");
    EXPECT_DEATH(g.write(a + 64, &v, 4), "check failed");
    EXPECT_DEATH(g.raw(a, 65), "check failed");
}

TEST(MemorySystem, L1HitFasterThanMiss)
{
    GpuConfig cfg = titan_v_config();
    MemorySystem ms(cfg);
    MemAccessResult miss = ms.access_sector(0, 0x10000, false, 0);
    ASSERT_EQ(miss.status, MemAccept::kAccepted);
    EXPECT_GT(miss.cycle, 0u + cfg.l2_hit_latency);  // went to DRAM
    MemAccessResult hit = ms.access_sector(0, 0x10000, false, miss.cycle);
    ASSERT_EQ(hit.status, MemAccept::kAccepted);
    EXPECT_EQ(hit.cycle - miss.cycle,
              static_cast<uint64_t>(cfg.l1_hit_latency));
}

TEST(MemorySystem, HitUnderMissMergesWithInflightFill)
{
    GpuConfig cfg = titan_v_config();
    MemorySystem ms(cfg);
    MemAccessResult miss = ms.access_sector(0, 0x10000, false, 0);
    ASSERT_EQ(miss.status, MemAccept::kAccepted);
    // A second request to the same sector while the fill is in flight
    // rides the same MSHR entry home: it completes with the fill, not
    // at the L1 hit latency, and moves no new data.
    uint64_t dram_before = ms.stats().dram_bytes;
    MemAccessResult merged = ms.access_sector(0, 0x10000, false, 10);
    ASSERT_EQ(merged.status, MemAccept::kAccepted);
    EXPECT_EQ(merged.cycle, miss.cycle);
    EXPECT_EQ(ms.stats().dram_bytes, dram_before);
    EXPECT_EQ(ms.stats().mshr_merges, 1u);
}

TEST(MemorySystem, MshrFullRefusesWithRetry)
{
    GpuConfig cfg = titan_v_config();
    cfg.l1_mshr_entries = 2;
    MemorySystem ms(cfg);
    ASSERT_EQ(ms.access_sector(0, 0 << 7, false, 0).status,
              MemAccept::kAccepted);
    ASSERT_EQ(ms.access_sector(0, 1 << 7, false, 0).status,
              MemAccept::kAccepted);
    // Two line fills outstanding = the whole file; a third line is
    // refused with the earliest cycle an entry frees.
    MemAccessResult r = ms.access_sector(0, 2 << 7, false, 0);
    EXPECT_EQ(r.status, MemAccept::kMshrFull);
    EXPECT_GT(r.cycle, 0u);
    // A refused access has no side effects: the same sector is
    // accepted once an entry frees, and another SM's MSHR file is
    // independent of SM0's.
    EXPECT_EQ(ms.access_sector(1, 2 << 7, false, 0).status,
              MemAccept::kAccepted);
    EXPECT_EQ(ms.access_sector(0, 2 << 7, false, r.cycle).status,
              MemAccept::kAccepted);
}

TEST(MemorySystem, L2SharedAcrossSms)
{
    GpuConfig cfg = titan_v_config();
    MemorySystem ms(cfg);
    ASSERT_EQ(ms.access_sector(0, 0x20000, false, 0).status,
              MemAccept::kAccepted);  // SM0 fills L2
    MemAccessResult r = ms.access_sector(1, 0x20000, false, 1000);
    ASSERT_EQ(r.status, MemAccept::kAccepted);
    // SM1 misses its L1 but hits L2.
    EXPECT_EQ(r.cycle - 1000, static_cast<uint64_t>(cfg.l2_hit_latency));
}

TEST(MemorySystem, StatsAccumulate)
{
    GpuConfig cfg = titan_v_config();
    MemorySystem ms(cfg);
    uint64_t now = 0;
    for (uint64_t addr : {0x0u, 0x20u, 0x40u})
        ms.access_sector(0, addr, false, now++);
    MemStats s = ms.stats();
    EXPECT_EQ(s.global_sectors, 3u);
    EXPECT_EQ(s.l1_misses, 3u);
    EXPECT_EQ(s.mshr_peak, 1u);  // Three sectors of one line: one entry.
    ms.reset_timing();
    EXPECT_EQ(ms.stats().global_sectors, 0u);
    EXPECT_EQ(ms.stats().mshr_peak, 0u);
}

TEST(Cache, ProbeHasNoSideEffects)
{
    CacheConfig cfg;
    cfg.size_bytes = 4096;
    Cache c(cfg);
    EXPECT_EQ(c.probe(0x100, false), CacheOutcome::kLineMiss);
    EXPECT_EQ(c.hits(), 0u);
    EXPECT_EQ(c.misses(), 0u);
    // probe did not fill: the first real access still line-misses.
    EXPECT_EQ(c.access(0x100, false), CacheOutcome::kLineMiss);
    EXPECT_EQ(c.probe(0x100, false), CacheOutcome::kHit);
    EXPECT_EQ(c.probe(0x120, false), CacheOutcome::kSectorMiss);
}

TEST(Cache, FlushResetsLruClock)
{
    // Regression: flush() used to leave tick_ and per-line lru stamps
    // behind.  Eviction order after a flush must match a fresh cache
    // exactly; drive both through an LRU-sensitive pattern and compare
    // every outcome.
    CacheConfig cfg;
    cfg.size_bytes = 1024;  // 2 sets x 4 ways
    cfg.assoc = 4;
    Cache flushed(cfg);
    // Warm with a pattern that leaves staggered lru stamps, then flush.
    for (uint64_t i = 0; i < 8; ++i)
        flushed.access(i * 2 * 128, false);
    flushed.flush();

    Cache fresh(cfg);
    auto drive = [](Cache& c) {
        std::vector<CacheOutcome> out;
        // Fill set 0, touch way 0 to make way 1 the LRU victim, then
        // evict and re-probe every line.
        for (uint64_t i = 0; i < 4; ++i)
            out.push_back(c.access(i * 2 * 128, false));
        out.push_back(c.access(0, false));            // refresh line 0
        out.push_back(c.access(4 * 2 * 128, false));  // evicts line 2*128
        for (uint64_t i = 0; i < 5; ++i)
            out.push_back(c.access(i * 2 * 128, false));
        return out;
    };
    EXPECT_EQ(drive(flushed), drive(fresh));
    EXPECT_EQ(flushed.hits(), fresh.hits());
    EXPECT_EQ(flushed.misses(), fresh.misses());
}

}  // namespace
}  // namespace tcsim
