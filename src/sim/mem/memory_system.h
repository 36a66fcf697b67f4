#pragma once
/**
 * @file
 * Chip-level memory system: per-SM sectored L1s with miss-status
 * holding registers, an SM<->L2 interconnect with bytes/cycle
 * throttling, a banked L2 with per-bank service queues, a partitioned
 * DRAM model with bounded request queues and read/write turnaround,
 * and the functional global memory backing store.
 *
 * Accesses are transactions, one 32-byte sector at a time: a sector is
 * either *accepted* — its completion cycle is fixed immediately from
 * the service horizons of every level it traverses (coalescer ->
 * L1/MSHR -> NoC -> L2 bank -> DRAM partition) — or *refused* when a
 * level's slots are exhausted, with the first cycle a retry can
 * succeed.  Refusals propagate back through the SM's MIO queue to the
 * issuing warp as kMshrFull / kNocBusy / kDramQueue stalls, which is
 * how memory back-pressure reaches the pipeline.  All queue state is
 * pruned lazily against the query cycle, so the engine's idle-skip
 * over stalled cycles stays bit-exact.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/gpu_config.h"
#include "sim/mem/cache.h"
#include "sim/mem/dram.h"
#include "sim/mem/global_memory.h"
#include "sim/mem/mshr.h"
#include "sim/mem/queueing.h"
#include "sim/snapshot_io.h"

namespace tcsim {

class FaultPlan;

/** Why an access was refused (maps onto the pipeline StallReasons). */
enum class MemAccept : uint8_t {
    kAccepted,
    kMshrFull,   ///< The SM's L1 MSHR file has no free entry.
    kNocBusy,    ///< Interconnect or L2 bank queue slots exhausted.
    kDramQueue,  ///< The addressed DRAM partition's queue is full.
};

/** Outcome of one sector access. */
struct MemAccessResult
{
    MemAccept status = MemAccept::kAccepted;
    /** Accepted: cycle the data is available (loads) or the store is
     *  acknowledged.  Refused: first cycle a retry can succeed. */
    uint64_t cycle = 0;
};

/** Aggregated memory-system counters for one kernel or run window. */
struct MemStats
{
    uint64_t l1_hits = 0;
    uint64_t l1_misses = 0;
    uint64_t l2_hits = 0;
    uint64_t l2_misses = 0;
    uint64_t dram_bytes = 0;
    uint64_t global_sectors = 0;
    /** Sector requests that merged with an in-flight MSHR fill
     *  (counted separately from l1_hits/l1_misses). */
    uint64_t mshr_merges = 0;
    /** Cycles transactions queued at each level (service start minus
     *  arrival, summed). */
    uint64_t noc_queue_cycles = 0;
    uint64_t l2_queue_cycles = 0;
    uint64_t dram_queue_cycles = 0;
    /** DRAM read<->write bus direction switches paid for. */
    uint64_t dram_turnarounds = 0;
    /** High-water MSHR occupancy across all SMs (not windowed:
     *  since() reports the current peak). */
    uint64_t mshr_peak = 0;

    /** Counters accumulated since snapshot @p base (per-kernel window
     *  attribution within a multi-launch engine run). */
    MemStats since(const MemStats& base) const
    {
        MemStats s;
        s.l1_hits = l1_hits - base.l1_hits;
        s.l1_misses = l1_misses - base.l1_misses;
        s.l2_hits = l2_hits - base.l2_hits;
        s.l2_misses = l2_misses - base.l2_misses;
        s.dram_bytes = dram_bytes - base.dram_bytes;
        s.global_sectors = global_sectors - base.global_sectors;
        s.mshr_merges = mshr_merges - base.mshr_merges;
        s.noc_queue_cycles = noc_queue_cycles - base.noc_queue_cycles;
        s.l2_queue_cycles = l2_queue_cycles - base.l2_queue_cycles;
        s.dram_queue_cycles = dram_queue_cycles - base.dram_queue_cycles;
        s.dram_turnarounds = dram_turnarounds - base.dram_turnarounds;
        s.mshr_peak = mshr_peak;  // A high-water mark does not window.
        return s;
    }

    /** Accumulate @p other into this (replayed-launch deltas folding
     *  into run totals).  mshr_peak takes the max: it is a high-water
     *  mark, not a flow counter. */
    void add(const MemStats& other)
    {
        l1_hits += other.l1_hits;
        l1_misses += other.l1_misses;
        l2_hits += other.l2_hits;
        l2_misses += other.l2_misses;
        dram_bytes += other.dram_bytes;
        global_sectors += other.global_sectors;
        mshr_merges += other.mshr_merges;
        noc_queue_cycles += other.noc_queue_cycles;
        l2_queue_cycles += other.l2_queue_cycles;
        dram_queue_cycles += other.dram_queue_cycles;
        dram_turnarounds += other.dram_turnarounds;
        mshr_peak = mshr_peak > other.mshr_peak ? mshr_peak
                                                : other.mshr_peak;
    }
};

/** Timing + functional chip memory. */
class MemorySystem
{
  public:
    explicit MemorySystem(const GpuConfig& cfg);

    GlobalMemory& global() { return gmem_; }
    const GpuConfig& config() const { return cfg_; }

    /**
     * Timed access of one sector (sector-aligned byte address) from SM
     * @p sm at cycle @p now (the SM's port cycle for this sector).
     * Either accepts the transaction — booking it through L1/MSHR,
     * NoC, L2 bank and DRAM queues and returning its completion cycle
     * — or refuses it with the blocking level and the earliest retry
     * cycle.  A refused access has no side effects.
     */
    MemAccessResult access_sector(int sm, uint64_t addr, bool is_write,
                                  uint64_t now);

    /** Invalidate caches and reset queue state.  Called at engine-run
     *  boundaries, not per kernel: launches within one stream run see
     *  each other's warm caches (Gpu::launch() wraps a single-kernel
     *  run and so keeps the old cold-cache per-launch behaviour). */
    void reset_timing();

    MemStats stats() const;

    /** Snapshot walk over the whole timing hierarchy — L1s, MSHRs,
     *  L2, NoC, bank queues, DRAM partitions and counters.  Global
     *  memory contents are snapshotted separately (copy-on-write
     *  blob). */
    template <class Ar>
    static void transfer(Ar& ar, ArchiveRef<Ar, MemorySystem> self);

    /** Install a fault-injection plan (borrowed; null = healthy).
     *  Accepted L1-miss transactions — the ones that traverse the
     *  L2/DRAM path — then suffer the plan's per-sector "ECC retry"
     *  extra latency.  Timing-only; refusals and functional data are
     *  untouched. */
    void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }

  private:
    int l2_bank(uint64_t addr) const
    {
        return static_cast<int>(
            (addr / static_cast<uint64_t>(cfg_.l1_line_bytes)) %
            static_cast<uint64_t>(cfg_.l2_banks));
    }

    GpuConfig cfg_;
    GlobalMemory gmem_;
    std::vector<std::unique_ptr<Cache>> l1_;
    std::vector<std::unique_ptr<MshrFile>> mshr_;
    std::unique_ptr<Cache> l2_;
    BoundedChannel noc_;
    std::vector<BoundedChannel> l2_banks_;
    std::unique_ptr<DramModel> dram_;
    uint64_t global_sectors_ = 0;
    /** ECC-retry fault injection (see set_fault_plan). */
    FaultPlan* fault_plan_ = nullptr;
};

}  // namespace tcsim
