#pragma once
/**
 * @file
 * Streaming multiprocessor model: four sub-cores, the shared MIO
 * (memory input/output) path, CTA residency and barrier handling, and
 * per-SM statistics.
 *
 * An SM is grid-agnostic: CTAs from several resident grids (concurrent
 * kernel execution across streams) may co-exist, gated by additive
 * warp/shared-memory/register/slot accounting.  Statistics are
 * attributed to each warp's owning GridRun.
 */

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <vector>

#include "arch/gpu_config.h"
#include "common/stats.h"
#include "sass/hmma_executor.h"
#include "sim/core/subcore.h"
#include "sim/grid_run.h"
#include "sim/kernel_desc.h"
#include "sim/mem/memory_system.h"

namespace tcsim {

/** Cache of functional HMMA executors keyed by configuration.
 *  Thread-safe: SMs on different worker threads share one cache
 *  (executors are immutable after construction), so lookups take a
 *  reader lock and only a first-use miss takes the writer lock. */
class ExecutorCache
{
  public:
    HmmaExecutor& get(Arch arch, const HmmaInfo& info);

    /** Cache key of (arch, info) — exposed so callers can memoize the
     *  executor pointer and skip the lock when the key repeats. */
    static uint64_t key(Arch arch, const HmmaInfo& info);

  private:
    std::shared_mutex mutex_;
    std::map<uint64_t, std::unique_ptr<HmmaExecutor>> cache_;
};

/** One streaming multiprocessor. */
class SM
{
  public:
    SM(int id, const GpuConfig& cfg, MemorySystem* mem,
       ExecutorCache* executors, SchedulerPolicy policy);

    /**
     * Advance one core clock.  Equivalent to the three tick phases
     * back-to-back; the engine calls the phases separately so that
     * tick_compute() of many SMs can run on a worker pool while the
     * phases that touch shared state stay on the engine thread in
     * canonical SM-index order.
     */
    void cycle(uint64_t now);

    // ---- Three-phase tick (deterministic parallel simulation) ----
    //
    // Phase A  begin_tick():   drains the global/L1 MIO head through
    //                          the shared MemorySystem.  Engine thread,
    //                          ascending SM-index order — acceptance/
    //                          refusal and retry cycles match a serial
    //                          run exactly.  A retiring entry's
    //                          writeback is stashed, not registered.
    // Phase B  tick_compute(): the shared-memory pipe, the stashed
    //                          global writeback, then sub-core
    //                          writebacks + issue.  Touches only
    //                          SM-local state, this SM's shard of
    //                          per-grid statistics, and SM-local
    //                          staging buffers — safe to run for all
    //                          SMs concurrently.
    // Phase C  commit_tick():  applies the staged functional
    //                          global-memory accesses and grid CTA
    //                          completions.  Engine thread, ascending
    //                          SM-index order — cross-SM data flow
    //                          through global memory replays in the
    //                          same order a serial run produced.

    /** Phase A: start the tick and service the global MIO queue. */
    void begin_tick(uint64_t now);

    /** Phase B: parallel-safe compute, including the shared-memory
     *  MIO queue; also caches busy()/next_event() so the engine's
     *  event scan does not touch SM internals. */
    void tick_compute(uint64_t now);

    /** Phase C: apply this tick's staged side effects.  When
     *  @p completions is non-null (replay recording), the grid of
     *  each CTA that completed this tick is appended. */
    void commit_tick(std::vector<GridRun*>* completions = nullptr);

    /** True while CTAs are resident or traffic is in flight. */
    bool busy() const;

    /** busy() as of the end of the last tick_compute(). */
    bool busy_cached() const { return busy_cache_; }

    /** next_event() as of the end of the last tick_compute(): the
     *  engine's stalled-chip scan reads this O(1) cache instead of
     *  re-walking sub-core in-flight lists.  Under idle-skip the
     *  engine also lets a busy SM sleep while this lies ahead of the
     *  clock (no tick, account_skipped(1) instead): until then only a
     *  CTA launch can change the SM, and every SM ticks on dispatch
     *  ticks.  The value stays valid while the SM sleeps because
     *  nothing else touches it. */
    uint64_t next_event_cached() const { return next_event_cache_; }

    // ---- Engine-facing dispatch interface ----

    /** True if a CTA of @p k fits the SM's currently free resources. */
    bool can_accept(const KernelDesc& k) const;

    /** Place CTA @p cta_id of @p grid on this SM.  The caller must
     *  have checked can_accept(); at most one CTA per SM per cycle
     *  (hardware rasterizer pacing). */
    void launch_cta(GridRun* grid, int cta_id);

    /** True if a CTA of @p k fits an empty SM of @p cfg.  The single
     *  source of truth for launchability — the scenario driver
     *  pre-checks with this to report instead of abort. */
    static bool fits(const GpuConfig& cfg, const KernelDesc& k);

    /** Throw SimError with a diagnostic if @p k cannot fit even an
     *  empty SM (scenario-reachable: the batch driver contains it to
     *  an error row). */
    static void check_fits(const GpuConfig& cfg, const KernelDesc& k);

    /**
     * Cap this SM's warp slots below the architectural maximum
     * (fault injection: a degraded SM).  Takes effect for future
     * can_accept() decisions only; must be set before any CTA is
     * dispatched.  Values <= 0 or >= max_warps_per_sm restore the
     * architectural cap.
     */
    void set_warp_cap(int warps)
    {
        warp_cap_ = (warps > 0 && warps < cfg_.max_warps_per_sm)
                        ? warps
                        : cfg_.max_warps_per_sm;
    }

    /**
     * Earliest future cycle this SM can make progress: now+1 after a
     * productive tick, otherwise the nearest writeback / MIO / unit
     * event, or UINT64_MAX when idle.  The engine's event-driven loop
     * skips the provably dead cycles in between.
     */
    uint64_t next_event(uint64_t now) const;

    /** Attribute @p cycles of skipped (provably stalled) time to the
     *  sub-cores' issue-stall counters. */
    void account_skipped(uint64_t cycles);

    // ---- Interface used by SubCore ----
    const GpuConfig& config() const { return cfg_; }
    MemorySystem& mem() { return *mem_; }
    uint64_t now() const { return now_; }
    int id() const { return id_; }

    /** Enqueue a memory instruction into the MIO path.  Returns
     *  StallReason::kNone on success; otherwise the reason the warp
     *  must stall — kMioFull when the finite load/store queue itself
     *  is full, or the downstream back-pressure reason (kMshrFull /
     *  kNocBusy / kDramQueue) when the queue is full *because* the
     *  memory system is refusing its head transaction. */
    StallReason mio_push(int subcore, int warp_slot, const Instruction* inst,
                         int iter);

    /** Functional execution of one instruction (loads/stores/ALU/HMMA). */
    void execute_functional(Warp& w, const Instruction& inst);

    void barrier_arrive(int cta_slot);
    void warp_finished(int cta_slot);
    /** Count one issued instruction against @p w's grid. */
    void count_issue(const Warp& w, const Instruction& inst);
    void record_macro(GridRun* grid, MacroClass mc, uint64_t latency)
    {
        grid->stats.shard(id_).record_macro(mc, latency);
    }
    SharedMemoryStorage* shared(int cta_slot);

    /** Instructions issued by this SM. */
    uint64_t issued() const;

    /** CTAs completed by this SM. */
    int ctas_completed() const { return ctas_completed_; }

    /** CTAs currently resident. */
    int resident_ctas() const { return used_ctas_; }

    /** Sum of sub-core issue-stall counters into @p out. */
    void add_stalls(StallCounts* out) const
    {
        for (const auto& sc : subcores_)
            out->add(sc->stall_counts());
    }

    /** @p grid is retiring: clear any sub-core stall-attribution
     *  pointers into it before the GridRun is destroyed. */
    void forget_grid(const GridRun* grid)
    {
        for (const auto& sc : subcores_)
            sc->forget_grid(grid);
    }

    /** Batched form: one pass for every grid retiring this tick (the
     *  engine collects retirements first instead of re-walking every
     *  SM once per retired launch). */
    void forget_grids(const std::vector<const GridRun*>& grids)
    {
        for (const GridRun* g : grids)
            forget_grid(g);
    }

    /** cta_id of CTA slot @p slot, or -1 when the slot is out of
     *  range or empty (a restoring sub-core regenerates warp programs
     *  from it). */
    int cta_id_of_slot(int slot) const
    {
        if (slot < 0 || static_cast<size_t>(slot) >= cta_slots_.size() ||
            !cta_slots_[static_cast<size_t>(slot)].valid)
            return -1;
        return cta_slots_[static_cast<size_t>(slot)].cta_id;
    }

    /**
     * Snapshot walk over the full SM state.  Must only run between
     * engine ticks: saving requires the staged functional-memory and
     * CTA-completion buffers to be empty.  @p grids maps resident
     * GridRun pointers to stable indices.
     */
    template <class Ar>
    static void transfer(Ar& ar, ArchiveRef<Ar, SM> self,
                         const std::vector<GridRun*>& grids);

  private:
    /** Shared-memory MIO pipe (SM-local; Phase B). */
    void process_shared_pipe();
    /** L1/global MIO pipe (touches the MemorySystem; Phase A). */
    void process_global_pipe();

    /** Functional execution of one staged global LDG/STG. */
    void functional_global_access(Warp& w, const Instruction& inst,
                                  int iter);

    /** Pipeline stall reason for a memory-system refusal. */
    static StallReason stall_reason_of(MemAccept status);

    struct MioEntry
    {
        int subcore;
        int warp_slot;
        const Instruction* inst;
        int iter;
        /** Global-path transaction state: the warp's coalesced sectors
         *  (computed when the entry reaches the head of the queue) and
         *  how far admission has progressed.  A sector refused by the
         *  memory system leaves the entry at the head; it resumes from
         *  next_sector at the retry cycle. */
        std::vector<uint64_t> sectors;
        size_t next_sector = 0;
        uint64_t done = 0;       ///< Max completion across sectors so far.
        uint64_t port_next = 0;  ///< L1 port cycle of the next sector.
        bool primed = false;     ///< Sectors computed.
    };

    int id_;
    GpuConfig cfg_;
    MemorySystem* mem_;
    ExecutorCache* executors_;
    /** One-entry memo over executors_ (see the kHmma functional
     *  case): executors are immutable and never evicted, so the
     *  pointer stays valid for the cache's lifetime. */
    HmmaExecutor* executor_memo_ = nullptr;
    uint64_t executor_memo_key_ = 0;
    uint64_t now_ = 0;
    /** Anything happened this tick (issue/writeback/MIO pop)? */
    bool progress_ = false;

    std::vector<std::unique_ptr<SubCore>> subcores_;
    std::vector<CtaSlot> cta_slots_;
    /** (subcore, warp_slot) pairs per CTA slot, for barrier release. */
    std::vector<std::vector<std::pair<int, int>>> cta_warps_;

    /** Warp-slot cap for dispatch decisions (== max_warps_per_sm on a
     *  healthy SM; lower on a fault-degraded one). */
    int warp_cap_ = 0;

    /** Additive occupancy accounting across all resident grids. */
    int used_ctas_ = 0;
    int used_warps_ = 0;
    uint64_t used_smem_ = 0;
    uint64_t used_regs_ = 0;

    /** Separate shared-memory and L1/global pipes behind the MIO
     *  scheduler (each accepts one warp instruction per cycle). */
    std::deque<MioEntry> mio_shared_;
    std::deque<MioEntry> mio_global_;
    uint64_t mio_shared_free_ = 0;
    uint64_t mio_global_free_ = 0;
    /** Earliest cycle a refused head transaction may be retried (0 =
     *  head not blocked).  Folded into next_event so idle-skip jumps
     *  exactly to the retry. */
    uint64_t mio_global_retry_ = 0;
    /** Why the global head is blocked (memory back-pressure), for
     *  stall attribution when the LSQ backs up to the scheduler. */
    StallReason mio_block_reason_ = StallReason::kNone;

    /** The global pipe's retiring entry (at most one per tick), from
     *  Phase A until tick_compute registers it after the shared pipe's
     *  writeback.  Tick-transient: empty between ticks, so snapshots
     *  never carry it. */
    struct PendingWriteback
    {
        uint64_t done;
        int subcore;
        int warp_slot;
        const Instruction* inst;
        int iter;
    };
    std::optional<PendingWriteback> pending_wb_;

    int ctas_completed_ = 0;

    /** One global-memory instruction whose functional effect is
     *  deferred to commit_tick().  Issued this tick, applied this
     *  tick: nothing can observe the warp's registers or the target
     *  addresses in between, but deferral keeps the parallel compute
     *  phase free of cross-SM loads/stores. */
    struct StagedMemOp
    {
        Warp* warp;
        const Instruction* inst;
        int iter;
    };
    std::vector<StagedMemOp> staged_mem_;
    /** Grids whose CTAs completed this tick (ctas_done /
     *  finish_cycle are grid-shared, so the increments apply at
     *  commit). */
    std::vector<GridRun*> staged_cta_done_;

    /** Tick-end caches consumed by the engine (see tick_compute). */
    bool busy_cache_ = false;
    uint64_t next_event_cache_ = UINT64_MAX;
};

}  // namespace tcsim
