#pragma once
/**
 * @file
 * Sub-core model (Fig 1 of the paper): one warp scheduler issuing one
 * warp-instruction per clock into the FP32/INT/FP64/MUFU paths, the
 * tensor core pair, or the MIO (memory) queue, with scoreboard-based
 * hazard tracking and in-order per-warp issue.
 */

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/core/exec_unit.h"
#include "sim/core/scheduler.h"
#include "sim/core/scoreboard.h"
#include "sim/core/stall.h"
#include "sim/core/warp.h"
#include "sim/tc/tensor_core_unit.h"

namespace tcsim {

class SM;

/** Snapshot walk over a grid pointer, archived as its index in the
 *  resident table @p grids (UINT32_MAX for null). */
template <class Ar, class P>
void
transfer_grid(Ar& ar, P& grid, const std::vector<GridRun*>& grids)
{
    uint32_t index = UINT32_MAX;
    if constexpr (!Ar::kLoading) {
        if (grid != nullptr) {
            auto it = std::find(grids.begin(), grids.end(), grid);
            if (it == grids.end())
                throw SnapshotError("grid pointer not in resident table");
            index = static_cast<uint32_t>(it - grids.begin());
        }
    }
    ar.io(index);
    if constexpr (Ar::kLoading) {
        ar.check(index == UINT32_MAX || index < grids.size(),
                 "grid index out of range");
        grid = index == UINT32_MAX ? nullptr : grids[index];
    }
}

/** Snapshot walk over an instruction pointer into @p prog, archived
 *  as its index. */
template <class Ar, class P>
void
transfer_inst(Ar& ar, P& inst, const WarpProgram& prog, const char* what)
{
    uint64_t index = 0;
    if constexpr (!Ar::kLoading)
        index = static_cast<uint64_t>(inst - prog.data());
    ar.index(index, prog.size(), what);
    if constexpr (Ar::kLoading)
        inst = &prog[index];
}

/** One of the four processing blocks of an SM. */
class SubCore
{
  public:
    SubCore(SM* sm, int index, SchedulerPolicy policy);

    /** Add a warp at CTA launch; returns its slot index.  Slots of
     *  finished warps are recycled so long multi-kernel runs keep a
     *  bounded footprint. */
    int add_warp(std::unique_ptr<Warp> warp);

    Warp& warp(int slot) { return *warps_[slot]; }

    /** Number of warp slots (live + recycled). */
    size_t warp_count() const { return warps_.size(); }

    /** True while any resident warp is unfinished or writes are in
     *  flight. */
    bool busy() const;

    /** Complete instructions whose writeback cycle has arrived; true
     *  if any instruction completed. */
    bool do_writebacks(uint64_t now);

    /** Attempt to issue one instruction; true if something issued. */
    bool try_issue(uint64_t now);

    /** Earliest future cycle a stalled sub-core can change state: the
     *  nearest in-flight writeback or execution-unit ready time. */
    uint64_t next_event(uint64_t now) const;

    /** Attribute @p cycles of skipped stalled time to the issue-stall
     *  counters (same reason the last real attempt recorded). */
    void account_skipped(uint64_t cycles);

    /** Register a future writeback (used by the SM's MIO path too).
     *  @p iter is the loop iteration the instruction issued at. */
    void register_writeback(uint64_t done, int warp_slot,
                            const Instruction* inst, int iter);

    /** Number of instructions issued by this sub-core. */
    uint64_t issued() const { return issued_; }

    /** Issue-stall attribution (cycles no instruction issued, by the
     *  blocking reason of the last warp the scheduler considered).
     *  The enum lives in sim/core/stall.h; the alias keeps the
     *  historical SubCore::StallReason spelling working. */
    using StallReason = tcsim::StallReason;
    const StallCounts& stall_counts() const { return stalls_; }

    const TensorCoreUnit& tensor_cores() const { return tc_; }

    /** Release a warp blocked at the CTA barrier. */
    void release_barrier(int warp_slot);

    /** @p grid is retiring: drop the stall-attribution pointer if it
     *  references it (the GridRun is about to be destroyed). */
    void forget_grid(const GridRun* grid)
    {
        if (last_block_grid_ == grid)
            last_block_grid_ = nullptr;
    }

    /**
     * Snapshot walk over the full sub-core state.  @p grids maps
     * resident GridRun pointers to stable indices.  Warp programs are
     * not archived: loading regenerates them from each grid's
     * deterministic kernel trace and validates the length, so the
     * in-flight Instruction pointers (archived as program indices)
     * re-anchor into identical programs.  Must only run between
     * engine ticks.  The containing SM must have loaded its CTA slot
     * table first (trace regeneration needs each warp's cta_id).
     */
    template <class Ar>
    static void transfer(Ar& ar, ArchiveRef<Ar, SubCore> self,
                         const std::vector<GridRun*>& grids);

  private:
    /** Try to issue the next instruction of one warp. */
    bool try_issue_warp(int slot, uint64_t now);

    /** Issue bookkeeping common to all instruction classes. */
    void finish_issue(int slot, Warp& w, const Instruction& inst,
                      uint64_t now);

    /** Retire a warp whose EXIT has drained. */
    void maybe_finish_warp(int slot);

    /** Count @p cycles of issue stall for @p r, attributed both to
     *  this sub-core's totals and (when known) to the grid whose warp
     *  blocked the scheduler. */
    void note_stall(StallReason r, uint64_t cycles, GridRun* grid);

    struct InFlight
    {
        uint64_t done;
        int warp_slot;
        const Instruction* inst;
        int iter;
    };

    SM* sm_;
    int index_;
    SchedulerPolicy policy_;
    std::vector<std::unique_ptr<Warp>> warps_;
    std::vector<int> active_;  ///< Slots of resident, unfinished warps.
    std::vector<int> free_slots_;  ///< Recyclable finished slots.
    Scoreboard scoreboard_{0};
    ExecUnit fp32_;
    ExecUnit int_;
    ExecUnit fp64_;
    ExecUnit mufu_;
    TensorCoreUnit tc_;
    std::vector<InFlight> inflight_;
    /** Earliest `done` in inflight_ (UINT64_MAX when empty): lets
     *  do_writebacks skip the scan before anything is due and
     *  next_event answer without walking the list.  Derived; rebuilt
     *  when a snapshot loads. */
    uint64_t min_done_ = UINT64_MAX;
    int last_issued_ = -1;
    int lrr_pos_ = 0;
    uint64_t issued_ = 0;
    StallCounts stalls_;
    StallReason last_block_ = StallReason::kNone;
    /** Grid of the warp that set last_block_ (stall attribution). */
    GridRun* last_block_grid_ = nullptr;
};

}  // namespace tcsim
