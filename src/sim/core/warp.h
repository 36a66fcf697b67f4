#pragma once
/**
 * @file
 * Warp and CTA runtime state for the SM model.
 */

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "isa/instruction.h"
#include "isa/reg_state.h"
#include "sim/grid_run.h"
#include "sim/mem/shared_memory.h"

namespace tcsim {

/** Scheduling state of one warp. */
enum class WarpState : uint8_t {
    kReady,      ///< May issue when hazards clear.
    kAtBarrier,  ///< Blocked on BAR.SYNC.
    kFinished,   ///< EXIT issued and all writes drained.
};

/** One resident warp. */
struct Warp
{
    WarpProgram prog;
    size_t pc = 0;
    /** Functional registers (null in timing-only runs). */
    std::unique_ptr<WarpRegState> regs;

    /** Grid this warp belongs to (statistics attribution, functional
     *  mode); warps from several grids may share a sub-core. */
    GridRun* grid = nullptr;
    int cta_slot = -1;    ///< Index into the SM's CTA slot table.
    int warp_in_cta = 0;

    WarpState state = WarpState::kReady;
    bool exited = false;      ///< EXIT reached (may still drain).
    int inflight = 0;         ///< Issued instructions not written back.
    /** The scoreboard refused the instruction at pc.  Pending bits
     *  clear only at this warp's writebacks and an in-order warp
     *  cannot issue past it, so the refusal holds until the next
     *  writeback clears the latch.  Derived, not serialized: a
     *  restored warp rechecks once. */
    bool sb_blocked = false;

    /** Loop-region execution state (kLoopBegin/kLoopEnd). */
    int iter = 0;
    int loop_trips = 1;
    size_t loop_begin = 0;

    /** Issue cycle of each live WMMA macro op, keyed by
     *  (iter << 32 | macro_id). */
    std::unordered_map<uint64_t, uint64_t> macro_start;

    /** Macro bookkeeping key for an instruction issued at @p it. */
    static uint64_t macro_key(uint32_t macro_id, int it)
    {
        return (static_cast<uint64_t>(it) << 32) | macro_id;
    }

    bool issuable() const
    {
        return state == WarpState::kReady && !exited && pc < prog.size();
    }
};

/** One resident CTA. */
struct CtaSlot
{
    bool valid = false;
    GridRun* grid = nullptr;  ///< Grid the CTA came from (multi-grid SM).
    int cta_id = -1;
    int live_warps = 0;      ///< Warps not yet finished.
    int barrier_arrived = 0;
    std::unique_ptr<SharedMemoryStorage> shared;
};

}  // namespace tcsim
