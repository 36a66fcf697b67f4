#pragma once
/**
 * @file
 * Per-warp register scoreboard.  Tracks registers with writes in
 * flight; an instruction may not issue while any of its source (RAW)
 * or destination (WAW) registers are pending, mirroring the paper's
 * "updated the scoreboard to check for RAW and WAW hazard associated
 * with wmma.mma instructions".
 */

#include <array>
#include <cstdint>
#include <vector>

#include "isa/instruction.h"
#include "sim/snapshot_io.h"

namespace tcsim {

/** Scoreboard over up to 256 registers for a set of warps. */
class Scoreboard
{
  public:
    /** Registers tracked per warp; every operand range must end at or
     *  below this (SM::launch_cta checks each program once). */
    static constexpr int kMaxRegs = 256;

    explicit Scoreboard(int num_warps) : pending_(num_warps) {}

    /** Grow tracking state for a newly resident warp. */
    void add_warp() { pending_.emplace_back(); }

    /** Clear state when a finished warp's slot is recycled. */
    void reset_warp(int w) { pending_[w] = {}; }

    /** True if @p inst of warp @p w has no RAW/WAW hazard.  HMMA
     *  instructions that are not first in their group bypass operand
     *  checks: the tensor core forwards the accumulator internally. */
    bool can_issue(int w, const Instruction& inst) const;

    /** Mark destination registers pending at issue. */
    void issue(int w, const Instruction& inst);

    /** Clear pending destinations at writeback. */
    void complete(int w, const Instruction& inst);

    bool reg_pending(int w, int reg) const
    {
        return (pending_[w][reg >> 6] >> (reg & 63)) & 1;
    }
    bool any_pending(int w) const
    {
        const Words& p = pending_[w];
        return (p[0] | p[1] | p[2] | p[3]) != 0;
    }

    /** True if every register range @p inst reads or writes ends at
     *  or below kMaxRegs. */
    static bool operands_in_range(const Instruction& inst);

    /** Snapshot walk over the pending sets: four words per warp
     *  slot, bit b of word i standing for register 64i+b. */
    template <class Ar>
    static void transfer(Ar& ar, ArchiveRef<Ar, Scoreboard> self)
    {
        ar.seq(self.pending_, [&](auto& p) {
            for (auto& v : p)
                ar.io(v);
        });
    }

    size_t warp_count() const { return pending_.size(); }

  private:
    using Words = std::array<uint64_t, kMaxRegs / 64>;

    /** Call fn(first, count) for each destination register range of
     *  @p inst (HMMA: the D fragment; loads: width-derived span) until
     *  a call returns true; reports whether one did. */
    static bool for_each_dst(const Instruction& inst, auto&& fn);
    /** Same for source ranges (HMMA: A, B, C; stores: data span). */
    static bool for_each_src(const Instruction& inst, auto&& fn);

    std::vector<Words> pending_;
};

}  // namespace tcsim
