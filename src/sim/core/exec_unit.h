#pragma once
/**
 * @file
 * Generic pipelined SIMD execution unit (FP32 / INT / FP64 / MUFU
 * paths of the sub-core, Fig 1) and the issue-interval bookkeeping
 * they share.
 */

#include <cstdint>

#include "sim/snapshot_io.h"

namespace tcsim {

/**
 * A fully pipelined unit with a warp-level initiation interval and a
 * fixed latency.  A 32-lane warp on a 16-lane FP32 path has II = 2.
 */
class ExecUnit
{
  public:
    ExecUnit() = default;
    ExecUnit(int initiation_interval, int latency)
        : ii_(initiation_interval), latency_(latency)
    {
    }

    bool ready(uint64_t now) const { return now >= next_free_; }

    /** Issue at @p now; returns the completion (writeback) cycle. */
    uint64_t issue(uint64_t now)
    {
        next_free_ = now + static_cast<uint64_t>(ii_);
        return now + static_cast<uint64_t>(latency_);
    }

    int latency() const { return latency_; }
    int initiation_interval() const { return ii_; }

    /** Earliest cycle a new issue can be accepted (event-driven main
     *  loop: the time a unit-busy stall resolves). */
    uint64_t next_free() const { return next_free_; }

    /** Snapshot walk: next_free_ is the only runtime state (the
     *  II/latency come from construction). */
    template <class Ar>
    static void transfer(Ar& ar, ArchiveRef<Ar, ExecUnit> self)
    {
        ar.io(self.next_free_);
    }

  private:
    int ii_ = 1;
    int latency_ = 1;
    uint64_t next_free_ = 0;
};

}  // namespace tcsim
