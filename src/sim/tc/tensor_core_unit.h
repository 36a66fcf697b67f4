#pragma once
/**
 * @file
 * Timing model of the sub-core's tensor core pair (Section IV of the
 * paper): each warp drives two tensor cores (one per pair of octets);
 * HMMA groups issue with the measured cadence of Fig 9 / Table I and
 * occupy the pair until the last HMMA has been accepted.
 */

#include <cstdint>
#include <optional>

#include "isa/instruction.h"
#include "sass/hmma_timing.h"
#include "sim/snapshot_io.h"

namespace tcsim {

/** The two tensor cores serving one sub-core. */
class TensorCoreUnit
{
  public:
    /** Idle cycles between consecutive HMMA groups (operand collector
     *  turnaround); calibrated so sustained back-to-back wmma.mma
     *  throughput lands at the paper's measured ~110 of 125 TFLOPS. */
    static constexpr uint64_t kInterGroupGap = 4;

    explicit TensorCoreUnit(Arch arch) : arch_(arch) {}

    /**
     * Attempt to issue @p inst (an HMMA) from warp @p warp at cycle
     * @p now.  Returns the completion cycle on success, std::nullopt
     * when the unit is busy with another warp's group or the issue
     * cadence is not yet satisfied.
     */
    std::optional<uint64_t> try_issue(int warp, const Instruction& inst,
                                      uint64_t now);

    /** True if a group is mid-flight. */
    bool group_active() const { return active_warp_ >= 0; }
    int active_warp() const { return active_warp_; }

    uint64_t groups_issued() const { return groups_issued_; }

    /** Earliest cycle a blocked HMMA could be accepted: the cadence
     *  gate of the active group, or the occupancy boundary for a new
     *  group head (event-driven main loop). */
    uint64_t next_ready() const
    {
        return group_active() ? next_issue_ : unit_free_;
    }

    /** Snapshot walk.  The timing-table memo is a derived cache:
     *  loading drops it and the next issue repopulates it. */
    template <class Ar>
    static void transfer(Ar& ar, ArchiveRef<Ar, TensorCoreUnit> self)
    {
        if constexpr (Ar::kLoading)
            self.timing_ = nullptr;
        ar.io(self.active_warp_);
        ar.io(self.position_);
        ar.io(self.first_issue_);
        ar.io(self.next_issue_);
        ar.io(self.unit_free_);
        ar.io(self.groups_issued_);
    }

  private:
    /** hmma_timing() for @p info, memoized per unit: the global
     *  timing-table cache sits behind a mutex, and one lookup per
     *  HMMA issue attempt is hot enough to contend when many SMs
     *  tick on worker threads.  Kernels switch shapes rarely, so a
     *  one-entry cache absorbs nearly every lookup. */
    const HmmaTiming& timing_for(const HmmaInfo& info)
    {
        if (timing_ == nullptr || info.mode != timing_mode_ ||
            !(info.shape == timing_shape_)) {
            timing_ = &hmma_timing(arch_, info.mode, info.shape);
            timing_mode_ = info.mode;
            timing_shape_ = info.shape;
        }
        return *timing_;
    }

    Arch arch_;
    const HmmaTiming* timing_ = nullptr;
    TcMode timing_mode_{};
    TileShape timing_shape_{};
    int active_warp_ = -1;
    int position_ = 0;            ///< Next expected HMMA index in group.
    uint64_t first_issue_ = 0;    ///< Cycle the group head issued.
    uint64_t next_issue_ = 0;     ///< Earliest cycle for the next HMMA.
    uint64_t unit_free_ = 0;      ///< Earliest cycle a new group may start.
    uint64_t groups_issued_ = 0;
};

}  // namespace tcsim
