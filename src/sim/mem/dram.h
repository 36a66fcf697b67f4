#pragma once
/**
 * @file
 * DRAM (HBM2) timing model: address-interleaved partitions, each a
 * BoundedChannel (bytes/cycle service rate + bounded request queue)
 * plus a read/write bus-turnaround penalty and a fixed access latency.
 * Sector requests occupy a partition-queue slot from acceptance until
 * their service completes; when every slot of the addressed partition
 * is held the request is refused and the refusal propagates back up
 * the hierarchy as kDramQueue back-pressure.
 */

#include <cstdint>
#include <vector>

#include "sim/mem/queueing.h"
#include "sim/snapshot_io.h"

namespace tcsim {

/** Per-partition bandwidth/latency/queueing model. */
class DramModel
{
  public:
    DramModel(int num_partitions, double bytes_per_cycle, int latency,
              int interleave_bytes = 256, int queue_depth = 32,
              int rw_turnaround = 0);

    /** Partition @p addr interleaves onto. */
    int partition(uint64_t addr) const
    {
        return static_cast<int>(
            (addr / static_cast<uint64_t>(interleave_bytes_)) %
            static_cast<uint64_t>(num_partitions_));
    }

    /** True when @p addr's partition has a free queue slot at @p now. */
    bool can_accept(uint64_t addr, uint64_t now)
    {
        return parts_[static_cast<size_t>(partition(addr))]
            .chan.can_accept(now);
    }

    /** First cycle a slot of @p addr's partition frees (call only
     *  when can_accept is false). */
    uint64_t retry_cycle(uint64_t addr, uint64_t now)
    {
        return parts_[static_cast<size_t>(partition(addr))]
            .chan.retry_cycle(now);
    }

    /**
     * Enqueue one sector request arriving at cycle @p now (the caller
     * has checked can_accept); returns the cycle the data is available
     * at L2 (stores: the cycle the write has drained).  Switching the
     * partition between reads and writes costs the turnaround penalty
     * (paid after any queue wait; not counted as queueing delay).
     */
    uint64_t access(uint64_t addr, int bytes, bool is_write, uint64_t now);

    uint64_t total_bytes() const;
    uint64_t total_requests() const;
    /** Cycles requests waited behind earlier work in partition queues
     *  (bus turnaround excluded). */
    uint64_t queue_cycles() const;
    /** Read<->write bus direction switches paid for. */
    uint64_t turnarounds() const { return turnarounds_; }

    /** Reset queue state between engine runs. */
    void reset();

    /** Snapshot walk over per-partition queues, bus direction and
     *  turnaround counter. */
    template <class Ar>
    static void transfer(Ar& ar, ArchiveRef<Ar, DramModel> self);

  private:
    struct Partition
    {
        BoundedChannel chan;
        bool last_write = false;
        bool active = false;  ///< Any request serviced since reset.
    };

    int num_partitions_;
    int latency_;
    int interleave_bytes_;
    int rw_turnaround_;
    std::vector<Partition> parts_;
    uint64_t turnarounds_ = 0;
};

}  // namespace tcsim
