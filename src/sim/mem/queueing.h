#pragma once
/**
 * @file
 * Bounded service queues for the transaction-based memory hierarchy:
 * a BoundedChannel models one serialization point (the SM<->L2
 * interconnect, one L2 bank, one DRAM partition) with a bytes/cycle
 * service rate and a finite number of in-flight slots.
 *
 * A request occupies a slot from acceptance until its service
 * completes; when every slot is held by an unfinished request the
 * channel refuses new work and reports the first cycle a slot frees,
 * which is how back-pressure propagates up to the issuing warp.  All
 * state is pruned lazily against the query cycle, so the channel has
 * no autonomous clock and the engine's idle-skip stays exact.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "sim/snapshot_io.h"

namespace tcsim {

/** One throttled, bounded service point. */
class BoundedChannel
{
  public:
    BoundedChannel() = default;

    /** @p retire_on_submit: retire completions older than each new
     *  request's arrival epoch at submit time.  Meant for levels whose
     *  admission check runs on an earlier clock than their arrivals
     *  (the DRAM partitions: admission happens at the L1 port cycle,
     *  arrival after the NoC/bank backlog) — slots that will have
     *  drained by the arrival epoch must not refuse the request. */
    BoundedChannel(double bytes_per_cycle, int depth,
                   bool retire_on_submit = false)
        : cycles_per_byte_(1.0 / bytes_per_cycle),
          depth_(static_cast<size_t>(depth)),
          retire_on_submit_(retire_on_submit),
          slots_(static_cast<size_t>(depth))
    {
        TCSIM_CHECK(bytes_per_cycle > 0.0);
        TCSIM_CHECK(depth > 0);
    }

    /** Requests still occupying a slot at cycle @p now. */
    size_t occupancy(uint64_t now)
    {
        prune(now);
        return count_;
    }

    /** True when a request arriving at @p now can take a slot. */
    bool can_accept(uint64_t now)
    {
        prune(now);
        return count_ < depth_;
    }

    /**
     * First cycle a slot frees (call only when full).  Completions are
     * fixed once scheduled and later submissions can only queue behind
     * them, so acceptance can never become possible earlier than this.
     */
    uint64_t retry_cycle(uint64_t now)
    {
        prune(now);
        TCSIM_CHECK(count_ >= depth_);
        // Completions are pushed in nondecreasing order (the horizon
        // is monotone); the slot frees when the oldest outstanding
        // request retires.
        double t = slots_[head_];
        uint64_t c = static_cast<uint64_t>(t);
        return c < t ? c + 1 : c;  // ceil: free strictly after t
    }

    /**
     * Accept a transfer of @p bytes arriving at cycle @p t (the caller
     * has checked can_accept).  Returns the service-*start* cycle —
     * the arrival time plus any queueing delay behind earlier work;
     * the level's fixed pipe latency rides on top at the caller, while
     * the service time itself only shapes the bandwidth horizon.
     *
     * @p pre_service_delay is extra setup the channel pays *after* the
     * queue wait and before service (the DRAM read/write bus
     * turnaround): it delays this request's service and every later
     * request's horizon, but is not counted as this request's queueing
     * delay.
     */
    double submit(uint64_t t, int bytes, double pre_service_delay = 0.0)
    {
        if (retire_on_submit_)
            prune(t);
        double start = std::max(static_cast<double>(t), horizon_);
        queue_cycles_ += static_cast<uint64_t>(start - static_cast<double>(t));
        start += pre_service_delay;
        horizon_ = start + bytes * cycles_per_byte_;
        total_bytes_ += static_cast<uint64_t>(bytes);
        ++total_requests_;
        // Every submit is preceded by a passing can_accept at an epoch
        // no later than the completions already queued, so a slot is
        // guaranteed; the ring therefore never grows past depth_.
        TCSIM_CHECK(count_ < depth_);
        slots_[(head_ + count_) % depth_] = horizon_;
        ++count_;
        return start;
    }

    /** Service completion of the most recently submitted request. */
    double horizon() const { return horizon_; }

    /** Cycles requests spent waiting behind earlier work. */
    uint64_t queue_cycles() const { return queue_cycles_; }
    uint64_t total_bytes() const { return total_bytes_; }
    uint64_t total_requests() const { return total_requests_; }

    void reset()
    {
        horizon_ = 0.0;
        head_ = 0;
        count_ = 0;
        queue_cycles_ = 0;
        total_bytes_ = 0;
        total_requests_ = 0;
    }

    /** Snapshot walk over the runtime state (not the construction-
     *  time config, which the restoring channel re-derives from
     *  GpuConfig; depth is written anyway as a cheap config-skew
     *  check).  Live slots are written in ring order and reloaded at
     *  head 0 — the physical ring position is not observable through
     *  prune/submit/retry. */
    template <class Ar>
    static void transfer(Ar& ar, ArchiveRef<Ar, BoundedChannel> self)
    {
        size_t depth = self.depth_;
        ar.io(depth);
        ar.check(depth == self.depth_, "BoundedChannel depth mismatch");
        ar.io(self.horizon_);
        size_t count = self.count_;
        ar.io(count);
        ar.check(count <= self.depth_,
                 "BoundedChannel occupancy exceeds depth");
        if constexpr (Ar::kLoading) {
            self.head_ = 0;
            self.count_ = count;
        }
        for (size_t i = 0; i < count; ++i)
            ar.io(self.slots_[(self.head_ + i) % self.depth_]);
        ar.io(self.queue_cycles_);
        ar.io(self.total_bytes_);
        ar.io(self.total_requests_);
    }

  private:
    void prune(uint64_t now)
    {
        // Completion times are nondecreasing around the ring, so
        // retiring from the head until it outlives `now` is exact.
        while (count_ > 0 && slots_[head_] <= static_cast<double>(now)) {
            head_ = (head_ + 1) % depth_;
            --count_;
        }
    }

    double cycles_per_byte_ = 1.0;
    size_t depth_ = 1;
    bool retire_on_submit_ = false;
    double horizon_ = 0.0;
    /**
     * Service-completion times of the requests holding slots, as a
     * fixed-capacity ring (a request occupies a slot from acceptance
     * to completion, so at most depth_ are ever live — the deque this
     * replaces paid an allocation every few hundred requests in the
     * engine's hottest loop).  Valid entries are the count_ ascending
     * values starting at head_.
     */
    std::vector<double> slots_ = std::vector<double>(1);
    size_t head_ = 0;
    size_t count_ = 0;
    uint64_t queue_cycles_ = 0;
    uint64_t total_bytes_ = 0;
    uint64_t total_requests_ = 0;
};

}  // namespace tcsim
