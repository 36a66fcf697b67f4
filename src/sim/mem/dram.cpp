#include "sim/mem/dram.h"

#include "common/logging.h"
#include "sim/snapshot_io.h"

namespace tcsim {

DramModel::DramModel(int num_partitions, double bytes_per_cycle, int latency,
                     int interleave_bytes, int queue_depth, int rw_turnaround)
    : num_partitions_(num_partitions), latency_(latency),
      interleave_bytes_(interleave_bytes), rw_turnaround_(rw_turnaround)
{
    TCSIM_CHECK(num_partitions > 0);
    TCSIM_CHECK(rw_turnaround >= 0);
    parts_.resize(static_cast<size_t>(num_partitions));
    for (Partition& p : parts_)
        p.chan = BoundedChannel(bytes_per_cycle, queue_depth,
                                /*retire_on_submit=*/true);
}

uint64_t
DramModel::access(uint64_t addr, int bytes, bool is_write, uint64_t now)
{
    Partition& p = parts_[static_cast<size_t>(partition(addr))];
    double turnaround = 0.0;
    if (p.active && p.last_write != is_write && rw_turnaround_ > 0) {
        turnaround = static_cast<double>(rw_turnaround_);
        ++turnarounds_;
    }
    p.active = true;
    p.last_write = is_write;
    p.chan.submit(now, bytes, turnaround);
    return static_cast<uint64_t>(p.chan.horizon()) +
           static_cast<uint64_t>(latency_);
}

uint64_t
DramModel::total_bytes() const
{
    uint64_t n = 0;
    for (const Partition& p : parts_)
        n += p.chan.total_bytes();
    return n;
}

uint64_t
DramModel::total_requests() const
{
    uint64_t n = 0;
    for (const Partition& p : parts_)
        n += p.chan.total_requests();
    return n;
}

uint64_t
DramModel::queue_cycles() const
{
    uint64_t n = 0;
    for (const Partition& p : parts_)
        n += p.chan.queue_cycles();
    return n;
}

void
DramModel::reset()
{
    for (Partition& p : parts_) {
        p.chan.reset();
        p.last_write = false;
        p.active = false;
    }
    turnarounds_ = 0;
}

template <class Ar>
void
DramModel::transfer(Ar& ar, ArchiveRef<Ar, DramModel> self)
{
    uint64_t parts = self.parts_.size();
    ar.io(parts);
    ar.check(parts == self.parts_.size(), "DRAM partition count mismatch");
    for (auto& p : self.parts_) {
        BoundedChannel::transfer(ar, p.chan);
        ar.io(p.last_write);
        ar.io(p.active);
    }
    ar.io(self.turnarounds_);
}

template void DramModel::transfer(SnapshotWriter&, const DramModel&);
template void DramModel::transfer(SnapshotReader&, DramModel&);

}  // namespace tcsim
