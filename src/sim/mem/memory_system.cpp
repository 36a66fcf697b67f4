#include "sim/mem/memory_system.h"

#include <algorithm>

#include "common/logging.h"
#include "sim/fault/fault_plan.h"
#include "sim/snapshot_io.h"

namespace tcsim {

MemorySystem::MemorySystem(const GpuConfig& cfg) : cfg_(cfg)
{
    CacheConfig l1cfg;
    l1cfg.size_bytes = cfg.l1_size;
    l1cfg.line_bytes = cfg.l1_line_bytes;
    l1cfg.sector_bytes = cfg.l1_sector_bytes;
    l1cfg.assoc = cfg.l1_assoc;
    l1cfg.write_allocate = false;  // Volta L1: write-through, no allocate
    l1_.reserve(static_cast<size_t>(cfg.num_sms));
    mshr_.reserve(static_cast<size_t>(cfg.num_sms));
    for (int i = 0; i < cfg.num_sms; ++i) {
        l1_.push_back(std::make_unique<Cache>(l1cfg));
        mshr_.push_back(std::make_unique<MshrFile>(
            cfg.l1_mshr_entries, cfg.l1_line_bytes, cfg.l1_sector_bytes));
    }

    CacheConfig l2cfg;
    l2cfg.size_bytes = cfg.l2_size;
    l2cfg.line_bytes = cfg.l1_line_bytes;
    l2cfg.sector_bytes = cfg.l1_sector_bytes;
    l2cfg.assoc = cfg.l2_assoc;
    l2cfg.write_allocate = true;
    l2_ = std::make_unique<Cache>(l2cfg);

    noc_ = BoundedChannel(cfg.noc_bytes_per_cycle, cfg.noc_queue_depth);
    TCSIM_CHECK(cfg.l2_banks > 0);
    l2_banks_.reserve(static_cast<size_t>(cfg.l2_banks));
    for (int b = 0; b < cfg.l2_banks; ++b)
        l2_banks_.emplace_back(cfg.l2_bank_bytes_per_cycle,
                               cfg.l2_bank_queue_depth);

    dram_ = std::make_unique<DramModel>(
        cfg.num_mem_partitions, cfg.dram_bytes_per_cycle_per_partition,
        cfg.dram_latency, /*interleave_bytes=*/256, cfg.dram_queue_depth,
        cfg.dram_rw_turnaround);
}

MemAccessResult
MemorySystem::access_sector(int sm, uint64_t addr, bool is_write,
                            uint64_t now)
{
    TCSIM_CHECK(sm >= 0 && sm < static_cast<int>(l1_.size()));
    Cache& l1 = *l1_[sm];
    MshrFile& mshr = *mshr_[sm];
    const uint64_t l1_lat = static_cast<uint64_t>(cfg_.l1_hit_latency);
    const uint64_t l2_lat = static_cast<uint64_t>(cfg_.l2_hit_latency);

    if (!is_write) {
        // One MSHR file scan answers merge + trackability; the entry
        // pointer is reused by track() below (no mutation between).
        MshrFile::Lookup mq = mshr.query(addr, now);
        // Hit-under-miss: a fill for this exact sector is already in
        // flight — ride it home (one MSHR entry, no new traffic).
        if (mq.pending_fill) {
            ++global_sectors_;
            return {MemAccept::kAccepted,
                    std::max(mq.pending_fill, now + l1_lat)};
        }
        if (l1.probe(addr, false) == CacheOutcome::kHit) {
            l1.access(addr, false);
            ++global_sectors_;
            return {MemAccept::kAccepted, now + l1_lat};
        }

        // Miss path admission: every level the transaction will
        // traverse must have a slot *before* anything is mutated, so
        // a refusal leaves no trace and the retry is a clean replay.
        if (!mq.can_track)
            return {MemAccept::kMshrFull,
                    std::max(mshr.retry_cycle(now), now + 1)};
        if (!noc_.can_accept(now))
            return {MemAccept::kNocBusy,
                    std::max(noc_.retry_cycle(now), now + 1)};
        BoundedChannel& bank = l2_banks_[static_cast<size_t>(l2_bank(addr))];
        if (!bank.can_accept(now))
            return {MemAccept::kNocBusy,
                    std::max(bank.retry_cycle(now), now + 1)};
        bool l2_hit = l2_->probe(addr, false) == CacheOutcome::kHit;
        if (!l2_hit && !dram_->can_accept(addr, now))
            return {MemAccept::kDramQueue,
                    std::max(dram_->retry_cycle(addr, now), now + 1)};

        // Commit: fix the transaction's timeline through the service
        // horizons.  Wire latency is folded into the L2/DRAM
        // latencies (as in the analytical model this replaces), so an
        // uncontended miss costs exactly what it used to; queueing
        // delay rides on top under contention.
        l1.access(addr, false);
        uint64_t noc_start = static_cast<uint64_t>(
            noc_.submit(now, cfg_.l1_sector_bytes));
        uint64_t bank_start = static_cast<uint64_t>(
            bank.submit(noc_start, cfg_.l1_sector_bytes));
        l2_->access(addr, false);
        uint64_t done;
        if (l2_hit) {
            done = bank_start + l2_lat;
        } else {
            uint64_t dram_done =
                dram_->access(addr, cfg_.l1_sector_bytes, false, bank_start);
            done = dram_done + l2_lat;
        }
        // Injected ECC retry: the fill completes late, and any
        // hit-under-miss riders on this MSHR entry inherit the delay
        // (the whole line re-read costs everyone, as on real silicon).
        if (fault_plan_)
            done += fault_plan_->ecc_delay(sm, addr, now);
        mshr.track(addr, mq, done);
        ++global_sectors_;
        return {MemAccept::kAccepted, done};
    }

    // Stores: write-through at the L1 (no allocate), acknowledged at
    // L1 latency; the drain through NoC/L2/DRAM happens in the
    // background but holds real queue slots, so a saturated write
    // path back-pressures the warp.
    if (!noc_.can_accept(now))
        return {MemAccept::kNocBusy,
                std::max(noc_.retry_cycle(now), now + 1)};
    BoundedChannel& bank = l2_banks_[static_cast<size_t>(l2_bank(addr))];
    if (!bank.can_accept(now))
        return {MemAccept::kNocBusy,
                std::max(bank.retry_cycle(now), now + 1)};
    bool l2_write_hit = l2_->probe(addr, true) == CacheOutcome::kHit;
    if (!l2_write_hit && !dram_->can_accept(addr, now))
        return {MemAccept::kDramQueue,
                std::max(dram_->retry_cycle(addr, now), now + 1)};

    l1.access(addr, true);
    uint64_t noc_start = static_cast<uint64_t>(
        noc_.submit(now, cfg_.l1_sector_bytes));
    uint64_t bank_start = static_cast<uint64_t>(
        bank.submit(noc_start, cfg_.l1_sector_bytes));
    CacheOutcome o2 = l2_->access(addr, true);
    if (o2 == CacheOutcome::kLineMiss || o2 == CacheOutcome::kSectorMiss)
        dram_->access(addr, cfg_.l1_sector_bytes, true, bank_start + l2_lat);
    ++global_sectors_;
    return {MemAccept::kAccepted, now + l1_lat};
}

void
MemorySystem::reset_timing()
{
    for (auto& c : l1_)
        c->flush();
    for (auto& m : mshr_)
        m->reset();
    l2_->flush();
    noc_.reset();
    for (auto& b : l2_banks_)
        b.reset();
    dram_->reset();
    global_sectors_ = 0;
}

MemStats
MemorySystem::stats() const
{
    MemStats s;
    for (const auto& c : l1_) {
        s.l1_hits += c->hits();
        s.l1_misses += c->misses();
    }
    for (const auto& m : mshr_) {
        s.mshr_merges += m->merges();
        s.mshr_peak = std::max(s.mshr_peak,
                               static_cast<uint64_t>(m->peak()));
    }
    s.l2_hits = l2_->hits();
    s.l2_misses = l2_->misses();
    s.dram_bytes = dram_->total_bytes();
    s.global_sectors = global_sectors_;
    s.noc_queue_cycles = noc_.queue_cycles();
    for (const auto& b : l2_banks_)
        s.l2_queue_cycles += b.queue_cycles();
    s.dram_queue_cycles = dram_->queue_cycles();
    s.dram_turnarounds = dram_->turnarounds();
    return s;
}

template <class Ar>
void
MemorySystem::transfer(Ar& ar, ArchiveRef<Ar, MemorySystem> self)
{
    ar.tag(kTagMemSystem);
    uint64_t sms = self.l1_.size();
    ar.io(sms);
    ar.check(sms == self.l1_.size(), "per-SM cache count mismatch");
    for (size_t i = 0; i < self.l1_.size(); ++i) {
        Cache::transfer(ar, *self.l1_[i]);
        MshrFile::transfer(ar, *self.mshr_[i]);
    }
    Cache::transfer(ar, *self.l2_);
    BoundedChannel::transfer(ar, self.noc_);
    uint64_t banks = self.l2_banks_.size();
    ar.io(banks);
    ar.check(banks == self.l2_banks_.size(), "L2 bank count mismatch");
    for (auto& b : self.l2_banks_)
        BoundedChannel::transfer(ar, b);
    DramModel::transfer(ar, *self.dram_);
    ar.io(self.global_sectors_);
}

template void MemorySystem::transfer(SnapshotWriter&, const MemorySystem&);
template void MemorySystem::transfer(SnapshotReader&, MemorySystem&);

}  // namespace tcsim
