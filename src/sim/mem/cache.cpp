#include "sim/mem/cache.h"

#include "common/logging.h"
#include "sim/snapshot_io.h"

namespace tcsim {

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg)
{
    TCSIM_CHECK(cfg.line_bytes % cfg.sector_bytes == 0);
    sectors_per_line_ = cfg.line_bytes / cfg.sector_bytes;
    TCSIM_CHECK(sectors_per_line_ <= 8);
    num_sets_ = static_cast<int>(cfg.size_bytes /
                                 (static_cast<uint32_t>(cfg.line_bytes) *
                                  cfg.assoc));
    TCSIM_CHECK(num_sets_ > 0);
    lines_.resize(static_cast<size_t>(num_sets_) * cfg.assoc);
}

Cache::Addr
Cache::decompose(uint64_t addr) const
{
    uint64_t line_addr = addr / cfg_.line_bytes;
    // Modulo indexing (set counts need not be a power of two, e.g.
    // the Titan V's 4608 KB L2).
    Addr a;
    a.set = static_cast<int>(line_addr % static_cast<uint64_t>(num_sets_));
    a.tag = line_addr / static_cast<uint64_t>(num_sets_);
    int sector = static_cast<int>((addr % cfg_.line_bytes) /
                                  cfg_.sector_bytes);
    a.sector_bit = static_cast<uint8_t>(1u << sector);
    return a;
}

const Cache::Line*
Cache::find(const Addr& a) const
{
    for (int w = 0; w < cfg_.assoc; ++w) {
        const Line& line =
            lines_[static_cast<size_t>(a.set) * cfg_.assoc + w];
        if (line.valid && line.tag == a.tag)
            return &line;
    }
    return nullptr;
}

CacheOutcome
Cache::access(uint64_t addr, bool is_write)
{
    ++tick_;
    Addr a = decompose(addr);
    Line* entry = const_cast<Line*>(find(a));

    if (entry) {
        entry->lru = tick_;
        if (entry->sector_valid & a.sector_bit) {
            ++hits_;
            return CacheOutcome::kHit;
        }
        // Line present, sector absent: fetch one sector.
        if (!is_write || cfg_.write_allocate)
            entry->sector_valid |= a.sector_bit;
        ++misses_;
        return CacheOutcome::kSectorMiss;
    }

    ++misses_;
    if (is_write && !cfg_.write_allocate)
        return CacheOutcome::kLineMiss;  // write-through, no fill

    // Victim = LRU way.
    Line* victim = &lines_[static_cast<size_t>(a.set) * cfg_.assoc];
    for (int w = 1; w < cfg_.assoc; ++w) {
        Line& line = lines_[static_cast<size_t>(a.set) * cfg_.assoc + w];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.lru < victim->lru)
            victim = &line;
    }
    victim->valid = true;
    victim->tag = a.tag;
    victim->lru = tick_;
    victim->sector_valid = a.sector_bit;
    return CacheOutcome::kLineMiss;
}

CacheOutcome
Cache::probe(uint64_t addr, bool is_write) const
{
    (void)is_write;  // Same lookup either way; kept for symmetry.
    Addr a = decompose(addr);
    const Line* line = find(a);
    if (!line)
        return CacheOutcome::kLineMiss;
    return (line->sector_valid & a.sector_bit) ? CacheOutcome::kHit
                                               : CacheOutcome::kSectorMiss;
}

void
Cache::flush()
{
    // Reset the LRU clock alongside the tags: stale per-line `lru`
    // stamps and a still-running tick_ would make post-flush
    // replacement state depend on pre-flush history, so two engine
    // runs over the same workload could diverge from a fresh cache.
    for (auto& line : lines_)
        line = Line{};
    tick_ = 0;
    hits_ = 0;
    misses_ = 0;
}

template <class Ar>
void
Cache::transfer(Ar& ar, ArchiveRef<Ar, Cache> self)
{
    uint64_t lines = self.lines_.size();
    ar.io(lines);
    ar.check(lines == self.lines_.size(), "cache geometry mismatch");
    for (auto& line : self.lines_) {
        ar.io(line.tag);
        ar.io(line.lru);
        ar.io(line.sector_valid);
        ar.io(line.valid);
    }
    ar.io(self.tick_);
    ar.io(self.hits_);
    ar.io(self.misses_);
}

template void Cache::transfer(SnapshotWriter&, const Cache&);
template void Cache::transfer(SnapshotReader&, Cache&);

}  // namespace tcsim
