#include "sim/mem/mshr.h"

#include <algorithm>

#include "common/logging.h"
#include "sim/snapshot_io.h"

namespace tcsim {

MshrFile::MshrFile(int entries, int line_bytes, int sector_bytes)
    : entries_(entries), line_bytes_(line_bytes), sector_bytes_(sector_bytes)
{
    TCSIM_CHECK(entries > 0);
    TCSIM_CHECK(line_bytes > 0 && sector_bytes > 0);
    TCSIM_CHECK(line_bytes % sector_bytes == 0);
    TCSIM_CHECK(line_bytes / sector_bytes <= 8);
    // Full reservation up front: entry pointers handed out by query()
    // stay valid across the push_back in track().
    active_.reserve(static_cast<size_t>(entries));
}

void
MshrFile::prune(uint64_t now)
{
    // An entry frees once its last sector fill has arrived.  Order is
    // irrelevant (lookup is by line), so swap-erase.
    for (size_t i = 0; i < active_.size();) {
        if (active_[i].last_fill <= now) {
            active_[i] = active_.back();
            active_.pop_back();
        } else {
            ++i;
        }
    }
}

MshrFile::Entry*
MshrFile::find(uint64_t line)
{
    for (Entry& e : active_)
        if (e.line == line)
            return &e;
    return nullptr;
}

MshrFile::Lookup
MshrFile::query(uint64_t addr, uint64_t now)
{
    prune(now);
    Lookup out;
    Entry* e = find(addr / static_cast<uint64_t>(line_bytes_));
    out.entry = e;
    if (e) {
        // Merge-on-sector: the line's entry absorbs new fills, and a
        // fill already in flight for this exact sector is ridden home.
        out.can_track = true;
        size_t sector = (addr % static_cast<uint64_t>(line_bytes_)) /
                        static_cast<uint64_t>(sector_bytes_);
        uint64_t fill = e->sector_fill[sector];
        if (fill > now) {
            out.pending_fill = fill;
            ++merges_;
        }
        return out;
    }
    out.can_track = active_.size() < static_cast<size_t>(entries_);
    return out;
}

uint64_t
MshrFile::retry_cycle(uint64_t now)
{
    prune(now);
    TCSIM_CHECK(active_.size() >= static_cast<size_t>(entries_));
    uint64_t first_free = UINT64_MAX;
    for (const Entry& e : active_)
        first_free = std::min(first_free, e.last_fill);
    return first_free;
}

void
MshrFile::track(uint64_t addr, const Lookup& found, uint64_t fill_done)
{
    Entry* e = static_cast<Entry*>(found.entry);
    if (!e) {
        TCSIM_CHECK(active_.size() < static_cast<size_t>(entries_));
        active_.push_back(Entry{});
        e = &active_.back();
        e->line = addr / static_cast<uint64_t>(line_bytes_);
        peak_ = std::max(peak_, active_.size());
    }
    size_t sector = (addr % static_cast<uint64_t>(line_bytes_)) /
                    static_cast<uint64_t>(sector_bytes_);
    e->sector_fill[sector] = std::max(e->sector_fill[sector], fill_done);
    e->last_fill = std::max(e->last_fill, fill_done);
}

size_t
MshrFile::occupancy(uint64_t now)
{
    prune(now);
    return active_.size();
}

void
MshrFile::reset()
{
    active_.clear();
    peak_ = 0;
    merges_ = 0;
}

template <class Ar>
void
MshrFile::transfer(Ar& ar, ArchiveRef<Ar, MshrFile> self)
{
    ar.seq(self.active_, [&](auto& e) {
        ar.io(e.line);
        for (auto& fill : e.sector_fill)
            ar.io(fill);
        ar.io(e.last_fill);
    });
    ar.check(self.active_.size() <= static_cast<size_t>(self.entries_),
             "MSHR occupancy exceeds file size");
    ar.io(self.peak_);
    ar.io(self.merges_);
}

template void MshrFile::transfer(SnapshotWriter&, const MshrFile&);
template void MshrFile::transfer(SnapshotReader&, MshrFile&);

}  // namespace tcsim
