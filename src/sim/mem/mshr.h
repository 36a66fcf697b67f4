#pragma once
/**
 * @file
 * Per-SM L1 miss-status holding registers.  Every outstanding line
 * fill holds one entry; sector misses to a line that already has an
 * entry merge into it (one entry per line, per-sector fill times), and
 * a request to a sector whose fill is already in flight completes at
 * that fill's arrival without generating new downstream traffic.
 *
 * When every entry is held by an unfinished fill the file is full and
 * the access is refused — the refusal propagates through the SM's MIO
 * queue back to the issuing warp as a kMshrFull stall.  Entries are
 * pruned lazily against the query cycle (an entry frees once its last
 * sector fill has arrived), so the file has no autonomous clock.
 */

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>
#include "sim/snapshot_io.h"

namespace tcsim {

/** The miss-status holding register file of one L1. */
class MshrFile
{
  public:
    MshrFile(int entries, int line_bytes, int sector_bytes);

    /** What one file scan found for an address (see query()). */
    struct Lookup
    {
        /** Fill-arrival cycle of the exact sector when a fill for it
         *  is already in flight (the access merges — no MSHR slot, no
         *  downstream traffic); 0 otherwise. */
        uint64_t pending_fill = 0;
        /** The line already holds an entry (merge-on-sector), or a
         *  free entry exists for a new fill. */
        bool can_track = false;
        /** Internal: the line's entry, for a following track(). */
        void* entry = nullptr;
    };

    /**
     * One prune + one scan answering everything the access path needs
     * about @p addr at @p now.  The result (and its entry pointer) is
     * valid until the next mutating call on this file.  Finding an
     * in-flight fill for the exact sector counts as a merge.
     */
    Lookup query(uint64_t addr, uint64_t now);

    /** Convenience wrappers over query() (tests, simple callers). */
    uint64_t merge(uint64_t addr, uint64_t now)
    {
        return query(addr, now).pending_fill;
    }
    bool can_track(uint64_t addr, uint64_t now)
    {
        return query(addr, now).can_track;
    }

    /** First cycle an entry frees (call only when can_track is
     *  false).  Fill times are fixed once scheduled, so tracking can
     *  never become possible earlier than this. */
    uint64_t retry_cycle(uint64_t now);

    /** Record a sector fill for @p addr arriving at @p fill_done,
     *  reusing @p found from the immediately preceding query() (whose
     *  can_track was true, with no mutation in between). */
    void track(uint64_t addr, const Lookup& found, uint64_t fill_done);

    /** Standalone track: queries, then records (tests). */
    void track(uint64_t addr, uint64_t now, uint64_t fill_done)
    {
        track(addr, query(addr, now), fill_done);
    }

    /** Entries currently held by unfinished fills. */
    size_t occupancy(uint64_t now);

    /** High-water mark of occupancy since the last reset. */
    size_t peak() const { return peak_; }

    /** Sector requests that merged with an in-flight fill. */
    uint64_t merges() const { return merges_; }

    int entries() const { return entries_; }

    void reset();

    /** Snapshot walk over active entries (in scan order — find()
     *  walks the vector linearly, so order is behaviour) and
     *  counters. */
    template <class Ar>
    static void transfer(Ar& ar, ArchiveRef<Ar, MshrFile> self);

  private:
    struct Entry
    {
        uint64_t line = 0;
        /** Fill-arrival cycle per sector; 0 = no fill in flight. */
        std::array<uint64_t, 8> sector_fill{};
        /** Latest fill of the entry; the entry frees when it passes. */
        uint64_t last_fill = 0;
    };

    void prune(uint64_t now);
    Entry* find(uint64_t line);

    int entries_;
    int line_bytes_;
    int sector_bytes_;
    std::vector<Entry> active_;
    size_t peak_ = 0;
    uint64_t merges_ = 0;
};

}  // namespace tcsim
