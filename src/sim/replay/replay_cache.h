#pragma once
/**
 * @file
 * Kernel-timing replay cache: memoized results of detailed kernel
 * executions, keyed by a launch fingerprint, so repeated launches of
 * the same kernel (a serving trace re-running one model's layers
 * thousands of times, a sweep re-running one shape per point) skip
 * per-cycle simulation and complete as coarse timeline events.
 *
 * Fingerprint = the kernel builder's timing_key (family, shape,
 * precision, layouts, CTA geometry, arch) + the FNV-1a GpuConfig hash
 * + a memory-warmth class:
 *
 *   w0  nothing has retired yet in this run (cold caches),
 *   w1  the immediately preceding retired launch had the same
 *       timing_key (caches warmed by this very kernel),
 *   w2  anything else retired last (warm, but by other work).
 *
 * A replayed launch is *exact* (bit-identical counters and duration)
 * when it hits a profile recorded in the same context: same operand
 * addresses, same concurrent residency.  Across contexts — e.g. a
 * serving wavefront whose buffers were freshly allocated at different
 * addresses — the fingerprint still matches and the timing is
 * approximate; `tools/gate.py replay` bounds that error end to end
 * against full-detail runs.  A profile holds the launch's natural
 * duration: fault holds (slowdowns) apply on top at replay.
 *
 * Profiles serialize through the snapshot_io walks ("TCRP" archives,
 * one file per scenario under --replay-cache DIR) so cross-process
 * sweep workers can share a warmed cache.  The reader rejects a
 * corrupt archive with a SnapshotError: a count larger than the bytes
 * left, a macro class out of range, an entry without durations, a
 * bad magic or version, and trailing bytes.
 */

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.h"
#include "isa/instruction.h"
#include "sim/core/stall.h"
#include "sim/mem/memory_system.h"
#include "sim/snapshot_io.h"
#include "sim/stats_codec.h"

namespace tcsim {

/** One sample of a recorded occupancy timeline: @p ctas_left CTAs
 *  still resident @p offset cycles into the launch. */
struct OccupancyPhase
{
    uint64_t offset = 0;
    uint32_t ctas_left = 0;

    bool operator==(const OccupancyPhase&) const = default;
};

/** Everything one detailed execution taught us about a kernel: the
 *  duration the engine schedules a replayed completion from, and the
 *  counter deltas it applies in place of simulated statistics. */
struct KernelTimingProfile
{
    /** Launch duration, finish - start + 1 (>= 1 for a real run). */
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t hmma_instructions = 0;
    /** Memory traffic during the recorded window (shared with any
     *  concurrently resident kernels — part of the context a hit
     *  inherits). */
    MemStats mem;
    /** Issue-stall attribution of the recorded launch. */
    StallCounts stalls;
    /** Full per-macro-class latency histograms (kept whole so an
     *  exact-fingerprint replay reproduces Fig 15/16 distributions
     *  bit-identically). */
    std::map<MacroClass, Histogram> macro_latency;
    /** CTA-retirement timeline, compacted to <= kMaxOccupancyPhases
     *  samples (coarse phases, not per-CTA events). */
    std::vector<OccupancyPhase> occupancy;
};

/** Occupancy-timeline compaction bound (halved by keeping every 2nd
 *  sample whenever the recording scratch exceeds it). */
inline constexpr size_t kMaxOccupancyPhases = 128;

/** Per-key duration-sequence bound: recordings past this many keep
 *  the profile but stop appending (the stored prefix already covers
 *  the key's context distribution; archives stay bounded). */
inline constexpr size_t kMaxRecordedDurations = 1024;

/** Snapshot walk over an occupancy timeline. */
template <class Ar>
void
transfer(Ar& ar, ArchiveRef<Ar, std::vector<OccupancyPhase>> occupancy)
{
    ar.seq(occupancy, [&](auto& o) {
        ar.io(o.offset);
        ar.io(o.ctas_left);
    });
}

/** Snapshot walk over one profile (field order is the contract; also
 *  embedded per resident launch in engine snapshots, so a snapshot
 *  taken mid-replayed-kernel round-trips). */
template <class Ar>
void
transfer(Ar& ar, ArchiveRef<Ar, KernelTimingProfile> p)
{
    ar.io(p.cycles);
    ar.io(p.instructions);
    ar.io(p.hmma_instructions);
    transfer(ar, p.mem);
    transfer(ar, p.stalls);
    transfer(ar, p.macro_latency);
    transfer(ar, p.occupancy);
}

/**
 * The cache: fingerprint -> profile.  Counter fields (instructions,
 * HMMA, mem, stalls, occupancy) keep the first recording — they are
 * shape-deterministic, so every recording of a key agrees on them.
 * The *duration* is served from the key's recorded duration sequence:
 * one fingerprint covers launches whose contention context varies (a
 * continuous-batching trace overlaps the same layer kernel at
 * different phases), so recording keeps every execution's duration in
 * order and the engine hands the i-th hit of a key the i-th recorded
 * duration (cycling past the end).  Replaying a trace over a cache
 * recorded from that same trace therefore hands every launch its own
 * recorded duration — end-to-end serving percentiles reproduce almost
 * exactly — while a different trace samples the recorded empirical
 * distribution instead of collapsing it to one value.  Recording
 * order matters to the sequence, which is why deterministic runs give
 * every scenario / sweep point its own copy of the cache.  Copyable;
 * all entry points are internally locked.
 */
class ReplayCache
{
  public:
    ReplayCache() = default;
    ReplayCache(const ReplayCache& other);
    ReplayCache& operator=(const ReplayCache& other);

    /** Copy the profile for @p key into @p out, with cycles set to
     *  the (@p seq mod recorded-count)-th recorded duration — the
     *  engine passes its per-run, per-key hit counter so a replayed
     *  trace walks the recorded sequence in order.  False on miss. */
    bool lookup(const std::string& key, uint64_t seq,
                KernelTimingProfile* out) const;

    /** Fold @p profile into @p key's entry: the first recording keeps
     *  the whole profile, and the duration lands in sequence slot
     *  @p seq — the per-run occurrence index the engine assigned at
     *  promotion.  Slot-indexed (rather than appended) because
     *  launches can retire out of promotion order, and lookup walks
     *  slots in promotion order.  Slots past kMaxRecordedDurations
     *  are dropped. */
    void record(const std::string& key, uint64_t seq,
                KernelTimingProfile profile);

    size_t size() const;
    std::vector<std::string> keys() const;

    /** Whole-cache byte archive ("TCRP" magic + version + entries). */
    std::vector<uint8_t> serialize() const;
    /** Merge every entry of @p data into this cache (first writer
     *  wins).  Throws SnapshotError on a corrupt archive, before
     *  anything is merged. */
    void deserialize(const std::vector<uint8_t>& data);

    /** Write the archive to @p path (atomic-ish: best effort).  False
     *  on I/O failure. */
    bool save_file(const std::string& path) const;
    /** Merge one archive file.  False when the file cannot be read;
     *  throws SnapshotError on a corrupt archive. */
    bool load_file(const std::string& path);
    /** Merge every *.rpc file under @p dir (sorted name order).
     *  Returns the number of files merged; 0 for a missing dir. */
    size_t load_dir(const std::string& dir);

  private:
    /** One slot: the first-recorded profile plus every recorded
     *  duration in recording order; lookup serves
     *  durations[seq % durations.size()]. */
    struct Entry
    {
        KernelTimingProfile profile;
        std::vector<uint64_t> durations;
    };

    /** The archive walk: magic, version, then every entry in key
     *  order. */
    template <class Ar>
    static void transfer(Ar& ar,
                         ArchiveRef<Ar, std::map<std::string, Entry>> entries);

    mutable std::mutex mu_;
    std::map<std::string, Entry> profiles_;
};

}  // namespace tcsim
