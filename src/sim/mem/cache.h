#pragma once
/**
 * @file
 * Sectored set-associative cache timing model (tag store only; data
 * is held functionally in GlobalMemory).  Used for both the per-SM L1
 * and the shared L2.
 *
 * Lines are 128 B with four 32-byte sectors; a miss on a cached line
 * with an absent sector fetches just that sector (sector-miss), as in
 * Volta's L1 (Khairy et al.).
 */

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "sim/snapshot_io.h"

namespace tcsim {

/** Outcome of a cache lookup. */
enum class CacheOutcome { kHit, kSectorMiss, kLineMiss };

/** Configuration of one cache instance. */
struct CacheConfig
{
    uint32_t size_bytes = 128 * 1024;
    int line_bytes = 128;
    int sector_bytes = 32;
    int assoc = 4;
    bool write_allocate = false;  ///< Streaming write-through when false.
};

/** Sectored set-associative tag store with LRU replacement. */
class Cache
{
  public:
    explicit Cache(const CacheConfig& cfg);

    /**
     * Access one sector (byte address anywhere within it).  Updates
     * tags/LRU and returns the outcome.  Write misses do not allocate
     * unless configured.
     */
    CacheOutcome access(uint64_t addr, bool is_write);

    /**
     * Outcome access() would return, with no side effects (no LRU
     * update, no counters, no fill).  The transaction path probes
     * before committing so a refused (back-pressured) access can be
     * retried without perturbing replacement state.
     */
    CacheOutcome probe(uint64_t addr, bool is_write) const;

    /** Invalidate all lines and reset the LRU clock and counters
     *  (engine-run boundary). */
    void flush();

    int num_sets() const { return num_sets_; }
    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

    /** Snapshot walk over the full tag store, LRU clock and counters
     *  (the geometry must match). */
    template <class Ar>
    static void transfer(Ar& ar, ArchiveRef<Ar, Cache> self);

  private:
    struct Line
    {
        uint64_t tag = ~uint64_t{0};
        uint64_t lru = 0;
        uint8_t sector_valid = 0;  ///< Bitmask over sectors.
        bool valid = false;
    };

    /** Decomposed address: the single source of the set/tag/sector
     *  math shared by access() and probe(). */
    struct Addr
    {
        int set;
        uint64_t tag;
        uint8_t sector_bit;
    };
    Addr decompose(uint64_t addr) const;
    /** Matching valid line in @p a's set, or nullptr. */
    const Line* find(const Addr& a) const;

    CacheConfig cfg_;
    int num_sets_;
    int sectors_per_line_;
    std::vector<Line> lines_;  // [set * assoc + way]
    uint64_t tick_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

}  // namespace tcsim
