#pragma once
/**
 * @file
 * Snapshot walks (sim/snapshot_io.h) for the statistics value types:
 * MemStats, StallCounts and the macro-latency histogram map (each
 * Histogram walks its own samples, common/stats.h).  The engine's run
 * archive and the replay-cache profile both embed these, so each
 * field list is written once, here.
 */

#include <map>

#include "common/stats.h"
#include "isa/instruction.h"
#include "sim/core/stall.h"
#include "sim/mem/memory_system.h"
#include "sim/snapshot_io.h"

namespace tcsim {

template <class Ar>
void
transfer(Ar& ar, ArchiveRef<Ar, StallCounts> s)
{
    for (auto& c : s.counts)
        ar.io(c);
}

template <class Ar>
void
transfer(Ar& ar, ArchiveRef<Ar, MemStats> m)
{
    ar.io(m.l1_hits);
    ar.io(m.l1_misses);
    ar.io(m.l2_hits);
    ar.io(m.l2_misses);
    ar.io(m.dram_bytes);
    ar.io(m.global_sectors);
    ar.io(m.mshr_merges);
    ar.io(m.noc_queue_cycles);
    ar.io(m.l2_queue_cycles);
    ar.io(m.dram_queue_cycles);
    ar.io(m.dram_turnarounds);
    ar.io(m.mshr_peak);
}

/** Per-class histograms, each with its samples in recorded order:
 *  percentiles sort copies, so the stored order is what merge order
 *  produced and must survive. */
template <class Ar>
void
transfer(Ar& ar, ArchiveRef<Ar, std::map<MacroClass, Histogram>> m)
{
    ar.map(m, [&](auto& mc, auto& h) {
        ar.template enumerated<int32_t>(mc, MacroClass::kWmmaStoreD);
        Histogram::transfer(ar, h);
    });
}

}  // namespace tcsim
