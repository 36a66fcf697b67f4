#pragma once
/**
 * @file
 * Runtime state of one resident grid (a kernel launch being executed
 * by the engine): the CTA dispenser, per-kernel statistics, and the
 * cycle window the launch occupied.  Shared between the chip-level
 * execution engine (which owns and dispatches grids) and the SM model
 * (which hosts their CTAs and attributes statistics).
 */

#include <cstdint>
#include <map>
#include <vector>

#include "common/stats.h"
#include "sim/core/stall.h"
#include "sim/kernel_desc.h"

namespace tcsim {

/**
 * One SM's slice of a grid's statistics.  During the engine's parallel
 * compute phase every SM writes only its own shard, so grids shared by
 * many SMs need no synchronization; the engine aggregates shards in
 * SM-index order, which makes the totals independent of how the SMs
 * were scheduled across worker threads.
 */
struct RunStatsShard
{
    uint64_t instructions = 0;
    uint64_t hmma_instructions = 0;
    /** Latency histograms of the WMMA macro classes (Figs 15/16). */
    std::map<MacroClass, Histogram> macro_latency;
    /** Issue-stall cycles attributed to this grid's warps (the warp
     *  that blocked the scheduler belonged to this grid). */
    StallCounts stalls;

    void record_macro(MacroClass mc, uint64_t latency)
    {
        macro_latency[mc].add(static_cast<double>(latency));
    }
};

/** Per-kernel collected statistics, sharded by SM. */
class RunStatsCollector
{
  public:
    /** Grow to at least @p n shards.  Engine thread only: called when
     *  the grid is promoted and whenever the SM array grows, never
     *  concurrently with the parallel tick phase. */
    void ensure_shards(size_t n)
    {
        if (shards_.size() < n)
            shards_.resize(n);
    }

    /** SM @p sm's private slice (the only shard that SM may write). */
    RunStatsShard& shard(int sm) { return shards_[static_cast<size_t>(sm)]; }

    /** Every shard (snapshot walks). */
    std::vector<RunStatsShard>& shards() { return shards_; }
    const std::vector<RunStatsShard>& shards() const { return shards_; }

    uint64_t instructions() const
    {
        uint64_t t = 0;
        for (const RunStatsShard& s : shards_)
            t += s.instructions;
        return t;
    }

    uint64_t hmma_instructions() const
    {
        uint64_t t = 0;
        for (const RunStatsShard& s : shards_)
            t += s.hmma_instructions;
        return t;
    }

    StallCounts stalls() const
    {
        StallCounts t;
        for (const RunStatsShard& s : shards_)
            t.add(s.stalls);
        return t;
    }

    /** Macro-latency histograms merged across shards in SM-index
     *  order (deterministic sample order). */
    std::map<MacroClass, Histogram> merged_macro_latency() const
    {
        std::map<MacroClass, Histogram> merged;
        for (const RunStatsShard& s : shards_)
            for (const auto& [mc, h] : s.macro_latency)
                merged[mc].merge(h);
        return merged;
    }

  private:
    std::vector<RunStatsShard> shards_;
};

/**
 * One resident grid: CTA dispenser plus per-kernel accounting.  Grids
 * from different streams may be resident simultaneously; CTAs of all
 * resident grids compete for SM resources (concurrent kernel
 * execution).
 */
struct GridRun
{
    const KernelDesc* kernel = nullptr;
    /** Engine-unique launch id (also the dispatch priority order). */
    int grid_id = 0;
    /** Stream this launch arrived on. */
    int stream_id = 0;

    int next_cta = 0;   ///< Next CTA id to dispatch.
    int ctas_done = 0;  ///< CTAs fully completed (all warps drained).

    /** Cycle the grid became resident (eligible for dispatch). */
    uint64_t start_cycle = 0;
    /** Cycle the last CTA drained (valid once done()). */
    uint64_t finish_cycle = 0;

    RunStatsCollector stats;

    bool pending() const { return next_cta < kernel->grid_ctas; }
    bool done() const { return ctas_done == kernel->grid_ctas; }
};

}  // namespace tcsim
