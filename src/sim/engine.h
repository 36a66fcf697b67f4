#pragma once
/**
 * @file
 * Stream-aware multi-kernel execution engine.
 *
 * Streams hold ordered operation queues (launches, event records,
 * event waits, host callbacks), a chip-level dispatcher assigns CTAs
 * from all resident grids to SMs (concurrent kernel execution when
 * occupancy allows), and the main loop is event-driven — idle SMs are
 * not ticked, and when every SM is provably stalled the clock jumps to
 * the next writeback / MIO / execution-unit event.  Pending memory
 * transactions fold into that jump target: in-flight completions are
 * registered writebacks, and a head transaction refused by the memory
 * system (MSHR/NoC/DRAM back-pressure) contributes its exact retry
 * cycle, so cycle-jumping stays bit-identical to a lockstep run even
 * when the only outstanding work is in the memory hierarchy
 * (SimOptions::idle_skip).
 *
 * The engine is a persistent object (Gpu owns one): per-run state
 * lives in an explicit RunState, so a run can be advanced
 * incrementally — run_until() pauses at a cycle bound, synchronize()
 * drains one stream or waits for one event — and resumed later, with
 * new work enqueued between advances.  A run begins when any advance
 * entry point finds queued work and no active run, and ends when every
 * stream has drained; memory timing (caches, DRAM queues) persists
 * across launches within one run and resets at run boundaries.
 * Gpu::launch() wraps a single-kernel run on a private engine and so
 * keeps the old cold-cache per-launch semantics.
 *
 * Dependency gating: a launch queued behind a Stream::wait() is not
 * promotable until the awaited event has been recorded and the
 * recording stream's earlier work has retired.  When no stream can
 * make progress and the chip is idle, the engine throws
 * EngineDeadlockError with the cycle-accurate wait graph.
 *
 * Parallel simulation core (SimOptions::sim_threads): each tick is a
 * three-phase transaction — the global MIO heads drain through the
 * shared memory hierarchy on the engine thread in SM-index order
 * (phase A), the SM-local work (shared-memory pipe, writebacks,
 * issue) shards across a persistent worker pool with a fixed
 * SM-to-worker assignment (phase B, staging functional global-memory
 * accesses and grid completions into per-SM buffers and writing
 * statistics to per-SM shards), and the
 * staged side effects commit on the engine thread in SM-index order
 * (phase C).  Results are bit-identical for every thread count; see
 * README "Performance" for the determinism argument.
 *
 * Launch lifecycle.  A promoted launch is resident, either dispatching
 * (its CTAs run on SMs) or replaying (a replay-cache hit: no CTA runs,
 * and the grid drains by the clock at replay_done).  After phase C,
 * one pass over the resident launches, in residency order, moves each
 * one along:
 *
 *   queued ─promote─┬─▶ dispatching ─┬─drain─▶ drained ─────────▶ retired
 *                   └─▶ replaying ───┘           │                  ▲
 *                                                ├─slowdown─▶ held ─┘
 *                                                │   (until fault_release)
 *                                                └─hang─────▶ hung
 *                                                    (until kill_stream)
 *
 * The state is derived from the launch's fields, never stored, so a
 * snapshot carries it for free (fault holds excepted: Gpu::snapshot()
 * refuses an enabled fault plan).  Drain is where a recording launch's
 * profile is taken, so the profile holds the natural duration and a
 * slowdown hold applies on top of it, whether the launch ran in detail
 * or was replayed; a hung launch never signals completion and records
 * nothing.  Retirement stamps the statistics entry and frees the
 * stream.  The pass also yields the earliest replay completion or hold
 * release, which next_scheduled_event() merges with the busy SMs' next
 * events: the idle-skip target and the source of the dead-chip
 * diagnostics.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include <chrono>

#include "arch/gpu_config.h"
#include "common/stats.h"
#include "sim/core/scheduler.h"
#include "sim/core/sm.h"
#include "sim/core/stall.h"
#include "sim/event.h"
#include "sim/grid_run.h"
#include "sim/kernel_desc.h"
#include "sim/mem/memory_system.h"
#include "sim/replay/replay_cache.h"
#include "sim/snapshot.h"
#include "sim/stream.h"
#include "sim/worker_pool.h"

namespace tcsim {

class FaultPlan;

/** Result of one kernel launch. */
struct LaunchStats
{
    std::string kernel;
    /** Stream the launch ran on. */
    int stream = 0;
    /** Engine cycle window the launch occupied. */
    uint64_t start_cycle = 0;
    uint64_t finish_cycle = 0;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t hmma_instructions = 0;
    /** Instructions per cycle over the launch's own cycle window. */
    double ipc = 0.0;
    /** Memory traffic during the launch's window (shared with any
     *  concurrently resident kernels). */
    MemStats mem;
    /** Latency distributions per WMMA macro class (Figs 15/16). */
    std::map<MacroClass, Histogram> macro_latency;
    /** Issue-stall cycles attributed to this kernel's warps (the warp
     *  blocking a sub-core scheduler belonged to this launch), indexed
     *  by SubCore::StallReason.  Gpu::launch() overwrites this with
     *  the chip-wide attribution (legacy single-kernel semantics). */
    StallCounts stalls;

    /** Achieved TFLOPS for a GEMM of the given FLOP count. */
    double tflops(double flops, double clock_ghz) const
    {
        if (cycles == 0)
            return 0.0;
        double seconds = static_cast<double>(cycles) / (clock_ghz * 1e9);
        return flops / seconds / 1e12;
    }
};

/** Aggregate statistics of one engine run (or, for a paused run, its
 *  progress so far: see ExecutionEngine::stats()). */
struct EngineStats
{
    /** Cycle the last retired kernel drained, plus one (total length
     *  of the completed work; 0 when nothing retired yet). */
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t hmma_instructions = 0;
    /** Chip-wide instructions per cycle over the whole run. */
    double ipc = 0.0;
    /** Aggregate memory traffic of the run. */
    MemStats mem;
    /** Per-kernel statistics, in completion order. */
    std::vector<LaunchStats> kernels;
    /** Issue-stall attribution summed over all SMs, indexed by
     *  SubCore::StallReason. */
    StallCounts stalls;

    /** Event-driven loop telemetry: ticks actually simulated and
     *  cycles skipped because every SM was provably stalled. */
    uint64_t ticks = 0;
    uint64_t skipped_cycles = 0;

    /** Replay-cache telemetry (SimOptions::replay_mode): launches
     *  completed from a recorded profile, and launches simulated in
     *  detail because no profile matched (these record one). */
    uint64_t replay_hits = 0;
    uint64_t replay_misses = 0;

    /** Engine clock when this result was produced.  For a paused run
     *  (run_until/synchronize) this is the next cycle the engine will
     *  simulate on resume. */
    uint64_t current_cycle = 0;

    double tflops(double flops, double clock_ghz) const
    {
        if (cycles == 0)
            return 0.0;
        double seconds = static_cast<double>(cycles) / (clock_ghz * 1e9);
        return flops / seconds / 1e12;
    }
};

/** Where a bounded advance (run_until/synchronize) left the run.  O(1)
 *  to produce, unlike EngineStats: ExecutionEngine::stats() builds the
 *  full statistics only when asked. */
struct RunProgress
{
    /** Engine clock: the next cycle a paused run simulates on resume,
     *  or the clock a drained run ended at (0 when no run began). */
    uint64_t current_cycle = 0;
    /** Kernels the run has retired so far. */
    uint64_t kernels_retired = 0;
    /** The run is paused and resumable (false once it drained). */
    bool active = false;
};

/** Options controlling one simulation run. */
struct SimOptions
{
    SchedulerPolicy scheduler = SchedulerPolicy::kGto;
    /** Stop runaway simulations after this many cycles (the engine
     *  throws SimHangError with a diagnostic dump when exceeded). */
    uint64_t max_cycles = 2'000'000'000;
    /**
     * Wall-clock watchdog (0 = off): a run that simulates longer than
     * this many milliseconds of host time throws SimHangError with
     * the same diagnostic dump.  Containment only — the check runs
     * every 4096 ticks and never influences simulated timing, so
     * enabling it cannot perturb a healthy run's results.
     */
    uint64_t wall_budget_ms = 0;
    /**
     * Jump the clock over provably stalled cycles (the event-driven
     * fast path).  The jump target folds in every pending memory
     * completion and blocked-transaction retry cycle, so results are
     * bit-identical either way; disabling it ticks every cycle and
     * exists to prove exactly that (see tests/engine_mem_test.cpp).
     */
    bool idle_skip = true;
    /**
     * Worker threads for the engine's parallel tick phase, including
     * the engine thread itself (1 = fully serial, 0 = one per
     * hardware thread; the pool never exceeds the chip's SM count).
     * Results are bit-identical for every value: each tick shards the
     * SMs across the pool for the compute phase only, while every
     * interaction with shared state (global MIO drains through the
     * memory hierarchy, staged functional-memory commits, CTA
     * dispatch and retirement) runs on the engine thread in canonical
     * SM-index order.  See README "Performance".
     */
    int sim_threads = 1;
    /**
     * Floor on the SM-array size (0 = size purely from pending CTAs).
     * The engine normally constructs only as many SMs as pending CTAs
     * could occupy; because idle SMs still record scheduler stalls
     * while dispatch is pending, the array size is
     * timing-observable.  Sweep forks set the same floor on the forked
     * base and on every cold rerun so all of them see identical SM
     * arrays.  Clamped to GpuConfig::num_sms.
     */
    int min_sms = 0;
    /** Kernel-timing replay cache mode (see sim/replay/). */
    enum class ReplayMode {
        kOff,     ///< Always simulate in detail (the default).
        kRecord,  ///< Detail everything; record profiles into the cache.
        kReplay,  ///< Replay fingerprint hits; detail + record misses.
    };
    /**
     * Memoize detailed kernel executions and replay fingerprint-
     * matching launches as coarse timeline events: completion is
     * scheduled from the recorded duration, statistics apply as
     * recorded deltas, and stream/event/task-graph ordering is
     * untouched.  Launches with an empty KernelDesc::timing_key or
     * with functional=true (replay would skip their data movement)
     * always run in detail.
     */
    ReplayMode replay_mode = ReplayMode::kOff;
    /**
     * Cache to consult and fill (borrowed; must outlive the engine).
     * Null with replay enabled = the engine lazily owns a private
     * cache, scoped to its lifetime.  Sharing one cache across
     * scenarios makes results depend on run order — deterministic
     * drivers give each scenario its own seeded copy.
     */
    ReplayCache* replay_cache = nullptr;
};

/** Thrown when no stream can make progress: every unfinished stream
 *  is blocked on an event that will never complete.  The message is
 *  the cycle-accurate wait graph. */
class EngineDeadlockError : public std::runtime_error
{
  public:
    explicit EngineDeadlockError(const std::string& what)
        : std::runtime_error(what)
    {
    }
};

/**
 * The persistent execution engine: owns the per-run SM timing state
 * (inside RunState) and drains stream operation queues.  Functional
 * memory and the executor cache live outside and persist across runs.
 */
class ExecutionEngine
{
  public:
    ExecutionEngine(const GpuConfig& cfg, const SimOptions& opts,
                    MemorySystem* mem, ExecutorCache* executors);
    ~ExecutionEngine();

    ExecutionEngine(const ExecutionEngine&) = delete;
    ExecutionEngine& operator=(const ExecutionEngine&) = delete;

    /** Run every queued operation of @p streams to completion
     *  (resumes the active run first when one is paused). */
    EngineStats run(const std::vector<Stream*>& streams);

    /** run(), but the statistics move out instead of being copied, so
     *  stats() and progress() read empty afterwards. */
    EngineStats run_and_take_stats(const std::vector<Stream*>& streams);

    /** Advance the active (or newly begun) run while the engine clock
     *  is <= @p cycle.  Returns where the run stands (stats() has the
     *  full statistics).  Unlike run(), a bounded advance does not
     *  treat blocked waits as fatal: when only host action can unblock
     *  the run (an event nobody has recorded yet), it pauses early
     *  instead of throwing, so the host may record/enqueue and resume. */
    RunProgress run_until(const std::vector<Stream*>& streams,
                          uint64_t cycle);

    /** Advance until @p stream has no queued ops and no live launch. */
    RunProgress synchronize(const std::vector<Stream*>& streams,
                            const Stream& stream);

    /** Advance until @p event completes.  Throws EngineDeadlockError
     *  when every stream drains without the event ever completing. */
    RunProgress synchronize(const std::vector<Stream*>& streams,
                            const Event& event);

    /** Statistics built on demand: the active run's progress so far,
     *  else the final statistics of the last run that drained (empty
     *  when none has).  O(kernels retired). */
    EngineStats stats() const;

    /** A run has begun and not yet drained (paused, resumable). */
    bool active() const { return run_ != nullptr; }

    /** Engine clock of the active run (0 when idle). */
    uint64_t now() const;

    /**
     * Jump the paused run's clock forward to @p cycle without
     * simulating the gap (host-controlled idle skip).  Requires an
     * active run whose chip is completely idle — no resident kernels
     * and no stream with a runnable front op (only host-resolvable
     * event waits may remain); throws std::runtime_error otherwise.
     * The gap is accounted as skipped_cycles, exactly like the
     * engine's own idle-skip.  A @p cycle at or before the current
     * clock is a no-op.  This is the serving simulator's tool for
     * fast-forwarding across request inter-arrival gaps while a
     * keepalive wait holds the run open.
     */
    void advance_idle_to(uint64_t cycle);

    /**
     * Snapshot walk over the active run.  Resident launches are
     * archived by their index in the kernel side table @p kernels.
     * Saving requires an active run paused between ticks
     * (run_until()) and throws SnapshotError otherwise.  Loading
     * discards any active run and rebuilds it; @p streams must
     * contain a stream for every id the archive references (Gpu
     * restores streams and events first).
     */
    template <class Ar>
    static void transfer(Ar& ar, ArchiveRef<Ar, ExecutionEngine> self,
                         KernelTable<Ar> kernels,
                         const std::vector<Stream*>& streams);

    /** Install a live stream-set provider (Gpu wires this to its
     *  stream list).  Consulted after host callbacks fire so work
     *  enqueued mid-run — even on streams created inside the callback
     *  — is validated, absorbed, and given a correctly sized SM
     *  array.  Without it the engine falls back to the stream vector
     *  passed to the last advance entry point. */
    void set_stream_source(
        std::function<const std::vector<Stream*>&()> source)
    {
        stream_source_ = std::move(source);
    }

    /** Install a fault-injection plan (borrowed; must outlive the
     *  engine).  Null = healthy chip.  Must be set before any run
     *  begins: SM warp caps apply at SM construction. */
    void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }

    /**
     * Abandon @p stream's work: drop its queued ops and evict its
     * resident launch without a statistics entry (the work is lost,
     * as on a real chip after killing a hung kernel).  The launch
     * must be quiescent — all CTAs drained, held only by a fault hang
     * or awaiting retirement; throws std::runtime_error while CTAs
     * are still executing.  This is the host-side containment tool
     * the serving simulator uses to kill a hung batch and retry its
     * requests elsewhere.  No-op for streams the run has not seen.
     */
    void kill_stream(Stream* stream);

    /** True when @p stream can be kill_stream()ed safely: it has no
     *  live launch, or its live launch has drained all CTAs (it may
     *  still be fault-hung — that is exactly the killable state).
     *  Streams the run has not seen are quiescent. */
    bool stream_quiescent(const Stream* stream) const;

  private:
    /** A resident launch's lifecycle state (see the file comment). */
    enum class LaunchState {
        kDispatching,  ///< CTAs pending or running on SMs.
        kReplaying,    ///< No CTAs; the grid drains at replay_done.
        kDrained,      ///< Every CTA done; retires this pass unless held.
        kHeld,         ///< Drained; a slowdown holds it to fault_release.
        kHung,         ///< Drained; an injected hang holds it for good.
    };

    /** Dispatching and replaying launches are still executing: they
     *  cannot be killed, and they keep a stream busy. */
    static bool executing(LaunchState s)
    {
        return s == LaunchState::kDispatching ||
               s == LaunchState::kReplaying;
    }

    /** One in-flight launch: the owned descriptor plus grid state. */
    struct Launch
    {
        KernelDesc desc;
        GridRun grid;
        MemStats mem_base;  ///< Memory counters at residency start.
        /** Index of the StreamRun this launch is live on. */
        size_t stream_run = 0;

        /** Replay cache (SimOptions::replay_mode).  record_key
         *  non-empty = this launch runs in detail and its profile is
         *  recorded at drain.  replay_profile non-null = a hit: no
         *  CTA ever dispatches and the grid completes at replay_done
         *  with the profile's statistics. */
        std::string record_key;
        /** Sequence slot assigned at promotion (per-run, per-key
         *  occurrence index); a recorded duration lands in this slot
         *  of the cache entry's duration sequence. */
        uint64_t record_seq = 0;
        std::unique_ptr<KernelTimingProfile> replay_profile;
        uint64_t replay_done = 0;
        /** Recording scratch: CTA-retirement samples, compacted to
         *  kMaxOccupancyPhases. */
        std::vector<OccupancyPhase> occupancy;

        /** Fault injection (FaultPlan, resolved at promotion).  A
         *  hung launch never retires: its grid drains normally but
         *  the completion is never signalled, so its stream stays
         *  blocked until kill_stream() or a watchdog contains it.  A
         *  slowed launch is held past its natural finish until
         *  fault_release (finish_cycle is stretched to match at
         *  retirement).  Not serialized: Gpu::snapshot() refuses an
         *  enabled fault plan. */
        bool fault_hung = false;
        double fault_slowdown = 1.0;
        uint64_t fault_release = 0;  ///< 0 = no hold set at drain.
        bool retired = false;        ///< Finalized this tick; erase.

        LaunchState state(uint64_t now) const
        {
            if (!grid.done())
                return replay_profile ? LaunchState::kReplaying
                                      : LaunchState::kDispatching;
            if (fault_hung)
                return LaunchState::kHung;
            return fault_release > now ? LaunchState::kHeld
                                       : LaunchState::kDrained;
        }
    };

    /** Per-stream progress: launches run strictly in stream order. */
    struct StreamRun
    {
        Stream* stream = nullptr;
        Launch* live = nullptr;  ///< Currently resident launch, if any.
    };

    /** Per-run state: everything that resets at a run boundary.  The
     *  split makes the engine itself persistent and runs resumable. */
    struct RunState
    {
        std::vector<std::unique_ptr<SM>> sms;
        /** In order of first sight (the promotion scan order). */
        std::vector<StreamRun> stream_runs;
        /** Index of each stream's StreamRun: O(1) membership and
         *  lookup however many streams the run has seen. */
        std::unordered_map<const Stream*, size_t> stream_index;
        /** StreamRun indices (ascending) of the streams promotion
         *  visits.  A stream whose queue runs empty is parked — dropped
         *  from here until an op is appended to it, which lists it in
         *  wakeups — so per-tick work follows the streams in use, not
         *  every stream the run has seen.  Every stream with queued ops
         *  is here or in wakeups. */
        std::vector<size_t> queued;
        /** Parked streams that have had ops appended since; merged into
         *  queued before anything reads it (wake_streams()). */
        std::vector<Stream*> wakeups;
        /** Resident launches in dispatch-priority (launch-id) order. */
        std::vector<std::unique_ptr<Launch>> resident;
        /** Indices (ascending) of SMs with work in flight: the only
         *  SMs a non-dispatch tick touches, so idle SMs on a large
         *  chip cost nothing — not even a busy() probe. */
        std::vector<int> busy_sms;
        int next_grid_id = 0;
        uint64_t now = 0;
        /** Wall-clock watchdog anchor (SimOptions::wall_budget_ms). */
        std::chrono::steady_clock::time_point wall_start;
        /** Accumulates ticks/skipped_cycles and retired kernels. */
        EngineStats stats;
        /** Replay warmth tracking: the timing_key of the most
         *  recently retired launch (empty for uncacheable kernels)
         *  and whether anything has retired at all.  Updated in
         *  residency order at retire — replayed launches update it
         *  too, so a replay run walks the same warmth sequence the
         *  detailed run recorded. */
        std::string last_finished_key;
        bool any_finished = false;
        /** Per-key hit counters: the i-th hit of a fingerprint is
         *  served the i-th recorded duration, so replaying a recorded
         *  trace walks the recorded sequence in order (serialized). */
        std::map<std::string, uint64_t> replay_seq;
        /** Counter deltas of retired *replayed* launches: the memory
         *  system and SMs never saw this traffic, so fill_totals
         *  folds these into the run totals. */
        MemStats replay_mem;
        StallCounts replay_stalls;
    };

    /** Validate queued launches, begin a run if none is active, and
     *  absorb streams/SMs added since the run began.  False when
     *  there is neither an active run nor queued work. */
    bool prepare(const std::vector<Stream*>& streams);

    /** Add StreamRuns for streams the run has not seen yet.  @p
     *  streams must include every stream the run has already seen (Gpu
     *  passes its whole stream set, growing at the back), so a set no
     *  larger than the seen one holds nothing new and costs O(1), and
     *  new streams at the back cost O(new). */
    void absorb_streams(const std::vector<Stream*>& streams);

    /** The active run's StreamRun of @p stream, or null if unseen. */
    StreamRun* find_stream_run(const Stream* stream) const;

    /** Merge woken streams into RunState::queued (StreamRun order). */
    void wake_streams();

    /** Stop visiting StreamRun @p idx, whose queue is empty, until an
     *  op is appended to its stream. */
    void park(size_t idx);

    /** Disarm the wakeups of every stream of the active run (the run
     *  is ending or being replaced). */
    void release_streams();

    /** Validate every queued launch and grow the SM array to cover
     *  the CTAs now pending (queued + resident).  Re-run whenever new
     *  work can have appeared: at every advance entry and after host
     *  callbacks fire. */
    void validate_and_size();

    /** Outcome of one engine tick. */
    enum class StepResult {
        kRunning,  ///< Progress made (or clock advanced); keep going.
        kDrained,  ///< Every stream drained: the run is complete.
        kBlocked,  ///< Chip idle, streams blocked on events only host
                   ///< action can complete; the clock did not advance.
    };

    /** One engine tick.  The idle-skip fold never jumps the clock past
     *  @p bound + 1: a bounded advance (run_until) is a promise that
     *  the host has a stimulus to deliver there, and a replayed-only
     *  chip — whose sole scheduled event can be an entire kernel
     *  duration away — would otherwise leap over it. */
    StepResult step(uint64_t bound);

    /** Process stream queues at @p now until a fixpoint: promote
     *  launches, complete records, satisfy waits, fire callbacks.
     *  True when any non-launch op was processed (the clock must not
     *  jump over newly unblocked work). */
    bool promote_streams(uint64_t now);

    bool dispatch_to(SM* sm);
    /** Replay fingerprint of @p k at the current warmth class, or
     *  empty when the launch is uncacheable (no timing_key, or
     *  functional: replay would skip its data movement). */
    std::string replay_key(const KernelDesc& k) const;
    /** Classify a freshly promoted launch against the replay cache:
     *  arm it for replay (hit) or record-at-drain (miss / record
     *  mode). */
    void classify_replay(Launch* l, uint64_t now);

    /** What the launch pass found: the earliest replay completion or
     *  hold release still ahead, whether anything retired, and what
     *  the dead-chip diagnostics need. */
    struct LaunchPass
    {
        uint64_t next_event = UINT64_MAX;
        bool retired = false;
        size_t hung = 0;
        const Launch* undispatched = nullptr;  ///< First with CTAs pending.
    };
    /** The one pass over the resident launches after phase C: sample
     *  recording launches' CTA completions, complete due replays,
     *  record profiles and set slowdown holds at drain, retire, and
     *  erase the retired. */
    LaunchPass advance_launches(uint64_t now);
    /** Append this tick's CTA-completion sample to @p l's occupancy
     *  scratch (record path of the profile timeline). */
    void sample_occupancy(Launch& l, uint64_t now);
    /** Record @p l's profile from its natural (drain) statistics. */
    void record_profile(Launch& l, const LaunchStats& ls);
    /** Retire @p l with its final statistics @p ls. */
    void retire(Launch& l, LaunchStats ls);
    /** Earliest cycle anything is scheduled to change: the busy SMs'
     *  cached next events and @p pass's launch events.  UINT64_MAX
     *  when nothing is scheduled. */
    uint64_t next_scheduled_event(const LaunchPass& pass) const;
    /** Nothing is scheduled: blocked when only host action can move
     *  the run (no resident launch, or all hung); a typed error for a
     *  fault-starved grid; otherwise an engine bug. */
    StepResult unscheduled(const LaunchPass& pass);
    /** Throw SimHangError past max_cycles or the wall budget. */
    void check_watchdogs() const;
    LaunchStats finalize(Launch& l) const;
    bool drained() const;
    /** Where the active run stands, else the last drained run's end. */
    RunProgress progress() const;
    /** Keep the drained run's final stats (stats()) and tear it down. */
    void finish();
    /** Fill the aggregate fields derived from retired kernels. */
    void fill_totals(EngineStats* out) const;
    /** Advance until @p done_fn() or the run drains.  When the run
     *  blocks on waits only the host can resolve, pause if @p
     *  pause_on_block, else throw EngineDeadlockError with the wait
     *  graph.  @p bound caps each tick's idle-skip jump (see step()). */
    template <typename DoneFn>
    RunProgress advance(DoneFn done, bool pause_on_block,
                        uint64_t bound = UINT64_MAX);
    [[noreturn]] void report_deadlock();
    /** Per-stream wait-graph lines of the current run (shared by the
     *  deadlock report and the hang dump). */
    std::string wait_graph_string() const;
    /** Watchdog diagnostic: @p reason plus busy-SM list, each
     *  resident launch's lifecycle state, and the event wait graph. */
    std::string hang_dump(const std::string& reason) const;

    const GpuConfig& cfg_;
    SimOptions opts_;
    MemorySystem* mem_;
    ExecutorCache* executors_;
    /** Fault-injection plan (borrowed from Gpu; null = healthy). */
    FaultPlan* fault_plan_ = nullptr;

    /** Replay cache in use (opts_.replay_cache, or the lazily owned
     *  private one when none was supplied); null when replay_mode is
     *  kOff. */
    ReplayCache* replay_cache_ = nullptr;
    std::unique_ptr<ReplayCache> owned_cache_;
    /** GpuConfig digest baked into every replay fingerprint. */
    uint64_t config_hash_ = 0;

    /** Resolved sim_threads (0 -> hardware concurrency). */
    int threads_ = 1;
    /** Worker pool for the parallel tick phase, min(threads_,
     *  num_sms) workers; created lazily on the first tick with enough
     *  cycled SMs to shard (so serial configs and single-SM chips
     *  never spawn threads). */
    std::unique_ptr<WorkerPool> pool_;
    /** Scratch: SMs cycled this tick, ascending SM-index order. */
    std::vector<SM*> cycled_;
    /** Scratch: grids retiring this tick (batched forget pass). */
    std::vector<const GridRun*> retiring_;
    /** Scratch: CTA completions this tick (replay recording; only
     *  collected when a replay cache is in use). */
    std::vector<GridRun*> completions_;

    std::unique_ptr<RunState> run_;
    /** Final statistics of the last run that drained (stats() while
     *  idle); released when the next run begins. */
    EngineStats last_stats_;
    /** Live stream list provider (see set_stream_source). */
    std::function<const std::vector<Stream*>&()> stream_source_;
    /** Streams passed at the last advance entry (callback fallback;
     *  kept only when no stream source is installed). */
    std::vector<Stream*> entry_streams_;
    /** A host callback ran during the last promote pass. */
    bool callbacks_fired_ = false;
};

}  // namespace tcsim
