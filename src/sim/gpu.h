#pragma once
/**
 * @file
 * Top-level GPU simulator: owns the functional memory, the stream and
 * event sets, and a persistent execution engine, and runs queued
 * kernel launches through the stream-aware engine, collecting the
 * statistics the paper's evaluation reports (cycles, IPC, WMMA
 * instruction latencies, memory traffic).
 *
 * Usage models (CUDA-runtime shaped):
 *  - Stream API: create_stream() / Stream::enqueue() / run() — kernels
 *    on different streams execute concurrently when SM occupancy
 *    allows; memory timing persists across launches within the run.
 *  - Events: create_event() + Stream::record()/wait() build dependency
 *    DAGs across streams; Event::elapsed_cycles() times sub-windows.
 *  - Task graphs: launch_graph() enqueues a TaskGraph::Compiled plan —
 *    the one path from a plan to streams, waits, launches and records
 *    (the scenario runner's declarative form calls it; serving
 *    enqueues each wavefront on one stream directly).
 *  - Incremental runs: run_until(cycle) pauses a run at a cycle bound,
 *    synchronize(stream|event) drains one stream or waits for one
 *    event; both return an O(1) RunProgress, and stats() builds the
 *    statistics on demand.  The paused run resumes — and accepts newly
 *    enqueued work — on the next run()/run_until()/synchronize() call.
 *  - launch(): single-kernel compatibility wrapper with the legacy
 *    semantics (cold caches, isolated timing), cycle-exact with the
 *    original lock-step simulator.
 */

#include <memory>
#include <string>
#include <vector>

#include "arch/gpu_config.h"
#include "sim/engine.h"
#include "sim/event.h"
#include "sim/fault/fault_plan.h"
#include "sim/graph/task_graph.h"
#include "sim/kernel_desc.h"
#include "sim/mem/memory_system.h"
#include "sim/snapshot.h"
#include "sim/stream.h"

namespace tcsim {

/** The simulated GPU. */
class Gpu
{
  public:
    explicit Gpu(GpuConfig cfg, SimOptions opts = {});
    /** With fault injection: @p faults compiles into a FaultPlan
     *  against @p cfg before any run begins (throws SimError on an
     *  unsatisfiable plan).  All faults are timing-only; see
     *  sim/fault/fault_plan.h. */
    Gpu(GpuConfig cfg, SimOptions opts, const FaultSpec& faults);
    ~Gpu();

    GpuConfig& config() { return cfg_; }
    const GpuConfig& config() const { return cfg_; }

    /** Device memory (persists across launches and runs). */
    GlobalMemory& mem() { return mem_->global(); }

    /** Create a new stream (an ordered operation queue).  Streams live
     *  as long as the Gpu and may be refilled between runs. */
    Stream& create_stream();

    /** The implicit stream 0 (created on first use).  Always distinct
     *  from streams returned by create_stream(). */
    Stream& default_stream();

    /** Create an event for Stream::record()/wait() dependency edges
     *  and sub-window timing.  Events live as long as the Gpu;
     *  @p name defaults to "event<id>". */
    Event& create_event(std::string name = "");

    /** The stream with dense id @p id (0 = the default stream, which
     *  this creates on first use like default_stream()).  Throws
     *  std::out_of_range when no such stream exists — ids are creation
     *  order, the scheme restore() reconciles by. */
    Stream& stream_by_id(int id);

    /** The first event named @p name, or nullptr.  Restored snapshots
     *  recreate events with their captured names, so forks look
     *  prefix-recorded events up by name. */
    Event* find_event(const std::string& name);

    /** Run every operation queued on every stream to completion:
     *  launches within a stream run back-to-back, launches on
     *  different streams overlap when occupancy allows, and waits
     *  gate work on recorded events.  Resumes a paused run first. */
    EngineStats run();

    /** run() for a Gpu about to be dropped: the statistics move out
     *  instead of being copied (a serving run's per-kernel statistics
     *  run to tens of MB), and stats() reads empty afterwards. */
    EngineStats run_and_take_stats();

    /** Advance the current run (beginning one if needed) while the
     *  engine clock is <= @p cycle, then pause.  Returns where the run
     *  stands in O(1); stats() builds the statistics.  Work may be
     *  enqueued between advances, and a bounded advance pauses early
     *  (instead of throwing) when the run blocks on an event only host
     *  action can record. */
    RunProgress run_until(uint64_t cycle);

    /** Advance until @p stream has no queued work and no live launch
     *  (cudaStreamSynchronize). */
    RunProgress synchronize(const Stream& stream);

    /** Advance until @p event completes (cudaEventSynchronize).
     *  Throws EngineDeadlockError when every stream drains without
     *  the event completing. */
    RunProgress synchronize(const Event& event);

    /** Statistics of the current run so far when one is paused, else
     *  the final statistics of the last run that drained (empty before
     *  any has).  Built on demand: O(kernels retired). */
    EngineStats stats() const { return engine_.stats(); }

    /** A paused, resumable run is in progress. */
    bool run_active() const { return engine_.active(); }

    /** Engine clock of the active run (0 when idle). */
    uint64_t current_cycle() const { return engine_.now(); }

    /** Jump the paused run's clock forward to @p cycle without
     *  simulating the gap.  Requires a run paused with the chip fully
     *  idle (only host-resolvable event waits outstanding); throws
     *  std::runtime_error otherwise.  See
     *  ExecutionEngine::advance_idle_to. */
    void advance_idle_to(uint64_t cycle)
    {
        engine_.advance_idle_to(cycle);
    }

    /** Abandon @p stream's queued and resident work without a
     *  statistics entry (host-side hung-batch containment; see
     *  ExecutionEngine::kill_stream). */
    void kill_stream(Stream& stream) { engine_.kill_stream(&stream); }

    /** True when @p stream can be kill_stream()ed safely (see
     *  ExecutionEngine::stream_quiescent). */
    bool stream_quiescent(const Stream& stream) const
    {
        return engine_.stream_quiescent(&stream);
    }

    /** Fault injection active on this Gpu. */
    bool faults_enabled() const
    {
        return fault_plan_ && fault_plan_->enabled();
    }

    /** Injected-fault telemetry (zeros when faults are off). */
    FaultCounters fault_counters() const
    {
        return fault_plan_ ? fault_plan_->counters() : FaultCounters{};
    }

    /**
     * Enqueue compiled @p plan, one kernel per task (kernels[t] is
     * task t's launch): fresh streams are created for the plan's
     * stream set, and in declaration order each task's stream waits on
     * its events, launches the kernel and records the task's event
     * (named as in the plan).  Nothing runs yet — follow with
     * run()/run_until() as usual.  Throws std::invalid_argument on a
     * kernel-count mismatch.
     */
    void launch_graph(const TaskGraph::Compiled& plan,
                      std::vector<KernelDesc> kernels);

    /** Run @p kernel alone to completion and return its statistics.
     *  Compatibility wrapper: cold caches, isolated timing — does not
     *  touch operations queued on this Gpu's streams. */
    LaunchStats launch(const KernelDesc& kernel);

    /**
     * Capture the complete simulation state of the active run: global
     * memory (copy-on-write), the timing hierarchy, events, stream
     * queues, and the engine's run state.  Requires a run paused
     * between ticks (pause with run_until()); a Gpu restored from the
     * result and advanced produces bit-identical statistics to this
     * Gpu advanced directly.  Queued host callbacks are not
     * serializable — snapshot() throws SnapshotError if any stream
     * holds one — and neither is fault-injection state (rule budgets,
     * hung and held launches), so it also throws when a fault plan is
     * enabled.
     */
    Snapshot snapshot() const;

    /**
     * Replace this Gpu's simulation state with @p snap.  The target
     * must have an identical GpuConfig and the same scheduler policy
     * (other SimOptions — sim_threads, idle_skip, bounds — may
     * differ).  Restoring onto a freshly constructed Gpu recreates
     * streams and events by id; restoring onto the capturing Gpu
     * rewinds it.  Throws SnapshotError on version, config, or
     * archive mismatches and on a corrupt archive.  If restore throws
     * after validation passed, the Gpu holds no active run and its
     * memory, events and streams are unspecified (do not resume).
     */
    void restore(const Snapshot& snap);

  private:
    /** The archive walk behind snapshot() and restore(): the timing
     *  hierarchy, events, stream queues and the engine's run. */
    template <class Ar>
    static void transfer(Ar& ar, ArchiveRef<Ar, Gpu> self,
                         KernelTable<Ar> kernels);

    GpuConfig cfg_;
    SimOptions opts_;
    /** Compiled fault plan (null = healthy chip).  Constructed before
     *  the engine so warp caps apply at SM construction. */
    std::unique_ptr<FaultPlan> fault_plan_;
    std::unique_ptr<MemorySystem> mem_;
    ExecutorCache executors_;
    /** The implicit stream (id 0), lazily created. */
    std::unique_ptr<Stream> default_stream_;
    /** Streams from create_stream(), ids 1.. */
    std::vector<std::unique_ptr<Stream>> streams_;
    /** All streams, default stream first (engine dispatch order). */
    std::vector<Stream*> stream_list_;
    /** Events from create_event(), stable addresses. */
    std::vector<std::unique_ptr<Event>> events_;
    /** The persistent engine: holds the active run's RunState. */
    ExecutionEngine engine_;
};

}  // namespace tcsim
