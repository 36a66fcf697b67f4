#pragma once
/**
 * @file
 * Persistent worker pool for the engine's parallel tick phase.
 *
 * The pool owns N-1 threads; the caller participates as worker 0, so
 * `WorkerPool(threads)` saturates exactly `threads` cores.  A batch
 * calls fn(t) once per worker index t, and the caller decides what
 * each index owns.  The engine gives worker t every cycled SM with
 * `id % threads == t`, so an SM (its warps, register files and
 * pipelines) stays on one core from tick to tick.  A batch costs one
 * handoff per tick rather than one atomic claim per SM.
 *
 * The handoff is two atomics, no mutex: the caller bumps an epoch to
 * start a batch and each worker decrements a countdown when it is
 * done.  Waiters (parked workers, and the caller once its own share
 * is done) first yield a fixed number of rounds — the gap between two
 * ticks is a few microseconds of serial engine work — and then park
 * on the atomic (std::atomic::wait).  Yielding rather than busy
 * spinning keeps an oversubscribed host (several pools, or a parallel
 * test run) from starving the threads that do the work.  On Linux each
 * pool thread starts on its own CPU (then may run anywhere): workers
 * that share a CPU take turns instead of running in parallel.
 *
 * for_each_worker() is a full barrier: it returns only after every
 * worker's call has completed, so the engine's serial phases before
 * and after it need no further synchronization.
 */

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace tcsim {

/** The host's hardware thread count, never less than 1 (the shared
 *  resolution for sim_threads=0 and batch thread budgets). */
inline int
hardware_threads()
{
    unsigned hc = std::thread::hardware_concurrency();
    return hc > 0 ? static_cast<int>(hc) : 1;
}

/** A fixed set of workers executing one call per worker per batch. */
class WorkerPool
{
  public:
    /** @p threads: total worker count including the calling thread
     *  (so `threads - 1` pool threads are spawned; 1 = no threads,
     *  for_each_worker degrades to a plain call). */
    explicit WorkerPool(int threads);
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    /** Run fn(t) for every worker index t in [0, threads()): index 0
     *  on the calling thread, index i > 0 always on pool thread i.
     *  Returns when every call has completed; an exception thrown by
     *  any call is rethrown here (the first by worker index). */
    void for_each_worker(const std::function<void(int)>& fn);

    /** Total worker count including the caller. */
    int threads() const { return static_cast<int>(threads_.size()) + 1; }

  private:
    void worker_main(int index);

    /** The current batch's function; written before epoch_ is bumped,
     *  read by workers after they observe the bump. */
    const std::function<void(int)>* fn_ = nullptr;
    /** Set (before a final epoch_ bump) to make the workers exit. */
    bool stop_ = false;
    /** Per-worker exception slot for the current batch. */
    std::vector<std::exception_ptr> errors_;
    /** Bumped per batch; parked workers wait for it to change. */
    std::atomic<uint32_t> epoch_{0};
    /** Pool threads still inside the current batch; the worker that
     *  takes it to zero wakes the caller. */
    std::atomic<int> running_{0};
    /** Declared last: the threads use every member above. */
    std::vector<std::thread> threads_;
};

}  // namespace tcsim
