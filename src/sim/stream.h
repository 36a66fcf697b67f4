#pragma once
/**
 * @file
 * CUDA-style stream: an ordered queue of operations — kernel launches,
 * event records, event waits, and host callbacks.  Launches within one
 * stream execute back-to-back in enqueue order; launches on different
 * streams may execute concurrently when SM occupancy allows, mirroring
 * `cudaStreamCreate` / kernel<<<...,stream>>> semantics.
 *
 * Synchronization ops give streams a dependency DAG:
 *  - record(Event&)   completes the event (cycle-stamped) once every
 *    earlier launch on this stream has retired (cudaEventRecord);
 *  - wait(Event&)     blocks all later work on this stream until the
 *    event completes (cudaStreamWaitEvent, cross-stream
 *    happens-before);
 *  - add_callback(fn) invokes a host-side hook, with the engine cycle,
 *    once every earlier launch has retired (cudaStreamAddCallback).
 */

#include <cstddef>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event.h"
#include "sim/kernel_desc.h"

namespace tcsim {

/** An ordered operation queue.  Created via Gpu::create_stream(). */
class Stream
{
  public:
    explicit Stream(int id) : id_(id) {}

    Stream(const Stream&) = delete;
    Stream& operator=(const Stream&) = delete;

    int id() const { return id_; }

    /** Append a kernel launch; it runs after all earlier work on this
     *  stream has completed (and after any preceding wait() is
     *  satisfied).  Taken by value and moved into the queue, so
     *  callers that move a descriptor pay no copy. */
    void enqueue(KernelDesc kernel)
    {
        Op& op = push();
        op.kind = OpKind::kLaunch;
        op.kernel = std::move(kernel);
    }

    /** Record @p event: it completes — and is stamped with the engine
     *  cycle — once every launch enqueued on this stream before this
     *  call has retired.  Re-recording resets the event; the last
     *  record processed wins. */
    void record(Event& event)
    {
        event.recorded_ = true;
        event.complete_ = false;
        Op& op = push();
        op.kind = OpKind::kRecordEvent;
        op.record = &event;
    }

    /** Block all work enqueued on this stream after this call until
     *  @p event completes.  Waiting on an event this same stream has
     *  already recorded is a no-op by construction. */
    void wait(const Event& event)
    {
        Op& op = push();
        op.kind = OpKind::kWaitEvent;
        op.wait = &event;
    }

    /** Host-side hook: @p fn(cycle) is invoked (from the engine loop)
     *  once every launch enqueued before this call has retired.  The
     *  callback may enqueue further work onto streams but must not
     *  re-enter Gpu::run()/run_until()/synchronize(). */
    void add_callback(std::function<void(uint64_t)> fn)
    {
        Op& op = push();
        op.kind = OpKind::kCallback;
        op.callback = std::move(fn);
    }

    /** Kernel launches not yet started by the engine. */
    size_t depth() const
    {
        size_t n = 0;
        for (const Op& op : ops_)
            n += op.kind == OpKind::kLaunch ? 1 : 0;
        return n;
    }

    /** No queued operations of any kind. */
    bool empty() const { return ops_.empty(); }

    /** Drop every queued operation (launches, records, waits,
     *  callbacks) so the stream can be rebuilt between runs.  Must not
     *  be called while an engine run is draining this stream. */
    void clear() { ops_.clear(); }

  private:
    friend class ExecutionEngine;
    friend class Gpu;  // Snapshot/restore of the op queue.

    enum class OpKind : uint8_t {
        kLaunch,
        kRecordEvent,
        kWaitEvent,
        kCallback,
    };

    /** One queued stream operation. */
    struct Op
    {
        OpKind kind = OpKind::kLaunch;
        KernelDesc kernel;             ///< kLaunch.
        Event* record = nullptr;       ///< kRecordEvent.
        const Event* wait = nullptr;   ///< kWaitEvent.
        std::function<void(uint64_t)> callback;  ///< kCallback.
    };

    /** Engine side: pop the next op (the engine keeps launches alive
     *  for the duration of their residency). */
    Op pop()
    {
        Op op = std::move(ops_.front());
        ops_.pop_front();
        return op;
    }

    /** Append a new op, waking the stream if a run has parked it. */
    Op& push()
    {
        if (wake_list_ != nullptr) {
            wake_list_->push_back(this);
            wake_list_ = nullptr;
        }
        return ops_.emplace_back();
    }

    int id_;
    std::deque<Op> ops_;
    /** Set while an engine run has parked this stream (its queue ran
     *  empty, so promotion stops visiting it): the next op appended
     *  adds the stream to this list, and the run visits it again. */
    std::vector<Stream*>* wake_list_ = nullptr;
};

}  // namespace tcsim
