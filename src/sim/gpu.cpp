#include "sim/gpu.h"

#include <cstring>
#include <map>
#include <stdexcept>

#include "common/logging.h"

namespace tcsim {

Gpu::Gpu(GpuConfig cfg, SimOptions opts)
    : cfg_(std::move(cfg)), opts_(opts),
      mem_(std::make_unique<MemorySystem>(cfg_)),
      engine_(cfg_, opts_, mem_.get(), &executors_)
{
    // Host callbacks may create streams and enqueue onto them
    // mid-run; the engine re-fetches the live stream set through this
    // hook so that work joins the run instead of being dropped.
    engine_.set_stream_source(
        [this]() -> const std::vector<Stream*>& { return stream_list_; });
}

Gpu::Gpu(GpuConfig cfg, SimOptions opts, const FaultSpec& faults)
    : Gpu(std::move(cfg), opts)
{
    if (!faults.enabled)
        return;
    fault_plan_ = std::make_unique<FaultPlan>(faults, cfg_);
    engine_.set_fault_plan(fault_plan_.get());
    mem_->set_fault_plan(fault_plan_.get());
}

Gpu::~Gpu() = default;

Stream&
Gpu::create_stream()
{
    streams_.push_back(
        std::make_unique<Stream>(static_cast<int>(streams_.size()) + 1));
    stream_list_.push_back(streams_.back().get());
    return *streams_.back();
}

Stream&
Gpu::default_stream()
{
    if (!default_stream_) {
        default_stream_ = std::make_unique<Stream>(0);
        stream_list_.insert(stream_list_.begin(), default_stream_.get());
    }
    return *default_stream_;
}

Event&
Gpu::create_event(std::string name)
{
    int id = static_cast<int>(events_.size());
    if (name.empty())
        name = "event" + std::to_string(id);
    events_.push_back(std::make_unique<Event>(id, std::move(name)));
    return *events_.back();
}

Stream&
Gpu::stream_by_id(int id)
{
    if (id == 0)
        return default_stream();
    if (id < 1 || static_cast<size_t>(id) > streams_.size())
        throw std::out_of_range("no stream with id " + std::to_string(id));
    return *streams_[static_cast<size_t>(id) - 1];
}

Event*
Gpu::find_event(const std::string& name)
{
    for (auto& ev : events_)
        if (ev->name() == name)
            return ev.get();
    return nullptr;
}

EngineStats
Gpu::run()
{
    return engine_.run(stream_list_);
}

EngineStats
Gpu::run_and_take_stats()
{
    return engine_.run_and_take_stats(stream_list_);
}

RunProgress
Gpu::run_until(uint64_t cycle)
{
    return engine_.run_until(stream_list_, cycle);
}

RunProgress
Gpu::synchronize(const Stream& stream)
{
    return engine_.synchronize(stream_list_, stream);
}

RunProgress
Gpu::synchronize(const Event& event)
{
    return engine_.synchronize(stream_list_, event);
}

template <class Ar>
void
Gpu::transfer(Ar& ar, ArchiveRef<Ar, Gpu> self, KernelTable<Ar> kernels)
{
    MemorySystem::transfer(ar, *self.mem_);

    // Events first: stream ops and the engine reference them.
    // Reconcile by id — ids are dense creation indices on both sides.
    ar.tag(kTagEvents);
    uint64_t nevents = self.events_.size();
    ar.count(nevents);
    for (size_t i = 0; i < nevents; ++i) {
        int id = static_cast<int>(i);
        std::string name;
        if constexpr (!Ar::kLoading) {
            id = self.events_[i]->id_;
            name = self.events_[i]->name_;
        }
        ar.io(id);
        ar.check(id == static_cast<int>(i), "event table not in id order");
        ar.io(name);
        if constexpr (Ar::kLoading)
            if (self.events_.size() <= i)
                self.events_.push_back(
                    std::make_unique<Event>(id, std::move(name)));
        Event& ev = *self.events_[i];
        ar.io(ev.recorded_);
        ar.io(ev.complete_);
        ar.io(ev.cycle_);
    }
    if constexpr (Ar::kLoading) {
        // Events this Gpu created beyond the snapshot: reset.
        for (size_t i = nevents; i < self.events_.size(); ++i) {
            self.events_[i]->recorded_ = false;
            self.events_[i]->complete_ = false;
            self.events_[i]->cycle_ = 0;
        }
    }

    // Stream queues, recreated by id on load (ids are dense: default
    // 0, created 1..).  Launch descriptors go to the kernel side
    // table; records/waits reference events by id.  Host callbacks
    // cannot be captured — refuse rather than silently drop them.
    // Loading refills the queues directly: record()/wait() would
    // clobber the event state restored above.
    ar.tag(kTagStreams);
    bool has_default = self.default_stream_ != nullptr;
    ar.io(has_default);
    uint64_t nstreams = self.streams_.size();
    ar.count(nstreams);
    if constexpr (Ar::kLoading) {
        if (has_default)
            self.default_stream();
        while (self.streams_.size() < nstreams)
            self.create_stream();
        if (self.default_stream_)
            self.default_stream_->ops_.clear();
        for (auto& s : self.streams_)
            s->ops_.clear();
    }
    auto transfer_event = [&](auto& ev, const char* what) {
        int id = ev ? ev->id_ : -1;
        ar.index(id, self.events_.size(), what);
        if constexpr (Ar::kLoading)
            ev = self.events_[static_cast<size_t>(id)].get();
    };
    auto transfer_stream = [&](Stream& s) {
        int id = s.id_;
        ar.io(id);
        ar.check(id == s.id_, "stream id table mismatch");
        ar.seq(s.ops_, [&](auto& op) {
            if (op.kind == Stream::OpKind::kCallback)
                throw SnapshotError(
                    "stream " + std::to_string(s.id_) +
                    " holds a queued host callback; callbacks are not "
                    "serializable");
            ar.enumerated(op.kind, Stream::OpKind::kWaitEvent);
            switch (op.kind) {
              case Stream::OpKind::kLaunch:
                transfer_kernel(ar, op.kernel, kernels);
                break;
              case Stream::OpKind::kRecordEvent:
                transfer_event(op.record, "record event id out of range");
                break;
              case Stream::OpKind::kWaitEvent:
                transfer_event(op.wait, "wait event id out of range");
                break;
              case Stream::OpKind::kCallback:
                break;  // Refused above; out of range when loading.
            }
        });
    };
    if (has_default)
        transfer_stream(*self.default_stream_);
    for (size_t i = 0; i < nstreams; ++i)
        transfer_stream(*self.streams_[i]);

    ExecutionEngine::transfer(ar, self.engine_, kernels, self.stream_list_);
    ar.tag(kTagEnd);
}

Snapshot
Gpu::snapshot() const
{
    if (!engine_.active())
        throw SnapshotError(
            "snapshot requires an active run paused between ticks "
            "(advance with run_until() first)");
    if (faults_enabled())
        throw SnapshotError(
            "snapshot cannot capture fault-injection state (rule budgets, "
            "hung and held launches); run faulty scenarios without forks");

    Snapshot snap;
    snap.config_hash = hash_config(cfg_);
    snap.scheduler = static_cast<int>(opts_.scheduler);

    // Copy-on-write global-memory image: forks share these bytes.
    auto data = std::make_shared<std::vector<uint8_t>>();
    uint64_t next = 0;
    mem_->global().save_state(&next, data.get());
    snap.gmem_data = std::move(data);
    snap.gmem_next = next;

    SnapshotWriter w;
    transfer(w, *this, snap.kernels);
    snap.archive = w.take();
    return snap;
}

void
Gpu::restore(const Snapshot& snap)
{
    if (!snap.valid())
        throw SnapshotError("invalid (empty) snapshot");
    if (snap.version != kSnapshotVersion)
        throw SnapshotError("format version mismatch (snapshot v" +
                            std::to_string(snap.version) + ", this build v" +
                            std::to_string(kSnapshotVersion) + ")");
    if (snap.config_hash != hash_config(cfg_))
        throw SnapshotError(
            "GpuConfig mismatch: snapshots only restore onto an "
            "identically configured GPU");
    if (snap.scheduler != static_cast<int>(opts_.scheduler))
        throw SnapshotError(
            "scheduler policy mismatch (baked into sub-cores at "
            "construction)");

    mem_->global().load_state(snap.gmem_next, *snap.gmem_data);
    SnapshotReader r(snap.archive);
    transfer(r, *this, snap.kernels);
    if (!r.done())
        throw SnapshotError("trailing bytes after the end tag");
}

void
Gpu::launch_graph(const TaskGraph::Compiled& plan,
                  std::vector<KernelDesc> kernels)
{
    if (kernels.size() != plan.stream_of.size())
        throw std::invalid_argument(
            "launch_graph: " + std::to_string(kernels.size()) +
            " kernels for " + std::to_string(plan.stream_of.size()) +
            " tasks");

    std::vector<Stream*> streams;
    streams.reserve(static_cast<size_t>(plan.num_streams));
    for (int s = 0; s < plan.num_streams; ++s)
        streams.push_back(&create_stream());

    // Graph-local event table: compiled names may shadow pre-existing
    // events on this Gpu, so waits resolve against the events created
    // here, never through find_event().
    std::map<std::string, Event*> events;
    for (size_t t = 0; t < kernels.size(); ++t) {
        Stream& s = *streams[static_cast<size_t>(plan.stream_of[t] - 1)];
        for (const std::string& w : plan.wait_events[t])
            s.wait(*events.at(w));
        s.enqueue(std::move(kernels[t]));
        if (!plan.record_event[t].empty()) {
            Event& ev = create_event(plan.record_event[t]);
            events[plan.record_event[t]] = &ev;
            s.record(ev);
        }
    }
}

LaunchStats
Gpu::launch(const KernelDesc& kernel)
{
    // Isolated single-kernel run on a private stream and engine: fresh
    // SM and cache timing state, exactly the legacy lock-step
    // semantics.  A paused resumable run shares the memory system, so
    // interleaving launch() with it would corrupt the run's timing.
    if (engine_.active())
        throw std::runtime_error(
            "Gpu::launch() called while a resumable run is paused; finish "
            "it with run()/synchronize() first");
    Stream solo(/*id=*/0);
    solo.enqueue(kernel);
    ExecutionEngine engine(cfg_, opts_, mem_.get(), &executors_);
    EngineStats es = engine.run({&solo});
    TCSIM_CHECK(es.kernels.size() == 1);
    LaunchStats stats = std::move(es.kernels.front());
    // Single-kernel run: the chip-wide stall attribution is the
    // kernel's own.
    stats.stalls = es.stalls;
    return stats;
}

}  // namespace tcsim
