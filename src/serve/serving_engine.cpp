#include "serve/serving_engine.h"

#include <algorithm>
#include <deque>
#include <map>
#include <utility>

#include "common/logging.h"
#include "kernels/kernel_registry.h"
#include "sim/gpu.h"

namespace tcsim::serve {

namespace {

class ServingLoop
{
  public:
    ServingLoop(const GpuConfig& cfg, const SimOptions& sim,
                const model::ModelGraph& graph,
                const std::vector<Request>& trace,
                const BatchingPolicy& policy,
                const std::vector<double>& extra_percentiles,
                const ServingResilience& res, const FaultSpec& faults)
        : cfg_(cfg), sim_(sim), graph_(graph), trace_(trace),
          extra_percentiles_(extra_percentiles), res_(res),
          gpu_(cfg, sim, faults)
    {
        // Load shedding is admission control, so it lives in the
        // policy: wrap the user's policy when a depth cap is set.
        if (res_.shed_queue_depth > 0) {
            shedder_ = std::make_unique<LoadSheddingPolicy>(
                policy, res_.shed_queue_depth);
            policy_ = shedder_.get();
        } else {
            policy_ = &policy;
        }
    }

    ServingResult run();

  private:
    BatchingState state() const;
    void ingest_due(uint64_t now);
    void try_admit(uint64_t now);
    void launch_wavefront(std::vector<int> reqs, uint64_t now);
    KernelDesc make_desc(const model::LoweredKernel& lk);
    void on_wavefront_done(int wid, uint64_t cycle);
    void kill_due_wavefronts(uint64_t now);
    int finished() const { return completed_ + shed_count_ + dropped_; }
    std::string loop_state_string(uint64_t now) const;
    void finalize(ServingResult* out);

    const GpuConfig& cfg_;
    const SimOptions& sim_;
    const model::ModelGraph& graph_;
    const std::vector<Request>& trace_;
    const std::vector<double>& extra_percentiles_;
    const ServingResilience res_;
    /** Set when shedding is on (policy_ then points at it). */
    std::unique_ptr<LoadSheddingPolicy> shedder_;
    const BatchingPolicy* policy_ = nullptr;
    Gpu gpu_;

    Event* shutdown_ = nullptr;
    size_t next_arrival_ = 0;
    std::deque<int> queue_;  ///< Request indices, FIFO.
    /** Killed-batch requests awaiting re-queue: ready cycle -> index
     *  (multimap: equal ready cycles keep insertion order). */
    std::multimap<uint64_t, int> retry_ready_;
    int completed_ = 0;
    int shed_count_ = 0;
    int dropped_ = 0;
    int total_retries_ = 0;
    int killed_batches_ = 0;
    std::vector<RequestRecord> records_;
    std::vector<BatchRecord> batches_;
    std::vector<QueueSample> queue_timeline_;
    /** One in-flight wavefront: its request indices and its stream. */
    struct Wavefront
    {
        std::vector<int> reqs;
        Stream* stream = nullptr;
    };
    /** In-flight wavefronts by id; batches_[id] is each one's record. */
    std::map<int, Wavefront> wavefronts_;
    double total_flops_ = 0;
};

BatchingState
ServingLoop::state() const
{
    BatchingState s;
    s.queued = static_cast<int>(queue_.size());
    s.oldest_arrival =
        queue_.empty()
            ? 0
            : records_[static_cast<size_t>(queue_.front())].arrival_cycle;
    s.in_flight = static_cast<int>(wavefronts_.size());
    return s;
}

void
ServingLoop::ingest_due(uint64_t now)
{
    // Merge trace arrivals and due retries in cycle order (retry
    // first on ties: it is older work) so the queue timeline stays
    // non-decreasing.  A shed arrival never enters the queue — it is
    // finished on the spot, and retries bypass admission control
    // (they were accepted once already).
    for (;;) {
        const uint64_t a = next_arrival_ < trace_.size()
                               ? trace_[next_arrival_].arrival_cycle
                               : UINT64_MAX;
        const uint64_t r = retry_ready_.empty()
                               ? UINT64_MAX
                               : retry_ready_.begin()->first;
        if (a > now && r > now)
            break;
        if (r <= a) {
            queue_.push_back(retry_ready_.begin()->second);
            retry_ready_.erase(retry_ready_.begin());
            queue_timeline_.push_back({r, static_cast<int>(queue_.size())});
        } else {
            const int ridx = static_cast<int>(next_arrival_++);
            if (!policy_->accept_arrival(static_cast<int>(queue_.size()))) {
                RequestRecord& rec = records_[static_cast<size_t>(ridx)];
                rec.shed = true;
                rec.deadline_missed = true;
                ++shed_count_;
                continue;
            }
            queue_.push_back(ridx);
            queue_timeline_.push_back({a, static_cast<int>(queue_.size())});
        }
    }
}

KernelDesc
ServingLoop::make_desc(const model::LoweredKernel& lk)
{
    const KernelFamilyInfo* info = find_kernel_family(lk.family);
    TCSIM_CHECK(info != nullptr && info->is_gemm);
    const GemmBuffers buf =
        alloc_timing_operands(*info, lk.mode, lk.m, lk.n, lk.k, &gpu_.mem());
    GemmKernelConfig kc;
    kc.arch = cfg_.arch;
    kc.mode = lk.mode;
    kc.m = lk.m;
    kc.n = lk.n;
    kc.k = lk.k;
    kc.functional = false;
    KernelDesc desc = build_gemm_kernel(info->family, kc, buf,
                                        /*warps_per_cta=*/8);
    desc.name = lk.name;
    return desc;
}

void
ServingLoop::launch_wavefront(std::vector<int> reqs, uint64_t now)
{
    const int wid = static_cast<int>(batches_.size());
    model::LoweredModel lowered =
        model::lower_model(graph_, static_cast<int>(reqs.size()),
                           "b" + std::to_string(wid) + ".");
    total_flops_ += lowered.total_flops;

    // One fresh stream per wavefront, kernels in declaration order:
    // the lowering chains every layer kind, and declaration order is a
    // topological order of its hazards, so an in-order stream is exact
    // while different wavefronts still overlap.  Decision points: after
    // each layer's last kernel the continuous batcher may join new
    // work, and after the final kernel the wavefront completes.
    std::vector<bool> layer_last(lowered.kernels.size(), false);
    for (int idx : lowered.last_kernel_of_layer)
        layer_last[static_cast<size_t>(idx)] = true;
    Stream& stream = gpu_.create_stream();
    for (size_t i = 0; i < lowered.kernels.size(); ++i) {
        stream.enqueue(make_desc(lowered.kernels[i]));
        if (i + 1 == lowered.kernels.size())
            stream.add_callback([this, wid](uint64_t cycle) {
                on_wavefront_done(wid, cycle);
            });
        else if (layer_last[i])
            stream.add_callback([this](uint64_t cycle) { try_admit(cycle); });
    }

    for (int ridx : reqs) {
        RequestRecord& r = records_[static_cast<size_t>(ridx)];
        r.admit_cycle = now;
        r.batch = wid;
    }
    BatchRecord b;
    b.id = wid;
    b.admit_cycle = now;
    b.size = static_cast<int>(reqs.size());
    batches_.push_back(b);
    wavefronts_[wid] = {std::move(reqs), &stream};
}

void
ServingLoop::try_admit(uint64_t now)
{
    // A callback may fire past pending arrivals (the engine jumps the
    // clock event-to-event): fold everything due in before deciding,
    // so joins see the true queue and the timeline stays ordered.
    ingest_due(now);
    for (;;) {
        const int n = policy_->admit(now, state());
        if (n <= 0)
            break;
        TCSIM_CHECK(n <= static_cast<int>(queue_.size()));
        std::vector<int> reqs;
        reqs.reserve(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i) {
            reqs.push_back(queue_.front());
            queue_.pop_front();
        }
        queue_timeline_.push_back({now, static_cast<int>(queue_.size())});
        launch_wavefront(std::move(reqs), now);
    }
}

void
ServingLoop::on_wavefront_done(int wid, uint64_t cycle)
{
    auto it = wavefronts_.find(wid);
    TCSIM_CHECK(it != wavefronts_.end());
    for (int ridx : it->second.reqs) {
        records_[static_cast<size_t>(ridx)].finish_cycle = cycle;
        ++completed_;
    }
    batches_[static_cast<size_t>(wid)].finish_cycle = cycle;
    wavefronts_.erase(it);
    // A completed batch frees capacity: the policy may admit again.
    try_admit(cycle);
}

void
ServingLoop::kill_due_wavefronts(uint64_t now)
{
    // Batch timeout: a wavefront admitted more than
    // batch_timeout_cycles ago is presumed hung.  Kill it only once
    // its stream is quiescent (a fault-hung launch is quiescent by
    // construction; a stream still executing CTAs postpones the kill
    // to a later loop iteration — the engine drains CTAs on its own,
    // so the wait is bounded).
    std::vector<int> due;
    for (const auto& [wid, w] : wavefronts_) {
        const uint64_t admit = batches_[static_cast<size_t>(wid)].admit_cycle;
        if (now >= admit + res_.batch_timeout_cycles &&
            gpu_.stream_quiescent(*w.stream))
            due.push_back(wid);
    }
    for (int wid : due) {
        auto it = wavefronts_.find(wid);
        gpu_.kill_stream(*it->second.stream);
        ++killed_batches_;
        BatchRecord& b = batches_[static_cast<size_t>(wid)];
        b.killed = true;
        b.finish_cycle = now;
        for (int ridx : it->second.reqs) {
            RequestRecord& r = records_[static_cast<size_t>(ridx)];
            if (r.retries >= res_.max_retries) {
                // Budget exhausted: this kill is a drop, not another
                // re-queue (retries counts re-queues only).
                r.dropped = true;
                r.deadline_missed = true;
                ++dropped_;
            } else {
                ++r.retries;
                ++total_retries_;
                // Linear backoff per attempt; re-queued via
                // ingest_due when the ready cycle comes due.
                retry_ready_.emplace(
                    now + res_.retry_backoff_cycles *
                              static_cast<uint64_t>(r.retries),
                    ridx);
            }
        }
        wavefronts_.erase(it);
    }
    if (!due.empty())
        try_admit(now);
}

std::string
ServingLoop::loop_state_string(uint64_t now) const
{
    const BatchingState s = state();
    std::string msg = detail::format(
        "[serving state: cycle=%llu queued=%d oldest_arrival=%llu "
        "in_flight=%d pending_retries=%zu completed=%d shed=%d "
        "dropped=%d of %zu; policy \"%s\" next_deadline=",
        static_cast<unsigned long long>(now), s.queued,
        static_cast<unsigned long long>(s.oldest_arrival), s.in_flight,
        retry_ready_.size(), completed_, shed_count_, dropped_,
        trace_.size(), policy_->name());
    const uint64_t dl = policy_->next_deadline(s);
    msg += dl == UINT64_MAX ? "none" : std::to_string(dl);
    msg += "]";
    return msg;
}

void
ServingLoop::finalize(ServingResult* out)
{
    ServingReport& rep = out->report;
    rep.policy = policy_->name();
    rep.requests = static_cast<int>(trace_.size());
    rep.completed = completed_;
    rep.batches = static_cast<int>(batches_.size());
    if (!batches_.empty())
        rep.mean_batch_size = static_cast<double>(completed_) /
                              static_cast<double>(batches_.size());
    rep.makespan_cycles = out->totals.cycles;
    rep.total_flops = total_flops_;

    // Resilience accounting.  Deadline misses are judged here, when
    // every finish cycle is known: a completed request misses if its
    // end-to-end latency exceeds the deadline; shed and dropped
    // requests missed by definition (flagged where they died).
    // Goodput is the in-deadline completion fraction.
    rep.resilience = res_.enabled();
    if (res_.deadline_cycles > 0)
        for (RequestRecord& r : records_)
            if (!r.shed && !r.dropped &&
                r.finish_cycle - r.arrival_cycle > res_.deadline_cycles)
                r.deadline_missed = true;
    int good = 0;
    for (const RequestRecord& r : records_)
        good += !r.deadline_missed;
    rep.deadline_miss = static_cast<int>(records_.size()) - good;
    if (!records_.empty())
        rep.goodput = static_cast<double>(good) /
                      static_cast<double>(records_.size());
    rep.retries = total_retries_;
    rep.shed = shed_count_;
    rep.dropped = dropped_;
    rep.killed_batches = killed_batches_;

    rep.request_records = std::move(records_);
    rep.batch_records = std::move(batches_);
    rep.queue_timeline = std::move(queue_timeline_);
    rep.latency = summarize_latency(rep.request_records, rep.queue_timeline,
                                    rep.makespan_cycles, extra_percentiles_);

    // SM-occupancy over time: concurrently resident launches, rebuilt
    // from the per-kernel cycle windows (+1 at start, -1 past finish).
    std::vector<std::pair<uint64_t, int>> deltas;
    deltas.reserve(out->totals.kernels.size() * 2);
    for (const LaunchStats& k : out->totals.kernels) {
        deltas.emplace_back(k.start_cycle, 1);
        deltas.emplace_back(k.finish_cycle + 1, -1);
    }
    std::sort(deltas.begin(), deltas.end());
    int running = 0;
    uint64_t busy_from = 0;
    for (size_t i = 0; i < deltas.size();) {
        const uint64_t cycle = deltas[i].first;
        const int before = running;
        while (i < deltas.size() && deltas[i].first == cycle)
            running += deltas[i++].second;
        if (before == 0 && running > 0)
            busy_from = cycle;
        else if (before > 0 && running == 0)
            rep.busy_cycles += cycle - busy_from;
        rep.occupancy.push_back({cycle, running});
    }
    if (rep.makespan_cycles > 0)
        rep.busy_frac = static_cast<double>(rep.busy_cycles) /
                        static_cast<double>(rep.makespan_cycles);
}

ServingResult
ServingLoop::run()
{
    const size_t total = trace_.size();
    records_.resize(total);
    for (size_t i = 0; i < total; ++i) {
        TCSIM_CHECK(i == 0 || trace_[i].arrival_cycle >=
                                  trace_[i - 1].arrival_cycle);
        records_[i].id = trace_[i].id;
        records_[i].arrival_cycle = trace_[i].arrival_cycle;
    }

    // Keepalive: a stream blocked on a never-recorded event keeps the
    // resumable run open (monotonic clock, persistent memory timing)
    // across idle gaps between batches.
    shutdown_ = &gpu_.create_event("serve.shutdown");
    gpu_.create_stream().wait(*shutdown_);
    gpu_.run_until(0);

    while (finished() < static_cast<int>(total)) {
        const uint64_t now = gpu_.current_cycle();
        if (res_.batch_timeout_cycles > 0)
            kill_due_wavefronts(now);
        ingest_due(now);
        try_admit(now);
        if (finished() == static_cast<int>(total))
            break;

        uint64_t next = next_arrival_ < trace_.size()
                            ? trace_[next_arrival_].arrival_cycle
                            : UINT64_MAX;
        if (!queue_.empty())
            next = std::min(next, policy_->next_deadline(state()));
        if (!retry_ready_.empty())
            next = std::min(next, retry_ready_.begin()->first);
        if (res_.batch_timeout_cycles > 0)
            for (const auto& [wid, w] : wavefronts_)
                next = std::min(
                    next, batches_[static_cast<size_t>(wid)].admit_cycle +
                              res_.batch_timeout_cycles);
        // A stimulus past the simulation horizon is no stimulus.
        if (next == UINT64_MAX || next > sim_.max_cycles) {
            if (wavefronts_.empty()) {
                if (finished() == static_cast<int>(total))
                    break;
                // No reachable arrival or deadline, nothing running,
                // yet requests remain: they will never be admitted.
                throw ServingError(detail::format(
                    "serving loop wedged at cycle %llu: %zu request(s) "
                    "queued, policy \"%s\" admits nothing and its next "
                    "deadline is unreachable %s",
                    static_cast<unsigned long long>(now), queue_.size(),
                    policy_->name(), loop_state_string(now).c_str()));
            }
            // All remaining progress is on-chip; completion callbacks
            // will fire (and may admit) inside this advance.
            const uint64_t before_cycle = gpu_.current_cycle();
            const int before_finished = finished();
            gpu_.run_until(sim_.max_cycles);
            if (gpu_.current_cycle() == before_cycle &&
                finished() == before_finished) {
                // The chip is blocked (every resident kernel is an
                // injected hang) and no batch timeout is armed to
                // recover it: the in-flight requests can never
                // finish.
                throw ServingError(detail::format(
                    "serving loop wedged at cycle %llu: %zu batch(es) "
                    "in flight but the GPU is blocked and no batch "
                    "timeout is configured to kill them %s",
                    static_cast<unsigned long long>(before_cycle),
                    wavefronts_.size(),
                    loop_state_string(before_cycle).c_str()));
            }
            continue;
        }
        if (next <= now) {
            // The policy reported a due deadline but admitted nothing
            // this round; re-decide strictly later to guarantee
            // progress.
            next = now + 1;
        }
        gpu_.run_until(next - 1);
        if (gpu_.current_cycle() < next)
            gpu_.advance_idle_to(next);
    }

    // Shutdown: release the keepalive and drain the run to get the
    // complete statistics (makespan, per-kernel windows).
    gpu_.default_stream().record(*shutdown_);
    ServingResult out;
    out.totals = gpu_.run_and_take_stats();
    out.gmem_footprint = gpu_.mem().footprint();
    out.gmem_backed = gpu_.mem().backed();
    out.faults_enabled = gpu_.faults_enabled();
    if (out.faults_enabled)
        out.faults = gpu_.fault_counters();
    finalize(&out);
    // No serving report reads per-kernel macro-latency samples, yet
    // they are most of a result's bytes (5.5 MB over the 240 kernels
    // of a 100-request MLP-6 trace).  Drop them so callers that hold
    // several results at once do not carry them.
    for (LaunchStats& k : out.totals.kernels)
        k.macro_latency.clear();
    return out;
}

}  // namespace

ServingResult
run_serving(const GpuConfig& cfg, const SimOptions& sim,
            const model::ModelGraph& graph,
            const std::vector<Request>& trace,
            const BatchingPolicy& policy,
            const std::vector<double>& extra_percentiles,
            const ServingResilience& resilience, const FaultSpec& faults)
{
    return ServingLoop(cfg, sim, graph, trace, policy, extra_percentiles,
                       resilience, faults)
        .run();
}

}  // namespace tcsim::serve
