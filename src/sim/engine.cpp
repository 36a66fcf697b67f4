#include "sim/engine.h"

#include <algorithm>
#include <stdexcept>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/logging.h"
#include "common/sim_error.h"
#include "sim/fault/fault_plan.h"
#include "sim/stats_codec.h"

namespace tcsim {

ExecutionEngine::ExecutionEngine(const GpuConfig& cfg, const SimOptions& opts,
                                 MemorySystem* mem, ExecutorCache* executors)
    : cfg_(cfg), opts_(opts), mem_(mem), executors_(executors)
{
    threads_ = opts_.sim_threads > 0 ? opts_.sim_threads
                                     : hardware_threads();
    config_hash_ = hash_config(cfg_);
    if (opts_.replay_mode != SimOptions::ReplayMode::kOff) {
        replay_cache_ = opts_.replay_cache;
        if (!replay_cache_) {
            owned_cache_ = std::make_unique<ReplayCache>();
            replay_cache_ = owned_cache_.get();
        }
    }
}

ExecutionEngine::~ExecutionEngine()
{
    if (run_)
        release_streams();
}

uint64_t
ExecutionEngine::now() const
{
    return run_ ? run_->now : 0;
}

bool
ExecutionEngine::prepare(const std::vector<Stream*>& streams)
{
    if (!stream_source_)
        entry_streams_ = streams;
    if (!run_) {
        bool any_work = false;
        for (Stream* s : streams)
            any_work |= !s->ops_.empty();
        if (!any_work)
            return false;
        last_stats_ = EngineStats{};
        run_ = std::make_unique<RunState>();
        run_->wall_start = std::chrono::steady_clock::now();
        mem_->reset_timing();
    }
    absorb_streams(streams);
    validate_and_size();
    return true;
}

void
ExecutionEngine::absorb_streams(const std::vector<Stream*>& streams)
{
    // Streams created since the run began join at the end (their
    // StreamRun order follows the caller's stream order on first
    // sight).  Every seen stream is in @p streams, so the growth counts
    // the new ones; Gpu appends new streams at the back, so a backward
    // scan finds them without revisiting the whole set.
    RunState& rs = *run_;
    if (streams.size() <= rs.stream_runs.size())
        return;
    const size_t fresh = streams.size() - rs.stream_runs.size();
    std::vector<Stream*> unseen;
    for (auto it = streams.rbegin();
         it != streams.rend() && unseen.size() < fresh; ++it)
        if (!rs.stream_index.count(*it))
            unseen.push_back(*it);
    for (auto it = unseen.rbegin(); it != unseen.rend(); ++it) {
        const size_t idx = rs.stream_runs.size();
        if (!rs.stream_index.emplace(*it, idx).second)
            continue;
        rs.stream_runs.push_back(StreamRun{*it, nullptr});
        // The newest index sorts last: queued stays ascending.
        rs.queued.push_back(idx);
    }
}

ExecutionEngine::StreamRun*
ExecutionEngine::find_stream_run(const Stream* stream) const
{
    auto it = run_->stream_index.find(stream);
    return it == run_->stream_index.end() ? nullptr
                                          : &run_->stream_runs[it->second];
}

void
ExecutionEngine::wake_streams()
{
    RunState& rs = *run_;
    for (Stream* s : rs.wakeups) {
        const size_t idx = rs.stream_index.at(s);
        rs.queued.insert(
            std::upper_bound(rs.queued.begin(), rs.queued.end(), idx), idx);
    }
    rs.wakeups.clear();
}

void
ExecutionEngine::park(size_t idx)
{
    RunState& rs = *run_;
    auto it = std::lower_bound(rs.queued.begin(), rs.queued.end(), idx);
    TCSIM_CHECK(it != rs.queued.end() && *it == idx);
    rs.queued.erase(it);
    rs.stream_runs[idx].stream->wake_list_ = &rs.wakeups;
}

void
ExecutionEngine::release_streams()
{
    for (StreamRun& sr : run_->stream_runs)
        sr.stream->wake_list_ = nullptr;
}

void
ExecutionEngine::validate_and_size()
{
    // Validate every queued launch and count the CTAs pending: a run
    // whose grids total fewer CTAs than the chip has SMs never
    // occupies the excess SMs, so don't construct (or tick) them.
    // Re-run on every advance entry and after host callbacks fire, so
    // work enqueued mid-run is checked and sized too.  Parked streams
    // have empty queues, so only the queued ones are scanned.
    wake_streams();
    uint64_t total_ctas = 0;
    for (size_t idx : run_->queued) {
        for (const Stream::Op& op : run_->stream_runs[idx].stream->ops_) {
            if (op.kind != Stream::OpKind::kLaunch)
                continue;
            const KernelDesc& k = op.kernel;
            TCSIM_CHECK(k.grid_ctas > 0);
            TCSIM_CHECK(k.trace != nullptr);
            SM::check_fits(cfg_, k);
            total_ctas += static_cast<uint64_t>(k.grid_ctas);
        }
    }
    for (const auto& l : run_->resident)
        total_ctas += static_cast<uint64_t>(l->desc.grid_ctas);

    // Grow the SM array when new work justifies it; SMs appended
    // mid-run behave exactly like SMs that had been idle all along, so
    // timing is independent of when (or whether) the excess SMs exist.
    // min_sms floors the size: sweep forks pin it so forked and cold
    // runs of every point get identical (timing-observable) arrays.
    size_t want = static_cast<size_t>(std::min<uint64_t>(
        cfg_.num_sms,
        std::max<uint64_t>(static_cast<uint64_t>(std::max(opts_.min_sms, 0)),
                           std::max<uint64_t>(1, total_ctas))));
    while (run_->sms.size() < want) {
        const int id = static_cast<int>(run_->sms.size());
        auto sm = std::make_unique<SM>(id, cfg_, mem_, executors_,
                                       opts_.scheduler);
        if (fault_plan_)
            if (int cap = fault_plan_->warp_slot_cap(id))
                sm->set_warp_cap(cap);
        run_->sms.push_back(std::move(sm));
    }
    // Every resident grid needs a stats shard per SM (growth can
    // happen mid-run when work is enqueued between advances).
    for (const auto& l : run_->resident)
        l->grid.stats.ensure_shards(run_->sms.size());
}

bool
ExecutionEngine::promote_streams(uint64_t now)
{
    RunState& rs = *run_;
    bool any_op = false;
    // Fixpoint: a record completed on one stream can unblock a wait on
    // another in the same tick, so rescan until nothing changes.
    for (bool progress = true; progress;) {
        progress = false;
        wake_streams();
        // Visit the queued streams in StreamRun order.  A callback may
        // append to a parked stream: it wakes straight into the list
        // and, when it sorts after the current stream, is visited in
        // this same pass — exactly as a scan of every stream would.
        for (auto next = rs.queued.begin(); next != rs.queued.end();) {
            const size_t idx = *next;
            StreamRun& sr = rs.stream_runs[idx];
            while (sr.live == nullptr && !sr.stream->ops_.empty()) {
                Stream::Op& front = sr.stream->ops_.front();
                if (front.kind == Stream::OpKind::kWaitEvent) {
                    // Dependency gate: not promotable past this point
                    // until the event has been recorded and retired.
                    if (!front.wait->complete())
                        break;
                    sr.stream->ops_.pop_front();
                    any_op = progress = true;
                    continue;
                }
                if (front.kind == Stream::OpKind::kRecordEvent) {
                    // All prior work on this stream has retired:
                    // complete the event, stamped with this cycle.
                    Event* ev = front.record;
                    sr.stream->ops_.pop_front();
                    ev->complete_ = true;
                    ev->cycle_ = now;
                    any_op = progress = true;
                    continue;
                }
                if (front.kind == Stream::OpKind::kCallback) {
                    // Pop before invoking: the callback may enqueue
                    // more work onto this very stream.  step() re-runs
                    // validation/SM sizing after the promote pass.
                    auto fn = std::move(front.callback);
                    sr.stream->ops_.pop_front();
                    if (fn)
                        fn(now);
                    wake_streams();
                    callbacks_fired_ = true;
                    any_op = progress = true;
                    continue;
                }
                // Validate at promotion too: launches injected by a
                // host callback never pass through prepare(), and an
                // unfittable grid must die with the check_fits
                // diagnostic, not a confusing engine-stall panic.
                TCSIM_CHECK(front.kernel.grid_ctas > 0);
                TCSIM_CHECK(front.kernel.trace != nullptr);
                SM::check_fits(cfg_, front.kernel);
                Stream::Op op = sr.stream->pop();
                auto l = std::make_unique<Launch>();
                l->desc = std::move(op.kernel);
                l->grid.kernel = &l->desc;
                l->grid.grid_id = rs.next_grid_id++;
                l->grid.stream_id = sr.stream->id();
                l->grid.start_cycle = now;
                l->grid.stats.ensure_shards(rs.sms.size());
                l->mem_base = mem_->stats();
                if (replay_cache_)
                    classify_replay(l.get(), now);
                // Fault classification: promotion happens on the
                // engine thread in canonical stream order, so the
                // per-rule match budgets drain identically however
                // the run is parallelized.
                if (fault_plan_ && fault_plan_->enabled()) {
                    if (fault_plan_->take_hang(l->desc.name))
                        l->fault_hung = true;
                    else
                        l->fault_slowdown =
                            fault_plan_->take_slowdown(l->desc.name);
                }
                l->stream_run = idx;
                sr.live = l.get();
                rs.resident.push_back(std::move(l));
                progress = true;
                break;
            }
            if (sr.stream->ops_.empty())
                park(idx);
            next = std::upper_bound(rs.queued.begin(), rs.queued.end(), idx);
        }
    }
    return any_op;
}

bool
ExecutionEngine::dispatch_to(SM* sm)
{
    // A fault-disabled SM never receives work (it still exists and
    // ticks idle, so chip timing stays comparable to a healthy run).
    if (fault_plan_ && fault_plan_->sm_disabled(sm->id()))
        return false;
    // Resident grids compete in launch order; one CTA per SM per cycle
    // (hardware rasterizer pacing, matching the legacy distribution).
    for (auto& l : run_->resident) {
        if (l->grid.pending() && sm->can_accept(*l->grid.kernel)) {
            sm->launch_cta(&l->grid, l->grid.next_cta++);
            return true;
        }
    }
    return false;
}

std::string
ExecutionEngine::replay_key(const KernelDesc& k) const
{
    // Uncacheable: no builder fingerprint, or functional (a replayed
    // launch executes nothing, which would silently drop the data
    // movement functional kernels exist for).
    if (k.timing_key.empty() || k.functional)
        return {};
    const RunState& rs = *run_;
    // Memory-warmth class: w0 = nothing retired yet this run (cold
    // caches), w1 = the last retired launch had this same timing_key
    // (warmed by this very kernel), w2 = warmed by other work.
    char warmth = !rs.any_finished
                      ? '0'
                      : (rs.last_finished_key == k.timing_key ? '1' : '2');
    char cfg[24];
    std::snprintf(cfg, sizeof cfg, "%016llx",
                  static_cast<unsigned long long>(config_hash_));
    return k.timing_key + "|cfg:" + cfg + "|w" + warmth;
}

void
ExecutionEngine::classify_replay(Launch* l, uint64_t now)
{
    RunState& rs = *run_;
    std::string key = replay_key(l->desc);
    if (key.empty())
        return;  // Uncacheable: plain detailed execution.

    // Every cacheable occurrence of a key consumes one sequence slot,
    // assigned in promotion order: recordings fill their slot at
    // retire, and the i-th hit is served the i-th recorded duration —
    // so replaying a recorded trace walks the recorded sequence in
    // lockstep and hands every launch its own duration.
    uint64_t seq = 0;
    if (auto sit = rs.replay_seq.find(key); sit != rs.replay_seq.end())
        seq = sit->second;
    auto profile = std::make_unique<KernelTimingProfile>();
    const bool hit = replay_cache_->lookup(key, seq, profile.get());
    rs.replay_seq[key] = seq + 1;
    if (!hit || opts_.replay_mode == SimOptions::ReplayMode::kRecord) {
        // Miss (or record-only mode): run in detail and fold the
        // result into the cache at retire.  Record mode folds *every*
        // execution, not just the first per key, so the duration
        // sequence covers the key's full range of contention contexts.
        if (hit)
            ++rs.stats.replay_hits;
        else
            ++rs.stats.replay_misses;
        l->record_key = std::move(key);
        l->record_seq = seq;
        return;
    }

    ++rs.stats.replay_hits;
    // Replay: no CTA ever dispatches (pending() is false from the
    // start); the grid completes at replay_done with the profile's
    // statistics applied as deltas.  Stream/event ordering is
    // untouched — the launch occupies its stream slot until then.
    TCSIM_CHECK(profile->cycles > 0);
    l->replay_done = now + profile->cycles - 1;
    l->replay_profile = std::move(profile);
    l->grid.next_cta = l->desc.grid_ctas;
}

void
ExecutionEngine::sample_occupancy(Launch& l, uint64_t now)
{
    OccupancyPhase ph;
    ph.offset = now - l.grid.start_cycle;
    ph.ctas_left =
        static_cast<uint32_t>(l.desc.grid_ctas - l.grid.ctas_done);
    // One sample per tick: completions in the same cycle collapse onto
    // the last (ctas_done already counts them all by commit time).
    if (!l.occupancy.empty() && l.occupancy.back().offset == ph.offset)
        l.occupancy.back() = ph;
    else
        l.occupancy.push_back(ph);
    // Compact deterministically: keep every 2nd sample once the
    // scratch outgrows the profile bound.
    if (l.occupancy.size() > kMaxOccupancyPhases) {
        size_t out = 0;
        for (size_t i = 1; i < l.occupancy.size(); i += 2)
            l.occupancy[out++] = l.occupancy[i];
        l.occupancy.resize(out);
    }
}

void
ExecutionEngine::record_profile(Launch& l, const LaunchStats& ls)
{
    if (l.record_key.empty() || !replay_cache_)
        return;
    KernelTimingProfile p;
    p.cycles = ls.cycles;
    p.instructions = ls.instructions;
    p.hmma_instructions = ls.hmma_instructions;
    p.mem = ls.mem;
    p.stalls = ls.stalls;
    p.macro_latency = ls.macro_latency;
    p.occupancy = std::move(l.occupancy);
    replay_cache_->record(l.record_key, l.record_seq, std::move(p));
}

void
ExecutionEngine::retire(Launch& l, LaunchStats ls)
{
    RunState& rs = *run_;
    if (l.replay_profile) {
        // The memory system and SMs never saw a replayed launch's
        // traffic: accumulate its recorded deltas for fill_totals.
        rs.replay_mem.add(l.replay_profile->mem);
        rs.replay_stalls.add(l.replay_profile->stalls);
    }
    // Warmth tracking advances for *every* retiring launch (replayed
    // and uncacheable included), so a replay run walks the identical
    // warmth sequence the detailed run it mirrors did.
    rs.any_finished = true;
    rs.last_finished_key = l.desc.timing_key;
    rs.stats.kernels.push_back(std::move(ls));
    if (rs.stream_runs[l.stream_run].live == &l)
        rs.stream_runs[l.stream_run].live = nullptr;
    retiring_.push_back(&l.grid);
    l.retired = true;
}

ExecutionEngine::LaunchPass
ExecutionEngine::advance_launches(uint64_t now)
{
    RunState& rs = *run_;
    LaunchPass pass;
    retiring_.clear();
    for (const auto& lp : rs.resident) {
        Launch& l = *lp;
        if (!l.record_key.empty())
            for (const GridRun* g : completions_)
                if (g == &l.grid)
                    sample_occupancy(l, now);
        LaunchState st = l.state(now);
        if (st == LaunchState::kReplaying && now >= l.replay_done) {
            // A replayed launch drains by the clock.  Unconditional on
            // replay_mode, so a snapshot captured mid-replay resumes
            // correctly on a replay-off engine.
            l.grid.ctas_done = l.desc.grid_ctas;
            l.grid.finish_cycle = l.replay_done;
            st = l.state(now);
        }
        if (st == LaunchState::kDrained && l.fault_release == 0) {
            // Drain: the profile takes the natural statistics, then a
            // slowdown sets its hold on top of the natural duration.
            LaunchStats natural = finalize(l);
            record_profile(l, natural);
            if (l.fault_slowdown > 1.0) {
                const uint64_t dur = natural.cycles;
                const auto held = static_cast<uint64_t>(std::ceil(
                    l.fault_slowdown * static_cast<double>(dur)));
                l.fault_release =
                    l.grid.start_cycle + std::max(held, dur) - 1;
            }
            if (l.fault_release <= l.grid.finish_cycle) {
                retire(l, std::move(natural));
                pass.retired = true;
                continue;
            }
            st = l.state(now);
        }
        switch (st) {
          case LaunchState::kDispatching:
            if (!pass.undispatched && l.grid.pending())
                pass.undispatched = &l;
            break;
          case LaunchState::kReplaying:
            pass.next_event = std::min(pass.next_event, l.replay_done);
            break;
          case LaunchState::kHeld:
            pass.next_event = std::min(pass.next_event, l.fault_release);
            break;
          case LaunchState::kHung:
            ++pass.hung;
            break;
          case LaunchState::kDrained:
            // A released slowdown hold: the launch finishes at release.
            fault_plan_->add_slowdown_cycles(l.fault_release -
                                             l.grid.finish_cycle);
            l.grid.finish_cycle = l.fault_release;
            retire(l, finalize(l));
            pass.retired = true;
            break;
        }
    }
    if (pass.retired) {
        // One forget pass over the SMs for every launch retired this
        // tick (a per-launch pass was O(SMs x resident^2) on grid-heavy
        // ticks).
        for (auto& sm : rs.sms)
            sm->forget_grids(retiring_);
        std::erase_if(rs.resident, [](const std::unique_ptr<Launch>& l) {
            return l->retired;
        });
        retiring_.clear();
    }
    return pass;
}

LaunchStats
ExecutionEngine::finalize(Launch& l) const
{
    LaunchStats s;
    s.kernel = l.desc.name;
    s.stream = l.grid.stream_id;
    s.start_cycle = l.grid.start_cycle;
    s.finish_cycle = l.grid.finish_cycle;
    s.cycles = l.grid.finish_cycle - l.grid.start_cycle + 1;
    // Replayed launch: no SM ever saw it — every statistic comes from
    // the recorded profile (the memory system's counters did not move,
    // so since(mem_base) would report concurrent kernels' traffic).
    if (l.replay_profile) {
        const KernelTimingProfile& p = *l.replay_profile;
        s.instructions = p.instructions;
        s.hmma_instructions = p.hmma_instructions;
        s.mem = p.mem;
        s.macro_latency = p.macro_latency;
        s.stalls = p.stalls;
    } else {
        s.instructions = l.grid.stats.instructions();
        s.hmma_instructions = l.grid.stats.hmma_instructions();
        s.mem = mem_->stats().since(l.mem_base);
        s.macro_latency = l.grid.stats.merged_macro_latency();
        s.stalls = l.grid.stats.stalls();
    }
    s.ipc = static_cast<double>(s.instructions) /
            static_cast<double>(s.cycles);
    return s;
}

bool
ExecutionEngine::drained() const
{
    // Live launches are resident; queued ops sit on queued or woken
    // streams (parked ones have none).
    const RunState& rs = *run_;
    if (!rs.resident.empty())
        return false;
    for (size_t idx : rs.queued)
        if (!rs.stream_runs[idx].stream->empty())
            return false;
    for (const Stream* s : rs.wakeups)
        if (!s->empty())
            return false;
    return true;
}

std::string
ExecutionEngine::wait_graph_string() const
{
    const RunState& rs = *run_;
    std::string graph;
    for (const StreamRun& sr : rs.stream_runs) {
        if (sr.stream->ops_.empty())
            continue;
        const Stream::Op& front = sr.stream->ops_.front();
        if (front.kind != Stream::OpKind::kWaitEvent)
            continue;
        const Event* ev = front.wait;
        // Every stream still holding a record for this event (a
        // re-recorded event may have several).
        std::vector<int> recorders;
        for (const StreamRun& other : rs.stream_runs) {
            for (const Stream::Op& op : other.stream->ops_) {
                if (op.kind == Stream::OpKind::kRecordEvent &&
                    op.record == ev) {
                    recorders.push_back(other.stream->id());
                    break;
                }
            }
        }
        std::string why;
        if (!recorders.empty()) {
            why = recorders.size() == 1 ? "record queued on stream"
                                        : "records queued on streams";
            for (size_t r = 0; r < recorders.size(); ++r)
                why += (r == 0 ? " " : ", ") + std::to_string(recorders[r]);
            why += ", behind work that cannot start";
        } else if (ev->recorded()) {
            why = "its record was dropped before the engine reached it";
        } else {
            why = "never recorded";
        }
        graph += detail::format(
            "  stream %d: waiting on event \"%s\" (%s), %zu launch(es) "
            "gated behind it\n",
            sr.stream->id(), ev->name().c_str(), why.c_str(),
            sr.stream->depth());
    }
    return graph;
}

void
ExecutionEngine::report_deadlock()
{
    // Chip idle, streams blocked: every remaining front op is a wait
    // on an event that did not complete.  Report the wait graph.
    throw EngineDeadlockError(
        detail::format("deadlock detected at cycle %llu: no stream can "
                       "make progress\n",
                       static_cast<unsigned long long>(run_->now)) +
        wait_graph_string());
}

std::string
ExecutionEngine::hang_dump(const std::string& reason) const
{
    const RunState& rs = *run_;
    size_t queued = 0;
    for (const StreamRun& sr : rs.stream_runs)
        queued += sr.stream->depth();
    std::string out = detail::format(
        "%s\n  cycle %llu: %zu resident kernel(s), %zu queued op(s), "
        "%zu busy SM(s)\n",
        reason.c_str(), static_cast<unsigned long long>(rs.now),
        rs.resident.size(), queued, rs.busy_sms.size());
    if (!rs.busy_sms.empty()) {
        out += "  busy SMs:";
        for (int id : rs.busy_sms)
            out += " " + std::to_string(id);
        out += "\n";
    }
    // In LaunchState order.
    static const char* kStateNames[] = {"dispatching", "replaying until",
                                        "drained", "held until", "hung"};
    for (const auto& l : rs.resident) {
        const LaunchState st = l->state(rs.now);
        std::string state = kStateNames[static_cast<int>(st)];
        if (st == LaunchState::kDispatching)
            state += detail::format(" %d/%d", l->grid.ctas_done,
                                    l->desc.grid_ctas);
        if (st == LaunchState::kReplaying)
            state += " " + std::to_string(l->replay_done);
        if (st == LaunchState::kHeld)
            state += " " + std::to_string(l->fault_release);
        out += detail::format("  resident: \"%s\" stream=%d grid=%d %s\n",
                              l->desc.name.c_str(), l->grid.stream_id,
                              l->grid.grid_id, state.c_str());
    }
    out += wait_graph_string();
    return out;
}

ExecutionEngine::StepResult
ExecutionEngine::step(uint64_t bound)
{
    RunState& rs = *run_;
    const uint64_t now = rs.now;
    const bool ops = promote_streams(now);
    if (callbacks_fired_) {
        // A host callback may have enqueued work — possibly onto a
        // stream created inside the callback.  Re-fetch the live
        // stream set, validate the new launches, and grow the SM
        // array before this tick dispatches anything.
        callbacks_fired_ = false;
        absorb_streams(stream_source_ ? stream_source_() : entry_streams_);
        validate_and_size();
    }

    bool dispatch_pending = false;
    for (const auto& l : rs.resident)
        dispatch_pending |= l->grid.pending();

    // Select the SMs that tick this cycle: every SM while CTAs await
    // dispatch (any SM may accept one — and idle SMs' schedulers
    // record the same kEmpty stalls a serial run did), otherwise the
    // busy SMs whose own next event has arrived.  A stalled SM sleeps
    // until then: it changes state only at its next_event (writebacks,
    // unit and tensor-core ready times, MIO pipe and memory retry
    // cycles) or through a CTA launch, which only a dispatch tick
    // makes, so ticking it would re-record the same stall.  It books
    // that stall instead, as chip-level idle-skip does.  Lockstep
    // (idle_skip off) ticks every busy SM as the unskipped reference.
    // cycled_ stays in ascending SM-index order: the serial phases
    // below rely on it for determinism.
    bool launched = false;
    cycled_.clear();
    if (dispatch_pending) {
        cycled_.reserve(rs.sms.size());
        for (auto& sm : rs.sms) {
            launched |= dispatch_to(sm.get());
            cycled_.push_back(sm.get());
        }
    } else {
        cycled_.reserve(rs.busy_sms.size());
        for (int id : rs.busy_sms) {
            SM* sm = rs.sms[static_cast<size_t>(id)].get();
            if (opts_.idle_skip && sm->next_event_cached() > now)
                sm->account_skipped(1);
            else
                cycled_.push_back(sm);
        }
    }

    // Three-phase tick.  Phase A (engine thread, SM-index order):
    // drain the global/L1 MIO heads through the shared memory
    // hierarchy, so every acceptance/refusal and retry cycle lands in
    // the same canonical order a serial run produces.
    for (SM* sm : cycled_)
        sm->begin_tick(now);

    // Phase B (worker pool): SM-local compute — the shared-memory
    // pipe, writebacks, issue, functional execution into per-SM
    // staging buffers and per-SM stats shards.  No shared mutable
    // state, so any thread count and any assignment of SMs to workers
    // yields identical results.  Worker t owns the SMs with
    // id % workers == t, so an SM stays on one core across ticks.
    // Workers beyond the chip's SM count could never own an SM.
    const int workers = std::min(threads_, cfg_.num_sms);
    if (workers > 1 && !pool_ && cycled_.size() > 1)
        pool_ = std::make_unique<WorkerPool>(workers);
    if (pool_ && cycled_.size() > 1) {
        pool_->for_each_worker([&](int t) {
            for (SM* sm : cycled_)
                if (sm->id() % workers == t)
                    sm->tick_compute(now);
        });
    } else {
        for (SM* sm : cycled_)
            sm->tick_compute(now);
    }

    // Phase C (engine thread, SM-index order): apply the staged
    // functional global-memory accesses and grid CTA completions.
    // With a replay cache, completions are also collected: each one
    // becomes an occupancy sample in a recording launch's profile.
    completions_.clear();
    for (SM* sm : cycled_)
        sm->commit_tick(replay_cache_ ? &completions_ : nullptr);

    // The busy list for the next tick, ascending.  A dispatch tick
    // cycled every SM; otherwise the list shrinks by the SMs that
    // drained, and sleeping SMs stay on it.
    if (dispatch_pending) {
        rs.busy_sms.clear();
        for (SM* sm : cycled_)
            if (sm->busy_cached())
                rs.busy_sms.push_back(sm->id());
    } else {
        std::erase_if(rs.busy_sms, [&](int id) {
            return !rs.sms[static_cast<size_t>(id)]->busy_cached();
        });
    }
    ++rs.stats.ticks;

    const LaunchPass pass = advance_launches(now);
    if (drained())
        return StepResult::kDrained;

    // Next tick: the successor of a retired launch (or of a processed
    // record/wait/callback) becomes dispatchable next cycle; otherwise
    // jump to the next scheduled event.
    uint64_t next = now + 1;
    if (!launched && !pass.retired && !ops) {
        uint64_t e = next_scheduled_event(pass);
        if (e == UINT64_MAX)
            return unscheduled(pass);
        // Never leap past a bounded advance's target: the host has a
        // stimulus (a request arrival, a deadline) to deliver at
        // bound + 1, and a replay-heavy chip's next scheduled event can
        // be an entire kernel duration beyond it.
        if (bound != UINT64_MAX && e > bound + 1)
            e = std::max(bound + 1, now + 1);
        // Lockstep (idle_skip off) ticks every cycle; e was still
        // computed so unscheduled() catches a dead chip.
        if (e > now + 1 && opts_.idle_skip) {
            uint64_t gap = e - (now + 1);
            for (int id : rs.busy_sms)
                rs.sms[static_cast<size_t>(id)]->account_skipped(gap);
            rs.stats.skipped_cycles += gap;
        }
        if (opts_.idle_skip)
            next = e;
    }
    rs.now = next;
    check_watchdogs();
    return StepResult::kRunning;
}

uint64_t
ExecutionEngine::next_scheduled_event(const LaunchPass& pass) const
{
    // Only busy SMs are consulted, and each answers from the O(1)
    // next-event cache its compute phase filled in.  A hung launch
    // schedules nothing: only host action or a watchdog ends it.
    uint64_t e = pass.next_event;
    for (int id : run_->busy_sms)
        e = std::min(e,
                     run_->sms[static_cast<size_t>(id)]->next_event_cached());
    return e;
}

ExecutionEngine::StepResult
ExecutionEngine::unscheduled(const LaunchPass& pass)
{
    const RunState& rs = *run_;
    // Only blocked waits remain, or every resident kernel is an
    // injected hang: the clock stays put so the host may record the
    // missing event, kill the hung stream, or let a watchdog fire.
    if (pass.hung == rs.resident.size())
        return StepResult::kBlocked;
    // An enabled fault plan can starve a pending grid for good: every
    // SM is disabled or degraded below the kernel's CTA footprint.
    // That is scenario input, not a modelling bug — throw a typed
    // error the batch driver can contain to one error row.
    if (pass.undispatched && fault_plan_ && fault_plan_->enabled())
        throw SimError(hang_dump(detail::format(
            "faults: kernel \"%s\" is undispatchable — no enabled SM can "
            "accept its CTAs under the fault plan's disabled/degraded SMs",
            pass.undispatched->desc.name.c_str())));
    // Work is on the chip but no SM can ever advance: an internal
    // modelling bug, not a user-constructed dependency cycle.
    size_t unfinished = rs.resident.size();
    for (const StreamRun& sr : rs.stream_runs)
        unfinished += sr.stream->depth();
    panic("engine stalled at cycle %llu with %zu kernels unfinished "
          "(first: %s)",
          static_cast<unsigned long long>(rs.now), unfinished,
          rs.resident[0]->desc.name.c_str());
}

void
ExecutionEngine::check_watchdogs() const
{
    const RunState& rs = *run_;
    if (rs.now > opts_.max_cycles) {
        // A user-settable limit, not an internal invariant: throw so
        // embedders (the scenario batch runner) can report one runaway
        // simulation without aborting the process.
        throw SimHangError(hang_dump(detail::format(
            "engine exceeded max_cycles=%llu",
            static_cast<unsigned long long>(opts_.max_cycles))));
    }
    // Wall-clock watchdog (containment only): probed once per 4096
    // ticks so a healthy run pays nothing measurable.
    if (opts_.wall_budget_ms > 0 && (rs.stats.ticks & 0xFFFu) == 0) {
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - rs.wall_start)
                .count();
        if (static_cast<uint64_t>(elapsed) > opts_.wall_budget_ms)
            throw SimHangError(hang_dump(detail::format(
                "engine exceeded wall budget of %llu ms (%llu ms "
                "elapsed)",
                static_cast<unsigned long long>(opts_.wall_budget_ms),
                static_cast<unsigned long long>(elapsed))));
    }
}

void
ExecutionEngine::fill_totals(EngineStats* out) const
{
    out->cycles = 0;
    out->instructions = 0;
    out->hmma_instructions = 0;
    for (const LaunchStats& k : out->kernels) {
        out->cycles = std::max(out->cycles, k.finish_cycle + 1);
        out->instructions += k.instructions;
        out->hmma_instructions += k.hmma_instructions;
    }
    out->ipc = out->cycles > 0 ? static_cast<double>(out->instructions) /
                                     static_cast<double>(out->cycles)
                               : 0.0;
    out->mem = mem_->stats();
    // Replayed launches' traffic never reached the memory system or
    // any SM: fold their recorded deltas into the totals.
    out->mem.add(run_->replay_mem);
    out->stalls = StallCounts{};
    for (const auto& sm : run_->sms)
        sm->add_stalls(&out->stalls);
    out->stalls.add(run_->replay_stalls);
    out->current_cycle = run_->now;
}

EngineStats
ExecutionEngine::stats() const
{
    if (!run_)
        return last_stats_;
    EngineStats out = run_->stats;
    fill_totals(&out);
    return out;
}

RunProgress
ExecutionEngine::progress() const
{
    if (!run_)
        return RunProgress{last_stats_.current_cycle,
                           last_stats_.kernels.size(), false};
    return RunProgress{run_->now, run_->stats.kernels.size(), true};
}

void
ExecutionEngine::finish()
{
    last_stats_ = std::move(run_->stats);
    fill_totals(&last_stats_);
    release_streams();
    run_.reset();
}

template <typename DoneFn>
RunProgress
ExecutionEngine::advance(DoneFn done, bool pause_on_block, uint64_t bound)
{
    while (!done()) {
        switch (step(bound)) {
          case StepResult::kDrained:
            finish();
            return progress();
          case StepResult::kBlocked:
            if (!pause_on_block) {
                // A run-to-completion entry point cannot hand control
                // back to the host: an injected hang is terminal here
                // (a resumable run — run_until — pauses instead, so
                // the serving loop can kill the batch and retry).  A
                // run blocked with launches resident has only hung ones.
                if (!run_->resident.empty())
                    throw SimHangError(hang_dump(detail::format(
                        "injected kernel hang wedged the run at cycle "
                        "%llu",
                        static_cast<unsigned long long>(run_->now))));
                report_deadlock();
            }
            return progress();
          case StepResult::kRunning:
            break;
        }
    }
    return progress();
}

EngineStats
ExecutionEngine::run(const std::vector<Stream*>& streams)
{
    if (!prepare(streams))
        return EngineStats{};
    advance([] { return false; }, /*pause_on_block=*/false);
    return last_stats_;
}

EngineStats
ExecutionEngine::run_and_take_stats(const std::vector<Stream*>& streams)
{
    if (!prepare(streams))
        return EngineStats{};
    advance([] { return false; }, /*pause_on_block=*/false);
    return std::exchange(last_stats_, EngineStats{});
}

RunProgress
ExecutionEngine::run_until(const std::vector<Stream*>& streams,
                           uint64_t cycle)
{
    if (!prepare(streams))
        return RunProgress{};
    // A bounded advance pauses on host-resolvable waits instead of
    // throwing: the caller may record the missing event and resume.
    return advance([&] { return run_->now > cycle; },
                   /*pause_on_block=*/true, /*bound=*/cycle);
}

void
ExecutionEngine::advance_idle_to(uint64_t cycle)
{
    if (!run_)
        throw std::runtime_error(
            "advance_idle_to: no active run (begin one with run_until())");
    RunState& rs = *run_;
    if (cycle <= rs.now)
        return;
    // Resident launches forbid the jump — except hung ones: an
    // injected hang is quiescent (all CTAs drained) and will never
    // schedule an event, so skipping idle time past it is exact.  A
    // slowdown hold is NOT exempt: its release is a scheduled event
    // the jump would leap over.
    for (const auto& l : rs.resident)
        if (l->state(rs.now) != LaunchState::kHung)
            throw std::runtime_error(detail::format(
                "advance_idle_to: chip is not idle at cycle %llu (%zu "
                "kernel(s) resident)",
                static_cast<unsigned long long>(rs.now),
                rs.resident.size()));
    wake_streams();
    for (size_t idx : rs.queued) {
        const StreamRun& sr = rs.stream_runs[idx];
        if (sr.stream->ops_.empty())
            continue;
        // A stream blocked behind its own hung launch cannot run
        // anything regardless of what is queued on it.
        if (sr.live != nullptr)
            continue;
        const Stream::Op& front = sr.stream->ops_.front();
        // Only waits on not-yet-complete events may remain: anything
        // else is runnable work the jump would incorrectly delay.
        if (front.kind != Stream::OpKind::kWaitEvent ||
            front.wait->complete())
            throw std::runtime_error(detail::format(
                "advance_idle_to: stream %d has runnable work queued at "
                "cycle %llu; run it (run_until) before jumping the clock",
                sr.stream->id(),
                static_cast<unsigned long long>(rs.now)));
    }
    if (cycle > opts_.max_cycles)
        throw std::runtime_error(detail::format(
            "advance_idle_to: target cycle %llu exceeds max_cycles=%llu",
            static_cast<unsigned long long>(cycle),
            static_cast<unsigned long long>(opts_.max_cycles)));
    rs.stats.skipped_cycles += cycle - rs.now;
    rs.now = cycle;
}

void
ExecutionEngine::kill_stream(Stream* stream)
{
    stream->ops_.clear();
    if (!run_)
        return;
    RunState& rs = *run_;
    StreamRun* sr = find_stream_run(stream);
    if (sr == nullptr || sr->live == nullptr)
        return;
    Launch* l = sr->live;
    if (executing(l->state(rs.now)))
        throw std::runtime_error(detail::format(
            "kill_stream: launch \"%s\" on stream %d is still executing "
            "at cycle %llu (%d/%d CTAs done); killing it would leave SM "
            "state dangling",
            l->desc.name.c_str(), stream->id(),
            static_cast<unsigned long long>(rs.now), l->grid.ctas_done,
            l->desc.grid_ctas));
    // Evict without a statistics entry: the kernel never completed, so
    // its work is lost — exactly the cost a real fleet pays for killing
    // a hung batch.
    for (auto& sm : rs.sms)
        sm->forget_grid(&l->grid);
    sr->live = nullptr;
    std::erase_if(rs.resident, [l](const std::unique_ptr<Launch>& p) {
        return p.get() == l;
    });
}

bool
ExecutionEngine::stream_quiescent(const Stream* stream) const
{
    if (!run_)
        return true;
    const StreamRun* sr = find_stream_run(stream);
    return sr == nullptr || sr->live == nullptr ||
           !executing(sr->live->state(run_->now));
}

RunProgress
ExecutionEngine::synchronize(const std::vector<Stream*>& streams,
                             const Stream& stream)
{
    // Synchronizing an idle stream is a no-op (the cudaStreamSynchronize
    // pattern): return without beginning a run — prepare() would create
    // RunState and reset memory timing for nothing.
    bool idle = stream.ops_.empty();
    if (idle && run_) {
        const StreamRun* sr = find_stream_run(&stream);
        idle = sr == nullptr || sr->live == nullptr;
    }
    if (idle)
        return active() ? progress() : RunProgress{};
    if (!prepare(streams))
        return RunProgress{};
    auto known = run_->stream_index.find(&stream);
    if (known == run_->stream_index.end())
        return progress();  // Unknown stream: trivially drained.
    // By index: host callbacks may grow stream_runs mid-advance.
    const size_t idx = known->second;
    return advance(
        [&] {
            return run_->stream_runs[idx].live == nullptr && stream.empty();
        },
        /*pause_on_block=*/false);
}

// ---- Snapshot walk ----------------------------------------------

template <class Ar>
static void
transfer(Ar& ar, ArchiveRef<Ar, LaunchStats> k)
{
    ar.io(k.kernel);
    ar.io(k.stream);
    ar.io(k.start_cycle);
    ar.io(k.finish_cycle);
    ar.io(k.cycles);
    ar.io(k.instructions);
    ar.io(k.hmma_instructions);
    ar.io(k.ipc);
    transfer(ar, k.mem);
    transfer(ar, k.macro_latency);
    transfer(ar, k.stalls);
}

/** A grid's per-SM stats shards; the count sizes the shards before
 *  their bytes are read, so it may not exceed @p max_shards. */
template <class Ar>
static void
transfer(Ar& ar, ArchiveRef<Ar, RunStatsCollector> c, size_t max_shards)
{
    auto& shards = c.shards();
    uint64_t n = shards.size();
    ar.io(n);
    ar.check(n <= max_shards, "stats shard count exceeds the SM count");
    if constexpr (Ar::kLoading)
        shards.resize(n);
    for (auto& s : shards) {
        ar.io(s.instructions);
        ar.io(s.hmma_instructions);
        transfer(ar, s.macro_latency);
        transfer(ar, s.stalls);
    }
}

template <class Ar>
void
ExecutionEngine::transfer(Ar& ar, ArchiveRef<Ar, ExecutionEngine> self,
                          KernelTable<Ar> kernels,
                          const std::vector<Stream*>& streams)
{
    // Loading builds the run aside and installs it only once every
    // byte has loaded: a rejected archive leaves no half-built run.
    std::unique_ptr<RunState> loaded;
    if constexpr (Ar::kLoading) {
        self.last_stats_ = EngineStats{};
        if (self.run_)
            self.release_streams();
        self.run_.reset();
        self.cycled_.clear();
        self.retiring_.clear();
        self.completions_.clear();
        self.callbacks_fired_ = false;
        loaded = std::make_unique<RunState>();
        loaded->wall_start = std::chrono::steady_clock::now();
    } else if (!self.run_) {
        throw SnapshotError("no active run to snapshot");
    }
    RunState& rs = Ar::kLoading ? *loaded : *self.run_;
    const size_t max_sms = static_cast<size_t>(self.cfg_.num_sms);
    ar.tag(kTagEngine);
    ar.io(rs.now);
    ar.io(rs.next_grid_id);
    ar.io(rs.stats.ticks);
    ar.io(rs.stats.skipped_cycles);
    ar.seq(rs.stats.kernels, [&](auto& k) { tcsim::transfer(ar, k); });

    // Resident launches in dispatch-priority order.  Descriptors go
    // to the side table — their trace std::function is copyable but
    // not byte-serializable — and everything below references grids
    // by index into this residency order.
    ar.seq(rs.resident, [&](auto& l) {
        if constexpr (Ar::kLoading)
            l = std::make_unique<Launch>();
        transfer_kernel(ar, l->desc, kernels);
        GridRun& g = l->grid;
        if constexpr (Ar::kLoading)
            g.kernel = &l->desc;
        ar.io(g.grid_id);
        ar.io(g.stream_id);
        ar.io(g.next_cta);
        ar.io(g.ctas_done);
        ar.check(g.next_cta >= 0 && g.next_cta <= l->desc.grid_ctas &&
                     g.ctas_done >= 0 && g.ctas_done <= l->desc.grid_ctas,
                 "CTA progress out of range");
        ar.io(g.start_cycle);
        ar.io(g.finish_cycle);
        tcsim::transfer(ar, g.stats, max_sms);
        tcsim::transfer(ar, l->mem_base);
        // Replay state: a launch may be mid-replay (profile + done
        // cycle) or recording (key + occupancy scratch).
        bool replaying = l->replay_profile != nullptr;
        ar.io(replaying);
        if (replaying) {
            if constexpr (Ar::kLoading)
                l->replay_profile = std::make_unique<KernelTimingProfile>();
            tcsim::transfer(ar, *l->replay_profile);
            ar.io(l->replay_done);
        }
        ar.io(l->record_key);
        ar.io(l->record_seq);
        tcsim::transfer(ar, l->occupancy);
    });
    std::vector<GridRun*> grids;
    grids.reserve(rs.resident.size());
    for (const auto& l : rs.resident)
        grids.push_back(&l->grid);

    ar.seq(rs.stream_runs, [&](auto& sr) {
        int id = sr.stream ? sr.stream->id() : 0;
        ar.io(id);
        int live = -1;
        for (size_t i = 0; i < rs.resident.size(); ++i)
            if (rs.resident[i].get() == sr.live)
                live = static_cast<int>(i);
        ar.io(live);
        if constexpr (Ar::kLoading) {
            const size_t index = static_cast<size_t>(&sr - rs.stream_runs.data());
            for (Stream* s : streams)
                if (s->id() == id)
                    sr.stream = s;
            ar.check(sr.stream != nullptr,
                     "archive references an unknown stream id");
            ar.check(rs.stream_index.emplace(sr.stream, index).second,
                     "stream archived twice");
            ar.check(live >= -1 &&
                         live < static_cast<int64_t>(rs.resident.size()),
                     "live launch index out of range");
            if (live >= 0) {
                sr.live = rs.resident[static_cast<size_t>(live)].get();
                sr.live->stream_run = index;
            }
            // Every stream starts queued; the first promotion parks
            // the idle ones.
            rs.queued.push_back(index);
        }
    });

    uint64_t nsms = rs.sms.size();
    ar.io(nsms);
    ar.check(nsms <= max_sms, "SM count exceeds the config");
    if constexpr (Ar::kLoading) {
        for (uint64_t i = 0; i < nsms; ++i) {
            auto sm = std::make_unique<SM>(static_cast<int>(i), self.cfg_,
                                           self.mem_, self.executors_,
                                           self.opts_.scheduler);
            if (self.fault_plan_)
                if (int cap =
                        self.fault_plan_->warp_slot_cap(static_cast<int>(i)))
                    sm->set_warp_cap(cap);
            rs.sms.push_back(std::move(sm));
        }
        // Every resident grid carries one stats shard per SM.
        for (const auto& l : rs.resident)
            l->grid.stats.ensure_shards(rs.sms.size());
    }
    for (const auto& sm : rs.sms)
        SM::transfer(ar, *sm, grids);

    ar.seq(rs.busy_sms, [&](auto& id) {
        ar.index(id, rs.sms.size(), "busy SM index out of range");
    });

    // Replay run-state: warmth trackers, the hit/miss tallies, and the
    // accumulated deltas of already retired replayed launches
    // (fill_totals folds them into totals).
    ar.tag(kTagReplay);
    ar.io(rs.last_finished_key);
    ar.io(rs.any_finished);
    ar.map(rs.replay_seq, [&](auto& key, auto& seq) {
        ar.io(key);
        ar.io(seq);
    });
    ar.io(rs.stats.replay_hits);
    ar.io(rs.stats.replay_misses);
    tcsim::transfer(ar, rs.replay_mem);
    tcsim::transfer(ar, rs.replay_stalls);
    if constexpr (Ar::kLoading)
        self.run_ = std::move(loaded);
}

template void ExecutionEngine::transfer(SnapshotWriter&,
                                        const ExecutionEngine&,
                                        std::vector<KernelDesc>&,
                                        const std::vector<Stream*>&);
template void ExecutionEngine::transfer(SnapshotReader&, ExecutionEngine&,
                                        const std::vector<KernelDesc>&,
                                        const std::vector<Stream*>&);

RunProgress
ExecutionEngine::synchronize(const std::vector<Stream*>& streams,
                             const Event& event)
{
    if (event.complete())
        return active() ? progress() : RunProgress{};
    if (!prepare(streams)) {
        throw EngineDeadlockError(detail::format(
            "synchronize: event \"%s\" has not completed and no work is "
            "queued that could complete it",
            event.name().c_str()));
    }
    RunProgress out = advance([&] { return event.complete(); },
                              /*pause_on_block=*/false);
    if (!event.complete()) {
        throw EngineDeadlockError(detail::format(
            "synchronize: every stream drained at cycle %llu but event "
            "\"%s\" never completed (%s)",
            static_cast<unsigned long long>(out.current_cycle),
            event.name().c_str(),
            event.recorded() ? "its record was dropped" : "never recorded"));
    }
    return out;
}

}  // namespace tcsim
