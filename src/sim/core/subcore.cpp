#include "sim/core/subcore.h"

#include <algorithm>

#include "common/logging.h"
#include "sim/core/sm.h"

namespace tcsim {

SubCore::SubCore(SM* sm, int index, SchedulerPolicy policy)
    : sm_(sm), index_(index), policy_(policy),
      tc_(sm->config().arch)
{
    const GpuConfig& cfg = sm->config();
    // Warp-level initiation interval = 32 threads / lanes.
    fp32_ = ExecUnit(kWarpSize / cfg.fp32_lanes, cfg.fp32_latency);
    int_ = ExecUnit(kWarpSize / cfg.int_lanes, cfg.int_latency);
    fp64_ = ExecUnit(kWarpSize / cfg.fp64_lanes, cfg.fp64_latency);
    mufu_ = ExecUnit(kWarpSize / cfg.mufu_lanes, cfg.mufu_latency);
}

int
SubCore::add_warp(std::unique_ptr<Warp> warp)
{
    int slot;
    if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
        warps_[static_cast<size_t>(slot)] = std::move(warp);
        scoreboard_.reset_warp(slot);
    } else {
        warps_.push_back(std::move(warp));
        scoreboard_.add_warp();
        slot = static_cast<int>(warps_.size()) - 1;
    }
    active_.push_back(slot);
    return slot;
}

bool
SubCore::busy() const
{
    return !active_.empty() || !inflight_.empty();
}

bool
SubCore::do_writebacks(uint64_t now)
{
    if (now < min_done_)
        return false;
    bool completed = false;
    uint64_t min_done = UINT64_MAX;
    for (size_t i = 0; i < inflight_.size();) {
        if (inflight_[i].done > now) {
            min_done = std::min(min_done, inflight_[i].done);
            ++i;
            continue;
        }
        InFlight entry = inflight_[i];
        inflight_[i] = inflight_.back();
        inflight_.pop_back();
        completed = true;

        Warp& w = *warps_[entry.warp_slot];
        scoreboard_.complete(entry.warp_slot, *entry.inst);
        w.sb_blocked = false;
        --w.inflight;
        if (entry.inst->macro_id != 0 && entry.inst->macro_end) {
            uint64_t key = Warp::macro_key(entry.inst->macro_id, entry.iter);
            auto it = w.macro_start.find(key);
            if (it != w.macro_start.end()) {
                sm_->record_macro(w.grid, entry.inst->macro_class,
                                  entry.done - it->second);
                w.macro_start.erase(it);
            }
        }
        maybe_finish_warp(entry.warp_slot);
    }
    min_done_ = min_done;
    return completed;
}

void
SubCore::maybe_finish_warp(int slot)
{
    Warp& w = *warps_[slot];
    if (!w.exited || w.inflight > 0 || w.state == WarpState::kFinished)
        return;
    w.state = WarpState::kFinished;
    // Release trace and register storage eagerly; large grids recycle
    // thousands of warps per SM.
    w.prog.clear();
    w.prog.shrink_to_fit();
    w.regs.reset();
    auto it = std::find(active_.begin(), active_.end(), slot);
    TCSIM_CHECK(it != active_.end());
    active_.erase(it);
    // Recycle the slot for a later CTA.  Drop the greedy pointer so a
    // recycled warp is not mistaken for the last issuer (preserves GTO
    // order of the non-recycling model).
    free_slots_.push_back(slot);
    if (last_issued_ == slot)
        last_issued_ = -1;
    sm_->warp_finished(w.cta_slot);
}

void
SubCore::release_barrier(int warp_slot)
{
    Warp& w = *warps_[warp_slot];
    if (w.state == WarpState::kAtBarrier)
        w.state = WarpState::kReady;
}

bool
SubCore::try_issue(uint64_t now)
{
    if (active_.empty()) {
        note_stall(StallReason::kEmpty, 1, nullptr);
        return false;
    }
    last_block_ = StallReason::kDrained;
    last_block_grid_ = nullptr;

    if (policy_ == SchedulerPolicy::kGto) {
        // Greedy: stay with the last issued warp while it can issue.
        if (last_issued_ >= 0 &&
            warps_[last_issued_]->state != WarpState::kFinished) {
            if (try_issue_warp(last_issued_, now))
                return true;
        }
        for (int slot : active_) {
            if (slot == last_issued_)
                continue;
            if (try_issue_warp(slot, now))
                return true;
        }
        note_stall(last_block_, 1, last_block_grid_);
        return false;
    }

    if (policy_ == SchedulerPolicy::kLrr) {
        // LRR: rotate through the active list.
        int n = static_cast<int>(active_.size());
        for (int i = 0; i < n; ++i) {
            int slot = active_[(lrr_pos_ + i) % n];
            if (try_issue_warp(slot, now)) {
                lrr_pos_ = (lrr_pos_ + i + 1) % n;
                return true;
            }
        }
        note_stall(last_block_, 1, last_block_grid_);
        return false;
    }

    // Two-level (authoritative implementation; WarpScheduler::order in
    // scheduler.h is the stateless reference of the same visit order):
    // LRR within the fetch group (the first G active warps); the
    // pending pool is only considered when the whole group is blocked.
    // An issuing pending warp is promoted into the group in place of
    // the least-recently-scheduled member, and rotation then moves
    // past it — exactly as if a group member had issued.
    int n = static_cast<int>(active_.size());
    int g = std::min(WarpScheduler::kFetchGroupSize, n);
    for (int i = 0; i < g; ++i) {
        int pos = (lrr_pos_ + i) % g;
        if (try_issue_warp(active_[pos], now)) {
            lrr_pos_ = (pos + 1) % g;
            return true;
        }
    }
    for (int i = g; i < n; ++i) {
        if (try_issue_warp(active_[i], now)) {
            int pos = lrr_pos_ % g;
            std::swap(active_[static_cast<size_t>(i)],
                      active_[static_cast<size_t>(pos)]);
            lrr_pos_ = (pos + 1) % g;
            return true;
        }
    }
    note_stall(last_block_, 1, last_block_grid_);
    return false;
}

uint64_t
SubCore::next_event(uint64_t now) const
{
    uint64_t e = min_done_;
    if (!active_.empty()) {
        for (const ExecUnit* u : {&fp32_, &int_, &fp64_, &mufu_})
            if (u->next_free() > now)
                e = std::min(e, u->next_free());
        if (tc_.next_ready() > now)
            e = std::min(e, tc_.next_ready());
    }
    return e;
}

void
SubCore::account_skipped(uint64_t cycles)
{
    StallReason r = active_.empty() ? StallReason::kEmpty : last_block_;
    note_stall(r, cycles, r == StallReason::kEmpty ? nullptr
                                                   : last_block_grid_);
}

void
SubCore::note_stall(StallReason r, uint64_t cycles, GridRun* grid)
{
    stalls_[r] += cycles;
    if (grid != nullptr)
        grid->stats.shard(sm_->id()).stalls[r] += cycles;
}

bool
SubCore::try_issue_warp(int slot, uint64_t now)
{
    Warp& w = *warps_[slot];
    if (!w.issuable()) {
        if (w.state == WarpState::kAtBarrier) {
            last_block_ = StallReason::kBarrier;
            last_block_grid_ = w.grid;
        }
        return false;
    }

    const Instruction& inst = w.prog[w.pc];

    if (w.sb_blocked || !scoreboard_.can_issue(slot, inst)) {
        w.sb_blocked = true;
        last_block_ = StallReason::kScoreboard;
        last_block_grid_ = w.grid;
        return false;
    }

    bool loop_back = false;

    switch (inst.op) {
      case Opcode::kHmma: {
        auto done = tc_.try_issue(slot, inst, now);
        if (!done) {
            last_block_ = StallReason::kTcBusy;
            last_block_grid_ = w.grid;
            return false;
        }
        scoreboard_.issue(slot, inst);
        register_writeback(*done, slot, &inst, w.iter);
        ++w.inflight;
        break;
      }
      case Opcode::kLdg:
      case Opcode::kStg:
      case Opcode::kLds:
      case Opcode::kSts: {
        StallReason block = sm_->mio_push(index_, slot, &inst, w.iter);
        if (block != StallReason::kNone) {
            last_block_ = block;
            last_block_grid_ = w.grid;
            return false;
        }
        scoreboard_.issue(slot, inst);
        ++w.inflight;
        break;
      }
      case Opcode::kFfma:
      case Opcode::kFadd:
      case Opcode::kHfma2: {
        if (!fp32_.ready(now)) {
            last_block_ = StallReason::kAluBusy;
            last_block_grid_ = w.grid;
            return false;
        }
        scoreboard_.issue(slot, inst);
        register_writeback(fp32_.issue(now), slot, &inst, w.iter);
        ++w.inflight;
        break;
      }
      case Opcode::kIadd:
      case Opcode::kImad:
      case Opcode::kMov:
      case Opcode::kCs2r: {
        if (!int_.ready(now)) {
            last_block_ = StallReason::kAluBusy;
            last_block_grid_ = w.grid;
            return false;
        }
        scoreboard_.issue(slot, inst);
        register_writeback(int_.issue(now), slot, &inst, w.iter);
        ++w.inflight;
        break;
      }
      case Opcode::kBarSync: {
        w.state = WarpState::kAtBarrier;
        break;
      }
      case Opcode::kLoopBegin: {
        TCSIM_CHECK(inst.imm >= 1);
        w.loop_trips = static_cast<int>(inst.imm);
        w.loop_begin = w.pc;
        w.iter = 0;
        break;
      }
      case Opcode::kLoopEnd: {
        if (w.iter + 1 < w.loop_trips)
            loop_back = true;
        break;
      }
      case Opcode::kNop:
        break;
      case Opcode::kExit: {
        w.exited = true;
        break;
      }
    }

    finish_issue(slot, w, inst, now);
    if (loop_back) {
        ++w.iter;
        w.pc = w.loop_begin + 1;  // finish_issue advanced past kLoopEnd
    }
    if (inst.op == Opcode::kBarSync)
        sm_->barrier_arrive(w.cta_slot);
    if (inst.op == Opcode::kExit)
        maybe_finish_warp(slot);
    return true;
}

void
SubCore::finish_issue(int slot, Warp& w, const Instruction& inst,
                      uint64_t now)
{
    if (inst.macro_id != 0) {
        uint64_t key = Warp::macro_key(inst.macro_id, w.iter);
        if (!w.macro_start.contains(key))
            w.macro_start.emplace(key, now);
    }
    if (w.grid->kernel->functional)
        sm_->execute_functional(w, inst);
    ++w.pc;
    ++issued_;
    last_issued_ = slot;
    sm_->count_issue(w, inst);
}

void
SubCore::register_writeback(uint64_t done, int warp_slot,
                            const Instruction* inst, int iter)
{
    // Writebacks at `now` must still complete; nudge to the next cycle.
    done = std::max(done, sm_->now() + 1);
    inflight_.push_back(InFlight{done, warp_slot, inst, iter});
    min_done_ = std::min(min_done_, done);
}

namespace {

/** Stable index of @p g in the engine's resident-grid table.  Finished
 *  warps keep their (possibly dangling) grid pointer; callers encode
 *  those as UINT32_MAX instead of resolving them here. */
uint32_t
grid_index_of(const std::vector<GridRun*>& grids, const GridRun* g)
{
    for (size_t i = 0; i < grids.size(); ++i)
        if (grids[i] == g)
            return static_cast<uint32_t>(i);
    throw SnapshotError("grid pointer not in resident table");
}

}  // namespace

void
SubCore::save_state(SnapshotWriter& w,
                    const std::vector<GridRun*>& grids) const
{
    w.tag(kTagSubCore);
    w.u64(warps_.size());
    for (const auto& wp : warps_) {
        const Warp& wr = *wp;
        w.tag(kTagWarp);
        w.u8(static_cast<uint8_t>(wr.state));
        w.b(wr.exited);
        w.i32(wr.inflight);
        w.u64(wr.pc);
        w.i32(wr.iter);
        w.i32(wr.loop_trips);
        w.u64(wr.loop_begin);
        w.i32(wr.cta_slot);
        w.i32(wr.warp_in_cta);
        // A finished warp's grid pointer may dangle (its grid can have
        // retired); it is never dereferenced again, so drop it.
        bool finished = wr.state == WarpState::kFinished;
        w.u32(finished ? UINT32_MAX : grid_index_of(grids, wr.grid));
        w.u64(wr.prog.size());
        w.b(wr.regs != nullptr);
        if (wr.regs)
            wr.regs->save_state(w);
        // Sorted key order: lookups are by key so map order is not
        // observable, but the archive bytes must be deterministic.
        std::vector<std::pair<uint64_t, uint64_t>> macros(
            wr.macro_start.begin(), wr.macro_start.end());
        std::sort(macros.begin(), macros.end());
        w.u64(macros.size());
        for (const auto& [key, start] : macros) {
            w.u64(key);
            w.u64(start);
        }
    }
    // active_ and free_slots_ in exact runtime order: GTO/LRR visit
    // active_ in order and slots recycle LIFO, so order is behaviour.
    w.u64(active_.size());
    for (int s : active_)
        w.i32(s);
    w.u64(free_slots_.size());
    for (int s : free_slots_)
        w.i32(s);
    scoreboard_.save_state(w);
    fp32_.save_state(w);
    int_.save_state(w);
    fp64_.save_state(w);
    mufu_.save_state(w);
    tc_.save_state(w);
    // In-flight writebacks in exact vector order (do_writebacks
    // swap-erases, so the order encodes completion history).
    w.u64(inflight_.size());
    for (const InFlight& f : inflight_) {
        w.u64(f.done);
        w.i32(f.warp_slot);
        const Warp& owner = *warps_[static_cast<size_t>(f.warp_slot)];
        w.u64(static_cast<uint64_t>(f.inst - owner.prog.data()));
        w.i32(f.iter);
    }
    w.i32(last_issued_);
    w.i32(lrr_pos_);
    w.u64(issued_);
    for (uint64_t c : stalls_.counts)
        w.u64(c);
    w.u8(static_cast<uint8_t>(last_block_));
    w.u32(last_block_grid_ ? grid_index_of(grids, last_block_grid_)
                           : UINT32_MAX);
}

void
SubCore::load_state(SnapshotReader& r, const std::vector<GridRun*>& grids)
{
    r.tag(kTagSubCore);
    size_t nwarps = r.u64();
    warps_.clear();
    warps_.reserve(nwarps);
    for (size_t i = 0; i < nwarps; ++i) {
        r.tag(kTagWarp);
        auto wp = std::make_unique<Warp>();
        Warp& wr = *wp;
        wr.state = static_cast<WarpState>(r.u8());
        wr.exited = r.b();
        wr.inflight = r.i32();
        wr.pc = r.u64();
        wr.iter = r.i32();
        wr.loop_trips = r.i32();
        wr.loop_begin = r.u64();
        wr.cta_slot = r.i32();
        wr.warp_in_cta = r.i32();
        uint32_t gidx = r.u32();
        uint64_t prog_size = r.u64();
        if (gidx != UINT32_MAX) {
            if (gidx >= grids.size())
                throw SnapshotError("warp grid index out of range");
            wr.grid = grids[gidx];
            wr.prog = wr.grid->kernel->trace(
                sm_->cta_id_of_slot(wr.cta_slot), wr.warp_in_cta);
            if (wr.prog.size() != prog_size)
                throw SnapshotError(
                    "regenerated warp program length mismatch (trace "
                    "generator not deterministic?)");
        } else if (prog_size != 0) {
            throw SnapshotError("finished warp with non-empty program");
        }
        if (r.b()) {
            wr.regs = std::make_unique<WarpRegState>();
            wr.regs->load_state(r);
        }
        uint64_t nmacros = r.u64();
        for (uint64_t m = 0; m < nmacros; ++m) {
            uint64_t key = r.u64();
            wr.macro_start.emplace(key, r.u64());
        }
        warps_.push_back(std::move(wp));
    }
    active_.clear();
    size_t nactive = r.u64();
    for (size_t i = 0; i < nactive; ++i)
        active_.push_back(r.i32());
    free_slots_.clear();
    size_t nfree = r.u64();
    for (size_t i = 0; i < nfree; ++i)
        free_slots_.push_back(r.i32());
    scoreboard_.load_state(r);
    fp32_.load_state(r);
    int_.load_state(r);
    fp64_.load_state(r);
    mufu_.load_state(r);
    tc_.load_state(r);
    inflight_.clear();
    min_done_ = UINT64_MAX;
    size_t ninflight = r.u64();
    for (size_t i = 0; i < ninflight; ++i) {
        InFlight f;
        f.done = r.u64();
        f.warp_slot = r.i32();
        uint64_t idx = r.u64();
        if (f.warp_slot < 0 ||
            static_cast<size_t>(f.warp_slot) >= warps_.size())
            throw SnapshotError("in-flight warp slot out of range");
        const Warp& owner = *warps_[static_cast<size_t>(f.warp_slot)];
        if (idx >= owner.prog.size())
            throw SnapshotError("in-flight instruction index out of range");
        f.inst = &owner.prog[idx];
        f.iter = r.i32();
        inflight_.push_back(f);
        min_done_ = std::min(min_done_, f.done);
    }
    last_issued_ = r.i32();
    lrr_pos_ = r.i32();
    issued_ = r.u64();
    for (uint64_t& c : stalls_.counts)
        c = r.u64();
    last_block_ = static_cast<StallReason>(r.u8());
    uint32_t bgidx = r.u32();
    if (bgidx == UINT32_MAX) {
        last_block_grid_ = nullptr;
    } else {
        if (bgidx >= grids.size())
            throw SnapshotError("stall grid index out of range");
        last_block_grid_ = grids[bgidx];
    }
}

}  // namespace tcsim
