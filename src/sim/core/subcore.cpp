#include "sim/core/subcore.h"

#include <algorithm>

#include "common/logging.h"
#include "sim/core/sm.h"
#include "sim/stats_codec.h"

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


template <class Ar>
void
SubCore::transfer(Ar& ar, ArchiveRef<Ar, SubCore> self,
                  const std::vector<GridRun*>& grids)
{
    ar.tag(kTagSubCore);
    ar.seq(self.warps_, [&](auto& wp) {
        if constexpr (Ar::kLoading)
            wp = std::make_unique<Warp>();
        auto& wr = *wp;
        ar.tag(kTagWarp);
        ar.enumerated(wr.state, WarpState::kFinished);
        ar.io(wr.exited);
        ar.io(wr.inflight);
        ar.io(wr.pc);
        ar.io(wr.iter);
        ar.io(wr.loop_trips);
        ar.io(wr.loop_begin);
        ar.io(wr.cta_slot);
        ar.io(wr.warp_in_cta);
        // A finished warp's grid pointer may dangle (its grid can have
        // retired); it is never dereferenced again, so drop it.
        GridRun* grid =
            wr.state == WarpState::kFinished ? nullptr : wr.grid;
        transfer_grid(ar, grid, grids);
        uint64_t prog_size = wr.prog.size();
        ar.io(prog_size);
        if constexpr (Ar::kLoading) {
            if (grid != nullptr) {
                const KernelDesc& k = *grid->kernel;
                const int cta_id = self.sm_->cta_id_of_slot(wr.cta_slot);
                ar.check(cta_id >= 0, "warp CTA slot out of range");
                ar.check(wr.warp_in_cta >= 0 &&
                             wr.warp_in_cta < k.warps_per_cta,
                         "warp index in CTA out of range");
                wr.grid = grid;
                wr.prog = k.trace(cta_id, wr.warp_in_cta);
                ar.check(wr.prog.size() == prog_size,
                         "regenerated warp program length mismatch "
                         "(trace generator not deterministic?)");
                ar.check(wr.pc <= prog_size && wr.loop_begin <= prog_size,
                         "warp pc out of range");
            } else {
                ar.check(prog_size == 0,
                         "finished warp with non-empty program");
            }
        }
        bool has_regs = wr.regs != nullptr;
        ar.io(has_regs);
        if (has_regs) {
            if constexpr (Ar::kLoading) {
                ar.check(wr.grid != nullptr,
                         "register file on a warp without a grid");
                wr.regs = std::make_unique<WarpRegState>(
                    wr.grid->kernel->regs_per_thread);
            }
            WarpRegState::transfer(ar, *wr.regs);
        }
        // Sorted key order: lookups are by key so map order is not
        // observable, but the archive bytes must be deterministic.
        std::vector<std::pair<uint64_t, uint64_t>> macros(
            wr.macro_start.begin(), wr.macro_start.end());
        std::sort(macros.begin(), macros.end());
        ar.seq(macros, [&](auto& m) {
            ar.io(m.first);
            ar.io(m.second);
        });
        if constexpr (Ar::kLoading)
            wr.macro_start.insert(macros.begin(), macros.end());
    });
    const size_t nwarps = self.warps_.size();
    // active_ and free_slots_ in exact runtime order: GTO/LRR visit
    // active_ in order and slots recycle LIFO, so order is behaviour.
    ar.seq(self.active_, [&](auto& slot) {
        ar.index(slot, nwarps, "active warp slot out of range");
    });
    ar.seq(self.free_slots_, [&](auto& slot) {
        ar.index(slot, nwarps, "free warp slot out of range");
    });
    Scoreboard::transfer(ar, self.scoreboard_);
    ar.check(self.scoreboard_.warp_count() == nwarps,
             "scoreboard warp count mismatch");
    ExecUnit::transfer(ar, self.fp32_);
    ExecUnit::transfer(ar, self.int_);
    ExecUnit::transfer(ar, self.fp64_);
    ExecUnit::transfer(ar, self.mufu_);
    TensorCoreUnit::transfer(ar, self.tc_);
    ar.check(self.tc_.active_warp() >= -1 &&
                 self.tc_.active_warp() < static_cast<int64_t>(nwarps),
             "tensor-core warp slot out of range");
    // In-flight writebacks in exact vector order (do_writebacks
    // swap-erases, so the order encodes completion history).
    ar.seq(self.inflight_, [&](auto& f) {
        ar.io(f.done);
        ar.index(f.warp_slot, nwarps, "in-flight warp slot out of range");
        transfer_inst(ar, f.inst,
                      self.warps_[static_cast<size_t>(f.warp_slot)]->prog,
                      "in-flight instruction index out of range");
        ar.io(f.iter);
    });
    if constexpr (Ar::kLoading) {
        self.min_done_ = UINT64_MAX;
        for (const InFlight& f : self.inflight_)
            self.min_done_ = std::min(self.min_done_, f.done);
    }
    ar.io(self.last_issued_);
    ar.check(self.last_issued_ >= -1 &&
                 self.last_issued_ < static_cast<int64_t>(nwarps),
             "last-issued warp slot out of range");
    ar.io(self.lrr_pos_);
    ar.check(self.lrr_pos_ >= 0, "negative round-robin position");
    ar.io(self.issued_);
    tcsim::transfer(ar, self.stalls_);
    ar.enumerated(self.last_block_, StallReason::kDramQueue);
    transfer_grid(ar, self.last_block_grid_, grids);
}

template void SubCore::transfer(SnapshotWriter&, const SubCore&,
                                const std::vector<GridRun*>&);
template void SubCore::transfer(SnapshotReader&, SubCore&,
                                const std::vector<GridRun*>&);

}  // namespace tcsim
