#include "sim/core/sm.h"

#include <algorithm>
#include <mutex>

#include "common/logging.h"
#include "common/sim_error.h"
#include "sim/mem/coalescer.h"
#include "sim/snapshot_io.h"

namespace tcsim {

uint64_t
ExecutorCache::key(Arch arch, const HmmaInfo& info)
{
    return (static_cast<uint64_t>(arch) << 40) |
           (static_cast<uint64_t>(info.mode) << 36) |
           (static_cast<uint64_t>(info.a_layout) << 34) |
           (static_cast<uint64_t>(info.b_layout) << 32) |
           (static_cast<uint64_t>(info.shape.m) << 16) |
           (static_cast<uint64_t>(info.shape.n) << 8) |
           static_cast<uint64_t>(info.shape.k);
}

HmmaExecutor&
ExecutorCache::get(Arch arch, const HmmaInfo& info)
{
    uint64_t k = key(arch, info);
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        auto it = cache_.find(k);
        if (it != cache_.end())
            return *it->second;
    }
    std::unique_lock<std::shared_mutex> lock(mutex_);
    auto it = cache_.find(k);  // Lost the upgrade race?  Reuse.
    if (it == cache_.end()) {
        it = cache_
                 .emplace(k, std::make_unique<HmmaExecutor>(
                                 arch, info.mode, info.shape, info.a_layout,
                                 info.b_layout))
                 .first;
    }
    return *it->second;
}

SM::SM(int id, const GpuConfig& cfg, MemorySystem* mem,
       ExecutorCache* executors, SchedulerPolicy policy)
    : id_(id), cfg_(cfg), mem_(mem), executors_(executors),
      warp_cap_(cfg.max_warps_per_sm)
{
    subcores_.reserve(static_cast<size_t>(cfg.subcores_per_sm));
    for (int i = 0; i < cfg.subcores_per_sm; ++i)
        subcores_.push_back(std::make_unique<SubCore>(this, i, policy));
    cta_slots_.resize(static_cast<size_t>(cfg.max_ctas_per_sm));
    cta_warps_.resize(static_cast<size_t>(cfg.max_ctas_per_sm));
}

/** Per-CTA register demand of @p k (32-bit registers). */
static uint64_t
cta_registers(const KernelDesc& k)
{
    return static_cast<uint64_t>(k.warps_per_cta) * kWarpSize *
           static_cast<uint64_t>(k.regs_per_thread);
}

bool
SM::fits(const GpuConfig& cfg, const KernelDesc& k)
{
    TCSIM_CHECK(k.warps_per_cta > 0);
    return k.warps_per_cta <= cfg.max_warps_per_sm &&
           k.shared_mem_bytes <= cfg.shared_mem_per_sm &&
           cta_registers(k) <= cfg.registers_per_sm;
}

void
SM::check_fits(const GpuConfig& cfg, const KernelDesc& k)
{
    if (!fits(cfg, k)) {
        throw SimError(detail::format(
            "kernel %s exceeds SM resources (warps=%d smem=%u regs=%d)",
            k.name.c_str(), k.warps_per_cta, k.shared_mem_bytes,
            k.regs_per_thread));
    }
}

bool
SM::can_accept(const KernelDesc& k) const
{
    return used_ctas_ < cfg_.max_ctas_per_sm &&
           used_warps_ + k.warps_per_cta <= warp_cap_ &&
           used_smem_ + k.shared_mem_bytes <= cfg_.shared_mem_per_sm &&
           used_regs_ + cta_registers(k) <= cfg_.registers_per_sm;
}

void
SM::launch_cta(GridRun* grid, int cta_id)
{
    TCSIM_CHECK(!pending_wb_);  // Dispatch runs between ticks.
    const KernelDesc& k = *grid->kernel;
    size_t slot = 0;
    while (slot < cta_slots_.size() && cta_slots_[slot].valid)
        ++slot;
    TCSIM_CHECK(slot < cta_slots_.size());

    CtaSlot& cta = cta_slots_[slot];
    cta.valid = true;
    cta.grid = grid;
    cta.cta_id = cta_id;
    cta.live_warps = k.warps_per_cta;
    cta.barrier_arrived = 0;
    cta.shared = k.shared_mem_bytes
                     ? std::make_unique<SharedMemoryStorage>(
                           k.shared_mem_bytes)
                     : nullptr;
    cta_warps_[slot].clear();

    ++used_ctas_;
    used_warps_ += k.warps_per_cta;
    used_smem_ += k.shared_mem_bytes;
    used_regs_ += cta_registers(k);

    for (int wi = 0; wi < k.warps_per_cta; ++wi) {
        auto w = std::make_unique<Warp>();
        w->prog = k.trace(cta_id, wi);
        TCSIM_CHECK(!w->prog.empty());
        TCSIM_CHECK(w->prog.back().op == Opcode::kExit);
        // The scoreboard's fixed-width masks cover kMaxRegs registers.
        for (const Instruction& inst : w->prog)
            TCSIM_CHECK(Scoreboard::operands_in_range(inst));
        if (k.functional)
            w->regs = std::make_unique<WarpRegState>(k.regs_per_thread);
        w->grid = grid;
        w->cta_slot = static_cast<int>(slot);
        w->warp_in_cta = wi;
        int sc = wi % cfg_.subcores_per_sm;
        int warp_slot = subcores_[static_cast<size_t>(sc)]->add_warp(
            std::move(w));
        cta_warps_[slot].push_back({sc, warp_slot});
    }
}

void
SM::cycle(uint64_t now)
{
    begin_tick(now);
    tick_compute(now);
    commit_tick();
}

void
SM::begin_tick(uint64_t now)
{
    now_ = now;
    progress_ = false;
    process_global_pipe();
}

void
SM::tick_compute(uint64_t now)
{
    // The shared-memory pipe never leaves the SM, so it runs here in
    // parallel.  Its writeback registers before the global pipe's
    // stashed one and both before the sub-cores tick: the order in
    // which a serial SM::cycle fills each sub-core's in-flight list.
    process_shared_pipe();
    if (pending_wb_) {
        subcores_[static_cast<size_t>(pending_wb_->subcore)]
            ->register_writeback(pending_wb_->done, pending_wb_->warp_slot,
                                 pending_wb_->inst, pending_wb_->iter);
        pending_wb_.reset();
    }
    for (auto& sc : subcores_) {
        if (sc->do_writebacks(now))
            progress_ = true;
        if (sc->try_issue(now))
            progress_ = true;
    }
    // Tick-end caches: computed here (possibly on a worker thread) so
    // the engine's busy-list rebuild and stalled-chip event scan read
    // one value per SM instead of re-walking SM internals serially.
    busy_cache_ = busy();
    next_event_cache_ = next_event(now);
}

void
SM::commit_tick(std::vector<GridRun*>* completions)
{
    for (const StagedMemOp& op : staged_mem_)
        functional_global_access(*op.warp, *op.inst, op.iter);
    staged_mem_.clear();
    for (GridRun* grid : staged_cta_done_) {
        if (++grid->ctas_done == grid->kernel->grid_ctas)
            grid->finish_cycle = now_;
        if (completions)
            completions->push_back(grid);
    }
    staged_cta_done_.clear();
}

bool
SM::busy() const
{
    for (const auto& sc : subcores_)
        if (sc->busy())
            return true;
    return !mio_shared_.empty() || !mio_global_.empty();
}

uint64_t
SM::next_event(uint64_t now) const
{
    if (!busy())
        return UINT64_MAX;
    if (progress_)
        return now + 1;
    uint64_t e = UINT64_MAX;
    if (!mio_shared_.empty())
        e = std::min(e, std::max(mio_shared_free_, now + 1));
    if (!mio_global_.empty()) {
        // A head blocked by memory back-pressure cannot progress
        // before its retry cycle; jumping straight there is exact
        // because queue slots free only at already-scheduled times.
        uint64_t t = std::max(mio_global_free_, mio_global_retry_);
        e = std::min(e, std::max(t, now + 1));
    }
    for (const auto& sc : subcores_)
        e = std::min(e, sc->next_event(now));
    return e;
}

void
SM::account_skipped(uint64_t cycles)
{
    for (auto& sc : subcores_)
        sc->account_skipped(cycles);
}

uint64_t
SM::issued() const
{
    uint64_t total = 0;
    for (const auto& sc : subcores_)
        total += sc->issued();
    return total;
}

StallReason
SM::mio_push(int subcore, int warp_slot, const Instruction* inst, int iter)
{
    auto& queue = inst->is_shared_space() ? mio_shared_ : mio_global_;
    if (static_cast<int>(queue.size()) >= cfg_.ldst_queue_depth) {
        // A full global queue caused by a refused head transaction
        // surfaces the memory system's reason, so the warp's stall is
        // attributed to the level that is actually back-pressuring.
        if (!inst->is_shared_space() &&
            mio_block_reason_ != StallReason::kNone)
            return mio_block_reason_;
        return StallReason::kMioFull;
    }
    queue.push_back(MioEntry{subcore, warp_slot, inst, iter, {}});
    return StallReason::kNone;
}

void
SM::process_shared_pipe()
{
    if (!mio_shared_.empty() && now_ >= mio_shared_free_) {
        MioEntry entry = mio_shared_.front();
        mio_shared_.pop_front();
        progress_ = true;
        const Instruction& inst = *entry.inst;
        int degree = shared_bank_conflict_degree(inst, cfg_.shared_mem_banks,
                                                 entry.iter);
        int words = std::max(1, inst.width_bits / 32);
        // Each conflict replay and each extra 32-bit phase serializes.
        uint64_t occupancy = static_cast<uint64_t>(degree) * words;
        uint64_t done = now_ + static_cast<uint64_t>(cfg_.shared_mem_latency) +
                        occupancy - 1;
        mio_shared_free_ = now_ + occupancy;
        subcores_[static_cast<size_t>(entry.subcore)]->register_writeback(
            done, entry.warp_slot, entry.inst, entry.iter);
    }
}

void
SM::process_global_pipe()
{
    // Drive the head entry's sectors through the transaction path.  A
    // refused sector (MSHR / NoC / DRAM-queue back-pressure) leaves
    // the entry at the head with its progress; the retry cycle feeds
    // next_event so idle-skip stays exact.
    if (!mio_global_.empty() &&
        now_ >= std::max(mio_global_free_, mio_global_retry_)) {
        MioEntry& entry = mio_global_.front();
        if (!entry.primed) {
            entry.sectors = coalesce_sectors(*entry.inst,
                                             cfg_.l1_sector_bytes,
                                             entry.iter);
            entry.port_next = now_;
            entry.primed = true;
        }
        const bool is_write = entry.inst->op == Opcode::kStg;
        mio_global_retry_ = 0;
        mio_block_reason_ = StallReason::kNone;
        size_t accepted = 0;
        while (entry.next_sector < entry.sectors.size()) {
            // The L1 tag port serializes: one sector per cycle.
            uint64_t t0 = std::max(entry.port_next, now_);
            MemAccessResult r = mem_->access_sector(
                id_, entry.sectors[entry.next_sector], is_write, t0);
            if (r.status != MemAccept::kAccepted) {
                mio_global_retry_ = std::max(r.cycle, now_ + 1);
                mio_block_reason_ = stall_reason_of(r.status);
                break;
            }
            entry.done = std::max(entry.done, r.cycle);
            entry.port_next = t0 + 1;
            ++entry.next_sector;
            ++accepted;
        }
        if (accepted > 0)
            progress_ = true;
        // The LDST port accepts ~2 sectors per cycle.
        if (accepted > 0)
            mio_global_free_ = now_ + std::max<uint64_t>(1, accepted / 2);
        if (entry.next_sector == entry.sectors.size()) {
            progress_ = true;
            // Registered by tick_compute, after the shared pipe's.
            pending_wb_ = PendingWriteback{std::max(entry.done, now_),
                                           entry.subcore, entry.warp_slot,
                                           entry.inst, entry.iter};
            mio_global_.pop_front();
        }
    }
}

StallReason
SM::stall_reason_of(MemAccept status)
{
    switch (status) {
      case MemAccept::kMshrFull: return StallReason::kMshrFull;
      case MemAccept::kNocBusy: return StallReason::kNocBusy;
      case MemAccept::kDramQueue: return StallReason::kDramQueue;
      case MemAccept::kAccepted: break;
    }
    return StallReason::kNone;
}

void
SM::barrier_arrive(int cta_slot)
{
    CtaSlot& cta = cta_slots_[static_cast<size_t>(cta_slot)];
    TCSIM_CHECK(cta.valid);
    if (++cta.barrier_arrived < cta.live_warps)
        return;
    cta.barrier_arrived = 0;
    for (auto [sc, slot] : cta_warps_[static_cast<size_t>(cta_slot)])
        subcores_[static_cast<size_t>(sc)]->release_barrier(slot);
}

void
SM::warp_finished(int cta_slot)
{
    CtaSlot& cta = cta_slots_[static_cast<size_t>(cta_slot)];
    TCSIM_CHECK(cta.valid && cta.live_warps > 0);
    if (--cta.live_warps > 0)
        return;

    ++ctas_completed_;
    GridRun* grid = cta.grid;
    const KernelDesc& k = *grid->kernel;
    --used_ctas_;
    used_warps_ -= k.warps_per_cta;
    used_smem_ -= k.shared_mem_bytes;
    used_regs_ -= cta_registers(k);
    cta.valid = false;
    cta.grid = nullptr;
    cta.shared.reset();

    // ctas_done / finish_cycle are shared by every SM hosting this
    // grid: the increment applies at commit_tick, in SM-index order.
    staged_cta_done_.push_back(grid);
}

void
SM::count_issue(const Warp& w, const Instruction& inst)
{
    RunStatsShard& s = w.grid->stats.shard(id_);
    ++s.instructions;
    if (inst.op == Opcode::kHmma)
        ++s.hmma_instructions;
}

SharedMemoryStorage*
SM::shared(int cta_slot)
{
    return cta_slots_[static_cast<size_t>(cta_slot)].shared.get();
}

void
SM::execute_functional(Warp& w, const Instruction& inst)
{
    if (!w.regs)
        return;
    WarpRegState& regs = *w.regs;

    switch (inst.op) {
      case Opcode::kHmma: {
        // Per-SM memo of the shared executor cache: kernels switch
        // HMMA configurations rarely, and skipping the reader lock
        // keeps worker threads off a shared cache line in the
        // functional hot path (same pattern as timing_for).
        uint64_t key = ExecutorCache::key(cfg_.arch, inst.hmma);
        if (executor_memo_ == nullptr || key != executor_memo_key_) {
            executor_memo_ = &executors_->get(cfg_.arch, inst.hmma);
            executor_memo_key_ = key;
        }
        executor_memo_->execute_step(inst.hmma, regs);
        break;
      }

      case Opcode::kLdg:
      case Opcode::kStg:
        // Global memory is shared across SMs: stage the access and
        // apply it in commit_tick (engine thread, SM-index order).
        // Nothing can observe the warp's registers or the addressed
        // bytes between issue and commit — the warp issues at most
        // one instruction per tick and dependents are scoreboarded —
        // so the deferral is invisible to a serial run.
        TCSIM_CHECK(inst.addr);
        staged_mem_.push_back(StagedMemOp{&w, &inst, w.iter});
        break;

      case Opcode::kLds: {
        TCSIM_CHECK(inst.addr);
        const int bytes = inst.width_bits / 8;
        SharedMemoryStorage* shm = shared(w.cta_slot);
        TCSIM_CHECK(shm != nullptr);
        for (int lane = 0; lane < kWarpSize; ++lane) {
            uint64_t a = inst.effective_addr(lane, w.iter);
            if (a == kNoAddr)
                continue;
            uint32_t buf[4] = {0, 0, 0, 0};
            shm->read(a, buf, static_cast<size_t>(bytes));
            int nregs = std::max(1, inst.width_bits / 32);
            for (int r = 0; r < nregs; ++r)
                regs.write(lane, inst.dst[0] + r, buf[r]);
        }
        break;
      }

      case Opcode::kSts: {
        TCSIM_CHECK(inst.addr);
        const int bytes = inst.width_bits / 8;
        SharedMemoryStorage* shm = shared(w.cta_slot);
        TCSIM_CHECK(shm != nullptr);
        for (int lane = 0; lane < kWarpSize; ++lane) {
            uint64_t a = inst.effective_addr(lane, w.iter);
            if (a == kNoAddr)
                continue;
            uint32_t buf[4];
            int nregs = std::max(1, inst.width_bits / 32);
            for (int r = 0; r < nregs; ++r)
                buf[r] = regs.read(lane, inst.src[0] + r);
            shm->write(a, buf, static_cast<size_t>(bytes));
        }
        break;
      }

      case Opcode::kFfma:
        for (int lane = 0; lane < kWarpSize; ++lane) {
            float v = regs.read_f32(lane, inst.src[0]) *
                          regs.read_f32(lane, inst.src[1]) +
                      regs.read_f32(lane, inst.src[2]);
            regs.write_f32(lane, inst.dst[0], v);
        }
        break;

      case Opcode::kFadd:
        for (int lane = 0; lane < kWarpSize; ++lane) {
            regs.write_f32(lane, inst.dst[0],
                           regs.read_f32(lane, inst.src[0]) +
                               regs.read_f32(lane, inst.src[1]));
        }
        break;

      case Opcode::kHfma2:
        for (int lane = 0; lane < kWarpSize; ++lane) {
            for (int hi = 0; hi < 2; ++hi) {
                half v(regs.read_h16(lane, inst.src[0], hi).to_float() *
                           regs.read_h16(lane, inst.src[1], hi).to_float() +
                       regs.read_h16(lane, inst.src[2], hi).to_float());
                regs.write_h16(lane, inst.dst[0], hi, v);
            }
        }
        break;

      case Opcode::kIadd:
        for (int lane = 0; lane < kWarpSize; ++lane) {
            regs.write(lane, inst.dst[0],
                       regs.read(lane, inst.src[0]) +
                           regs.read(lane, inst.src[1]));
        }
        break;

      case Opcode::kImad:
        for (int lane = 0; lane < kWarpSize; ++lane) {
            regs.write(lane, inst.dst[0],
                       regs.read(lane, inst.src[0]) *
                               regs.read(lane, inst.src[1]) +
                           regs.read(lane, inst.src[2]));
        }
        break;

      case Opcode::kMov:
        for (int lane = 0; lane < kWarpSize; ++lane) {
            uint32_t v = inst.n_src == 0 ? inst.imm
                                         : regs.read(lane, inst.src[0]);
            regs.write(lane, inst.dst[0], v);
        }
        break;

      case Opcode::kCs2r:
        for (int lane = 0; lane < kWarpSize; ++lane)
            regs.write(lane, inst.dst[0], static_cast<uint32_t>(now_));
        break;

      case Opcode::kBarSync:
      case Opcode::kNop:
      case Opcode::kLoopBegin:
      case Opcode::kLoopEnd:
      case Opcode::kExit:
        break;
    }
}

void
SM::functional_global_access(Warp& w, const Instruction& inst, int iter)
{
    WarpRegState& regs = *w.regs;
    const int bytes = inst.width_bits / 8;
    const int nregs = std::max(1, inst.width_bits / 32);
    if (inst.op == Opcode::kLdg) {
        for (int lane = 0; lane < kWarpSize; ++lane) {
            uint64_t a = inst.effective_addr(lane, iter);
            if (a == kNoAddr)
                continue;
            uint32_t buf[4] = {0, 0, 0, 0};
            mem_->global().read(a, buf, static_cast<size_t>(bytes));
            for (int r = 0; r < nregs; ++r)
                regs.write(lane, inst.dst[0] + r, buf[r]);
        }
        return;
    }
    TCSIM_CHECK(inst.op == Opcode::kStg);
    for (int lane = 0; lane < kWarpSize; ++lane) {
        uint64_t a = inst.effective_addr(lane, iter);
        if (a == kNoAddr)
            continue;
        uint32_t buf[4];
        for (int r = 0; r < nregs; ++r)
            buf[r] = regs.read(lane, inst.src[0] + r);
        mem_->global().write(a, buf, static_cast<size_t>(bytes));
    }
}

template <class Ar>
void
SM::transfer(Ar& ar, ArchiveRef<Ar, SM> self,
             const std::vector<GridRun*>& grids)
{
    if constexpr (!Ar::kLoading) {
        if (!self.staged_mem_.empty() || !self.staged_cta_done_.empty())
            throw SnapshotError(
                "SM has staged work; snapshots only between ticks");
        TCSIM_CHECK(!self.pending_wb_);  // Tick-transient, never archived.
    }
    ar.tag(kTagSm);
    ar.io(self.now_);
    ar.io(self.progress_);

    // CTA slot table first: the sub-core walk regenerates warp
    // programs from each slot's cta_id.
    uint64_t slots = self.cta_slots_.size();
    ar.io(slots);
    ar.check(slots == self.cta_slots_.size(), "CTA slot count mismatch");
    for (auto& cta : self.cta_slots_) {
        ar.io(cta.valid);
        if (!cta.valid) {
            if constexpr (Ar::kLoading)
                cta = CtaSlot{};
            continue;
        }
        transfer_grid(ar, cta.grid, grids);
        ar.check(cta.grid != nullptr, "CTA without a grid");
        ar.io(cta.cta_id);
        ar.check(cta.cta_id >= 0 && cta.cta_id < cta.grid->kernel->grid_ctas,
                 "CTA id out of range");
        ar.io(cta.live_warps);
        ar.io(cta.barrier_arrived);
        bool has_shared = cta.shared != nullptr;
        ar.io(has_shared);
        if (!has_shared) {
            if constexpr (Ar::kLoading)
                cta.shared.reset();
            continue;
        }
        uint32_t bytes = cta.shared ? cta.shared->size() : 0;
        ar.io(bytes);
        ar.check(bytes > 0 && bytes == cta.grid->kernel->shared_mem_bytes,
                 "CTA shared-memory size mismatch");
        std::vector<uint8_t> buf(bytes);
        if constexpr (Ar::kLoading)
            cta.shared = std::make_unique<SharedMemoryStorage>(bytes);
        else
            cta.shared->read(0, buf.data(), buf.size());
        ar.bytes(buf.data(), buf.size());
        if constexpr (Ar::kLoading)
            cta.shared->write(0, buf.data(), buf.size());
    }
    // Barrier-release fan-out lists, verbatim (entries of freed slots
    // are stale but unobservable; they clear on the slot's next
    // launch — keeping them preserves bit-identity of future state).
    // Warp slots are checked once the sub-cores are loaded.
    for (auto& vec : self.cta_warps_) {
        ar.seq(vec, [&](auto& entry) {
            ar.index(entry.first, self.subcores_.size(),
                     "barrier sub-core index out of range");
            ar.io(entry.second);
        });
    }

    ar.io(self.used_ctas_);
    ar.io(self.used_warps_);
    ar.io(self.used_smem_);
    ar.io(self.used_regs_);

    // Sub-cores before the MIO queues: queue entries hold Instruction
    // pointers into warp programs the sub-cores own.
    uint64_t subcores = self.subcores_.size();
    ar.io(subcores);
    ar.check(subcores == self.subcores_.size(), "sub-core count mismatch");
    for (auto& sc : self.subcores_)
        SubCore::transfer(ar, *sc, grids);
    for (const auto& vec : self.cta_warps_)
        for (auto [sc, slot] : vec)
            ar.check(slot >= 0 &&
                         static_cast<size_t>(slot) <
                             self.subcores_[static_cast<size_t>(sc)]
                                 ->warp_count(),
                     "barrier warp slot out of range");

    auto transfer_queue = [&](auto& q) {
        ar.seq(q, [&](auto& e) {
            ar.index(e.subcore, self.subcores_.size(),
                     "MIO sub-core index out of range");
            SubCore& sc = *self.subcores_[static_cast<size_t>(e.subcore)];
            ar.index(e.warp_slot, sc.warp_count(),
                     "MIO warp slot out of range");
            transfer_inst(ar, e.inst, sc.warp(e.warp_slot).prog,
                          "MIO instruction index out of range");
            ar.io(e.iter);
            ar.seq(e.sectors, [&](auto& sector) { ar.io(sector); });
            ar.io(e.next_sector);
            ar.check(e.next_sector <= e.sectors.size(),
                     "MIO sector cursor out of range");
            ar.io(e.done);
            ar.io(e.port_next);
            ar.io(e.primed);
        });
    };
    transfer_queue(self.mio_shared_);
    transfer_queue(self.mio_global_);
    ar.io(self.mio_shared_free_);
    ar.io(self.mio_global_free_);
    ar.io(self.mio_global_retry_);
    ar.enumerated(self.mio_block_reason_, StallReason::kDramQueue);
    ar.io(self.ctas_completed_);
    ar.io(self.busy_cache_);
    ar.io(self.next_event_cache_);

    if constexpr (Ar::kLoading) {
        self.staged_mem_.clear();
        self.staged_cta_done_.clear();
        self.pending_wb_.reset();
        // Derived memo over the shared executor cache: repopulated on
        // the next functional HMMA (restores may target a different
        // Gpu whose ExecutorCache is distinct).
        self.executor_memo_ = nullptr;
        self.executor_memo_key_ = 0;
    }
}

template void SM::transfer(SnapshotWriter&, const SM&,
                           const std::vector<GridRun*>&);
template void SM::transfer(SnapshotReader&, SM&,
                           const std::vector<GridRun*>&);

}  // namespace tcsim
