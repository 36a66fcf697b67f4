#include "sim/core/scoreboard.h"

#include <algorithm>

namespace tcsim {

namespace {

/** Registers written by a load of the given width. */
int
dst_span(const Instruction& inst)
{
    if (inst.op == Opcode::kLdg || inst.op == Opcode::kLds)
        return std::max(1, inst.width_bits / 32);
    return 1;
}

/** Registers read by a store of the given width. */
int
src_span(const Instruction& inst)
{
    if (inst.op == Opcode::kStg || inst.op == Opcode::kSts)
        return std::max(1, inst.width_bits / 32);
    return 1;
}

/** Call fn(word, mask) for the words covering registers
 *  [first, first + count); stops early when fn returns true and
 *  reports whether it did.  A range of up to 64 registers touches at
 *  most two words. */
bool
for_each_word(int first, int count, auto&& fn)
{
    for (int end = first + count; first < end;) {
        int bit = first & 63;
        int n = std::min(end - first, 64 - bit);
        uint64_t mask = (~uint64_t{0} >> (64 - n)) << bit;
        if (fn(first >> 6, mask))
            return true;
        first += n;
    }
    return false;
}

}  // namespace

bool
Scoreboard::for_each_dst(const Instruction& inst, auto&& fn)
{
    if (inst.op == Opcode::kHmma)
        return fn(inst.hmma.d_reg, inst.hmma.d_nregs);
    for (int i = 0; i < inst.n_dst; ++i)
        if (fn(inst.dst[i], dst_span(inst)))
            return true;
    return false;
}

bool
Scoreboard::for_each_src(const Instruction& inst, auto&& fn)
{
    if (inst.op == Opcode::kHmma)
        return fn(inst.hmma.a_reg, inst.hmma.a_nregs) ||
               fn(inst.hmma.b_reg, inst.hmma.b_nregs) ||
               fn(inst.hmma.c_reg, inst.hmma.c_nregs);
    for (int i = 0; i < inst.n_src; ++i)
        if (fn(inst.src[i], src_span(inst)))
            return true;
    return false;
}

bool
Scoreboard::operands_in_range(const Instruction& inst)
{
    auto beyond = [](int first, int count) {
        return first + count > kMaxRegs;
    };
    return !for_each_src(inst, beyond) && !for_each_dst(inst, beyond);
}

bool
Scoreboard::can_issue(int w, const Instruction& inst) const
{
    if (inst.op == Opcode::kHmma && !inst.hmma.first_in_group) {
        // Intra-group accumulator reuse is forwarded inside the tensor
        // core; the group issues as a unit once its head clears.
        return true;
    }

    const Words& p = pending_[w];
    auto pending = [&](int first, int count) {
        return for_each_word(first, count, [&](int word, uint64_t mask) {
            return (p[word] & mask) != 0;
        });
    };
    return !for_each_src(inst, pending) && !for_each_dst(inst, pending);
}

void
Scoreboard::issue(int w, const Instruction& inst)
{
    if (inst.op == Opcode::kHmma && !inst.hmma.first_in_group)
        return;  // D registers were marked by the group head.
    Words& p = pending_[w];
    for_each_dst(inst, [&](int first, int count) {
        return for_each_word(first, count, [&](int word, uint64_t mask) {
            p[word] |= mask;
            return false;
        });
    });
}

void
Scoreboard::complete(int w, const Instruction& inst)
{
    if (inst.op == Opcode::kHmma && !inst.hmma.last_in_group)
        return;  // only the group tail releases the D registers
    Words& p = pending_[w];
    for_each_dst(inst, [&](int first, int count) {
        return for_each_word(first, count, [&](int word, uint64_t mask) {
            p[word] &= ~mask;
            return false;
        });
    });
}

}  // namespace tcsim
