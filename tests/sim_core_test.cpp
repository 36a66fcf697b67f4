/**
 * @file
 * Unit tests for the SM pipeline components: scoreboard hazards,
 * scheduler policies, execution units, tensor core unit cadence, and
 * the measured HMMA timing tables.
 */

#include <gtest/gtest.h>

#include "sass/hmma_decomposer.h"
#include "sass/hmma_timing.h"
#include "sim/core/exec_unit.h"
#include "sim/core/scheduler.h"
#include "sim/core/scoreboard.h"
#include "sim/tc/tensor_core_unit.h"

namespace tcsim {
namespace {

Instruction
alu(uint8_t dst, uint8_t s0, uint8_t s1)
{
    Instruction inst;
    inst.op = Opcode::kFadd;
    inst.n_dst = 1;
    inst.dst[0] = dst;
    inst.n_src = 2;
    inst.src[0] = s0;
    inst.src[1] = s1;
    return inst;
}

TEST(Scoreboard, RawHazardBlocks)
{
    Scoreboard sb(1);
    Instruction producer = alu(10, 1, 2);
    Instruction consumer = alu(11, 10, 3);
    EXPECT_TRUE(sb.can_issue(0, producer));
    sb.issue(0, producer);
    EXPECT_FALSE(sb.can_issue(0, consumer));  // RAW on R10
    sb.complete(0, producer);
    EXPECT_TRUE(sb.can_issue(0, consumer));
}

TEST(Scoreboard, WawHazardBlocks)
{
    Scoreboard sb(1);
    Instruction first = alu(10, 1, 2);
    Instruction second = alu(10, 3, 4);
    sb.issue(0, first);
    EXPECT_FALSE(sb.can_issue(0, second));  // WAW on R10
}

TEST(Scoreboard, IndependentWarps)
{
    Scoreboard sb(2);
    Instruction inst = alu(10, 1, 2);
    sb.issue(0, inst);
    EXPECT_TRUE(sb.can_issue(1, inst));  // different warp, no hazard
}

TEST(Scoreboard, LoadMarksFullWidth)
{
    Scoreboard sb(1);
    Instruction load;
    load.op = Opcode::kLdg;
    load.width_bits = 128;  // writes R8..R11
    load.n_dst = 1;
    load.dst[0] = 8;
    sb.issue(0, load);
    EXPECT_TRUE(sb.reg_pending(0, 8));
    EXPECT_TRUE(sb.reg_pending(0, 11));
    EXPECT_FALSE(sb.reg_pending(0, 12));
    Instruction use = alu(20, 11, 1);
    EXPECT_FALSE(sb.can_issue(0, use));
    sb.complete(0, load);
    EXPECT_TRUE(sb.can_issue(0, use));
}

TEST(Scoreboard, HmmaGroupSemantics)
{
    // The group head checks/marks all fragments; intra-group HMMAs
    // bypass; only the tail releases the D registers.
    Scoreboard sb(1);
    WmmaRegs regs{.a = 20, .b = 28, .c = 4, .d = 4};
    auto group = decompose_wmma_mma(Arch::kVolta, TcMode::kMixed,
                                    kShape16x16x16, regs, Layout::kRowMajor,
                                    Layout::kRowMajor);
    EXPECT_TRUE(sb.can_issue(0, group.front()));
    sb.issue(0, group.front());
    EXPECT_TRUE(sb.reg_pending(0, 4));
    EXPECT_TRUE(sb.reg_pending(0, 11));  // D fragment spans 8 registers
    // Mid-group HMMAs bypass hazard checks.
    EXPECT_TRUE(sb.can_issue(0, group[5]));
    // An unrelated consumer of D is blocked.
    Instruction use = alu(40, 4, 1);
    EXPECT_FALSE(sb.can_issue(0, use));
    // Completion of a mid-group HMMA does not release.
    sb.complete(0, group[5]);
    EXPECT_FALSE(sb.can_issue(0, use));
    // Tail completion releases.
    sb.complete(0, group.back());
    EXPECT_TRUE(sb.can_issue(0, use));
}

Instruction
wide(Opcode op, uint8_t reg, int width_bits)
{
    Instruction inst;
    inst.op = op;
    inst.width_bits = static_cast<uint16_t>(width_bits);
    if (op == Opcode::kLds || op == Opcode::kLdg) {
        inst.n_dst = 1;
        inst.dst[0] = reg;
    } else {
        inst.n_src = 1;
        inst.src[0] = reg;
    }
    return inst;
}

TEST(Scoreboard, RangeStraddlesWordBoundary)
{
    // LDS.128 into R62 marks R62..R65: two registers in each of the
    // first two 64-bit words of the pending set.
    Scoreboard sb(1);
    Instruction load = wide(Opcode::kLds, 62, 128);
    EXPECT_TRUE(sb.can_issue(0, load));
    sb.issue(0, load);
    EXPECT_FALSE(sb.reg_pending(0, 61));
    for (int r = 62; r <= 65; ++r)
        EXPECT_TRUE(sb.reg_pending(0, r)) << r;
    EXPECT_FALSE(sb.reg_pending(0, 66));
    EXPECT_FALSE(sb.can_issue(0, alu(1, 64, 2)));  // RAW in the high word
    EXPECT_FALSE(sb.can_issue(0, alu(63, 1, 2)));  // WAW in the low word
    EXPECT_TRUE(sb.can_issue(0, alu(1, 61, 66)));  // both neighbours free
    // A store whose data span R60..R63 reaches into the load's range.
    EXPECT_FALSE(sb.can_issue(0, wide(Opcode::kSts, 60, 128)));
    EXPECT_TRUE(sb.can_issue(0, wide(Opcode::kSts, 56, 128)));
    sb.complete(0, load);
    EXPECT_FALSE(sb.any_pending(0));
    EXPECT_TRUE(sb.can_issue(0, alu(1, 64, 2)));
}

TEST(Scoreboard, HmmaHeadMarksTailReleasesAcrossWords)
{
    // D = R124..R131 straddles the second/third word boundary.
    Scoreboard sb(1);
    WmmaRegs regs{.a = 200, .b = 208, .c = 124, .d = 124};
    auto group = decompose_wmma_mma(Arch::kVolta, TcMode::kMixed,
                                    kShape16x16x16, regs, Layout::kRowMajor,
                                    Layout::kRowMajor);
    ASSERT_GE(group.size(), 3u);
    sb.issue(0, group.front());
    for (int r = 124; r <= 131; ++r)
        EXPECT_TRUE(sb.reg_pending(0, r)) << r;
    EXPECT_FALSE(sb.reg_pending(0, 123));
    EXPECT_FALSE(sb.reg_pending(0, 132));
    // Non-head members neither mark nor release.
    sb.issue(0, group[1]);
    sb.complete(0, group.front());
    sb.complete(0, group[1]);
    EXPECT_TRUE(sb.reg_pending(0, 124));
    EXPECT_TRUE(sb.reg_pending(0, 131));
    // Another head reading the in-flight accumulator is blocked.
    EXPECT_FALSE(sb.can_issue(0, group.front()));
    sb.complete(0, group.back());
    EXPECT_FALSE(sb.any_pending(0));
    EXPECT_TRUE(sb.can_issue(0, group.front()));
}

TEST(Scoreboard, NonHeadHmmaBypassesPendingOperands)
{
    Scoreboard sb(1);
    WmmaRegs regs{.a = 20, .b = 28, .c = 4, .d = 4};
    auto group = decompose_wmma_mma(Arch::kVolta, TcMode::kMixed,
                                    kShape16x16x16, regs, Layout::kRowMajor,
                                    Layout::kRowMajor);
    // A load still filling the A fragment blocks only the head.
    sb.issue(0, wide(Opcode::kLds, 20, 128));
    EXPECT_FALSE(sb.can_issue(0, group.front()));
    for (size_t i = 1; i < group.size(); ++i)
        EXPECT_TRUE(sb.can_issue(0, group[i])) << i;
}

TEST(Scoreboard, OperandRangeBound)
{
    EXPECT_TRUE(Scoreboard::operands_in_range(wide(Opcode::kLds, 252, 128)));
    EXPECT_FALSE(Scoreboard::operands_in_range(wide(Opcode::kLds, 254, 128)));
    EXPECT_FALSE(Scoreboard::operands_in_range(wide(Opcode::kSts, 255, 64)));
    EXPECT_TRUE(Scoreboard::operands_in_range(alu(255, 254, 253)));
    WmmaRegs regs{.a = 20, .b = 28, .c = 4, .d = 250};
    auto group = decompose_wmma_mma(Arch::kVolta, TcMode::kMixed,
                                    kShape16x16x16, regs, Layout::kRowMajor,
                                    Layout::kRowMajor);
    EXPECT_FALSE(Scoreboard::operands_in_range(group.front()));
}

TEST(Scheduler, GtoPrefersLastIssued)
{
    WarpScheduler s(SchedulerPolicy::kGto);
    std::vector<int> order;
    s.order(4, &order);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    s.issued(2);
    s.order(4, &order);
    EXPECT_EQ(order.front(), 2);
}

TEST(Scheduler, LrrRotates)
{
    WarpScheduler s(SchedulerPolicy::kLrr);
    std::vector<int> order;
    s.issued(0);
    s.order(4, &order);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 0}));
}

TEST(ExecUnit, InitiationInterval)
{
    ExecUnit u(2, 4);
    EXPECT_TRUE(u.ready(0));
    EXPECT_EQ(u.issue(0), 4u);
    EXPECT_FALSE(u.ready(1));
    EXPECT_TRUE(u.ready(2));
}

TEST(HmmaTimingTables, VoltaFig9)
{
    auto mixed = volta_cumulative_cycles(TcMode::kMixed);
    ASSERT_EQ(mixed.size(), 16u);
    EXPECT_EQ(mixed.front(), 10);
    EXPECT_EQ(mixed.back(), 54);  // Fig 9a total latency
    auto fp16 = volta_cumulative_cycles(TcMode::kFp16);
    ASSERT_EQ(fp16.size(), 8u);
    EXPECT_EQ(fp16.back(), 64);  // Fig 9b total latency
    // "The latency of wmma.mma API in mixed precision mode is ten
    //  cycles lower than in FP16 mode."
    EXPECT_EQ(fp16.back() - mixed.back(), 10);
}

TEST(HmmaTimingTables, TuringTable1)
{
    // Spot-check Table I values.
    EXPECT_EQ(turing_set_cumulative_cycles(TcMode::kMixed, kShape16x16x16),
              (std::vector<int>{42, 56, 78, 99}));
    EXPECT_EQ(turing_set_cumulative_cycles(TcMode::kFp16, kShape16x16x16),
              (std::vector<int>{44, 52, 60, 74}));
    EXPECT_EQ(turing_set_cumulative_cycles(TcMode::kInt8, kShape8x32x16),
              (std::vector<int>{38, 42, 46, 56}));
    EXPECT_EQ(turing_set_cumulative_cycles(TcMode::kInt4, kShape8x8x32),
              (std::vector<int>{230}));
}

TEST(HmmaTimingTables, TuringSlowerThanVolta)
{
    // "the latency of wmma.mma in mixed precision mode on Turing, 99
    //  cycles, is more than on Volta, 54 cycles".
    EXPECT_GT(hmma_timing(Arch::kTuring, TcMode::kMixed, kShape16x16x16)
                  .group_latency(),
              hmma_timing(Arch::kVolta, TcMode::kMixed, kShape16x16x16)
                  .group_latency());
}

TEST(HmmaTimingTables, ThroughputParity)
{
    // FP16 and mixed precision sustain the same FLOP rate: equal
    // occupancy per group (Section V-C measured 109.6 vs 108.7
    // TFLOPS).
    auto& mixed = hmma_timing(Arch::kVolta, TcMode::kMixed, kShape16x16x16);
    auto& fp16 = hmma_timing(Arch::kVolta, TcMode::kFp16, kShape16x16x16);
    EXPECT_EQ(mixed.group_occupancy(), fp16.group_occupancy());
}

TEST(TensorCoreUnit, GroupCadence)
{
    TensorCoreUnit tc(Arch::kVolta);
    WmmaRegs regs{.a = 20, .b = 28, .c = 4, .d = 4};
    auto group = decompose_wmma_mma(Arch::kVolta, TcMode::kMixed,
                                    kShape16x16x16, regs, Layout::kRowMajor,
                                    Layout::kRowMajor);
    auto expected = volta_cumulative_cycles(TcMode::kMixed);

    uint64_t now = 100;
    for (size_t i = 0; i < group.size(); ++i) {
        // The cadence gate: issue attempts before the interval fail.
        if (i > 0) {
            EXPECT_FALSE(tc.try_issue(0, group[i], now - 1).has_value());
        }
        auto done = tc.try_issue(0, group[i], now);
        ASSERT_TRUE(done.has_value()) << i;
        EXPECT_EQ(*done, 100u + static_cast<uint64_t>(expected[i])) << i;
        now += 2;
    }
    EXPECT_FALSE(tc.group_active());
}

TEST(TensorCoreUnit, RejectsOtherWarpMidGroup)
{
    TensorCoreUnit tc(Arch::kVolta);
    WmmaRegs regs{.a = 20, .b = 28, .c = 4, .d = 4};
    auto group = decompose_wmma_mma(Arch::kVolta, TcMode::kMixed,
                                    kShape16x16x16, regs, Layout::kRowMajor,
                                    Layout::kRowMajor);
    ASSERT_TRUE(tc.try_issue(0, group[0], 0).has_value());
    // Warp 1 tries to start a group while warp 0's is active.
    EXPECT_FALSE(tc.try_issue(1, group[0], 2).has_value());
    // Warp 0 continues.
    EXPECT_TRUE(tc.try_issue(0, group[1], 2).has_value());
}

TEST(TensorCoreUnit, BackToBackGroupsRespectOccupancy)
{
    TensorCoreUnit tc(Arch::kVolta);
    WmmaRegs regs{.a = 20, .b = 28, .c = 4, .d = 4};
    auto group = decompose_wmma_mma(Arch::kVolta, TcMode::kMixed,
                                    kShape16x16x16, regs, Layout::kRowMajor,
                                    Layout::kRowMajor);
    uint64_t now = 0;
    for (size_t i = 0; i < group.size(); ++i, now += 2)
        ASSERT_TRUE(tc.try_issue(0, group[i], now).has_value());
    // Next group head may start at the 32-cycle occupancy boundary
    // (16 HMMAs x II 2) plus the inter-group issue gap.
    uint64_t boundary = 32 + TensorCoreUnit::kInterGroupGap;
    EXPECT_FALSE(tc.try_issue(1, group[0], boundary - 1).has_value());
    EXPECT_TRUE(tc.try_issue(1, group[0], boundary).has_value());
    EXPECT_EQ(tc.groups_issued(), 1u);
}

TEST(TensorCoreUnit, SingleHmmaGroupInt4)
{
    TensorCoreUnit tc(Arch::kTuring);
    WmmaRegs regs{.a = 20, .b = 22, .c = 4, .d = 4};
    auto group = decompose_wmma_mma(Arch::kTuring, TcMode::kInt4,
                                    kShape8x8x32, regs, Layout::kRowMajor,
                                    Layout::kRowMajor);
    ASSERT_EQ(group.size(), 1u);
    auto done = tc.try_issue(0, group[0], 0);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(*done, 230u);  // Table I 4-bit latency
    EXPECT_FALSE(tc.group_active());
}

}  // namespace
}  // namespace tcsim
