#include "sass/hmma_decomposer.h"

#include <algorithm>

#include "common/logging.h"
#include "tensor/mapping_volta.h"

namespace tcsim {

int
volta_steps_per_set(TcMode mode)
{
    TCSIM_CHECK(mode == TcMode::kMixed || mode == TcMode::kFp16);
    return mode == TcMode::kMixed ? 4 : 2;
}

VoltaStepCompute
volta_step_compute(TcMode mode, int tg, int set, int step)
{
    TCSIM_CHECK(tg >= 0 && tg < kThreadgroupsPerWarp);
    TCSIM_CHECK(set >= 0 && set < 4);
    TCSIM_CHECK(step >= 0 && step < volta_steps_per_set(mode));

    const int row0 = kVoltaARowStart[tg];  // threadgroup's 4 A/D rows
    const int k0 = 4 * set;                // K chunk of this set

    // The B stripe consumed in the early steps belongs to the lower
    // threadgroup of the octet; the later steps consume the partner's
    // stripe (Table III: steps 0-1 use subtile loaded by tg X, steps
    // 2-3 the one loaded by tg X+4; in FP16 mode step 0 vs step 1).
    const int octet = octet_of_threadgroup(tg);
    const bool own_half = mode == TcMode::kMixed ? step < 2 : step < 1;
    const int stripe_tg = own_half ? octet : octet + 4;
    const int bcol0 = kVoltaBColStart[stripe_tg];

    VoltaStepCompute sc;
    if (mode == TcMode::kMixed) {
        // Steps 0/2 compute output rows {0,1} of the threadgroup's
        // block; steps 1/3 rows {2,3} (Fig 10b).
        const int rlo = row0 + 2 * (step & 1);
        sc.a = {rlo, rlo + 1, k0, k0 + 3};
        sc.b = {k0, k0 + 3, bcol0, bcol0 + 3};
        sc.cd = {rlo, rlo + 1, bcol0, bcol0 + 3};
    } else {
        // FP16: each step computes the full 4x4 block (Fig 10c).
        sc.a = {row0, row0 + 3, k0, k0 + 3};
        sc.b = {k0, k0 + 3, bcol0, bcol0 + 3};
        sc.cd = {row0, row0 + 3, bcol0, bcol0 + 3};
    }
    return sc;
}

SubtileRange
volta_octet_a_range(int octet)
{
    TCSIM_CHECK(octet >= 0 && octet < kOctetsPerWarp);
    const auto& r = kVoltaOctetRanges[octet];
    return {r.a_row0, r.a_row1, 0, 15};
}

SubtileRange
volta_octet_b_range(int octet)
{
    TCSIM_CHECK(octet >= 0 && octet < kOctetsPerWarp);
    const auto& r = kVoltaOctetRanges[octet];
    return {0, 15, r.b_col0, r.b_col1};
}

int
turing_num_sets(TcMode mode)
{
    return mode == TcMode::kInt4 ? 1 : 4;
}

TuringSetCompute
turing_set_compute(TcMode mode, TileShape shape, int set)
{
    TCSIM_CHECK(set >= 0 && set < turing_num_sets(mode));
    TuringSetCompute sc;

    if (mode == TcMode::kInt4) {
        TCSIM_CHECK(shape == kShape8x8x32);
        sc.a = {0, shape.m - 1, 0, shape.k - 1};
        sc.b = {0, shape.k - 1, 0, shape.n - 1};
        sc.cd = {0, shape.m - 1, 0, shape.n - 1};
        return sc;
    }

    const bool fp = mode == TcMode::kFp16 || mode == TcMode::kMixed;
    if (shape == kShape16x16x16) {
        if (fp) {
            // 16x8 subtile of A times 8x8 subtile of B: sets split K
            // and N in halves of 8.
            int kk = 8 * (set % 2), nn = 8 * (set / 2);
            sc.a = {0, 15, kk, kk + 7};
            sc.b = {kk, kk + 7, nn, nn + 7};
            sc.cd = {0, 15, nn, nn + 7};
        } else {
            // 8-bit: 8x16 subtile of A times 16x8 subtile of B: sets
            // split M and N in halves, K is consumed whole.
            int mm = 8 * (set % 2), nn = 8 * (set / 2);
            sc.a = {mm, mm + 7, 0, 15};
            sc.b = {0, 15, nn, nn + 7};
            sc.cd = {mm, mm + 7, nn, nn + 7};
        }
    } else if (shape == kShape32x8x16) {
        if (fp) {
            // 16x8 A subtile x 8x8 B subtile: sets split M (halves of
            // 16) and K (halves of 8); N = 8 consumed whole.
            int mm = 16 * (set % 2), kk = 8 * (set / 2);
            sc.a = {mm, mm + 15, kk, kk + 7};
            sc.b = {kk, kk + 7, 0, 7};
            sc.cd = {mm, mm + 15, 0, 7};
        } else {
            // 8-bit: 8x16 A x 16x8 B: sets split M in quarters of 8.
            int mm = 8 * set;
            sc.a = {mm, mm + 7, 0, 15};
            sc.b = {0, 15, 0, 7};
            sc.cd = {mm, mm + 7, 0, 7};
        }
    } else if (shape == kShape8x32x16) {
        if (fp) {
            // 8x8 A subtile x 8x16 B subtile: sets split K (halves)
            // and N (halves of 16).
            int kk = 8 * (set % 2), nn = 16 * (set / 2);
            sc.a = {0, 7, kk, kk + 7};
            sc.b = {kk, kk + 7, nn, nn + 15};
            sc.cd = {0, 7, nn, nn + 15};
        } else {
            // 8-bit: 8x16 A x 16x8 B: sets split N in quarters of 8.
            int nn = 8 * set;
            sc.a = {0, 7, 0, 15};
            sc.b = {0, 15, nn, nn + 7};
            sc.cd = {0, 7, nn, nn + 7};
        }
    } else {
        panic("unsupported Turing shape %s for mode %s", shape.str().c_str(),
              tc_mode_name(mode));
    }
    return sc;
}

int
hmma_group_size(Arch arch, TcMode mode)
{
    if (arch == Arch::kVolta)
        return 4 * volta_steps_per_set(mode);
    return turing_num_sets(mode);
}

WmmaFragRegCounts
wmma_fragment_regs(Arch arch, TcMode mode, TileShape shape)
{
    // Elements per thread: tile elements / 32 lanes, doubled on Volta
    // A/B where every element is held by two threads.
    const int dup = arch == Arch::kVolta ? 2 : 1;
    const int a_elems = shape.m * shape.k * dup / kWarpSize;
    const int b_elems = shape.k * shape.n * dup / kWarpSize;
    const int cd_elems = shape.m * shape.n / kWarpSize;

    int ab_pack = 2;  // operand elements per 32-bit register
    switch (mode) {
      case TcMode::kFp16:
      case TcMode::kMixed: ab_pack = 2; break;
      case TcMode::kInt8: ab_pack = 4; break;
      case TcMode::kInt4: ab_pack = 8; break;
    }
    const int cd_pack = mode == TcMode::kFp16 ? 2 : 1;

    WmmaFragRegCounts counts;
    counts.a = std::max(1, a_elems / ab_pack);
    counts.b = std::max(1, b_elems / ab_pack);
    counts.c = std::max(1, cd_elems / cd_pack);
    counts.d = counts.c;
    return counts;
}

std::vector<Instruction>
decompose_wmma_mma(Arch arch, TcMode mode, TileShape shape,
                   const WmmaRegs& regs, Layout a_layout, Layout b_layout,
                   uint32_t macro_id)
{
    std::vector<Instruction> group;

    auto make_hmma = [&](int set, int step) {
        Instruction inst;
        inst.op = Opcode::kHmma;
        inst.hmma.mode = mode;
        inst.hmma.shape = shape;
        inst.hmma.a_layout = a_layout;
        inst.hmma.b_layout = b_layout;
        inst.hmma.set = static_cast<uint8_t>(set);
        inst.hmma.step = static_cast<uint8_t>(step);
        inst.hmma.a_reg = regs.a;
        inst.hmma.b_reg = regs.b;
        inst.hmma.c_reg = regs.c;
        inst.hmma.d_reg = regs.d;
        WmmaFragRegCounts counts = wmma_fragment_regs(arch, mode, shape);
        inst.hmma.a_nregs = static_cast<uint8_t>(counts.a);
        inst.hmma.b_nregs = static_cast<uint8_t>(counts.b);
        inst.hmma.c_nregs = static_cast<uint8_t>(counts.c);
        inst.hmma.d_nregs = static_cast<uint8_t>(counts.d);
        inst.macro_id = macro_id;
        inst.macro_class = MacroClass::kWmmaMma;
        // Scoreboard-visible registers: HMMA reads the full fragments
        // and writes the accumulator; intra-group accumulator reuse is
        // forwarded inside the tensor core, so only group boundaries
        // carry dependences (handled by first/last_in_group flags).
        inst.n_src = 3;
        inst.src[0] = regs.a;
        inst.src[1] = regs.b;
        inst.src[2] = regs.c;
        inst.n_dst = 1;
        inst.dst[0] = regs.d;
        return inst;
    };

    if (arch == Arch::kVolta) {
        TCSIM_CHECK(shape == kShape16x16x16);
        int steps = volta_steps_per_set(mode);
        for (int set = 0; set < 4; ++set)
            for (int step = 0; step < steps; ++step)
                group.push_back(make_hmma(set, step));
    } else {
        for (int set = 0; set < turing_num_sets(mode); ++set)
            group.push_back(make_hmma(set, 0));
    }

    group.front().hmma.first_in_group = true;
    group.back().hmma.last_in_group = true;
    group.back().macro_end = true;
    return group;
}

}  // namespace tcsim
