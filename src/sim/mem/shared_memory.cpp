#include "sim/mem/shared_memory.h"

#include <algorithm>
#include <array>
#include <bit>

namespace tcsim {

int
shared_bank_conflict_degree(const Instruction& inst, int num_banks, int iter)
{
    TCSIM_CHECK(inst.addr != nullptr);
    TCSIM_CHECK(num_banks >= 1 && num_banks <= 32);
    // Each 4-byte phase of a wider access is a separate shared-memory
    // cycle, but phase p reads word w + p for every lane: all words
    // move to the next bank together, so every phase has phase 0's
    // per-bank counts and the worst bank of phase 0 is the answer.
    //
    // Per bank, the lanes that brought it a distinct word.  A word
    // lives in exactly one bank, so the duplicate (broadcast) search
    // scans only that bank's lanes.
    std::array<uint64_t, kWarpSize> word{};
    std::array<uint32_t, 32> distinct{};
    int worst = 1;
    for (int lane = 0; lane < kWarpSize; ++lane) {
        uint64_t a = inst.effective_addr(lane, iter);
        if (a == kNoAddr)
            continue;
        const uint64_t w = a / 4;
        uint32_t& lanes = distinct[w % static_cast<uint64_t>(num_banks)];
        bool seen = false;
        for (uint32_t m = lanes; m != 0 && !seen; m &= m - 1)
            seen = word[static_cast<size_t>(std::countr_zero(m))] == w;
        if (seen)
            continue;
        word[static_cast<size_t>(lane)] = w;
        lanes |= uint32_t{1} << lane;
        worst = std::max(worst, std::popcount(lanes));
    }
    return worst;
}

}  // namespace tcsim
