#pragma once
/**
 * @file
 * Functional register state of one warp: 32 lanes x N 32-bit
 * registers.  Used by the functional models (HMMA executor, memory
 * instructions) when functional simulation is enabled.
 */

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "fp16/half.h"
#include "sim/snapshot_io.h"
#include "tensor/types.h"

namespace tcsim {

/** Per-warp architectural register file contents. */
class WarpRegState
{
  public:
    explicit WarpRegState(int num_regs = 64)
        : num_regs_(num_regs),
          bits_(static_cast<size_t>(num_regs) * kWarpSize, 0)
    {
    }

    int num_regs() const { return num_regs_; }

    uint32_t read(int lane, int reg) const
    {
        return bits_[index(lane, reg)];
    }

    void write(int lane, int reg, uint32_t value)
    {
        bits_[index(lane, reg)] = value;
    }

    float read_f32(int lane, int reg) const
    {
        uint32_t v = read(lane, reg);
        float f;
        static_assert(sizeof(f) == sizeof(v));
        __builtin_memcpy(&f, &v, sizeof(f));
        return f;
    }

    void write_f32(int lane, int reg, float f)
    {
        uint32_t v;
        __builtin_memcpy(&v, &f, sizeof(v));
        write(lane, reg, v);
    }

    /** Read packed half @p hi (0 = low 16 bits, 1 = high). */
    half read_h16(int lane, int reg, int hi) const
    {
        uint32_t v = read(lane, reg);
        return half::from_bits(static_cast<uint16_t>(hi ? v >> 16 : v));
    }

    void write_h16(int lane, int reg, int hi, half h)
    {
        uint32_t v = read(lane, reg);
        if (hi)
            v = (v & 0x0000ffffu) | (static_cast<uint32_t>(h.bits()) << 16);
        else
            v = (v & 0xffff0000u) | h.bits();
        write(lane, reg, v);
    }

    /** Read packed signed byte @p idx (0..3). */
    int8_t read_i8(int lane, int reg, int idx) const
    {
        uint32_t v = read(lane, reg);
        return static_cast<int8_t>((v >> (8 * idx)) & 0xffu);
    }

    void write_i8(int lane, int reg, int idx, int8_t b)
    {
        uint32_t v = read(lane, reg);
        uint32_t mask = 0xffu << (8 * idx);
        v = (v & ~mask) | ((static_cast<uint32_t>(b) & 0xffu) << (8 * idx));
        write(lane, reg, v);
    }

    /** Read packed signed 4-bit nibble @p idx (0..7), sign extended. */
    int read_i4(int lane, int reg, int idx) const
    {
        uint32_t v = read(lane, reg);
        int raw = static_cast<int>((v >> (4 * idx)) & 0xfu);
        return raw >= 8 ? raw - 16 : raw;
    }

    void write_i4(int lane, int reg, int idx, int value)
    {
        TCSIM_CHECK(value >= -8 && value <= 7);
        uint32_t v = read(lane, reg);
        uint32_t mask = 0xfu << (4 * idx);
        v = (v & ~mask) | ((static_cast<uint32_t>(value) & 0xfu) << (4 * idx));
        write(lane, reg, v);
    }

    /** Snapshot walk (sim/snapshot_io.h): the raw register-file
     *  image.  Loading fills a file already sized from the kernel. */
    template <class Ar>
    static void transfer(Ar& ar, ArchiveRef<Ar, WarpRegState> self)
    {
        int num_regs = self.num_regs_;
        ar.io(num_regs);
        ar.check(num_regs == self.num_regs_, "register file size mismatch");
        ar.bytes(self.bits_.data(), self.bits_.size() * sizeof(uint32_t));
    }

  private:
    size_t index(int lane, int reg) const
    {
        TCSIM_CHECK(lane >= 0 && lane < kWarpSize);
        TCSIM_CHECK(reg >= 0 && reg < num_regs_);
        return static_cast<size_t>(reg) * kWarpSize + lane;
    }

    int num_regs_;
    std::vector<uint32_t> bits_;
};

}  // namespace tcsim
