#pragma once
/**
 * @file
 * Functional global-memory backing store with a bump allocator.
 *
 * Simulated kernels address a flat 64-bit space; allocations are
 * 256-byte aligned (so tile base addresses behave like cudaMalloc
 * results with respect to coalescing).  Allocating only moves the
 * cursor: host bytes back the space lazily, up to the end of the
 * highest range ever written, and never-written bytes read as zero.
 * Timing-only kernels, whose operands are never written, therefore
 * cost no host memory however much they allocate.
 */

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/logging.h"

namespace tcsim {

/** Flat byte-addressable device memory (functional model). */
class GlobalMemory
{
  public:
    GlobalMemory() = default;

    /** Allocate @p bytes, 256-byte aligned; returns the device address.
     *  Address 0 is reserved (null).  The range reads as zeros until
     *  written. */
    uint64_t alloc(uint64_t bytes)
    {
        uint64_t addr = (next_ + 255) & ~uint64_t{255};
        next_ = addr + bytes;
        return addr;
    }

    /** Total allocated footprint in bytes. */
    uint64_t footprint() const { return next_; }

    /** Host bytes backing the space: the end of the highest range
     *  written (or handed out by raw()) so far. */
    uint64_t backed() const { return data_.size(); }

    void write(uint64_t addr, const void* src, size_t bytes)
    {
        std::memcpy(back(addr, bytes), src, bytes);
    }

    void read(uint64_t addr, void* dst, size_t bytes) const
    {
        TCSIM_CHECK(addr + bytes <= next_);
        const size_t have =
            addr < data_.size()
                ? static_cast<size_t>(std::min<uint64_t>(
                      bytes, data_.size() - addr))
                : 0;
        if (have > 0)
            std::memcpy(dst, data_.data() + addr, have);
        std::memset(static_cast<uint8_t*>(dst) + have, 0, bytes - have);
    }

    uint32_t read_u32(uint64_t addr) const
    {
        uint32_t v;
        read(addr, &v, 4);
        return v;
    }

    void write_u32(uint64_t addr, uint32_t v) { write(addr, &v, 4); }

    /** Raw pointer for bulk host-side initialization.  Backs the range
     *  first; a later write() or raw() may move the store, so do not
     *  hold the pointer across them. */
    uint8_t* raw(uint64_t addr, size_t bytes) { return back(addr, bytes); }

    /** Snapshot support: hand out the bump cursor and a copy of the
     *  backed contents (which may end below the cursor).
     *  Gpu::snapshot() wraps the copy in a shared immutable blob so
     *  every fork restores from the same bytes. */
    void save_state(uint64_t* next, std::vector<uint8_t>* data) const
    {
        *next = next_;
        *data = data_;
    }

    void load_state(uint64_t next, const std::vector<uint8_t>& data)
    {
        next_ = next;
        data_ = data;
    }

  private:
    /** Check [addr, addr + bytes) is allocated and back it. */
    uint8_t* back(uint64_t addr, size_t bytes)
    {
        TCSIM_CHECK(addr + bytes <= next_);
        if (addr + bytes > data_.size())
            data_.resize(addr + bytes);
        return data_.data() + addr;
    }

    // First allocation starts past null page.
    uint64_t next_ = 4096;
    /** Backing bytes [0, size()); everything above reads as zero. */
    std::vector<uint8_t> data_;
};

}  // namespace tcsim
