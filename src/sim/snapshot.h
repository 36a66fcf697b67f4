#pragma once
/**
 * @file
 * The value-type simulation checkpoint behind Gpu::snapshot() and
 * Gpu::restore().
 *
 * A Snapshot owns everything needed to resume a run bit-identically:
 * the serialized timing state of every subsystem (the `archive` byte
 * buffer, written and read by one transfer() walk per type — see
 * sim/snapshot_io.h), a side table of KernelDesc copies (warp
 * *programs* are regenerated from each kernel's deterministic trace
 * generator rather than serialized — a KernelDesc's std::function
 * trace is copyable but not byte-serializable), and a copy-on-write
 * blob of global-memory contents.
 *
 * Copying a Snapshot is cheap: the global-memory blob — by far the
 * largest piece — is a shared_ptr to immutable bytes, so a sweep
 * runner can hand the same snapshot to N fork workers without N
 * copies.  Restore is what pays the memcpy, once per fork.
 *
 * Compatibility is checked on restore: the format version must match
 * kSnapshotVersion exactly, and the config hash (an FNV-1a digest of
 * every GpuConfig field) must match the restoring Gpu's config — a
 * snapshot only makes sense on an identically-configured machine.
 * SimOptions may differ between capture and restore (a fork may run
 * with different sim_threads), with one exception: the warp scheduler
 * policy is baked into each sub-core at construction, so it is
 * captured and enforced.
 */

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "sim/kernel_desc.h"
#include "sim/snapshot_io.h"

namespace tcsim {

/** The kernel side table a walk over archive @p Ar fills (saving) or
 *  reads (loading). */
template <class Ar>
using KernelTable = std::conditional_t<Ar::kLoading,
                                       const std::vector<KernelDesc>,
                                       std::vector<KernelDesc>>&;

/** Snapshot walk over a launch descriptor, archived as its index in
 *  the side table @p table. */
template <class Ar, class K>
void
transfer_kernel(Ar& ar, K& kernel, KernelTable<Ar> table)
{
    uint32_t index = static_cast<uint32_t>(table.size());
    ar.index(index, table.size(), "kernel table index out of range");
    if constexpr (Ar::kLoading)
        kernel = table[index];
    else
        table.push_back(kernel);
}

/** Bump on any change to the archive layout. */
inline constexpr uint32_t kSnapshotVersion = 4;

struct Snapshot
{
    /** Archive layout version; restore rejects mismatches. */
    uint32_t version = kSnapshotVersion;
    /** FNV-1a hash over every GpuConfig field at capture time. */
    uint64_t config_hash = 0;
    /** SimOptions::scheduler at capture (baked into sub-cores). */
    int scheduler = 0;

    /** Kernel side table: launches and queued stream ops reference
     *  kernels by index here; warp programs regenerate via trace(). */
    std::vector<KernelDesc> kernels;

    /** Copy-on-write global memory image: the backed contents, which
     *  may end below the bump cursor (the rest reads as zero), plus
     *  the cursor.  Shared, immutable: every fork restores from the
     *  same bytes. */
    std::shared_ptr<const std::vector<uint8_t>> gmem_data;
    uint64_t gmem_next = 0;

    /** Serialized timing state of every subsystem. */
    std::vector<uint8_t> archive;

    bool valid() const { return gmem_data != nullptr; }

    /** Total heap footprint, for bench reporting. */
    size_t size_bytes() const
    {
        return archive.size() + (gmem_data ? gmem_data->size() : 0);
    }
};

}  // namespace tcsim
