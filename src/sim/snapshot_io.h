#pragma once
/**
 * @file
 * Byte-archive primitives behind Gpu::snapshot() / Gpu::restore().
 *
 * SnapshotWriter appends little-endian scalars to a growable byte
 * buffer; SnapshotReader is a *const view* over such a buffer with its
 * own cursor, so one captured snapshot can be restored many times
 * (possibly concurrently from several fork workers) without mutating
 * shared state.  Every read is bounds-checked and every subsystem
 * section is framed by a tag byte, so a version skew or a
 * serialization-order bug surfaces as a SnapshotError instead of a
 * silently corrupted simulation.
 *
 * The format is deliberately dumb: no varints, no schema evolution
 * beyond the whole-snapshot version number in Snapshot.  Snapshots are
 * in-memory fork points for sweep batches, not an interchange format.
 */

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace tcsim {

/** Thrown on malformed, truncated, or incompatible snapshots. */
class SnapshotError : public std::runtime_error
{
public:
    explicit SnapshotError(const std::string& what)
        : std::runtime_error("snapshot: " + what)
    {
    }
};

/** Append-only little-endian encoder. */
class SnapshotWriter
{
public:
    void u8(uint8_t v) { buf_.push_back(v); }
    void b(bool v) { u8(v ? 1 : 0); }

    void u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }

    void f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void str(const std::string& s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    void bytes(const void* p, size_t n)
    {
        const uint8_t* b = static_cast<const uint8_t*>(p);
        buf_.insert(buf_.end(), b, b + n);
    }

    /** Section framing: a tag byte that the reader must re-match.
     *  Cheap insurance that save_state and load_state walk the same
     *  field order. */
    void tag(uint8_t t) { u8(t); }

    std::vector<uint8_t> take() { return std::move(buf_); }
    size_t size() const { return buf_.size(); }

private:
    std::vector<uint8_t> buf_;
};

/** Bounds-checked little-endian decoder over a const byte buffer. */
class SnapshotReader
{
public:
    explicit SnapshotReader(const std::vector<uint8_t>& data)
        : data_(&data)
    {
    }

    uint8_t u8()
    {
        need(1);
        return (*data_)[pos_++];
    }

    bool b() { return u8() != 0; }

    uint32_t u32()
    {
        need(4);
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>((*data_)[pos_++]) << (8 * i);
        return v;
    }

    uint64_t u64()
    {
        need(8);
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>((*data_)[pos_++]) << (8 * i);
        return v;
    }

    int32_t i32() { return static_cast<int32_t>(u32()); }
    int64_t i64() { return static_cast<int64_t>(u64()); }

    double f64()
    {
        uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    std::string str()
    {
        uint64_t n = u64();
        need(n);
        std::string s(reinterpret_cast<const char*>(data_->data()) + pos_,
                      static_cast<size_t>(n));
        pos_ += static_cast<size_t>(n);
        return s;
    }

    void bytes(void* p, size_t n)
    {
        need(n);
        std::memcpy(p, data_->data() + pos_, n);
        pos_ += n;
    }

    /** Match a section tag written by SnapshotWriter::tag(). */
    void tag(uint8_t want)
    {
        uint8_t got = u8();
        if (got != want)
            throw SnapshotError("section tag mismatch (want " +
                                std::to_string(want) + ", got " +
                                std::to_string(got) + ")");
    }

    bool done() const { return pos_ == data_->size(); }

private:
    void need(uint64_t n) const
    {
        if (n > data_->size() - pos_)
            throw SnapshotError("truncated archive (need " +
                                std::to_string(n) + " bytes at offset " +
                                std::to_string(pos_) + ")");
    }

    const std::vector<uint8_t>* data_;
    size_t pos_ = 0;
};

/** Section tags, one per subsystem, in serialization order. */
enum : uint8_t {
    kTagMemSystem = 0x4d,    // 'M'
    kTagEvents = 0x45,       // 'E'
    kTagStreams = 0x53,      // 'S'
    kTagEngine = 0x47,       // 'G'
    kTagSm = 0x73,           // 's'
    kTagSubCore = 0x63,      // 'c'
    kTagWarp = 0x77,         // 'w'
    kTagReplay = 0x72,       // 'r'
    kTagEnd = 0x5a,          // 'Z'
};

}  // namespace tcsim
