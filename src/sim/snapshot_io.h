#pragma once
/**
 * @file
 * The byte archive behind Gpu::snapshot() / Gpu::restore() and the
 * replay cache's .rpc files.
 *
 * Each archived type lists its fields once, in one walk instantiated
 * for both directions:
 *
 *     template <class Ar>
 *     static void transfer(Ar& ar, ArchiveRef<Ar, Cache> self);
 *
 * SnapshotWriter appends each field to a growable byte buffer (the
 * object is const); SnapshotReader reads each field back into it.
 * Both expose the same calls — io() for scalars and strings, bytes(),
 * enumerated(), count(), seq(), map(), index(), tag() and check() —
 * so the field order cannot diverge between saving and loading.  Work
 * only one direction needs sits behind `if constexpr (Ar::kLoading)`.
 *
 * SnapshotReader is a *const view* over a buffer with its own cursor,
 * so one captured snapshot can be restored many times (possibly
 * concurrently from several fork workers).  It holds the rules that
 * keep a corrupt or hostile archive from crashing the process; each
 * broken rule is a SnapshotError:
 *  - every read is bounds-checked;
 *  - a sequence count may not exceed the bytes left to read (every
 *    element occupies at least one), so no count can size an
 *    allocation the archive does not back;
 *  - an enum value must lie in its declared range;
 *  - an index must address an existing element;
 *  - section tags must match.
 *
 * The format is deliberately dumb: little-endian scalars at their own
 * width, no varints, no schema evolution beyond the whole-archive
 * version number.  Snapshots are in-memory fork points for sweep
 * batches, not an interchange format.
 */

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
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

/** The object a walk over archive @p Ar visits: const when saving,
 *  mutable when loading. */
template <class Ar, class T>
using ArchiveRef = std::conditional_t<Ar::kLoading, T, const T>&;

/** Append-only little-endian encoder. */
class SnapshotWriter
{
public:
    static constexpr bool kLoading = false;

    /** A scalar at its own width: bool as one byte, integers
     *  little-endian, double as its bit pattern. */
    template <class T>
        requires std::is_arithmetic_v<T>
    void io(const T& v)
    {
        if constexpr (std::is_same_v<T, bool>) {
            buf_.push_back(v ? 1 : 0);
        } else if constexpr (std::is_floating_point_v<T>) {
            static_assert(sizeof(T) == sizeof(uint64_t));
            uint64_t bits;
            std::memcpy(&bits, &v, sizeof bits);
            io(bits);
        } else {
            for (size_t i = 0; i < sizeof(T); ++i)
                buf_.push_back(static_cast<uint8_t>(
                    static_cast<uint64_t>(v) >> (8 * i)));
        }
    }

    void io(const std::string& s)
    {
        count(s.size());
        bytes(s.data(), s.size());
    }

    void bytes(const void* p, size_t n)
    {
        const uint8_t* b = static_cast<const uint8_t*>(p);
        buf_.insert(buf_.end(), b, b + n);
    }

    /** An enum as its @p Wire type (default: its underlying type);
     *  @p last is its largest valid value. */
    template <class Wire = void, class E>
    void enumerated(const E& v, E /*last*/)
    {
        using W = std::conditional_t<std::is_void_v<Wire>,
                                     std::underlying_type_t<E>, Wire>;
        io(static_cast<W>(v));
    }

    /** A sequence length. */
    void count(uint64_t n) { io(n); }

    /** A counted sequence: its length, then @p fn on each element. */
    template <class Seq, class Fn>
    void seq(const Seq& s, Fn&& fn)
    {
        count(s.size());
        for (const auto& e : s)
            fn(e);
    }

    /** A counted map: its size, then @p fn(key, value) per entry in
     *  key order. */
    template <class Map, class Fn>
    void map(const Map& m, Fn&& fn)
    {
        count(m.size());
        for (const auto& [k, v] : m)
            fn(k, v);
    }

    /** An index into a table of @p size elements. */
    template <class T>
    void index(const T& i, size_t /*size*/, const char* /*what*/)
    {
        io(i);
    }

    /** Section framing: a tag byte that the reader must re-match, so
     *  a version skew surfaces at the section it starts in. */
    void tag(uint8_t t) { io(t); }

    /** A condition loading enforces; the live state being saved is
     *  trusted. */
    void check(bool /*ok*/, const char* /*what*/) {}

    std::vector<uint8_t> take() { return std::move(buf_); }

private:
    std::vector<uint8_t> buf_;
};

/** Bounds-checked little-endian decoder over a const byte buffer. */
class SnapshotReader
{
public:
    static constexpr bool kLoading = true;

    explicit SnapshotReader(const std::vector<uint8_t>& data)
        : data_(&data)
    {
    }

    template <class T>
        requires std::is_arithmetic_v<T>
    void io(T& v)
    {
        if constexpr (std::is_same_v<T, bool>) {
            v = raw(1) != 0;
        } else if constexpr (std::is_floating_point_v<T>) {
            static_assert(sizeof(T) == sizeof(uint64_t));
            uint64_t bits = raw(sizeof bits);
            std::memcpy(&v, &bits, sizeof v);
        } else {
            v = static_cast<T>(raw(sizeof(T)));
        }
    }

    void io(std::string& s)
    {
        size_t n = 0;
        count(n);
        s.assign(reinterpret_cast<const char*>(data_->data()) + pos_, n);
        pos_ += n;
    }

    void bytes(void* p, size_t n)
    {
        need(n);
        if (n > 0)
            std::memcpy(p, data_->data() + pos_, n);
        pos_ += n;
    }

    template <class Wire = void, class E>
    void enumerated(E& v, E last)
    {
        using W = std::conditional_t<std::is_void_v<Wire>,
                                     std::underlying_type_t<E>, Wire>;
        W w{};
        io(w);
        // A negative value converts to a huge one and fails too.
        if (static_cast<uint64_t>(w) > static_cast<uint64_t>(last))
            throw SnapshotError("enum value " + std::to_string(w) +
                                " out of range at offset " +
                                std::to_string(pos_ - sizeof(W)));
        v = static_cast<E>(w);
    }

    /** A sequence length no larger than the bytes left to read. */
    template <class N>
    void count(N& n)
    {
        uint64_t v = 0;
        io(v);
        need(v);
        n = static_cast<N>(v);
    }

    template <class Seq, class Fn>
    void seq(Seq& s, Fn&& fn)
    {
        size_t n = 0;
        count(n);
        s.clear();
        s.resize(n);
        for (auto& e : s)
            fn(e);
    }

    /** Entries load in archive order; a repeated key keeps its first
     *  value. */
    template <class Map, class Fn>
    void map(Map& m, Fn&& fn)
    {
        size_t n = 0;
        count(n);
        m.clear();
        for (size_t i = 0; i < n; ++i) {
            typename Map::key_type k{};
            typename Map::mapped_type v{};
            fn(k, v);
            m.emplace(std::move(k), std::move(v));
        }
    }

    template <class T>
    void index(T& i, size_t size, const char* what)
    {
        io(i);
        check(static_cast<uint64_t>(i) < size, what);
    }

    /** Match a section tag written by SnapshotWriter::tag(). */
    void tag(uint8_t want)
    {
        uint8_t got = 0;
        io(got);
        if (got != want)
            throw SnapshotError("section tag mismatch (want " +
                                std::to_string(want) + ", got " +
                                std::to_string(got) + ")");
    }

    /** Reject the archive unless @p ok. */
    void check(bool ok, const char* what) const
    {
        if (!ok)
            throw SnapshotError(std::string(what) + " (before offset " +
                                std::to_string(pos_) + ")");
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

    uint64_t raw(size_t width)
    {
        need(width);
        uint64_t v = 0;
        for (size_t i = 0; i < width; ++i)
            v |= static_cast<uint64_t>((*data_)[pos_++]) << (8 * i);
        return v;
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
