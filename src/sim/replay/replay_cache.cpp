#include "sim/replay/replay_cache.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

namespace tcsim {

namespace {

/** Archive magic + layout version.  Bump the version on any change to
 *  the field order of ReplayCache::transfer or the walks it calls. */
constexpr char kMagic[4] = {'T', 'C', 'R', 'P'};
constexpr uint32_t kReplayArchiveVersion = 1;

}  // namespace

ReplayCache::ReplayCache(const ReplayCache& other)
{
    std::lock_guard<std::mutex> lk(other.mu_);
    profiles_ = other.profiles_;
}

ReplayCache&
ReplayCache::operator=(const ReplayCache& other)
{
    if (this == &other)
        return *this;
    std::map<std::string, Entry> copy;
    {
        std::lock_guard<std::mutex> lk(other.mu_);
        copy = other.profiles_;
    }
    std::lock_guard<std::mutex> lk(mu_);
    profiles_ = std::move(copy);
    return *this;
}

bool
ReplayCache::lookup(const std::string& key, uint64_t seq,
                    KernelTimingProfile* out) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = profiles_.find(key);
    if (it == profiles_.end())
        return false;
    const Entry& e = it->second;
    *out = e.profile;
    // Walk the recorded sequence: the engine's i-th occurrence of
    // this key gets the i-th recorded duration, so replaying the
    // recorded trace hands every launch its own duration; a different
    // trace cycles through the recorded empirical distribution.  A
    // slot can be unfilled (0) when its recording run was cut short
    // mid-flight — fall back to the first-recorded duration.
    uint64_t d = e.durations[seq % e.durations.size()];
    out->cycles = d > 0 ? d : e.profile.cycles;
    return true;
}

void
ReplayCache::record(const std::string& key, uint64_t seq,
                    KernelTimingProfile profile)
{
    const uint64_t cycles = profile.cycles;
    std::lock_guard<std::mutex> lk(mu_);
    auto [it, inserted] = profiles_.try_emplace(key);
    if (inserted)
        it->second.profile = std::move(profile);
    if (seq >= kMaxRecordedDurations)
        return;
    if (it->second.durations.size() <= seq)
        it->second.durations.resize(seq + 1, 0);
    it->second.durations[static_cast<size_t>(seq)] = cycles;
}

size_t
ReplayCache::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return profiles_.size();
}

std::vector<std::string>
ReplayCache::keys() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<std::string> out;
    out.reserve(profiles_.size());
    for (const auto& [k, p] : profiles_)
        out.push_back(k);
    return out;
}

template <class Ar>
void
ReplayCache::transfer(Ar& ar,
                      ArchiveRef<Ar, std::map<std::string, Entry>> entries)
{
    char magic[sizeof kMagic];
    std::memcpy(magic, kMagic, sizeof kMagic);
    ar.bytes(magic, sizeof magic);
    if (std::memcmp(magic, kMagic, sizeof kMagic) != 0)
        throw SnapshotError("replay cache: bad magic (not a TCRP archive)");
    uint32_t version = kReplayArchiveVersion;
    ar.io(version);
    if (version != kReplayArchiveVersion)
        throw SnapshotError(
            "replay cache: format version mismatch (archive v" +
            std::to_string(version) + ", this build v" +
            std::to_string(kReplayArchiveVersion) + ")");
    ar.map(entries, [&](auto& key, auto& e) {
        ar.io(key);
        tcsim::transfer(ar, e.profile);
        ar.seq(e.durations, [&](auto& d) { ar.io(d); });
        ar.check(!e.durations.empty(),
                 "replay cache: entry has no recorded durations");
    });
}

std::vector<uint8_t>
ReplayCache::serialize() const
{
    std::lock_guard<std::mutex> lk(mu_);
    SnapshotWriter w;
    transfer(w, profiles_);
    return w.take();
}

void
ReplayCache::deserialize(const std::vector<uint8_t>& data)
{
    SnapshotReader r(data);
    std::map<std::string, Entry> loaded;
    transfer(r, loaded);
    if (!r.done())
        throw SnapshotError("replay cache: trailing bytes after entries");
    // Merge: the first-seen profile keeps the counter fields; duration
    // sequences append in file order (load_dir sorts by name, so a
    // fixed file set merges deterministically).
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [key, e] : loaded) {
        auto [it, inserted] = profiles_.try_emplace(key);
        if (inserted)
            it->second.profile = std::move(e.profile);
        for (uint64_t d : e.durations) {
            if (it->second.durations.size() >= kMaxRecordedDurations)
                break;
            it->second.durations.push_back(d);
        }
    }
}

bool
ReplayCache::save_file(const std::string& path) const
{
    std::vector<uint8_t> bytes = serialize();
    std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;
    size_t wrote = bytes.empty()
                       ? 0
                       : std::fwrite(bytes.data(), 1, bytes.size(), f);
    bool ok = std::fclose(f) == 0 && wrote == bytes.size();
    if (!ok) {
        std::remove(tmp.c_str());
        return false;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
ReplayCache::load_file(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    std::vector<uint8_t> bytes;
    uint8_t buf[1 << 16];
    for (size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);
    deserialize(bytes);
    return true;
}

size_t
ReplayCache::load_dir(const std::string& dir)
{
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec)
        return 0;
    std::vector<std::string> files;
    for (const auto& entry : it) {
        if (entry.is_regular_file() && entry.path().extension() == ".rpc")
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    size_t merged = 0;
    for (const std::string& f : files)
        merged += load_file(f) ? 1 : 0;
    return merged;
}

}  // namespace tcsim
