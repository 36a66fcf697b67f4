#include "sim/graph/task_graph.h"

#include <algorithm>
#include <set>
#include <tuple>

namespace tcsim {

namespace {

constexpr uint64_t kArenaAlign = 256;

uint64_t
align_up(uint64_t v)
{
    return (v + kArenaAlign - 1) & ~(kArenaAlign - 1);
}

/** Dense bitset over task indices, one word row per task. */
class ReachSet
{
  public:
    ReachSet(size_t tasks)
        : words_((tasks + 63) / 64), bits_(tasks * words_, 0)
    {
    }

    void add(size_t row, size_t bit)
    {
        bits_[row * words_ + bit / 64] |= uint64_t{1} << (bit % 64);
    }

    bool has(size_t row, size_t bit) const
    {
        return bits_[row * words_ + bit / 64] >> (bit % 64) & 1;
    }

    /** row |= other row. */
    void merge(size_t row, size_t from)
    {
        for (size_t w = 0; w < words_; ++w)
            bits_[row * words_ + w] |= bits_[from * words_ + w];
    }

  private:
    size_t words_;
    std::vector<uint64_t> bits_;
};

}  // namespace

const char*
hazard_kind_name(HazardKind kind)
{
    switch (kind) {
      case HazardKind::kRaw: return "raw";
      case HazardKind::kWar: return "war";
      case HazardKind::kWaw: return "waw";
    }
    return "?";
}

int
TaskGraph::check_tensor(int t, const char* what) const
{
    if (t < 0 || static_cast<size_t>(t) >= tensors_.size())
        throw TaskGraphError(std::string(what) + ": tensor index " +
                                 std::to_string(t) + " out of range",
                             -1, t);
    return t;
}

int
TaskGraph::check_task(int t, const char* what) const
{
    if (t < 0 || static_cast<size_t>(t) >= tasks_.size())
        throw TaskGraphError(std::string(what) + ": task index " +
                                 std::to_string(t) + " out of range",
                             t, -1);
    return t;
}

int
TaskGraph::declare_tensor(std::string name, uint64_t bytes)
{
    if (bytes == 0)
        throw TaskGraphError("tensor \"" + name + "\": bytes must be > 0",
                             -1, static_cast<int>(tensors_.size()));
    Tensor t;
    t.name = std::move(name);
    t.address = arena_next_;
    t.bytes = bytes;
    arena_next_ = align_up(arena_next_ + bytes);
    tensors_.push_back(std::move(t));
    return static_cast<int>(tensors_.size()) - 1;
}

int
TaskGraph::declare_view(std::string name, int base, uint64_t offset,
                        uint64_t bytes)
{
    check_tensor(base, "declare_view");
    const Tensor& b = tensors_[static_cast<size_t>(base)];
    if (bytes == 0)
        throw TaskGraphError("view \"" + name + "\": bytes must be > 0",
                             -1, static_cast<int>(tensors_.size()));
    if (offset + bytes > b.bytes)
        throw TaskGraphError(
            "view \"" + name + "\" [" + std::to_string(offset) + ", " +
                std::to_string(offset + bytes) + ") does not fit in base \"" +
                b.name + "\" (" + std::to_string(b.bytes) + " bytes)",
            -1, static_cast<int>(tensors_.size()));
    Tensor t;
    t.name = std::move(name);
    t.address = b.address + offset;
    t.bytes = bytes;
    t.base = base;
    tensors_.push_back(std::move(t));
    return static_cast<int>(tensors_.size()) - 1;
}

int
TaskGraph::place_tensor(std::string name, uint64_t address, uint64_t bytes)
{
    if (bytes == 0)
        throw TaskGraphError("tensor \"" + name + "\": bytes must be > 0",
                             -1, static_cast<int>(tensors_.size()));
    Tensor t;
    t.name = std::move(name);
    t.address = address;
    t.bytes = bytes;
    t.placed = true;
    // Keep bump placement clear of explicit placements.
    arena_next_ = std::max(arena_next_, align_up(address + bytes));
    tensors_.push_back(std::move(t));
    return static_cast<int>(tensors_.size()) - 1;
}

int
TaskGraph::find_tensor(const std::string& name) const
{
    for (size_t i = 0; i < tensors_.size(); ++i)
        if (tensors_[i].name == name)
            return static_cast<int>(i);
    return -1;
}

int
TaskGraph::add_task(std::string name)
{
    Task t;
    t.name = std::move(name);
    tasks_.push_back(std::move(t));
    return static_cast<int>(tasks_.size()) - 1;
}

void
TaskGraph::task_reads(int task, int tensor)
{
    check_task(task, "task_reads");
    check_tensor(tensor, "task_reads");
    std::vector<int>& r = tasks_[static_cast<size_t>(task)].reads;
    if (std::find(r.begin(), r.end(), tensor) == r.end())
        r.push_back(tensor);
}

void
TaskGraph::task_writes(int task, int tensor)
{
    check_task(task, "task_writes");
    check_tensor(tensor, "task_writes");
    std::vector<int>& w = tasks_[static_cast<size_t>(task)].writes;
    if (std::find(w.begin(), w.end(), tensor) == w.end())
        w.push_back(tensor);
}

bool
TaskGraph::view_related(int a, int b) const
{
    // Root of the view chain (views of views allowed).
    auto root = [&](int t) {
        while (tensors_[static_cast<size_t>(t)].base >= 0)
            t = tensors_[static_cast<size_t>(t)].base;
        return t;
    };
    return root(a) == root(b);
}

TaskGraph::Compiled
TaskGraph::compile() const
{
    const size_t n = tasks_.size();
    Compiled out;
    out.stream_of.assign(n, 0);
    out.record_event.assign(n, "");
    out.wait_events.assign(n, {});

    auto overlap = [&](int a, int b) -> uint64_t {
        const Tensor& ta = tensors_[static_cast<size_t>(a)];
        const Tensor& tb = tensors_[static_cast<size_t>(b)];
        uint64_t lo = std::max(ta.address, tb.address);
        uint64_t hi =
            std::min(ta.address + ta.bytes, tb.address + tb.bytes);
        return hi > lo ? hi - lo : 0;
    };

    // Undeclared aliasing: overlapping ranges must share a view chain.
    // Bump-placed tensors never overlap each other, so only explicit
    // placements can trip this.
    for (size_t a = 0; a < tensors_.size(); ++a) {
        for (size_t b = a + 1; b < tensors_.size(); ++b) {
            if (overlap(static_cast<int>(a), static_cast<int>(b)) &&
                !view_related(static_cast<int>(a), static_cast<int>(b)))
                throw TaskGraphError(
                    "tensors \"" + tensors_[a].name + "\" and \"" +
                        tensors_[b].name +
                        "\" overlap without a declared view relationship "
                        "(undeclared aliasing; use alias_of to declare it)",
                    -1, static_cast<int>(b));
        }
    }

    for (size_t t = 0; t < n; ++t)
        if (tasks_[t].reads.empty() && tasks_[t].writes.empty())
            throw TaskGraphError("task \"" + tasks_[t].name +
                                     "\" declares no reads or writes",
                                 static_cast<int>(t), -1);

    // Multi-writer ambiguity: i and j blind-write the same bytes with
    // no intervening reader (k == j covers read-modify-write).
    auto reads_overlapping = [&](size_t k, int wa, int wb) {
        const Tensor& a = tensors_[static_cast<size_t>(wa)];
        const Tensor& b = tensors_[static_cast<size_t>(wb)];
        uint64_t lo = std::max(a.address, b.address);
        uint64_t hi =
            std::min(a.address + a.bytes, b.address + b.bytes);
        for (int r : tasks_[k].reads) {
            const Tensor& tr = tensors_[static_cast<size_t>(r)];
            if (std::max(tr.address, lo) <
                std::min(tr.address + tr.bytes, hi))
                return true;
        }
        return false;
    };
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
            for (int wi : tasks_[i].writes) {
                for (int wj : tasks_[j].writes) {
                    if (!overlap(wi, wj))
                        continue;
                    bool consumed = false;
                    for (size_t k = i + 1; k <= j && !consumed; ++k)
                        consumed = reads_overlapping(k, wi, wj);
                    if (!consumed)
                        throw TaskGraphError(
                            "tasks \"" + tasks_[i].name + "\" and \"" +
                                tasks_[j].name +
                                "\" both write tensor bytes (\"" +
                                tensors_[static_cast<size_t>(wi)].name +
                                "\" overlaps \"" +
                                tensors_[static_cast<size_t>(wj)].name +
                                "\") that nothing in between reads — the "
                                "final contents would depend on scheduling "
                                "(multi-writer ambiguity)",
                            static_cast<int>(j), wj);
                }
            }
        }
    }

    // Pairwise hazard edges.  Declaration order is program order, so
    // every edge points forward and the order is already topological.
    std::set<std::tuple<int, int, HazardKind>> seen;
    auto add_edge = [&](size_t i, size_t j, HazardKind kind, int tensor) {
        if (!seen.insert({static_cast<int>(i), static_cast<int>(j), kind})
                 .second)
            return;
        Edge e;
        e.from = static_cast<int>(i);
        e.to = static_cast<int>(j);
        e.kind = kind;
        e.tensor = tensor;
        out.edges.push_back(e);
    };
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
            for (int wi : tasks_[i].writes)
                for (int rj : tasks_[j].reads)
                    if (overlap(wi, rj))
                        add_edge(i, j, HazardKind::kRaw, wi);
            for (int ri : tasks_[i].reads)
                for (int wj : tasks_[j].writes)
                    if (overlap(ri, wj))
                        add_edge(i, j, HazardKind::kWar, ri);
            for (int wi : tasks_[i].writes)
                for (int wj : tasks_[j].writes)
                    if (overlap(wi, wj))
                        add_edge(i, j, HazardKind::kWaw, wi);
        }
    }

    // Hazard-DAG ancestor sets (anc[j] = every i with a path i -> j).
    ReachSet anc(n);
    for (const Edge& e : out.edges) {
        anc.merge(static_cast<size_t>(e.to), static_cast<size_t>(e.from));
        anc.add(static_cast<size_t>(e.to), static_cast<size_t>(e.from));
    }

    // Greedy chain decomposition: append to the first stream whose
    // latest task is an ancestor (its FIFO order is then implied by
    // the DAG); otherwise open a new stream.  Scanning streams in
    // creation order keeps the assignment deterministic.
    std::vector<int> stream_last;  ///< Latest task per stream.
    for (size_t t = 0; t < n; ++t) {
        int assigned = -1;
        for (size_t s = 0; s < stream_last.size(); ++s) {
            if (anc.has(t, static_cast<size_t>(stream_last[s]))) {
                assigned = static_cast<int>(s);
                break;
            }
        }
        if (assigned < 0) {
            assigned = static_cast<int>(stream_last.size());
            stream_last.push_back(static_cast<int>(t));
        } else {
            stream_last[static_cast<size_t>(assigned)] =
                static_cast<int>(t);
        }
        out.stream_of[t] = assigned + 1;
    }
    out.num_streams = static_cast<int>(stream_last.size());

    // Order relation R = hazard edges + same-stream succession; an
    // edge implied through R needs no event of its own.  Direct R
    // predecessors of j: its hazard parents plus the previous task on
    // its stream.
    ReachSet anc_r(n);
    std::vector<std::vector<int>> parents(n);
    {
        std::vector<int> prev_on_stream(
            static_cast<size_t>(out.num_streams), -1);
        std::vector<std::vector<int>> hazard_parents(n);
        for (const Edge& e : out.edges)
            hazard_parents[static_cast<size_t>(e.to)].push_back(e.from);
        for (size_t t = 0; t < n; ++t) {
            parents[t] = hazard_parents[t];
            int& prev = prev_on_stream[static_cast<size_t>(
                out.stream_of[t] - 1)];
            if (prev >= 0)
                parents[t].push_back(prev);
            prev = static_cast<int>(t);
            for (int p : parents[t]) {
                anc_r.merge(t, static_cast<size_t>(p));
                anc_r.add(t, static_cast<size_t>(p));
            }
        }
    }

    for (Edge& e : out.edges) {
        size_t i = static_cast<size_t>(e.from);
        size_t j = static_cast<size_t>(e.to);
        e.cross_stream = out.stream_of[i] != out.stream_of[j];
        if (!e.cross_stream)
            continue;  // Stream FIFO order covers it.
        bool implied = false;
        for (int p : parents[j]) {
            if (p != e.from && anc_r.has(static_cast<size_t>(p), i)) {
                implied = true;
                break;
            }
        }
        if (implied)
            continue;
        e.needs_event = true;
        if (out.record_event[i].empty())
            out.record_event[i] = tasks_[i].name + "_done";
        out.wait_events[j].push_back(out.record_event[i]);
    }
    // Pairwise dedup can still route two edges through one producer
    // event (different tensors, same task pair is deduped by kind —
    // but RAW + WAW between one pair both need the same event).
    for (std::vector<std::string>& waits : out.wait_events) {
        std::vector<std::string> unique;
        for (std::string& w : waits)
            if (std::find(unique.begin(), unique.end(), w) == unique.end())
                unique.push_back(std::move(w));
        waits = std::move(unique);
    }
    return out;
}

}  // namespace tcsim
