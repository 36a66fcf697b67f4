#pragma once
/**
 * @file
 * Declarative task graph: tasks (kernel launches) declare the tensors
 * they read and write, and compile() derives everything the hand
 * written event plumbing used to spell out — RAW/WAR/WAW hazard
 * edges from byte-range overlap, a stream assignment that maximizes
 * overlap, and the exact record/wait operation sequence the execution
 * engine already runs.  The engine is untouched: a compiled graph is
 * just streams + events, so cycle semantics are bit-identical to the
 * same DAG written by hand (render-graph style, after Adria's
 * RenderGraph: passes declare resource sets, the graph derives
 * barriers).
 *
 * Tensors live in a *virtual arena* — hazard metadata, not backing
 * storage.  Plain tensors are bump-placed (256-byte aligned, never
 * overlapping); views alias a slice of a base tensor (declared
 * overlap); absolutely placed tensors may not overlap anything they
 * are not a declared view of.  Hazards are computed on byte-range
 * overlap, so two tasks writing disjoint halves of one tensor run in
 * parallel while a reader of the whole tensor orders after both.
 *
 * Rejected at compile time (TaskGraphError, with the task/tensor
 * indices so the scenario layer can attach source line:col):
 *  - multi-writer ambiguity: two tasks write overlapping bytes and
 *    nothing in between reads them (a blind double write — the final
 *    contents depend on scheduling);
 *  - undeclared aliasing: absolutely placed tensors overlap without a
 *    view relationship;
 *  - tasks that touch no tensors, views outside their base, unknown
 *    tensor indices.
 *
 * Stream assignment is greedy chain decomposition over the hazard DAG
 * (interval-coloring flavour): tasks are scanned in declaration order
 * and appended to the first stream whose most recent task is an
 * ancestor — stream FIFO order then adds no serialization the DAG did
 * not already imply — else a new stream opens.  Cross-stream edges not
 * implied transitively get one event each, named "<task>_done" and
 * recorded after the producer; same-stream edges ride stream order for
 * free.  compile() never emits a same-stream wait.  Gpu::launch_graph
 * is the one place a Compiled plan becomes streams, waits, launches
 * and records.
 */

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace tcsim {

/** Why one task must order after another. */
enum class HazardKind : uint8_t {
    kRaw,  ///< Read-after-write: consumer reads the producer's bytes.
    kWar,  ///< Write-after-read: writer overwrites bytes a reader saw.
    kWaw,  ///< Write-after-write: ordered overwrite (reader between).
};

const char* hazard_kind_name(HazardKind kind);

/** Compile-time rejection.  @p task / @p tensor are indices into the
 *  builder's declaration order (-1 when not applicable), so callers
 *  that know source positions can re-throw with line:col attached. */
class TaskGraphError : public std::runtime_error
{
  public:
    explicit TaskGraphError(const std::string& what, int task = -1,
                            int tensor = -1)
        : std::runtime_error(what), task_(task), tensor_(tensor)
    {
    }

    /** Declaration index of the offending task (-1 = none). */
    int task() const { return task_; }
    /** Declaration index of the offending tensor (-1 = none). */
    int tensor() const { return tensor_; }

  private:
    int task_;
    int tensor_;
};

/** Builder + compiler for a declarative task graph. */
class TaskGraph
{
  public:
    /** One derived hazard edge (task declaration indices). */
    struct Edge
    {
        int from = 0;
        int to = 0;
        HazardKind kind = HazardKind::kRaw;
        int tensor = 0;     ///< The overlapping tensor (from's side).
        bool cross_stream = false;
        bool needs_event = false;  ///< Not implied by order/transitivity.
    };

    /** compile() output: everything needed to enqueue the graph. */
    struct Compiled
    {
        /** Per task: 1-based stream index (dense, declaration order of
         *  first use). */
        std::vector<int> stream_of;
        int num_streams = 0;
        /** Every derived hazard edge (transitive ones included, for
         *  the DAG dump; needs_event marks the emitted subset). */
        std::vector<Edge> edges;
        /** Per task: event name recorded after it ("" = none) and the
         *  events its launch waits on (producers on other streams). */
        std::vector<std::string> record_event;
        std::vector<std::vector<std::string>> wait_events;
    };

    // ---- Tensor arena ---------------------------------------------------

    /** Declare a tensor of @p bytes, bump-placed in the virtual arena
     *  (256-byte aligned; never overlaps other bump-placed tensors).
     *  Returns its tensor index. */
    int declare_tensor(std::string name, uint64_t bytes);

    /** Declare a view of @p bytes into @p base at relative byte
     *  @p offset.  The view must lie entirely inside the base; the
     *  overlap with the base (and sibling views) is *declared*, so it
     *  feeds hazard analysis instead of being rejected. */
    int declare_view(std::string name, int base, uint64_t offset,
                     uint64_t bytes);

    /** Declare a tensor at absolute arena address @p address.  Any
     *  overlap with a tensor it is not view-related to is undeclared
     *  aliasing and rejected by compile(). */
    int place_tensor(std::string name, uint64_t address, uint64_t bytes);

    /** Tensor index by name, -1 when absent. */
    int find_tensor(const std::string& name) const;

    size_t num_tensors() const { return tensors_.size(); }
    const std::string& tensor_name(int t) const
    {
        return tensors_[static_cast<size_t>(t)].name;
    }
    uint64_t tensor_address(int t) const
    {
        return tensors_[static_cast<size_t>(t)].address;
    }
    uint64_t tensor_bytes(int t) const
    {
        return tensors_[static_cast<size_t>(t)].bytes;
    }

    // ---- Tasks ----------------------------------------------------------

    /** Append a task (declaration order is program order for hazard
     *  purposes).  Returns its task index. */
    int add_task(std::string name);

    void task_reads(int task, int tensor);
    void task_writes(int task, int tensor);

    size_t num_tasks() const { return tasks_.size(); }
    const std::string& task_name(int t) const
    {
        return tasks_[static_cast<size_t>(t)].name;
    }
    const std::vector<int>& reads_of(int t) const
    {
        return tasks_[static_cast<size_t>(t)].reads;
    }
    const std::vector<int>& writes_of(int t) const
    {
        return tasks_[static_cast<size_t>(t)].writes;
    }

    /** Derive hazards, reject ambiguity, color streams, place events.
     *  Deterministic: same declarations, same output. */
    Compiled compile() const;

  private:
    struct Tensor
    {
        std::string name;
        uint64_t address = 0;  ///< Virtual arena byte address.
        uint64_t bytes = 0;
        int base = -1;         ///< View: index of the base tensor.
        bool placed = false;   ///< Absolutely placed (alias audit).
    };

    struct Task
    {
        std::string name;
        std::vector<int> reads;
        std::vector<int> writes;
    };

    int check_tensor(int t, const char* what) const;
    int check_task(int t, const char* what) const;
    /** @p a and @p b overlap through a declared view chain. */
    bool view_related(int a, int b) const;

    std::vector<Tensor> tensors_;
    std::vector<Task> tasks_;
    uint64_t arena_next_ = 0;  ///< Bump pointer for declare_tensor.
};

}  // namespace tcsim
