#include "driver/taskgraph.h"

#include "driver/scenario.h"
#include "sim/graph/task_graph.h"

namespace tcsim {
namespace driver {

namespace {

[[noreturn]] void
fail_at(const std::string& file, int line, int col, const std::string& msg)
{
    std::string pos;
    if (line > 0)
        pos = std::to_string(line) + ":" + std::to_string(col) + ": ";
    throw ScenarioError(file.empty() ? pos + msg : file + ":" + pos + msg);
}

}  // namespace

void
compile_taskgraph(Scenario* sc, const std::string& file)
{
    TaskGraph g;

    // Tensor arena.  Declaration order matters: bump placement and
    // alias_of resolution both scan forward.
    for (const TensorSpec& t : sc->tensors) {
        try {
            if (!t.alias_of.empty()) {
                int base = g.find_tensor(t.alias_of);
                if (base < 0)
                    fail_at(file, t.line, t.col,
                            "tensor \"" + t.name +
                                "\": alias_of references unknown tensor \"" +
                                t.alias_of +
                                "\" (bases must be declared first)");
                g.declare_view(t.name, base, t.offset, t.bytes);
            } else if (t.placed) {
                g.place_tensor(t.name, t.address, t.bytes);
            } else {
                g.declare_tensor(t.name, t.bytes);
            }
        } catch (const TaskGraphError& e) {
            fail_at(file, t.line, t.col, e.what());
        }
    }

    // Tasks.  One per kernel, declaration order = program order.
    for (size_t i = 0; i < sc->kernels.size(); ++i) {
        const KernelSpec& k = sc->kernels[i];
        int task = g.add_task(k.name);
        auto use = [&](const std::vector<std::string>& names, bool write) {
            for (const std::string& n : names) {
                int t = g.find_tensor(n);
                if (t < 0)
                    fail_at(file, k.line, k.col,
                            "kernel \"" + k.name + "\" " +
                                (write ? "writes" : "reads") +
                                " unknown tensor \"" + n + "\"");
                if (write)
                    g.task_writes(task, t);
                else
                    g.task_reads(task, t);
            }
        };
        use(k.reads, /*write=*/false);
        use(k.writes, /*write=*/true);
        if (k.reads.empty() && k.writes.empty())
            fail_at(file, k.line, k.col,
                    "kernel \"" + k.name +
                        "\": declarative scenarios require every kernel to "
                        "declare \"reads\" and/or \"writes\"");
    }

    try {
        sc->plan = g.compile();
    } catch (const TaskGraphError& e) {
        int line = 0, col = 0;
        if (e.task() >= 0 &&
            e.task() < static_cast<int>(sc->kernels.size())) {
            line = sc->kernels[static_cast<size_t>(e.task())].line;
            col = sc->kernels[static_cast<size_t>(e.task())].col;
        } else if (e.tensor() >= 0 &&
                   e.tensor() < static_cast<int>(sc->tensors.size())) {
            line = sc->tensors[static_cast<size_t>(e.tensor())].line;
            col = sc->tensors[static_cast<size_t>(e.tensor())].col;
        }
        fail_at(file, line, col, e.what());
    }
    for (size_t i = 0; i < sc->tensors.size(); ++i)
        sc->tensors[i].address = g.tensor_address(static_cast<int>(i));
}

JsonValue
dag_to_json(const Scenario& sc)
{
    const TaskGraph::Compiled& plan = sc.plan;
    JsonValue doc = JsonValue::object();
    doc.set("scenario", sc.name);
    doc.set("declarative", sc.declarative);
    // A plain scenario is one queue on the default stream (none when a
    // serving scenario declares no kernels).
    int streams = sc.kernels.empty() ? 0 : 1;
    doc.set("num_streams", sc.declarative ? plan.num_streams : streams);

    JsonValue tensors = JsonValue::array();
    for (const TensorSpec& t : sc.tensors) {
        JsonValue o = JsonValue::object();
        o.set("name", t.name);
        o.set("bytes", t.bytes);
        o.set("address", t.address);
        if (!t.alias_of.empty()) {
            o.set("alias_of", t.alias_of);
            o.set("offset", t.offset);
        }
        tensors.push_back(std::move(o));
    }
    doc.set("tensors", std::move(tensors));

    JsonValue tasks = JsonValue::array();
    for (size_t i = 0; i < sc.kernels.size(); ++i) {
        const KernelSpec& k = sc.kernels[i];
        JsonValue o = JsonValue::object();
        o.set("name", k.name);
        o.set("stream", sc.stream_of(i));
        JsonValue reads = JsonValue::array();
        for (const std::string& r : k.reads)
            reads.push_back(r);
        o.set("reads", std::move(reads));
        JsonValue writes = JsonValue::array();
        for (const std::string& w : k.writes)
            writes.push_back(w);
        o.set("writes", std::move(writes));
        JsonValue waits = JsonValue::array();
        if (sc.declarative) {
            if (!plan.record_event[i].empty())
                o.set("record_event", plan.record_event[i]);
            for (const std::string& w : plan.wait_events[i])
                waits.push_back(w);
        }
        o.set("wait_events", std::move(waits));
        tasks.push_back(std::move(o));
    }
    doc.set("tasks", std::move(tasks));

    JsonValue edges = JsonValue::array();
    for (const TaskGraph::Edge& e : plan.edges) {
        JsonValue o = JsonValue::object();
        o.set("from", sc.kernels[static_cast<size_t>(e.from)].name);
        o.set("to", sc.kernels[static_cast<size_t>(e.to)].name);
        o.set("kind", hazard_kind_name(e.kind));
        o.set("tensor", sc.tensors[static_cast<size_t>(e.tensor)].name);
        o.set("cross_stream", e.cross_stream);
        if (e.needs_event)
            o.set("event", plan.record_event[static_cast<size_t>(e.from)]);
        edges.push_back(std::move(o));
    }
    doc.set("edges", std::move(edges));
    return doc;
}

std::string
dag_to_dot(const Scenario& sc)
{
    auto q = [](const std::string& s) { return "\"" + json_escape(s) + "\""; };
    std::string out;
    out += "digraph " + q(sc.name) + " {\n";
    out += "  rankdir=LR;\n";
    out += "  node [shape=box, fontname=\"monospace\"];\n";
    for (size_t i = 0; i < sc.kernels.size(); ++i) {
        const std::string& name = sc.kernels[i].name;
        out += "  " + q(name) + " [label=" +
               q(name + "\\ns" + std::to_string(sc.stream_of(i))) + "];\n";
    }
    for (const TaskGraph::Edge& e : sc.plan.edges) {
        const size_t from = static_cast<size_t>(e.from);
        std::string label = std::string(hazard_kind_name(e.kind)) + " " +
                            sc.tensors[static_cast<size_t>(e.tensor)].name;
        if (e.needs_event)
            label += "\\n" + sc.plan.record_event[from];
        // Solid edges carry an event; dashed ones are implied by stream
        // order or transitivity.
        std::string style = e.needs_event ? "solid" : "dashed";
        out += "  " + q(sc.kernels[from].name) + " -> " +
               q(sc.kernels[static_cast<size_t>(e.to)].name) +
               " [label=" + q(label) + ", style=" + style + "];\n";
    }
    out += "}\n";
    return out;
}

}  // namespace driver
}  // namespace tcsim
