#include "driver/taskgraph.h"

#include <map>
#include <set>

#include "common/logging.h"
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

    // Explicit record/wait keys: record_event names the task's
    // compiled event; wait_event is an *audited annotation* — the
    // compiler derives the real dependencies and reports declared
    // edges no hazard backs as false serialization.
    std::map<std::string, int> explicit_record;
    for (size_t i = 0; i < sc->kernels.size(); ++i) {
        const KernelSpec& k = sc->kernels[i];
        if (k.record_event.empty())
            continue;
        if (!explicit_record.emplace(k.record_event, static_cast<int>(i))
                 .second)
            fail_at(file, k.line, k.col,
                    "duplicate record_event \"" + k.record_event + "\"");
    }
    for (size_t i = 0; i < sc->kernels.size(); ++i) {
        const KernelSpec& k = sc->kernels[i];
        for (const std::string& e : k.wait_events) {
            auto it = explicit_record.find(e);
            if (it == explicit_record.end() ||
                it->second >= static_cast<int>(i))
                fail_at(file, k.line, k.col,
                        "kernel \"" + k.name + "\" waits on \"" + e +
                            "\", which no earlier kernel records "
                            "(declarative wait_event only annotates an "
                            "edge for audit)");
            g.declare_edge(it->second, static_cast<int>(i));
        }
    }

    TaskGraph::Compiled plan;
    try {
        plan = g.compile();
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

    // Final event names.  An explicit record_event wins (and is always
    // recorded, so event.<name>.cycle metrics work without a
    // consumer); a derived "<task>_done" that collides with some other
    // task's explicit name falls back to "tg:<task>".
    const size_t n = sc->kernels.size();
    std::set<std::string> taken;
    for (const auto& [name, task] : explicit_record)
        taken.insert(name);
    std::vector<std::string> final_name(n);
    std::map<std::string, std::string> rename;
    for (size_t t = 0; t < n; ++t) {
        const std::string& exp = sc->kernels[t].record_event;
        if (!exp.empty()) {
            final_name[t] = exp;
        } else if (!plan.record_event[t].empty()) {
            std::string name = plan.record_event[t];
            while (taken.count(name))
                name = "tg:" + name;
            final_name[t] = name;
            taken.insert(name);
        }
        if (!plan.record_event[t].empty())
            rename[plan.record_event[t]] = final_name[t];
    }

    // Lower the plan onto the KernelSpec launch fields: from here the
    // runner and engine see plain streams and events.
    for (size_t t = 0; t < n; ++t) {
        KernelSpec& k = sc->kernels[t];
        k.stream = plan.stream_of[t];
        k.record_event = final_name[t];
        k.wait_events.clear();
        for (const std::string& w : plan.wait_events[t])
            k.wait_events.push_back(rename.at(w));
    }

    // DAG for --dump-dag and the false-serialization report.
    sc->dag = TaskGraphDag{};
    sc->dag.compiled = true;
    sc->dag.num_streams = plan.num_streams;
    sc->dag.tensors = sc->tensors;
    for (size_t i = 0; i < sc->dag.tensors.size(); ++i)
        sc->dag.tensors[i].address = g.tensor_address(static_cast<int>(i));
    for (const TaskGraph::Edge& e : plan.edges) {
        DagEdge d;
        d.from = sc->kernels[static_cast<size_t>(e.from)].name;
        d.to = sc->kernels[static_cast<size_t>(e.to)].name;
        d.kind = hazard_kind_name(e.kind);
        d.tensor = g.tensor_name(e.tensor);
        d.cross_stream = e.cross_stream;
        if (e.needs_event)
            d.event = final_name[static_cast<size_t>(e.from)];
        sc->dag.edges.push_back(std::move(d));
    }
    for (const TaskGraph::FalseEdge& fe : plan.false_serialization) {
        const std::string& from =
            sc->kernels[static_cast<size_t>(fe.from)].name;
        const std::string& to = sc->kernels[static_cast<size_t>(fe.to)].name;
        warn("%s: declared edge \"%s\" -> \"%s\" is false serialization: "
             "no data hazard requires it",
             file.empty() ? sc->name.c_str() : file.c_str(), from.c_str(),
             to.c_str());
        sc->dag.false_serialization.emplace_back(from, to);
    }
}

JsonValue
dag_to_json(const Scenario& sc, const TaskGraphDag& dag)
{
    JsonValue doc = JsonValue::object();
    doc.set("scenario", sc.name);
    doc.set("declarative", dag.compiled);
    doc.set("num_streams", dag.num_streams);

    JsonValue tensors = JsonValue::array();
    for (const TensorSpec& t : dag.tensors) {
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
    for (const KernelSpec& k : sc.kernels) {
        JsonValue o = JsonValue::object();
        o.set("name", k.name);
        o.set("stream", k.stream);
        JsonValue reads = JsonValue::array();
        for (const std::string& r : k.reads)
            reads.push_back(r);
        o.set("reads", std::move(reads));
        JsonValue writes = JsonValue::array();
        for (const std::string& w : k.writes)
            writes.push_back(w);
        o.set("writes", std::move(writes));
        if (!k.record_event.empty())
            o.set("record_event", k.record_event);
        JsonValue waits = JsonValue::array();
        for (const std::string& w : k.wait_events)
            waits.push_back(w);
        o.set("wait_events", std::move(waits));
        tasks.push_back(std::move(o));
    }
    doc.set("tasks", std::move(tasks));

    JsonValue edges = JsonValue::array();
    for (const DagEdge& e : dag.edges) {
        JsonValue o = JsonValue::object();
        o.set("from", e.from);
        o.set("to", e.to);
        o.set("kind", e.kind);
        if (!e.tensor.empty())
            o.set("tensor", e.tensor);
        o.set("cross_stream", e.cross_stream);
        if (!e.event.empty())
            o.set("event", e.event);
        edges.push_back(std::move(o));
    }
    doc.set("edges", std::move(edges));

    JsonValue false_ser = JsonValue::array();
    for (const auto& [from, to] : dag.false_serialization) {
        JsonValue o = JsonValue::object();
        o.set("from", from);
        o.set("to", to);
        false_ser.push_back(std::move(o));
    }
    doc.set("false_serialization", std::move(false_ser));
    return doc;
}

std::string
dag_to_dot(const Scenario& sc, const TaskGraphDag& dag)
{
    auto q = [](const std::string& s) { return "\"" + json_escape(s) + "\""; };
    std::string out;
    out += "digraph " + q(sc.name) + " {\n";
    out += "  rankdir=LR;\n";
    out += "  node [shape=box, fontname=\"monospace\"];\n";
    for (const KernelSpec& k : sc.kernels) {
        out += "  " + q(k.name) + " [label=" +
               q(k.name + "\\ns" + std::to_string(k.stream)) + "];\n";
    }
    for (const DagEdge& e : dag.edges) {
        std::string label = e.kind;
        if (!e.tensor.empty())
            label += " " + e.tensor;
        if (!e.event.empty())
            label += "\\n" + e.event;
        std::string style =
            e.event.empty() ? "dashed" : "solid";  // implied vs event-carried
        out += "  " + q(e.from) + " -> " + q(e.to) + " [label=" + q(label) +
               ", style=" + style + "];\n";
    }
    for (const auto& [from, to] : dag.false_serialization) {
        out += "  " + q(from) + " -> " + q(to) +
               " [label=\"false serialization\", style=dotted, "
               "color=red, constraint=false];\n";
    }
    out += "}\n";
    return out;
}

}  // namespace driver
}  // namespace tcsim
