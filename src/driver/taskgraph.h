#pragma once
/**
 * @file
 * Scenario-level task-graph frontend: parses the declarative tensor
 * arena ("tensors" plus per-kernel "reads"/"writes"), feeds it to the
 * core compiler (sim/graph/task_graph.h), and lowers the compiled
 * plan onto the KernelSpec launch fields — stream, record_event,
 * wait_events — so ScenarioRunner and the engine run it as plain
 * streams and events.
 *
 * Also home of the DAG dump (simrunner --dump-dag): a JSON document
 * that round-trips through the driver JSON parser plus a Graphviz DOT
 * rendering.  A plain scenario dumps an edgeless one-stream DAG.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "driver/json.h"

namespace tcsim {
namespace driver {

struct Scenario;

/** One entry of the scenario "tensors" arena. */
struct TensorSpec
{
    std::string name;
    uint64_t bytes = 0;
    std::string alias_of;  ///< View: name of the base tensor ("" = none).
    uint64_t offset = 0;   ///< View: byte offset into the base.
    bool placed = false;   ///< Explicit "address" given.
    /** Requested address when placed; the resolved arena address for
     *  every tensor once the scenario compiled. */
    uint64_t address = 0;
    int line = 0, col = 0;  ///< Source position for diagnostics.
};

/** One dependency edge of the dumped DAG. */
struct DagEdge
{
    std::string from, to;  ///< Kernel names.
    std::string kind;    ///< "raw" | "war" | "waw".
    std::string tensor;  ///< Hazard tensor.
    bool cross_stream = false;
    /** Event carrying the edge; "" = implied by stream order or
     *  transitivity. */
    std::string event;
};

/** The dependency DAG of a scenario, dump-ready. */
struct TaskGraphDag
{
    /** True when this is a compiled declarative plan (false = a plain
     *  scenario: one stream, no edges). */
    bool compiled = false;
    int num_streams = 0;
    std::vector<DagEdge> edges;
    /** Declared edges the hazard analysis proved unnecessary. */
    std::vector<std::pair<std::string, std::string>> false_serialization;
    /** The tensor arena with resolved addresses (empty when plain). */
    std::vector<TensorSpec> tensors;
};

/**
 * Compile the declarative form of @p sc: build the tensor arena,
 * derive hazards, reject multi-writer ambiguity and undeclared
 * aliasing (ScenarioError with source line:col), assign streams, and
 * write the derived stream/record_event/wait_events back into
 * sc->kernels.  Explicit record_event names are honoured (the task's
 * compiled event takes that name and is always recorded, so
 * event.<name>.cycle metrics keep working); explicit wait_event
 * entries are audit annotations — edges the hazard DAG does not back
 * are reported as false serialization (warn + sc->dag), never obeyed.
 * Fills sc->dag.  Called by parse_scenario; @p file for diagnostics.
 */
void compile_taskgraph(Scenario* sc, const std::string& file);

/** Dump @p dag as a JSON document (parses back with json_parse). */
JsonValue dag_to_json(const Scenario& sc, const TaskGraphDag& dag);

/** Dump @p dag as a Graphviz digraph. */
std::string dag_to_dot(const Scenario& sc, const TaskGraphDag& dag);

}  // namespace driver
}  // namespace tcsim
