#pragma once
/**
 * @file
 * Scenario-level task-graph frontend: feeds the declarative tensor
 * arena ("tensors" plus per-kernel "reads"/"writes") to the core
 * compiler (sim/graph/task_graph.h) and keeps the compiled plan on the
 * Scenario.  The runner enqueues that plan through Gpu::launch_graph;
 * every event is the derived "<task>_done" of its producer.
 *
 * Also home of the DAG dump (simrunner --dump-dag), rendered from the
 * plan plus kernel names: a JSON document that round-trips through
 * the driver JSON parser, and a Graphviz DOT rendering.  A plain
 * scenario dumps an edgeless one-stream DAG.
 */

#include <cstdint>
#include <string>
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

/**
 * Compile the declarative form of @p sc: build the tensor arena,
 * derive hazards, reject multi-writer ambiguity and undeclared
 * aliasing (ScenarioError with source line:col), assign streams and
 * place events.  Stores the plan in sc->plan (the runner hands it to
 * Gpu::launch_graph) and each tensor's resolved arena address in
 * sc->tensors[i].address.  Called by parse_scenario; @p file for
 * diagnostics.
 */
void compile_taskgraph(Scenario* sc, const std::string& file);

/** Dump the dependency DAG of @p sc as a JSON document (parses back
 *  with json_parse). */
JsonValue dag_to_json(const Scenario& sc);

/** Dump the dependency DAG of @p sc as a Graphviz digraph. */
std::string dag_to_dot(const Scenario& sc);

}  // namespace driver
}  // namespace tcsim
