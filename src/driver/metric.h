#pragma once
/**
 * @file
 * The metric namespace: every path a scenario "expect" entry can
 * assert, defined once, in one table.  An entry carries the field's
 * name, its place in the batch report, what the scenario must declare
 * for it to exist (a kernel list, a functional kernel, serving,
 * serving.resilience, faults) and its getter.  check_metric reads the
 * table at parse time, resolve_metric at run time and emit_metrics
 * when the report is written, so the three cannot drift apart.
 *
 *   total.<field>            total.stall.<reason>
 *   kernel.<name>.<field>    kernel.<name>.stall.<reason>
 *   mem.<field>              event.<name>.cycle
 *   verify.max_rel_err       fault.<field>
 *   serve.<field>            serve.latency_p<pct>
 *
 * <reason> is a stall_reason_name (sim/core/stall.h); <pct> is an
 * entry of serving.percentiles as printf's %g spells it ("99.5").
 */

#include <string>
#include <vector>

#include "driver/json.h"

namespace tcsim {
namespace driver {

struct Scenario;
struct ScenarioResult;
struct KernelResult;
struct EventResult;

/** The sections of the metric namespace, one per path prefix. */
enum class MetricSection { kTotal, kKernel, kMem, kEvent, kVerify, kServe, kFault };

/** Throws ScenarioError ("metric \"<path>\": <why>") unless a run of
 *  @p sc reports @p path. */
void check_metric(const std::string& path, const Scenario& sc);

/** Every path check_metric accepts for @p sc, in table order. */
std::vector<std::string> metric_paths(const Scenario& sc);

/** The value of @p path in @p r, a run of a scenario for which @p path
 *  passed check_metric. */
double resolve_metric(const ScenarioResult& r, const std::string& path);

/** What a metric reads: the run, plus the kernel or event that a
 *  kernel.<name> or event.<name> path names. */
struct MetricSubject
{
    const ScenarioResult& run;
    const KernelResult* kernel = nullptr;
    const EventResult* event = nullptr;
};

/** @p out with the report fields of @p section for @p subject appended
 *  in table order.  A "group.key" report key nests under "group",
 *  which is left out when it would be empty. */
JsonValue emit_metrics(MetricSection section, const MetricSubject& subject,
                       JsonValue out = JsonValue::object());

}  // namespace driver
}  // namespace tcsim
