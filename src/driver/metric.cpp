#include "driver/metric.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "driver/runner.h"
#include "driver/scenario.h"
#include "sim/core/stall.h"

namespace tcsim {
namespace driver {

namespace {

/** What a scenario must declare for a metric to exist. */
enum class Needs : uint8_t {
    kAny,
    kKernels,     ///< A kernel list, not a "serving" scenario.
    kFunctional,  ///< A functional kernel (under kernel.<name>, that one).
    kServing,
    kResilience,  ///< serving.resilience.
    kFaults,
};

/** A generated family: name and report key are stems that each member
 *  completes. */
enum class Family : uint8_t {
    kNone,
    kStall,       ///< stall.<reason>, one per stall_reason_name.
    kPercentile,  ///< latency_p<pct>, one per serving.percentiles entry.
};

using enum MetricSection;
using enum Needs;
using enum Family;

struct MetricDef
{
    MetricSection section;
    /** Path component after the section (and item name) prefix;
     *  nullptr for a field only the report carries. */
    const char* name;
    /** Key in the section's report block; nullptr when left out. */
    const char* report;
    Needs needs;
    /** The value; @p i indexes the family member. */
    double (*get)(const MetricSubject& s, size_t i);
    Family family = kNone;
};

#define TCSIM_GET(expr)                                                       \
    [](const MetricSubject& s, [[maybe_unused]] size_t i) {                   \
        return static_cast<double>(expr);                                     \
    }
/** A field reported under @p report that reads @p object.@p field. */
#define TCSIM_AT(section, needs, report, object, field)                       \
    {section, #field, report, needs, TCSIM_GET(object.field)}
/** A field named, and reported, like the member it reads. */
#define TCSIM_MEMBER(section, needs, object, field)                           \
    TCSIM_AT(section, needs, #field, object, field)

/** The metric namespace, in report order within each section. */
constexpr MetricDef kMetrics[] = {
    // total.*: the whole run (report block "total").
    TCSIM_MEMBER(kTotal, kAny, s.run.totals, cycles),
    TCSIM_MEMBER(kTotal, kAny, s.run.totals, instructions),
    TCSIM_MEMBER(kTotal, kAny, s.run.totals, hmma_instructions),
    TCSIM_MEMBER(kTotal, kAny, s.run.totals, ipc),
    {kTotal, "tflops", "tflops", kAny, TCSIM_GET(s.run.total_tflops)},
    TCSIM_MEMBER(kTotal, kAny, s.run.totals, ticks),
    TCSIM_MEMBER(kTotal, kAny, s.run.totals, skipped_cycles),
    {kTotal, "stall_cycles", "stall_cycles", kAny,
     TCSIM_GET(s.run.totals.stalls.total())},
    {kTotal, "stall.", "stalls.", kAny,
     TCSIM_GET(s.run.totals.stalls.counts[i]), kStall},

    // kernel.<name>.*: one launch (an entry of "kernels").
    TCSIM_MEMBER(kKernel, kKernels, (*s.kernel), stream),
    TCSIM_MEMBER(kKernel, kKernels, s.kernel->stats, start_cycle),
    TCSIM_MEMBER(kKernel, kKernels, s.kernel->stats, finish_cycle),
    TCSIM_MEMBER(kKernel, kKernels, s.kernel->stats, cycles),
    TCSIM_MEMBER(kKernel, kKernels, s.kernel->stats, instructions),
    TCSIM_MEMBER(kKernel, kKernels, s.kernel->stats, hmma_instructions),
    TCSIM_MEMBER(kKernel, kKernels, s.kernel->stats, ipc),
    TCSIM_MEMBER(kKernel, kKernels, (*s.kernel), tflops),
    {kKernel, "stall_cycles", "stall_cycles", kKernels,
     TCSIM_GET(s.kernel->stats.stalls.total())},
    {kKernel, "stall.", "stalls.", kKernels,
     TCSIM_GET(s.kernel->stats.stalls.counts[i]), kStall},
    TCSIM_MEMBER(kKernel, kFunctional, (*s.kernel), verify_rel_err),

    // mem.*: run-wide memory-hierarchy counters (the transaction path).
    TCSIM_MEMBER(kMem, kAny, s.run.totals.mem, l1_hits),
    TCSIM_MEMBER(kMem, kAny, s.run.totals.mem, l1_misses),
    TCSIM_MEMBER(kMem, kAny, s.run.totals.mem, l2_hits),
    TCSIM_MEMBER(kMem, kAny, s.run.totals.mem, l2_misses),
    TCSIM_MEMBER(kMem, kAny, s.run.totals.mem, dram_bytes),
    TCSIM_MEMBER(kMem, kAny, s.run.totals.mem, global_sectors),
    TCSIM_MEMBER(kMem, kAny, s.run.totals.mem, mshr_merges),
    TCSIM_MEMBER(kMem, kAny, s.run.totals.mem, mshr_peak),
    TCSIM_MEMBER(kMem, kAny, s.run.totals.mem, noc_queue_cycles),
    TCSIM_MEMBER(kMem, kAny, s.run.totals.mem, l2_queue_cycles),
    TCSIM_MEMBER(kMem, kAny, s.run.totals.mem, dram_queue_cycles),
    TCSIM_MEMBER(kMem, kAny, s.run.totals.mem, dram_turnarounds),

    // event.<name>.cycle: completion stamp of a recorded event.
    TCSIM_MEMBER(kEvent, kKernels, (*s.event), cycle),

    // verify.max_rel_err: the worst functional-verification error (the
    // report carries it per kernel, as kernels[].verify_rel_err).
    {kVerify, "max_rel_err", nullptr, kFunctional,
     TCSIM_GET(s.run.verify_max_rel_err)},

    // serve.*: serving scenarios; latencies and waits in cycles.
    TCSIM_MEMBER(kServe, kServing, s.run.serving, requests),
    TCSIM_MEMBER(kServe, kServing, s.run.serving, completed),
    TCSIM_MEMBER(kServe, kServing, s.run.serving, batches),
    TCSIM_MEMBER(kServe, kServing, s.run.serving, mean_batch_size),
    TCSIM_MEMBER(kServe, kServing, s.run.serving, makespan_cycles),
    TCSIM_MEMBER(kServe, kServing, s.run.serving, busy_cycles),
    TCSIM_MEMBER(kServe, kServing, s.run.serving, busy_frac),
    {kServe, nullptr, "flops", kServing, TCSIM_GET(s.run.serving.total_flops)},
#define TCSIM_RES(field)                                                      \
    TCSIM_AT(kServe, kResilience, "resilience." #field, s.run.serving, field)
    TCSIM_RES(deadline_miss),
    TCSIM_RES(goodput),
    TCSIM_RES(retries),
    TCSIM_RES(shed),
    TCSIM_RES(dropped),
    TCSIM_RES(killed_batches),
#define TCSIM_LAT(report, field)                                              \
    TCSIM_AT(kServe, kServing, report, s.run.serving.latency, field)
    TCSIM_LAT("latency_cycles.p50", latency_p50),
    TCSIM_LAT("latency_cycles.p95", latency_p95),
    TCSIM_LAT("latency_cycles.p99", latency_p99),
    TCSIM_LAT("latency_cycles.p999", latency_p999),
    {kServe, "latency_p", "latency_cycles.p", kServing,
     TCSIM_GET(s.run.serving.latency.latency_extra[i].second), kPercentile},
    TCSIM_LAT("latency_cycles.max", latency_max),
    TCSIM_LAT("latency_cycles.mean", latency_mean),
    TCSIM_LAT("queue_wait_cycles.p50", queue_wait_p50),
    TCSIM_LAT("queue_wait_cycles.p99", queue_wait_p99),
    TCSIM_LAT("queue_wait_cycles.max", queue_wait_max),
    TCSIM_LAT("queue_wait_cycles.mean", queue_wait_mean),
    TCSIM_LAT("queue_depth.peak", queue_depth_peak),
    TCSIM_LAT("queue_depth.mean", queue_depth_mean),

    // fault.*: injected-fault telemetry (sim/fault/fault_plan.h).
    TCSIM_MEMBER(kFault, kFaults, s.run.fault_counters, disabled_sms),
    TCSIM_MEMBER(kFault, kFaults, s.run.fault_counters, degraded_sms),
    TCSIM_MEMBER(kFault, kFaults, s.run.fault_counters, slowdowns),
    TCSIM_MEMBER(kFault, kFaults, s.run.fault_counters, slowdown_extra_cycles),
    TCSIM_MEMBER(kFault, kFaults, s.run.fault_counters, hangs),
    TCSIM_MEMBER(kFault, kFaults, s.run.fault_counters, ecc_retries),
    TCSIM_MEMBER(kFault, kFaults, s.run.fault_counters, ecc_extra_cycles),
};

#undef TCSIM_GET
#undef TCSIM_AT
#undef TCSIM_MEMBER
#undef TCSIM_RES
#undef TCSIM_LAT

/** Path prefixes, indexed by MetricSection. */
constexpr const char* kPrefixes[] = {"total", "kernel", "mem",  "event",
                                     "verify", "serve", "fault"};

/** Spelling of a percentile in paths and report keys (99.5 -> "99.5"). */
std::string
format_pct(double pct)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", pct);
    return buf;
}

/** The members of @p family, spelled as they complete a stem (a plain
 *  field has the one empty member); @p pcts lists the percentiles. */
std::vector<std::string>
members(Family family, const std::vector<double>& pcts)
{
    std::vector<std::string> out;
    if (family == kNone)
        out.push_back("");
    if (family == kStall)
        for (size_t i = 0; i < kNumStallReasons; ++i)
            out.push_back(stall_reason_name(static_cast<StallReason>(i)));
    if (family == kPercentile)
        for (double p : pcts)
            out.push_back(format_pct(p));
    return out;
}

/** Index of @p s in @p list (list.size() when absent). */
size_t
index_of(const std::vector<std::string>& list, const std::string& s)
{
    return std::find(list.begin(), list.end(), s) - list.begin();
}

/** A metric path split against the table. */
struct MetricRef
{
    const MetricDef* def = nullptr;
    std::string item;    ///< Kernel or event name.
    std::string member;  ///< Family member: stall reason or percentile.
};

[[noreturn]] void
bad(const std::string& path, const std::string& why)
{
    throw ScenarioError("metric \"" + path + "\": " + why);
}

/** Split @p path into its table entry, item name and family member. */
MetricRef
parse_path(const std::string& path)
{
    const size_t dot = path.find('.');
    const std::string prefix = path.substr(0, dot);
    const auto* p = std::find(std::begin(kPrefixes), std::end(kPrefixes),
                              prefix);
    if (p == std::end(kPrefixes))
        bad(path, "unknown section \"" + prefix +
                      "\" (want total, kernel, mem, event, verify, serve "
                      "or fault)");
    const auto section = static_cast<MetricSection>(p - kPrefixes);

    MetricRef ref;
    std::string field = dot == std::string::npos ? "" : path.substr(dot + 1);
    if (section == kKernel || section == kEvent) {
        // <name>.<field>: the field is the last component, or the last
        // two when they spell stall.<reason>; names may hold dots.
        size_t cut = field.rfind('.');
        if (section == kKernel && cut != std::string::npos && cut >= 6 &&
            field.compare(cut - 6, 7, ".stall.") == 0)
            cut -= 6;
        if (cut == std::string::npos || cut == 0)
            bad(path, "want " + prefix + ".<name>.<field>");
        ref.item = field.substr(0, cut);
        field = field.substr(cut + 1);
    }

    std::string known;
    for (const MetricDef& d : kMetrics)
        if (d.section == section && d.name && d.family == kNone &&
            field == d.name) {
            ref.def = &d;
            return ref;
        }
    for (const MetricDef& d : kMetrics) {
        if (d.section != section || !d.name)
            continue;
        known += (known.empty() ? "" : ", ") + std::string(d.name) +
                 (d.family == kStall        ? "<reason>"
                  : d.family == kPercentile ? "<pct>"
                                            : "");
        if (d.family == kNone || field.rfind(d.name, 0) != 0)
            continue;
        ref.def = &d;
        ref.member = field.substr(std::string(d.name).size());
        if (d.family == kStall &&
            index_of(members(kStall, {}), ref.member) == kNumStallReasons)
            bad(path, "unknown stall reason \"" + ref.member + "\"");
        if (d.family == kPercentile) {
            char* end = nullptr;
            std::strtod(ref.member.c_str(), &end);
            if (ref.member.empty() || *end)
                bad(path, "percentile \"" + ref.member + "\" is not a number");
        }
        return ref;
    }
    bad(path, "unknown " + prefix + " field \"" + field + "\" (known: " +
                  known + ")");
}

/** Why a run of @p sc does not report @p ref ("" when it does). */
std::string
unmet(const MetricRef& ref, const Scenario& sc)
{
    const Needs needs = ref.def->needs;
    bool named = false, functional = false;
    for (const KernelSpec& k : sc.kernels) {
        named |= ref.def->section == kKernel && k.name == ref.item;
        functional |= k.functional && (ref.item.empty() || k.name == ref.item);
    }
    for (const std::string& e : sc.plan.record_event)
        named |= ref.def->section == kEvent && e == ref.item;
    if ((needs == kKernels || needs == kFunctional) && sc.is_serving())
        return "a \"serving\" scenario reports total.*, mem.*, serve.* "
               "and fault.* only";
    if (ref.def->section == kKernel && !named)
        return "unknown kernel \"" + ref.item + "\"";
    if (ref.def->section == kEvent && !named)
        return "no kernel records event \"" + ref.item + "\"";
    if (needs == kFunctional && !functional)
        return "needs a functional kernel";
    if ((needs == kServing || needs == kResilience) && !sc.is_serving())
        return "needs a \"serving\" scenario";
    if (needs == kResilience && !sc.serving.resilience)
        return "needs a serving.resilience object";
    if (needs == kFaults && !sc.has_faults())
        return "needs a \"faults\" object";
    if (ref.def->family == kPercentile &&
        index_of(members(kPercentile, sc.serving.percentiles), ref.member) ==
            sc.serving.percentiles.size())
        return "percentile " + ref.member + " is not in serving.percentiles";
    return "";
}

/** The extra percentiles @p r reports, in request order. */
std::vector<double>
reported_percentiles(const ScenarioResult& r)
{
    std::vector<double> pcts;
    for (const auto& [pct, value] : r.serving.latency.latency_extra)
        pcts.push_back(pct);
    return pcts;
}

}  // namespace

void
check_metric(const std::string& path, const Scenario& sc)
{
    const std::string why = unmet(parse_path(path), sc);
    if (!why.empty())
        bad(path, why);
}

std::vector<std::string>
metric_paths(const Scenario& sc)
{
    std::vector<std::string> paths;
    for (const MetricDef& d : kMetrics) {
        if (!d.name)
            continue;
        const bool named = d.section == kKernel || d.section == kEvent;
        std::vector<std::string> items{""};
        if (d.section == kKernel) {
            items.clear();
            for (const KernelSpec& k : sc.kernels)
                items.push_back(k.name);
        } else if (d.section == kEvent) {
            items = sc.plan.record_event;
        }
        for (const std::string& item : items)
            for (const std::string& m :
                 members(d.family, sc.serving.percentiles))
                if (!(named && item.empty()) &&
                    unmet(MetricRef{&d, item, m}, sc).empty())
                    paths.push_back(
                        std::string(kPrefixes[static_cast<int>(d.section)]) +
                        "." + (named ? item + "." : "") + d.name + m);
    }
    return paths;
}

double
resolve_metric(const ScenarioResult& r, const std::string& path)
{
    const MetricRef ref = parse_path(path);
    MetricSubject subject{r};
    for (const KernelResult& k : r.kernels)
        subject.kernel = k.name == ref.item ? &k : subject.kernel;
    for (const EventResult& e : r.events)
        subject.event = e.name == ref.item ? &e : subject.event;
    const std::vector<std::string> m =
        members(ref.def->family, reported_percentiles(r));
    const size_t i = index_of(m, ref.member);
    // check_metric vouched for the path; a result that lacks its item
    // is a runner bug, not a scenario error.
    if (i == m.size() || (ref.def->section == kKernel && !subject.kernel) ||
        (ref.def->section == kEvent && !subject.event))
        throw std::logic_error("metric \"" + path + "\": not in the result");
    return ref.def->get(subject, i);
}

JsonValue
emit_metrics(MetricSection section, const MetricSubject& subject,
             JsonValue out)
{
    std::string group_name;
    JsonValue group = JsonValue::object();
    auto flush = [&] {
        if (!group.as_object().empty())
            out.set(group_name, std::move(group));
        group = JsonValue::object();
    };
    const std::vector<double> pcts = reported_percentiles(subject.run);
    for (const MetricDef& d : kMetrics) {
        // Resilience fields exist only when the scenario declared
        // serving.resilience, verify_rel_err only on verified kernels.
        if (d.section != section || !d.report ||
            (d.needs == kResilience && !subject.run.serving.resilience) ||
            (d.needs == kFunctional && subject.kernel->verify_rel_err < 0))
            continue;
        const std::vector<std::string> m = members(d.family, pcts);
        for (size_t i = 0; i < m.size(); ++i) {
            const double value = d.get(subject, i);
            if (d.family == kStall && value == 0)
                continue;  // A stall block lists the reasons that occurred.
            const std::string key = d.report + m[i];
            const size_t dot = key.find('.');
            const std::string g =
                dot == std::string::npos ? "" : key.substr(0, dot);
            if (g != group_name) {
                flush();
                group_name = g;
            }
            if (g.empty())
                out.set(key, value);
            else
                group.set(key.substr(dot + 1), value);
        }
    }
    flush();
    return out;
}

}  // namespace driver
}  // namespace tcsim
