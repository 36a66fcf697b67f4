#include "driver/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <span>
#include <thread>

#include "common/logging.h"
#include "driver/metric.h"
#include "kernels/gemm_problem.h"
#include "kernels/kernel_registry.h"
#include "metrics/metrics.h"
#include "sim/core/sm.h"
#include "sim/gpu.h"
#include "sim/worker_pool.h"
#include "tensor/types.h"

namespace tcsim {
namespace driver {

namespace {

/** Type-erased GEMM operand setup (accumulator type varies by mode). */
class GemmSetup
{
  public:
    virtual ~GemmSetup() = default;
    virtual GemmBuffers upload(GlobalMemory* mem) = 0;
    virtual double verify(const GlobalMemory& mem, uint64_t d_addr) = 0;
};

template <typename Acc>
class GemmSetupT : public GemmSetup
{
  public:
    GemmSetupT(const KernelSpec& spec)
        : prob_(spec.m, spec.n, spec.k, spec.a_layout, spec.b_layout,
                spec.cd_layout)
    {
    }

    GemmBuffers upload(GlobalMemory* mem) override
    {
        return prob_.upload(mem);
    }

    double verify(const GlobalMemory& mem, uint64_t d_addr) override
    {
        return prob_.verify(mem, d_addr);
    }

  private:
    GemmProblem<Acc> prob_;
};

/** One prepared launch: descriptor plus deferred verification. */
struct PreparedKernel
{
    const KernelSpec* spec = nullptr;
    KernelDesc desc;
    std::unique_ptr<GemmSetup> setup;  ///< Functional GEMMs only.
    GemmBuffers buf;
    double flops = 0.0;
};

PreparedKernel
prepare_kernel(const KernelSpec& spec, Arch arch, GlobalMemory* mem)
{
    const KernelFamilyInfo* info = find_kernel_family(spec.family);
    TCSIM_CHECK(info != nullptr);  // Validated at parse time.

    PreparedKernel pk;
    pk.spec = &spec;
    if (info->is_gemm) {
        if (spec.functional) {
            if (spec.mode == TcMode::kFp16)
                pk.setup = std::make_unique<GemmSetupT<half>>(spec);
            else
                pk.setup = std::make_unique<GemmSetupT<float>>(spec);
            pk.buf = pk.setup->upload(mem);
        } else {
            pk.buf = alloc_timing_operands(*info, spec.mode, spec.m, spec.n,
                                           spec.k, mem);
        }
        GemmKernelConfig cfg;
        cfg.arch = arch;
        cfg.mode = spec.mode;
        cfg.m = spec.m;
        cfg.n = spec.n;
        cfg.k = spec.k;
        cfg.a_layout = spec.a_layout;
        cfg.b_layout = spec.b_layout;
        cfg.cd_layout = spec.cd_layout;
        cfg.functional = spec.functional;
        pk.desc =
            build_gemm_kernel(info->family, cfg, pk.buf, spec.warps_per_cta);
        pk.flops = gemm_flops(spec.m, spec.n, spec.k);
    } else {
        pk.desc = make_hmma_stress(arch, spec.mode, spec.ctas,
                                   spec.warps_per_cta, spec.wmma_per_warp,
                                   spec.accumulators);
        pk.flops = hmma_stress_flops(spec.ctas, spec.warps_per_cta,
                                     spec.wmma_per_warp);
    }
    pk.desc.name = spec.name;
    return pk;
}

/** Pre-check launchability with SM::fits so one oversubscribed
 *  scenario reports an error instead of taking down a whole batch
 *  through the engine's fatal() path. */
void
check_kernel_fits(const GpuConfig& cfg, const KernelDesc& k)
{
    if (!SM::fits(cfg, k))
        throw ScenarioError(
            "kernel \"" + k.name + "\" exceeds SM resources (warps=" +
            std::to_string(k.warps_per_cta) + " smem=" +
            std::to_string(k.shared_mem_bytes) + " regs_per_thread=" +
            std::to_string(k.regs_per_thread) + ")");
}

/** Nominal FLOPs of one launch, straight from the spec (no prepared
 *  state needed — forked sweep points attribute prefix kernels they
 *  never prepared themselves). */
double
spec_flops(const KernelSpec& spec)
{
    const KernelFamilyInfo* info = find_kernel_family(spec.family);
    TCSIM_CHECK(info != nullptr);  // Validated at parse time.
    if (info->is_gemm)
        return gemm_flops(spec.m, spec.n, spec.k);
    return hmma_stress_flops(spec.ctas, spec.warps_per_cta,
                             spec.wmma_per_warp);
}

/**
 * Stage @p specs on @p gpu: prepare each kernel, check that it fits an
 * SM, then enqueue them all — through Gpu::launch_graph when @p plan
 * is their compiled task graph, else in declaration order on the
 * default stream.  The prepared kernels come back for verification.
 */
std::vector<PreparedKernel>
stage_kernels(Gpu* gpu, const GpuConfig& cfg,
              std::span<const KernelSpec> specs,
              const TaskGraph::Compiled* plan = nullptr)
{
    std::vector<PreparedKernel> prepared;
    prepared.reserve(specs.size());
    for (const KernelSpec& spec : specs) {
        prepared.push_back(prepare_kernel(spec, cfg.arch, &gpu->mem()));
        check_kernel_fits(cfg, prepared.back().desc);
    }
    if (plan) {
        std::vector<KernelDesc> descs;
        descs.reserve(prepared.size());
        for (PreparedKernel& pk : prepared)
            descs.push_back(std::move(pk.desc));
        gpu->launch_graph(*plan, std::move(descs));
    } else {
        for (PreparedKernel& pk : prepared)
            gpu->default_stream().enqueue(std::move(pk.desc));
    }
    return prepared;
}

/** Completion stamps of the plan's events, name order. */
void
collect_events(ScenarioResult* r, const Scenario& scenario, Gpu* gpu)
{
    std::set<std::string> names;
    for (const std::string& e : scenario.plan.record_event)
        if (!e.empty())
            names.insert(e);
    for (const std::string& name : names) {
        Event* ev = gpu->find_event(name);
        if (ev && ev->complete())
            r->events.push_back(EventResult{name, ev->cycle()});
    }
}

/** Attribute per-kernel results from the run's LaunchStats (names are
 *  unique by schema) and fill the FLOPS-derived aggregates. */
void
attribute_kernels(ScenarioResult* r, const Scenario& scenario,
                  const GpuConfig& cfg)
{
    for (size_t i = 0; i < scenario.kernels.size(); ++i) {
        const KernelSpec& spec = scenario.kernels[i];
        KernelResult kr;
        kr.name = spec.name;
        kr.family = spec.family;
        kr.stream = scenario.stream_of(i);
        kr.flops = spec_flops(spec);
        for (const LaunchStats& ls : r->totals.kernels)
            if (ls.kernel == kr.name)
                kr.stats = ls;
        if (kr.stats.cycles > 0)
            kr.tflops =
                metrics::tflops(kr.flops,
                                static_cast<double>(kr.stats.cycles),
                                cfg.clock_ghz);
        r->total_flops += kr.flops;
        r->kernels.push_back(std::move(kr));
    }
    if (r->totals.cycles > 0)
        r->total_tflops =
            metrics::tflops(r->total_flops,
                            static_cast<double>(r->totals.cycles),
                            cfg.clock_ghz);
}

/** The serving path of run_scenario: build the trace and policy from
 *  the spec (wall-clock fields convert with the resolved core clock)
 *  and hand the whole run to serve::run_serving. */
void
run_serving_scenario(const Scenario& scenario, const GpuConfig& cfg,
                     const SimOptions& sim, ScenarioResult* result)
{
    const ServingSpec& ss = scenario.serving;
    std::vector<serve::Request> trace;
    if (ss.trace_kind == "poisson")
        trace = serve::poisson_trace(
            ss.seed, ss.requests,
            static_cast<double>(
                us_to_cycles(ss.mean_interarrival_us, cfg.clock_ghz)));
    else
        trace = ss.file_trace;

    std::unique_ptr<serve::BatchingPolicy> policy;
    if (ss.policy == "static")
        policy = std::make_unique<serve::StaticBatcher>(
            ss.batch, us_to_cycles(ss.timeout_us, cfg.clock_ghz));
    else
        policy = std::make_unique<serve::ContinuousBatcher>(ss.max_batch,
                                                            ss.max_in_flight);

    serve::ServingResilience res;
    if (ss.resilience) {
        res.deadline_cycles = us_to_cycles(ss.deadline_us, cfg.clock_ghz);
        res.batch_timeout_cycles =
            us_to_cycles(ss.batch_timeout_us, cfg.clock_ghz);
        res.max_retries = ss.max_retries;
        res.retry_backoff_cycles =
            us_to_cycles(ss.retry_backoff_us, cfg.clock_ghz);
        res.shed_queue_depth = ss.shed_queue_depth;
    }

    serve::ServingResult sr =
        serve::run_serving(cfg, sim, ss.model, trace, *policy,
                           ss.percentiles, res, scenario.faults);
    result->totals = sr.totals;
    result->serving = std::move(sr.report);
    result->has_serving = true;
    result->has_faults = sr.faults_enabled;
    if (sr.faults_enabled)
        result->fault_counters = sr.faults;
    result->total_flops = result->serving.total_flops;
    if (result->totals.cycles > 0)
        result->total_tflops = metrics::tflops(
            result->total_flops, static_cast<double>(result->totals.cycles),
            cfg.clock_ghz);
}

AssertionResult
evaluate(const ScenarioResult& r, const Expectation& e)
{
    AssertionResult a{e.metric, resolve_metric(r, e.metric), true, ""};
    // The parser lets "equals" stand only alone.
    auto bound = [&](const char* op, double v, bool holds) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%s %.10g", op, v);
        a.detail += (a.detail.empty() ? "" : ", ") + std::string(buf);
        a.passed &= holds;
    };
    if (e.has_equals)
        bound("==", e.equals, a.value == e.equals);
    if (e.has_min)
        bound(">=", e.min, a.value >= e.min);
    if (e.has_max)
        bound("<=", e.max, a.value <= e.max);
    return a;
}

/**
 * The one way a result is finished: run @p body to fill @p r, evaluate
 * @p expect against it (after any assertion @p body added), and set
 * passed.  An exception from either becomes r.error.  The wall-clock
 * fields cover the whole call.
 */
template <typename Body>
ScenarioResult
run_and_evaluate(ScenarioResult r, const std::vector<Expectation>& expect,
                 Body&& body)
{
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    try {
        body(&r);
        for (const Expectation& e : expect)
            r.assertions.push_back(evaluate(r, e));
        r.passed = std::all_of(
            r.assertions.begin(), r.assertions.end(),
            [](const AssertionResult& a) { return a.passed; });
    } catch (const std::exception& e) {
        r.error = e.what();
        r.passed = false;
    }
    r.wall_ms =
        std::chrono::duration<double, std::milli>(clock::now() - t0).count();
    if (r.wall_ms > 0.0)
        r.ticks_per_sec =
            static_cast<double>(r.totals.ticks) / (r.wall_ms / 1000.0);
    return r;
}

/** Call fn(i) for every i in [0, n): inline when @p workers <= 1,
 *  else on min(workers, n) threads that claim indices from a shared
 *  counter (callers write disjoint slots per index). */
template <typename Fn>
void
parallel_for(size_t n, int workers, Fn&& fn)
{
    const size_t nthreads = std::min<size_t>(std::max(workers, 1), n);
    if (nthreads <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    threads.reserve(nthreads);
    for (size_t t = 0; t < nthreads; ++t)
        threads.emplace_back([&] {
            for (size_t i = next++; i < n; i = next++)
                fn(i);
        });
    for (std::thread& t : threads)
        t.join();
}

/** The kernel-list path of run_scenario: prepare, enqueue and run
 *  every kernel, then verify the functional ones. */
void
run_kernels(const Scenario& scenario, const GpuConfig& cfg,
            const SimOptions& sim, ScenarioResult* result)
{
    Gpu gpu(cfg, sim, scenario.faults);
    std::vector<PreparedKernel> prepared =
        stage_kernels(&gpu, cfg, scenario.kernels,
                      scenario.declarative ? &scenario.plan : nullptr);

    result->totals = gpu.run();

    result->has_faults = gpu.faults_enabled();
    if (result->has_faults)
        result->fault_counters = gpu.fault_counters();

    collect_events(result, scenario, &gpu);
    attribute_kernels(result, scenario, cfg);

    // Verify functional kernels against the host reference
    // (prepared[i] pairs with result->kernels[i]: both follow
    // declaration order).
    for (size_t i = 0; i < prepared.size(); ++i) {
        if (!prepared[i].setup)
            continue;
        KernelResult& kr = result->kernels[i];
        kr.verify_rel_err =
            prepared[i].setup->verify(gpu.mem(), prepared[i].buf.d);
        result->verify_max_rel_err =
            std::max(result->verify_max_rel_err, kr.verify_rel_err);
    }

    // Implicit assertion: every functional kernel verifies within the
    // scenario tolerance.
    if (result->verify_max_rel_err >= 0) {
        AssertionResult a;
        a.metric = "verify.max_rel_err";
        a.value = result->verify_max_rel_err;
        a.passed = result->verify_max_rel_err <= scenario.verify_tolerance;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "<= %.3g (verify_tolerance)",
                      scenario.verify_tolerance);
        a.detail = buf;
        result->assertions.push_back(std::move(a));
    }
}

}  // namespace

ScenarioResult
run_scenario(const Scenario& scenario, int sim_threads_override,
             const ReplayOverride& replay, uint64_t wall_budget_ms)
{
    ScenarioResult result;
    result.name = scenario.name;
    result.file = scenario.file;
    SimOptions sim = scenario.sim;
    if (sim_threads_override >= 0)
        sim.sim_threads = sim_threads_override;
    if (wall_budget_ms > 0)
        sim.wall_budget_ms = wall_budget_ms;
    if (replay.mode >= 0)
        sim.replay_mode = static_cast<SimOptions::ReplayMode>(replay.mode);
    if (sim.replay_mode != SimOptions::ReplayMode::kOff)
        sim.replay_cache = replay.cache;  // null = engine-private cache
    result.replay_mode = static_cast<int>(sim.replay_mode);
    result.sim_threads =
        sim.sim_threads > 0 ? sim.sim_threads : hardware_threads();

    return run_and_evaluate(
        std::move(result), scenario.expect, [&](ScenarioResult* r) {
            GpuConfig cfg = scenario.gpu_config();
            r->clock_ghz = cfg.clock_ghz;
            if (scenario.is_serving())
                run_serving_scenario(scenario, cfg, sim, r);
            else
                run_kernels(scenario, cfg, sim, r);
        });
}

namespace {

/**
 * Run one materialized sweep point as a fork: restore the prefix
 * snapshot onto a fresh Gpu, append the point's kernels to the
 * restored streams, and run to completion.  Global-memory allocation
 * resumes from the snapshotted bump pointer, so point buffers land at
 * the same addresses a cold run computes; statistics are attributed
 * over the merged (prefix + point) kernel list — prefix launches that
 * retired before the fork travel inside the snapshot's run state.
 */
ScenarioResult
run_forked_point(const Scenario& sc, size_t index, const GpuConfig& cfg,
                 const SimOptions& sim, const Snapshot& snap)
{
    Scenario merged = materialize_sweep_point(sc, index);
    ScenarioResult result;
    result.name = merged.name;
    result.file = merged.file;
    result.sim_threads =
        sim.sim_threads > 0 ? sim.sim_threads : hardware_threads();
    result.replay_mode = static_cast<int>(sim.replay_mode);

    return run_and_evaluate(
        std::move(result), merged.expect, [&](ScenarioResult* r) {
            r->clock_ghz = cfg.clock_ghz;
            Gpu gpu(cfg, sim);
            gpu.restore(snap);

            // Sweeps are plain: every point kernel joins the restored
            // default stream behind the prefix.
            stage_kernels(&gpu, cfg,
                          std::span(merged.kernels).subspan(sc.kernels.size()));

            r->totals = gpu.run();
            attribute_kernels(r, merged, cfg);
        });
}

}  // namespace

std::vector<ScenarioResult>
run_sweep(const Scenario& scenario, int jobs, int sim_threads_override,
          bool cold_sweep, const ReplayOverride& replay)
{
    const size_t npts = scenario.sweep.points.size();
    std::vector<ScenarioResult> out(npts);
    auto stamp = [&](size_t i, ScenarioResult r) {
        r.sweep_point = scenario.sweep.points[i].name;
        r.sweep_fork_cycle = scenario.sweep.fork_cycle;
        r.sweep_points = static_cast<int>(npts);
        r.sweep_forked = !cold_sweep;
        out[i] = std::move(r);
    };
    auto fail_point = [&](size_t i, const std::string& err) {
        ScenarioResult r;
        r.name = scenario.name + "/" + scenario.sweep.points[i].name;
        r.file = scenario.file;
        r.error = err;
        stamp(i, std::move(r));
    };
    auto fail_all = [&](const std::string& err) {
        for (size_t i = 0; i < npts; ++i)
            fail_point(i, err);
    };

    SimOptions sim = scenario.sim;
    if (sim_threads_override >= 0)
        sim.sim_threads = sim_threads_override;
    if (replay.mode >= 0)
        sim.replay_mode = static_cast<SimOptions::ReplayMode>(replay.mode);
    // Sweeps never share a cache across points: each engine owns a
    // private one, so every point's result is independent of how many
    // points ran before it (and of the batch-wide --replay-cache).
    sim.replay_cache = nullptr;

    GpuConfig cfg;
    try {
        cfg = scenario.gpu_config();
        // Pin one SM-array size across the prefix run and every point,
        // cold or forked: the array grows with pending CTAs and idle
        // SMs are timing-observable, so the fork (which sizes from the
        // prefix alone) and a cold rerun (which sizes from
        // prefix + point at cycle 0) would otherwise diverge.  Size
        // from the widest point, measured in prepared grid CTAs on a
        // scratch Gpu.
        Gpu scratch(cfg, sim);
        uint64_t prefix_ctas = 0;
        for (const KernelSpec& spec : scenario.kernels)
            prefix_ctas += static_cast<uint64_t>(
                prepare_kernel(spec, cfg.arch, &scratch.mem())
                    .desc.grid_ctas);
        uint64_t widest = 1;
        for (const SweepPoint& pt : scenario.sweep.points) {
            uint64_t ctas = prefix_ctas;
            for (const KernelSpec& spec : pt.kernels)
                ctas += static_cast<uint64_t>(
                    prepare_kernel(spec, cfg.arch, &scratch.mem())
                        .desc.grid_ctas);
            widest = std::max(
                widest,
                std::min<uint64_t>(static_cast<uint64_t>(cfg.num_sms), ctas));
        }
        sim.min_sms = std::max(sim.min_sms, static_cast<int>(widest));
    } catch (const std::exception& e) {
        fail_all(e.what());
        return out;
    }

    if (cold_sweep) {
        parallel_for(npts, jobs, [&](size_t i) {
            Scenario merged = materialize_sweep_point(scenario, i);
            merged.sim = sim;
            stamp(i, run_scenario(merged));
        });
        return out;
    }

    // Simulate the shared prefix once and snapshot it at fork_cycle.
    // The snapshot is a value with a shared immutable memory image, so
    // every point worker restores from the same object concurrently.
    Snapshot snap;
    try {
        Gpu prefix(cfg, sim);
        stage_kernels(&prefix, cfg, scenario.kernels);

        prefix.run_until(scenario.sweep.fork_cycle);
        if (!prefix.run_active())
            throw ScenarioError(
                "sweep.fork_cycle " +
                std::to_string(scenario.sweep.fork_cycle) +
                ": the prefix drained before the fork; lower fork_cycle "
                "so the snapshot captures a run still in progress");
        snap = prefix.snapshot();
    } catch (const std::exception& e) {
        fail_all(e.what());
        return out;
    }

    parallel_for(npts, jobs, [&](size_t i) {
        stamp(i, run_forked_point(scenario, i, cfg, sim, snap));
    });
    return out;
}

int
BatchReport::failed() const
{
    int n = 0;
    for (const ScenarioResult& r : results)
        n += (!r.passed && !r.skipped) ? 1 : 0;
    return n;
}

int
BatchReport::skipped() const
{
    int n = 0;
    for (const ScenarioResult& r : results)
        n += r.skipped ? 1 : 0;
    return n;
}

namespace {

/** Placeholder result for a scenario a --fail-fast stop skipped. */
ScenarioResult
skipped_result(const Scenario& sc)
{
    ScenarioResult r;
    r.name = sc.name;
    r.file = sc.file;
    r.skipped = true;
    r.error = "skipped: an earlier scenario failed (--fail-fast)";
    return r;
}

}  // namespace

int
effective_jobs(const BatchOptions& opts,
               const std::vector<Scenario>& scenarios)
{
    int hw = hardware_threads();
    int jobs = std::max(1, opts.jobs);
    // An explicit jobs request floors the default budget: batches of
    // *serial* simulations keep exactly the worker count they asked
    // for (oversubscribing with more scenarios than cores is a valid,
    // pre-existing use).  The clamp below only redistributes the
    // budget when intra-sim threads would multiply it.
    int budget = opts.thread_budget > 0 ? opts.thread_budget
                                        : std::max(hw, jobs);
    // The widest simulation the batch will run: the override if set,
    // else the largest per-scenario request (0 = auto = hw).
    int per_sim = 1;
    if (opts.sim_threads >= 0) {
        per_sim = opts.sim_threads == 0 ? hw : opts.sim_threads;
    } else {
        for (const Scenario& sc : scenarios) {
            int t = sc.sim.sim_threads == 0 ? hw : sc.sim.sim_threads;
            per_sim = std::max(per_sim, t);
        }
    }
    // Intra-sim width wins the budget; batch parallelism yields (one
    // big scenario bounding the batch is exactly the case the worker
    // pool exists for).
    return std::max(1, std::min(jobs, budget / std::max(1, per_sim)));
}

BatchReport
run_batch(const std::vector<Scenario>& scenarios, const BatchOptions& opts)
{
    using clock = std::chrono::steady_clock;
    const bool fail_fast = opts.fail_fast;
    const int sim_threads = opts.sim_threads;
    BatchReport report;
    report.jobs = effective_jobs(opts, scenarios);
    auto t0 = clock::now();

    // One slot per input scenario; sweeps expand to several results,
    // flattened in input order after the pool drains.
    std::vector<std::vector<ScenarioResult>> slots(scenarios.size());

    // Set once a failure is observed; workers stop *starting* new
    // scenarios but finish the one they are on.
    std::atomic<bool> stop{false};

    // @p point_jobs: batch workers already saturated the budget when
    // > 1 scenario is in flight, so only a lone scenario lets a sweep
    // fan its points out.
    auto run_slot = [&](size_t i, int point_jobs) {
        const Scenario& sc = scenarios[i];
        if (stop.load(std::memory_order_relaxed)) {
            slots[i] = {skipped_result(sc)};
            return;
        }
        if (sc.is_sweep())
            slots[i] = run_sweep(sc, point_jobs, sim_threads,
                                 opts.cold_sweep, opts.replay);
        else
            slots[i] = {run_scenario(sc, sim_threads, opts.replay,
                                     opts.timeout_ms)};
        if (fail_fast)
            for (const ScenarioResult& r : slots[i])
                if (!r.passed)
                    stop.store(true, std::memory_order_relaxed);
    };

    // One simulator instance per in-flight scenario.
    const int point_jobs = scenarios.size() <= 1 ? report.jobs : 1;
    parallel_for(scenarios.size(), report.jobs,
                 [&](size_t i) { run_slot(i, point_jobs); });

    for (std::vector<ScenarioResult>& slot : slots)
        for (ScenarioResult& r : slot)
            report.results.push_back(std::move(r));

    report.wall_ms =
        std::chrono::duration<double, std::milli>(clock::now() - t0).count();
    return report;
}

JsonValue
report_to_json(const BatchReport& report)
{
    JsonValue root = JsonValue::object();
    root.set("schema", "tcsim-batch-report-v1");
    root.set("jobs", report.jobs);
    root.set("wall_ms", report.wall_ms);
    root.set("scenarios", static_cast<int64_t>(report.results.size()));
    root.set("failed", report.failed());
    if (report.skipped() > 0)
        root.set("skipped", report.skipped());

    JsonValue results = JsonValue::array();
    for (const ScenarioResult& r : report.results) {
        JsonValue jr = JsonValue::object();
        jr.set("name", r.name);
        if (!r.file.empty())
            jr.set("file", r.file);
        jr.set("passed", r.passed);
        if (r.skipped)
            jr.set("skipped", true);
        if (!r.error.empty())
            jr.set("error", r.error);
        jr.set("wall_ms", r.wall_ms);

        // Sweep identity: which point this result expands.  Outside
        // "sim" — a forked and a cold run of the same point must agree
        // on it.
        if (!r.sweep_point.empty()) {
            JsonValue sweep = JsonValue::object();
            sweep.set("point", r.sweep_point);
            sweep.set("fork_cycle", r.sweep_fork_cycle);
            sweep.set("points", r.sweep_points);
            jr.set("sweep", std::move(sweep));
        }

        // Simulation-speed telemetry (CI artifacts chart speedups from
        // these).  Wall-clock shaped: tools/gate.py strips the whole
        // "sim" key, so run-dependent fields belong in here —
        // everything outside it must be identical across runs
        // (including "forked": the fork-identity leg diffs a forked
        // sweep against a cold one).
        JsonValue sim = JsonValue::object();
        sim.set("wall_ms", r.wall_ms);
        sim.set("ticks_per_sec", r.ticks_per_sec);
        sim.set("sim_threads", r.sim_threads);
        if (!r.sweep_point.empty())
            sim.set("forked", r.sweep_forked);
        jr.set("sim", std::move(sim));

        jr.set("total", emit_metrics(MetricSection::kTotal, {r}));
        // Run-wide memory-hierarchy counters (the transaction path).
        jr.set("mem", emit_metrics(MetricSection::kMem, {r}));

        // Replay cache (only when the run had it enabled, so replay-off
        // reports stay byte-identical to pre-replay ones).
        if (r.replay_mode != 0) {
            static const char* kModeNames[] = {"off", "record", "replay"};
            JsonValue replay = JsonValue::object();
            replay.set("mode", kModeNames[r.replay_mode]);
            replay.set("hits", r.totals.replay_hits);
            replay.set("misses", r.totals.replay_misses);
            jr.set("replay", std::move(replay));
        }

        // Serving scenarios: summary + per-request/batch timelines.
        // Deliberately outside "sim" — every field is a function of
        // simulated cycles, so the parallel-identity legs diff it.
        if (r.has_serving) {
            const serve::ServingReport& s = r.serving;
            JsonValue js = JsonValue::object();
            js.set("policy", s.policy);
            // Summary, resilience outcome (only when declared) and the
            // latency, queue-wait and queue-depth groups.
            js = emit_metrics(MetricSection::kServe, {r}, std::move(js));

            JsonValue reqs = JsonValue::array();
            for (const serve::RequestRecord& q : s.request_records) {
                JsonValue jq = JsonValue::object();
                jq.set("id", q.id);
                jq.set("arrival_cycle", q.arrival_cycle);
                jq.set("admit_cycle", q.admit_cycle);
                jq.set("finish_cycle", q.finish_cycle);
                jq.set("batch", q.batch);
                if (s.resilience) {
                    jq.set("retries", q.retries);
                    jq.set("shed", q.shed);
                    jq.set("dropped", q.dropped);
                    jq.set("deadline_missed", q.deadline_missed);
                }
                reqs.push_back(std::move(jq));
            }
            js.set("request_records", std::move(reqs));

            JsonValue batches = JsonValue::array();
            for (const serve::BatchRecord& b : s.batch_records) {
                JsonValue jb = JsonValue::object();
                jb.set("id", b.id);
                jb.set("admit_cycle", b.admit_cycle);
                jb.set("finish_cycle", b.finish_cycle);
                jb.set("size", b.size);
                if (s.resilience)
                    jb.set("killed", b.killed);
                batches.push_back(std::move(jb));
            }
            js.set("batch_records", std::move(batches));

            JsonValue queue = JsonValue::array();
            for (const serve::QueueSample& q : s.queue_timeline) {
                JsonValue jq = JsonValue::object();
                jq.set("cycle", q.cycle);
                jq.set("depth", q.depth);
                queue.push_back(std::move(jq));
            }
            js.set("queue_timeline", std::move(queue));

            JsonValue occ = JsonValue::array();
            for (const serve::OccupancySample& o : s.occupancy) {
                JsonValue jo = JsonValue::object();
                jo.set("cycle", o.cycle);
                jo.set("running", o.running);
                occ.push_back(std::move(jo));
            }
            js.set("occupancy", std::move(occ));

            jr.set("serve", std::move(js));
        }

        // Fault-injection telemetry (only when the scenario declared
        // "faults" — healthy-chip reports stay byte-identical).
        // Outside "sim": every counter is a function of simulated
        // cycles, so the fault-identity leg diffs it.
        if (r.has_faults)
            jr.set("fault", emit_metrics(MetricSection::kFault, {r}));

        JsonValue kernels = JsonValue::array();
        for (const KernelResult& k : r.kernels) {
            JsonValue jk = JsonValue::object();
            jk.set("name", k.name);
            jk.set("family", k.family);
            kernels.push_back(
                emit_metrics(MetricSection::kKernel, {r, &k}, std::move(jk)));
        }
        jr.set("kernels", std::move(kernels));

        if (!r.events.empty()) {
            JsonValue events = JsonValue::array();
            for (const EventResult& e : r.events) {
                JsonValue je = JsonValue::object();
                je.set("name", e.name);
                events.push_back(emit_metrics(MetricSection::kEvent,
                                              {r, nullptr, &e}, std::move(je)));
            }
            jr.set("events", std::move(events));
        }

        JsonValue assertions = JsonValue::array();
        for (const AssertionResult& a : r.assertions) {
            JsonValue ja = JsonValue::object();
            ja.set("metric", a.metric);
            ja.set("value", a.value);
            ja.set("bound", a.detail);
            ja.set("passed", a.passed);
            assertions.push_back(std::move(ja));
        }
        jr.set("assertions", std::move(assertions));
        results.push_back(std::move(jr));
    }
    root.set("results", std::move(results));
    return root;
}

bool
write_report_file(const BatchReport& report, const std::string& path)
{
    if (!json_write_file_atomic(report_to_json(report), path, 2)) {
        warn("cannot write report %s", path.c_str());
        return false;
    }
    return true;
}

}  // namespace driver
}  // namespace tcsim
