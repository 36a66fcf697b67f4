/**
 * @file
 * tcsim_bench: the workload runner of the repository benchmark (see
 * README.md beside this file).  One process runs one workload:
 *
 *   tcsim_bench --workload NAME [--seed S] [--seconds T] [--trace-out F]
 *
 * It calls each layer's public functions directly and times every call
 * from outside.  With --trace-out it also records a span around each of
 * those calls and writes them to F as Chrome trace-event JSON at exit.
 * Output is line oriented so run.py can parse it:
 *
 *   metric <name> <value> <unit> <samples>
 *   check <ok|FAIL> <what>
 *   result <attempted> <failed>
 *
 * Every run has three phases: set-up, a timed phase that repeats the
 * workload's unit of work until --seconds have passed (at least once),
 * and a check phase.  Host times are medians over the repeats; simulated
 * counts come from the first repeat, and every later repeat must
 * reproduce them exactly.  The exit status is 0 only when every check
 * passed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "cutlass/gemm.h"
#include "driver/json.h"
#include "driver/scenario.h"
#include "hwref/paper_tables.h"
#include "hwref/titanv_model.h"
#include "kernels/gemm_kernels.h"
#include "metrics/metrics.h"
#include "model/model_graph.h"
#include "sass/hmma_decomposer.h"
#include "serve/serving_engine.h"
#include "sim/gpu.h"
#include "sim/replay/replay_cache.h"

using namespace tcsim;

namespace {

// ---------------------------------------------------------------------
// Workload parameters.  Every timed input is fixed, so run-to-run
// spread is host noise only: across seeds, a Poisson trace short enough
// to simulate here moves req_per_s by about 10% and serve_detailed's
// peak RSS by up to 2x.  The seed picks what the check phase verifies
// functionally: the CUTLASS template configuration (gemm_tc*) or the
// operand layouts (gemm_mem).

constexpr uint64_t kDefaultSeed = 2024;
constexpr double kMeanInterarrivalUs = 20.0;
constexpr int kServeSms = 8;
constexpr int kDetailedRequests = 100;
constexpr uint64_t kDetailedSeed = 2025;
constexpr int kWarmupRequests = 2;
constexpr int kRecordRequests = 16;
constexpr uint64_t kRecordSeed = 2024;
constexpr int kHeldOutRequests = 48;
constexpr uint64_t kHeldOutSeed = 2025;
constexpr int kReplayRequests = 600;
constexpr uint64_t kReplaySeed = 2026;
constexpr int kTailPercentiles[] = {90, 98};
/** Serving set-up repeats; setup_s is their median.  The GEMM
 *  workloads set up every launch and take per-kernel medians. */
constexpr int kSetupRepeats = 3;

using Clock = std::chrono::steady_clock;

double
seconds_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Process CPU seconds (all threads, so worker-pool time counts). */
double
cpu_now()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

double
median(std::vector<double> v)
{
    return v.empty() ? 0.0 : stats::median(std::move(v));
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------
// Spans: one per call into a layer, kept in memory, written at exit.

class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    /** Open a span (a no-op returning -1 when tracing is off).  A
     *  negative @p id inherits the enclosing span's id, so every span
     *  of one launch or one serving run shares its id. */
    int open(const char* name, int64_t id)
    {
        if (!on_)
            return -1;
        const int parent = stack_.empty() ? -1 : stack_.back();
        if (id < 0 && parent >= 0)
            id = spans_[static_cast<size_t>(parent)].id;
        spans_.push_back({name, now_us(), 0.0, parent, id});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void close(int idx)
    {
        if (idx < 0)
            return;
        spans_[static_cast<size_t>(idx)].end = now_us();
        if (!stack_.empty() && stack_.back() == idx)
            stack_.pop_back();
    }

    /** Self time per span name: duration minus the direct children. */
    std::map<std::string, double> self_seconds() const
    {
        std::vector<double> self(spans_.size());
        for (size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].end - spans_[i].start;
        for (const Rec& s : spans_)
            if (s.parent >= 0)
                self[static_cast<size_t>(s.parent)] -= s.end - s.start;
        std::map<std::string, double> out;
        for (size_t i = 0; i < spans_.size(); ++i)
            out[spans_[i].name] += 1e-6 * self[i];
        return out;
    }

    bool write_chrome(const std::string& path) const
    {
        driver::JsonValue events = driver::JsonValue::array();
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Rec& s = spans_[i];
            driver::JsonValue args = driver::JsonValue::object();
            args.set("span", static_cast<int64_t>(i));
            args.set("parent", static_cast<int64_t>(s.parent));
            args.set("id", s.id);
            driver::JsonValue ev = driver::JsonValue::object();
            ev.set("name", s.name);
            ev.set("cat", "tcsim_bench");
            ev.set("ph", "X");
            ev.set("ts", s.start);
            ev.set("dur", s.end - s.start);
            ev.set("pid", 1);
            ev.set("tid", 1);
            ev.set("args", std::move(args));
            events.push_back(std::move(ev));
        }
        driver::JsonValue doc = driver::JsonValue::object();
        doc.set("traceEvents", std::move(events));
        doc.set("displayTimeUnit", "ms");
        return driver::json_write_file_atomic(doc, path);
    }

  private:
    struct Rec
    {
        std::string name;
        double start;
        double end;
        int parent;
        int64_t id;
    };

    double now_us() const
    {
        return 1e6 * seconds_between(origin_, Clock::now());
    }

    bool on_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Rec> spans_;
    std::vector<int> stack_;
};

/** Times one call from outside; records a span when tracing is on. */
class Span
{
  public:
    Span(Tracer& t, const char* name, int64_t id = -1)
        : t_(t), idx_(t.open(name, id)), start_(Clock::now())
    {
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { stop(); }

    /** Close the span; returns its duration in seconds (idempotent). */
    double stop()
    {
        if (secs_ < 0) {
            secs_ = seconds_between(start_, Clock::now());
            t_.close(idx_);
        }
        return secs_;
    }

  private:
    Tracer& t_;
    int idx_;
    Clock::time_point start_;
    double secs_ = -1.0;
};

// ---------------------------------------------------------------------
// Results.

class Checks
{
  public:
    void expect(bool ok, const std::string& what)
    {
        std::printf("check %s %s\n", ok ? "ok" : "FAIL", what.c_str());
        failed_ += !ok;
    }
    int failed() const { return failed_; }

  private:
    int failed_ = 0;
};

/** Simulated counts of one pass or serving run (all exact). */
struct SimTotals
{
    uint64_t kernels = 0;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t hmma = 0;
    uint64_t ticks = 0;
    uint64_t skipped = 0;
    uint64_t replay_hits = 0;
    uint64_t replay_misses = 0;
    MemStats mem;
    StallCounts stalls;

    void add(const EngineStats& s)
    {
        kernels += s.kernels.size();
        cycles += s.cycles;
        instructions += s.instructions;
        hmma += s.hmma_instructions;
        ticks += s.ticks;
        skipped += s.skipped_cycles;
        replay_hits += s.replay_hits;
        replay_misses += s.replay_misses;
        mem.add(s.mem);
        stalls.add(s.stalls);
    }

    struct Counter
    {
        std::string name;
        uint64_t value;
        const char* unit;

        bool operator==(const Counter&) const = default;
    };

    /** Every counter as a metric (comparisons and reporting). */
    std::vector<Counter> counters() const
    {
        std::vector<Counter> c = {
            {"engine.kernels", kernels, "count"},
            {"engine.cycles", cycles, "cycles"},
            {"engine.instructions", instructions, "inst"},
            {"engine.hmma_instructions", hmma, "inst"},
            {"engine.ticks", ticks, "count"},
            {"engine.skipped_cycles", skipped, "cycles"},
            {"replay.hits", replay_hits, "count"},
            {"replay.misses", replay_misses, "count"},
            {"mem.global_sectors", mem.global_sectors, "count"},
            {"mem.l1_accesses", mem.l1_hits + mem.l1_misses, "count"},
            {"mem.l2_accesses", mem.l2_hits + mem.l2_misses, "count"},
            {"mem.dram_bytes", mem.dram_bytes, "bytes"},
            {"mem.mshr_merges", mem.mshr_merges, "count"},
            {"mem.mshr_peak", mem.mshr_peak, "count"},
            {"mem.noc_queue_cycles", mem.noc_queue_cycles, "cycles"},
            {"mem.l2_queue_cycles", mem.l2_queue_cycles, "cycles"},
            {"mem.dram_queue_cycles", mem.dram_queue_cycles, "cycles"},
            {"mem.dram_turnarounds", mem.dram_turnarounds, "count"},
        };
        for (size_t r = 1; r < kNumStallReasons; ++r)
            c.push_back({std::string("core.stall.") +
                             stall_reason_name(static_cast<StallReason>(r)),
                         stalls.counts[r], "cycles"});
        return c;
    }
};

/** Everything one workload measured.  Fields that do not apply to a
 *  workload stay zero; every workload reports every metric. */
struct Figures
{
    // End to end.
    double setup_s = 0;
    size_t setup_n = 0;
    double sim_kips = 0;
    double req_per_s = 0;
    double ref_err_pct = 0;
    size_t ref_points = 0;

    // Layers.
    SimTotals sim;
    size_t timed_units = 0;
    /** Median host seconds of one unit of work: a GEMM pass (sum of
     *  per-kernel medians) or one serving run. */
    double run_s = 0;
    double cpu_s = 0, build_s = 0, upload_s = 0;
    int threads = 1;
    double predict_s = 0;
    double ipc_corr_pct = 0, ipc_err_pct = 0, peak_tflops_err_pct = 0,
           cycles_err_pct = 0;
    size_t profiles = 0;
    double record_s = 0, replay_err_pct = 0;
    bool serving = false;
    serve::ServingReport serve;
};

void
emit(const std::string& name, double value, const char* unit, size_t n)
{
    std::printf("metric %s %.17g %s %zu\n", name.c_str(), value, unit, n);
}

void
emit_all(const Figures& f, const Tracer& tracer)
{
    const size_t units = f.timed_units;
    emit("setup_s", f.setup_s, "s", f.setup_n);
    emit("sim_kips", f.sim_kips, "kinst/s", units);
    emit("req_per_s", f.req_per_s, "1/s", units);
    emit("peak_rss_mb", peak_rss_mb(), "MB", 1);
    emit("ref_err_pct", f.ref_err_pct, "%", f.ref_points);

    for (const SimTotals::Counter& c : f.sim.counters())
        emit(c.name, static_cast<double>(c.value), c.unit, 1);
    const SimTotals& s = f.sim;
    const MemStats& m = s.mem;
    emit("engine.skip_frac",
         ratio(double(s.skipped), double(s.ticks + s.skipped)), "ratio", 1);
    emit("engine.ipc", ratio(double(s.instructions), double(s.cycles)),
         "inst/cycle", 1);
    emit("engine.host_ns_per_tick", 1e9 * ratio(f.run_s, double(s.ticks)),
         "ns", units);
    emit("mem.l1_hit_rate",
         ratio(double(m.l1_hits), double(m.l1_hits + m.l1_misses)), "ratio",
         1);
    emit("mem.l2_hit_rate",
         ratio(double(m.l2_hits), double(m.l2_hits + m.l2_misses)), "ratio",
         1);
    emit("kernels.build_s", f.build_s, "s", units);
    emit("mem.upload_s", f.upload_s, "s", units);
    emit("sim.run_s", f.serving ? 0.0 : f.run_s, "s", f.serving ? 0 : units);
    emit("sim.threads", f.threads, "count", 1);
    emit("sim.cpu_s", f.cpu_s, "s", units);
    emit("sim.cpu_util", ratio(f.cpu_s, f.run_s), "cpu_s/s", units);
    emit("hwref.predict_s", f.predict_s, "s", 1);
    emit("hwref.ipc_corr_pct", f.ipc_corr_pct, "%", 1);
    emit("hwref.ipc_err_pct", f.ipc_err_pct, "%", 1);
    emit("hwref.peak_tflops_err_pct", f.peak_tflops_err_pct, "%", 1);
    emit("hwref.cycles_err_pct", f.cycles_err_pct, "%", 1);
    emit("replay.hit_rate",
         ratio(double(s.replay_hits),
               double(s.replay_hits + s.replay_misses)),
         "ratio", 1);
    emit("replay.profiles", double(f.profiles), "count", 1);
    emit("replay.record_s", f.record_s, "s",
         f.record_s > 0 ? kSetupRepeats : 0);
    emit("replay.err_pct", f.replay_err_pct, "%", 1);

    const serve::ServingReport& r = f.serve;
    const size_t sn = f.serving ? units : 0;
    emit("serve.run_s", f.serving ? f.run_s : 0.0, "s", sn);
    emit("serve.host_us_per_request",
         f.serving ? 1e6 * ratio(f.run_s, r.requests) : 0.0, "us", sn);
    emit("serve.host_us_per_kernel",
         f.serving ? 1e6 * ratio(f.run_s, double(s.kernels)) : 0.0, "us", sn);
    emit("serve.requests", r.requests, "count", 1);
    emit("serve.completed", r.completed, "count", 1);
    emit("serve.batches", r.batches, "count", 1);
    emit("serve.mean_batch", r.mean_batch_size, "req/batch", 1);
    emit("serve.latency_p50_cycles", double(r.latency.latency_p50), "cycles",
         1);
    // The tail percentiles with at least ten samples beyond them: p90
    // of serve_detailed's 100 requests, p98 of serve_replay's 600.
    const auto& tail = r.latency.latency_extra;
    for (size_t i = 0; i < std::size(kTailPercentiles); ++i)
        emit("serve.latency_p" + std::to_string(kTailPercentiles[i]) +
                 "_cycles",
             i < tail.size() ? double(tail[i].second) : 0.0, "cycles", 1);
    emit("serve.queue_wait_p50_cycles", double(r.latency.queue_wait_p50),
         "cycles", 1);
    emit("serve.busy_frac", r.busy_frac, "ratio", 1);
    emit("serve.makespan_cycles", double(r.makespan_cycles), "cycles", 1);

    const std::map<std::string, double> self = tracer.self_seconds();
    if (self.empty())
        return;
    for (const char* span :
         {"phase.setup", "phase.timed", "phase.check", "kernels.build",
          "mem.upload", "sim.construct", "sim.run", "serve.trace_gen",
          "serve.run", "replay.copy", "hwref.predict", "verify.reference"}) {
        auto it = self.find(span);
        emit(std::string("self_s.") + span,
             it == self.end() ? 0.0 : it->second, "s", 1);
    }
}

/** Repeat @p unit until @p seconds have passed since the timed phase
 *  began, and at least once.  A repeat starts only when the previous
 *  one suggests it will end inside the budget. */
void
repeat_for(double seconds, const std::function<void(size_t)>& unit)
{
    const Clock::time_point t0 = Clock::now();
    double last = 0;
    for (size_t i = 0;; ++i) {
        const Clock::time_point a = Clock::now();
        if (i > 0 && seconds_between(t0, a) + last > seconds)
            return;
        unit(i);
        last = seconds_between(a, Clock::now());
    }
}

// ---------------------------------------------------------------------
// GEMM workloads: gemm_tc, gemm_tc_par, gemm_mem.

struct GemmItem
{
    enum class Kind { kCutlass, kNaive, kShared, kStress };
    Kind kind = Kind::kCutlass;
    std::string label;
    GpuConfig cfg;
    TcMode mode = TcMode::kMixed;
    int m = 0, n = 0, k = 0;
    cutlass::GemmTemplate tmpl;
    /** Part of the TitanVModel comparison (ref_err_pct). */
    bool reference = false;
};

/** Fig 17 max-perf kernel geometry. */
constexpr int kStressCtas = 160, kStressWarps = 4, kStressOps = 512;

/** HMMA instructions of @p wmma_ops wmma.mma operations on Volta. */
uint64_t
volta_hmma(uint64_t wmma_ops, TcMode mode)
{
    return wmma_ops *
           static_cast<uint64_t>(hmma_group_size(Arch::kVolta, mode));
}

/** HMMA instructions of an m x n x k WMMA GEMM on Volta. */
uint64_t
gemm_hmma(int m, int n, int k, TcMode mode)
{
    return volta_hmma(uint64_t(m / 16) * (n / 16) * (k / 16), mode);
}

uint64_t
expected_hmma(const GemmItem& it)
{
    if (it.kind == GemmItem::Kind::kStress)
        return volta_hmma(uint64_t(kStressCtas) * kStressWarps * kStressOps,
                          it.mode);
    return gemm_hmma(it.m, it.n, it.k, it.mode);
}

std::vector<GemmItem>
tensor_core_items()
{
    struct Tiling
    {
        int bm, bn, bk, wm, wn;
        bool pipe;
    };
    // The Fig 14b tilings (bench/bench_fig14b_ipc_correlation.cpp).
    const Tiling tilings[] = {
        {64, 64, 16, 32, 32, false}, {64, 64, 32, 32, 32, true},
        {128, 64, 32, 32, 32, true}, {64, 128, 32, 32, 64, true},
        {128, 128, 32, 32, 64, true}, {128, 128, 32, 64, 64, false},
    };
    std::vector<GemmItem> items;
    for (TcMode mode : {TcMode::kMixed, TcMode::kFp16})
        for (const Tiling& tl : tilings)
            for (int size : {256, 512}) {
                GemmItem it;
                it.kind = GemmItem::Kind::kCutlass;
                it.cfg = titan_v_config();
                it.mode = mode;
                it.m = it.n = it.k = size;
                it.tmpl.mode = mode;
                it.tmpl.block_m = tl.bm;
                it.tmpl.block_n = tl.bn;
                it.tmpl.block_k = tl.bk;
                it.tmpl.warp_m = tl.wm;
                it.tmpl.warp_n = tl.wn;
                it.tmpl.double_buffer = tl.pipe;
                it.label = it.tmpl.name() + "@" + std::to_string(size);
                it.reference = true;
                items.push_back(it);
            }
    for (TcMode mode : {TcMode::kMixed, TcMode::kFp16}) {
        GemmItem it;
        it.kind = GemmItem::Kind::kStress;
        it.cfg = titan_v_config();
        it.mode = mode;
        it.label = std::string("hmma_stress_") + tc_mode_name(mode);
        items.push_back(it);
    }
    return items;
}

std::vector<GemmItem>
memory_items()
{
    std::vector<GemmItem> items;
    auto add = [&](const std::string& tag, const GpuConfig& cfg, int size,
                   bool reference) {
        GemmItem it;
        it.kind = GemmItem::Kind::kNaive;
        it.cfg = cfg;
        it.m = it.n = it.k = size;
        it.reference = reference;
        it.label = "wmma_naive_" + tag + "@" + std::to_string(size);
        items.push_back(it);
    };
    for (int size : {64, 128, 192, 256, 320, 384, 512})
        add("default", titan_v_config(), size, true);
    // The three scenarios/mem_pressure_* constrictions.
    GpuConfig tiny_l1 = titan_v_config();
    tiny_l1.num_sms = 8;
    tiny_l1.l1_size = 16384;
    tiny_l1.dram_latency = 400;
    GpuConfig tiny_mshr = tiny_l1;
    tiny_mshr.l1_mshr_entries = 4;
    GpuConfig narrow_noc = tiny_l1;
    narrow_noc.noc_bytes_per_cycle = 8;
    narrow_noc.noc_queue_depth = 16;
    for (int size : {128, 256}) {
        add("tiny_l1", tiny_l1, size, false);
        add("tiny_mshr", tiny_mshr, size, false);
        add("narrow_noc", narrow_noc, size, false);
    }
    return items;
}

struct LaunchTiming
{
    double construct_s = 0, upload_s = 0, build_s = 0, run_s = 0, cpu_s = 0;
};

/** One cold launch: a fresh Gpu (empty modelled caches), operands
 *  uploaded, the kernel built, then Gpu::run. */
EngineStats
launch(const GemmItem& it, int threads, Tracer& tr, int64_t id, LaunchTiming* t)
{
    SimOptions opts;
    opts.sim_threads = threads;
    Span construct(tr, "sim.construct", id);
    Gpu gpu(it.cfg, opts);
    t->construct_s = construct.stop();

    KernelDesc kd;
    if (it.kind == GemmItem::Kind::kStress) {
        Span build(tr, "kernels.build", id);
        kd = make_hmma_stress(Arch::kVolta, it.mode, kStressCtas, kStressWarps,
                              kStressOps, 4);
        t->build_s = build.stop();
    } else {
        const Layout a = it.tmpl.a_layout, b = it.tmpl.b_layout;
        Span upload(tr, "mem.upload", id);
        GemmBuffers buf =
            it.mode == TcMode::kMixed
                ? GemmProblem<float>(it.m, it.n, it.k, a, b).upload(&gpu.mem())
                : GemmProblem<half>(it.m, it.n, it.k, a, b).upload(&gpu.mem());
        t->upload_s = upload.stop();
        Span build(tr, "kernels.build", id);
        GemmKernelConfig kc;
        kc.mode = it.mode;
        kc.m = it.m;
        kc.n = it.n;
        kc.k = it.k;
        kc.functional = false;
        if (it.kind == GemmItem::Kind::kCutlass)
            kd = cutlass::make_gemm(it.tmpl, it.m, it.n, it.k, buf, false);
        else if (it.kind == GemmItem::Kind::kShared)
            kd = make_wmma_gemm_shared(kc, buf);
        else
            kd = make_wmma_gemm_naive(kc, buf);
        t->build_s = build.stop();
    }

    Span run(tr, "sim.run", id);
    const double cpu0 = cpu_now();
    gpu.default_stream().enqueue(std::move(kd));
    EngineStats es = gpu.run();
    t->cpu_s = cpu_now() - cpu0;
    t->run_s = run.stop();
    return es;
}

hwref::GemmWorkload
reference_workload(const GemmItem& it)
{
    hwref::GemmWorkload w;
    w.mode = it.mode;
    w.m = it.m;
    w.n = it.n;
    w.k = it.k;
    if (it.kind == GemmItem::Kind::kCutlass) {
        w.family = hwref::KernelFamily::kCutlass;
        w.block_m = it.tmpl.block_m;
        w.block_n = it.tmpl.block_n;
        w.block_k = it.tmpl.block_k;
        w.warp_m = it.tmpl.warp_m;
        w.warp_n = it.tmpl.warp_n;
        w.warps_per_cta = it.tmpl.warps_per_cta();
        w.double_buffer = it.tmpl.double_buffer;
    } else if (it.kind == GemmItem::Kind::kShared) {
        // make_wmma_gemm_shared: 64x64 CTA tile, 8 warps, BK = 16.
        w.family = hwref::KernelFamily::kWmmaShared;
        w.block_m = w.block_n = 64;
        w.block_k = 16;
    } else {
        w.family = hwref::KernelFamily::kWmmaNaive;
        w.block_m = w.block_n = w.block_k = 16;
    }
    return w;
}

/** Functional m x n x k GEMM with operand layouts @p a, @p b through the
 *  simulator, verified against the host reference; returns its
 *  simulated counts. */
template <typename Acc>
SimTotals
functional_gemm(const std::string& what, int m, int n, int k, Layout a,
                Layout b, int threads,
                const std::function<KernelDesc(const GemmBuffers&)>& build,
                double bound, TcMode mode, Tracer& tr, Checks& checks)
{
    SimOptions opts;
    opts.sim_threads = threads;
    Gpu gpu(titan_v_config(), opts);
    GemmProblem<Acc> prob(m, n, k, a, b);
    GemmBuffers buf = prob.upload(&gpu.mem());
    gpu.default_stream().enqueue(build(buf));
    SimTotals t;
    t.add(gpu.run());
    double err = 0;
    {
        Span ref(tr, "verify.reference");
        err = prob.verify(gpu.mem(), buf.d);
    }
    char msg[256];
    std::snprintf(msg, sizeof(msg), "%s max rel err %.3g < %g", what.c_str(),
                  err, bound);
    checks.expect(err < bound, msg);
    const uint64_t want = gemm_hmma(m, n, k, mode);
    checks.expect(t.hmma == want, what + " HMMA count " +
                                      std::to_string(t.hmma) +
                                      " == " + std::to_string(want));
    return t;
}

void
gemm_workload(const std::string& name, uint64_t seed, double seconds,
              Tracer& tr, Figures& f, Checks& checks, int64_t& attempted,
              int64_t& failed)
{
    const bool memory = name == "gemm_mem";
    const std::vector<GemmItem> items =
        memory ? memory_items() : tensor_core_items();
    if (name == "gemm_tc_par")
        f.threads = static_cast<int>(
            std::min(4u, std::max(1u, std::thread::hardware_concurrency())));

    const size_t n = items.size();
    std::vector<std::vector<double>> setup(n), run(n), cpu(n), build(n),
        upload(n);
    std::vector<EngineStats> first(n);
    std::vector<bool> ran(n, false);
    int64_t launches = 0, bad = 0;
    {
        Span timed(tr, "phase.timed");
        const Clock::time_point t0 = Clock::now();
        for (size_t launch_no = 0;; ++launch_no) {
            const size_t i = launch_no % n;
            if (launch_no >= n && seconds_between(t0, Clock::now()) >= seconds)
                break;
            LaunchTiming lt;
            EngineStats es;
            ++launches;
            try {
                es = launch(items[i], f.threads, tr,
                            static_cast<int64_t>(launch_no), &lt);
            } catch (const std::exception& e) {
                ++bad;
                std::fprintf(stderr, "%s threw: %s\n", items[i].label.c_str(),
                             e.what());
                continue;
            }
            setup[i].push_back(lt.construct_s + lt.upload_s + lt.build_s);
            run[i].push_back(lt.run_s);
            cpu[i].push_back(lt.cpu_s);
            build[i].push_back(lt.build_s);
            upload[i].push_back(lt.upload_s);
            SimTotals now;
            now.add(es);
            if (!ran[i]) {
                ran[i] = true;
                first[i] = es;
                if (now.hmma != expected_hmma(items[i])) {
                    ++bad;
                    std::fprintf(
                        stderr, "%s: HMMA count %llu, want %llu\n",
                        items[i].label.c_str(),
                        static_cast<unsigned long long>(now.hmma),
                        static_cast<unsigned long long>(
                            expected_hmma(items[i])));
                }
            } else {
                SimTotals was;
                was.add(first[i]);
                if (now.counters() != was.counters()) {
                    ++bad;
                    std::fprintf(stderr,
                                 "%s: repeat changed the simulated counts\n",
                                 items[i].label.c_str());
                }
            }
        }
    }
    attempted += launches;
    failed += bad;
    checks.expect(bad == 0,
                  std::to_string(launches) + " launches of " +
                      std::to_string(n) +
                      " kernels: HMMA counts analytic, repeats exact");

    // Per-kernel medians: one pass at the median host cost of each kernel.
    for (size_t i = 0; i < n; ++i) {
        if (!ran[i])
            continue;
        f.sim.add(first[i]);
        f.setup_s += median(setup[i]);
        f.run_s += median(run[i]);
        f.cpu_s += median(cpu[i]);
        f.build_s += median(build[i]);
        f.upload_s += median(upload[i]);
        f.timed_units += run[i].size();
    }
    f.setup_n = f.timed_units;
    f.sim_kips = 1e-3 * ratio(double(f.sim.instructions), f.run_s);
    f.req_per_s = ratio(double(n), f.run_s);

    Span check(tr, "phase.check");
    // Accuracy against the analytical Titan V stand-in (and, for the
    // max-perf kernels, against the paper's measured TFLOPS).
    std::vector<metrics::IpcPoint> ipc;
    std::vector<double> hw_cycles, sim_cycles;
    std::vector<double> tflops_err;
    {
        Span predict(tr, "hwref.predict");
        for (size_t i = 0; i < n; ++i) {
            const GemmItem& it = items[i];
            if (!ran[i])
                continue;
            const LaunchStats& ls = first[i].kernels.front();
            if (it.kind == GemmItem::Kind::kStress) {
                const double flops = 2.0 * kStressCtas * kStressWarps *
                                     kStressOps * 16.0 * 16.0 * 16.0;
                const double sim =
                    metrics::tflops(flops, double(ls.cycles), it.cfg.clock_ghz);
                const double paper = it.mode == TcMode::kMixed
                                         ? hwref::kMaxPerfMixedTflops
                                         : hwref::kMaxPerfFp16Tflops;
                tflops_err.push_back(100.0 * std::fabs(sim - paper) / paper);
                continue;
            }
            if (!it.reference)
                continue;
            const hwref::HwPrediction p =
                hwref::TitanVModel(it.cfg).predict(reference_workload(it));
            if (it.kind == GemmItem::Kind::kCutlass) {
                ipc.push_back(
                    {it.label, double(ls.instructions) / p.cycles, ls.ipc});
            } else {
                hw_cycles.push_back(p.cycles);
                sim_cycles.push_back(double(ls.cycles));
            }
        }
        f.predict_s = predict.stop();
    }
    // A failed launch leaves its point out (and already failed the run).
    if (memory) {
        if (!hw_cycles.empty())
            f.cycles_err_pct =
                stats::mean_abs_rel_error_pct(hw_cycles, sim_cycles);
        f.ref_err_pct = f.cycles_err_pct;
        f.ref_points = hw_cycles.size();
        GemmKernelConfig kc;
        kc.m = kc.n = kc.k = 128;
        kc.a_layout = seed & 1 ? Layout::kColMajor : Layout::kRowMajor;
        kc.b_layout = seed & 2 ? Layout::kColMajor : Layout::kRowMajor;
        attempted += 1;
        functional_gemm<float>(
            std::string("functional wmma_naive 128^3 mixed, A ") +
                (seed & 1 ? "col" : "row") + " B " + (seed & 2 ? "col" : "row"),
            128, 128, 128, kc.a_layout, kc.b_layout, f.threads,
            [&kc](const GemmBuffers& b) {
                return make_wmma_gemm_naive(kc, b);
            },
            1e-3, TcMode::kMixed, tr, checks);
    } else {
        if (ipc.size() >= 2) {
            const metrics::CorrelationReport r = metrics::correlate(ipc);
            f.ipc_corr_pct = r.correlation_pct;
            f.ipc_err_pct = r.mean_abs_rel_err_pct;
        }
        f.ref_err_pct = f.ipc_err_pct;
        f.ref_points = ipc.size();
        if (!tflops_err.empty())
            f.peak_tflops_err_pct = stats::mean(tflops_err);

        // One configuration of the 48-entry default sweep per precision.
        // FP16 accumulation over k = 256 exceeds the 0.05 bound (0.074),
        // so the FP16 check uses k = 64 as tests/cutlass_test.cpp does.
        const std::vector<cutlass::GemmTemplate> mixed =
            cutlass::default_sweep(TcMode::kMixed);
        const std::vector<cutlass::GemmTemplate> fp16 =
            cutlass::default_sweep(TcMode::kFp16);
        const cutlass::GemmTemplate& tm = mixed[seed % mixed.size()];
        const cutlass::GemmTemplate& th = fp16[seed % fp16.size()];
        // gemm_tc_par also runs the checks serially: the parallel core
        // must reproduce every serial count.
        std::vector<std::vector<SimTotals::Counter>> counts;
        for (int threads : f.threads > 1 ? std::vector<int>{f.threads, 1}
                                         : std::vector<int>{1}) {
            const std::string tag =
                " (sim_threads=" + std::to_string(threads) + ")";
            attempted += 2;
            counts.push_back(
                functional_gemm<float>(
                    "functional " + tm.name() + " 256^3" + tag, 256, 256, 256,
                    tm.a_layout, tm.b_layout, threads,
                    [&tm](const GemmBuffers& b) {
                        return cutlass::make_gemm(tm, 256, 256, 256, b, true);
                    },
                    1e-3, TcMode::kMixed, tr, checks)
                    .counters());
            counts.push_back(
                functional_gemm<half>(
                    "functional " + th.name() + " 256x256x64" + tag, 256, 256,
                    64, th.a_layout, th.b_layout, threads,
                    [&th](const GemmBuffers& b) {
                        return cutlass::make_gemm(th, 256, 256, 64, b, true);
                    },
                    0.05, TcMode::kFp16, tr, checks)
                    .counters());
        }
        if (counts.size() == 4)
            checks.expect(counts[0] == counts[2] && counts[1] == counts[3],
                          "parallel functional GEMM counts equal serial");
    }
}

// ---------------------------------------------------------------------
// Serving workloads: serve_detailed, serve_replay.

model::ModelGraph
mlp6()
{
    model::ModelGraph g;
    g.name = "mlp6";
    g.tokens_per_request = 16;
    g.input_features = 256;
    for (int i = 1; i <= 6; ++i) {
        model::LayerSpec l;
        l.kind = model::LayerKind::kLinear;
        l.name = "fc" + std::to_string(i);
        l.out_features = 256;
        g.layers.push_back(l);
    }
    return g;
}

GpuConfig
serve_config()
{
    GpuConfig cfg = titan_v_config();
    cfg.num_sms = kServeSms;
    return cfg;
}

std::vector<serve::Request>
make_trace(uint64_t seed, int requests)
{
    const GpuConfig cfg = serve_config();
    return serve::poisson_trace(seed, requests,
                                static_cast<double>(driver::us_to_cycles(
                                    kMeanInterarrivalUs, cfg.clock_ghz)));
}

serve::ServingResult
serve_trace(const std::vector<serve::Request>& trace,
            SimOptions::ReplayMode mode, ReplayCache* cache)
{
    SimOptions sim;
    sim.replay_mode = mode;
    sim.replay_cache = cache;
    serve::ContinuousBatcher policy(8, 2);
    const std::vector<double> tail(std::begin(kTailPercentiles),
                                   std::end(kTailPercentiles));
    return serve::run_serving(serve_config(), sim, mlp6(), trace, policy, tail);
}

/**
 * Checks one serving run: every request completed after it arrived,
 * and every kernel's HMMA count is the analytic count of its batch's
 * lowered shape.  Instruction counts are a static property of the
 * shape too: the first run seen fills @p instr_by_m, later runs (and
 * replayed kernels) must match it.  Returns the number of failures.
 */
int
check_serving(const serve::ServingResult& r, const std::string& what,
              std::map<int, uint64_t>* instr_by_m, Checks& checks)
{
    int failures = r.report.requests - r.report.completed;
    for (const serve::RequestRecord& q : r.report.request_records)
        failures += q.finish_cycle <= q.arrival_cycle;

    std::map<int, int> batch_size;
    for (const serve::BatchRecord& b : r.report.batch_records)
        batch_size[b.id] = b.size;
    std::map<int, model::LoweredKernel> shape_of_batch_size;
    int bad_kernels = 0;
    for (const LaunchStats& k : r.totals.kernels) {
        // Serving names every kernel "b<wavefront>.<layer>".
        const auto batch = batch_size.find(std::atoi(k.kernel.c_str() + 1));
        if (batch == batch_size.end()) {
            ++bad_kernels;
            continue;
        }
        if (!shape_of_batch_size.count(batch->second))
            shape_of_batch_size[batch->second] =
                model::lower_model(mlp6(), batch->second).kernels.front();
        const model::LoweredKernel& lk = shape_of_batch_size[batch->second];
        auto [it, fresh] = instr_by_m->emplace(lk.m, k.instructions);
        bad_kernels +=
            k.hmma_instructions != gemm_hmma(lk.m, lk.n, lk.k, lk.mode) ||
            (!fresh && it->second != k.instructions);
    }
    checks.expect(failures == 0, what + ": all " +
                                     std::to_string(r.report.requests) +
                                     " requests completed");
    checks.expect(bad_kernels == 0,
                  what + ": per-kernel instruction and HMMA counts exact for " +
                      std::to_string(r.totals.kernels.size()) + " kernels");
    return failures + bad_kernels;
}

/** Mean absolute relative per-request latency error of @p got vs @p ref. */
double
latency_err_pct(const serve::ServingReport& ref,
                const serve::ServingReport& got)
{
    std::vector<double> a, b;
    const size_t n =
        std::min(ref.request_records.size(), got.request_records.size());
    for (size_t i = 0; i < n; ++i) {
        a.push_back(double(ref.request_records[i].finish_cycle -
                           ref.request_records[i].arrival_cycle));
        b.push_back(double(got.request_records[i].finish_cycle -
                           got.request_records[i].arrival_cycle));
    }
    return a.empty() ? 0.0 : stats::mean_abs_rel_error_pct(a, b);
}

/** Timed phase shared by both serving workloads: serve @p trace
 *  repeatedly (each repeat from a fresh copy of @p cache in replay
 *  mode), keeping the first result and checking later ones match. */
serve::ServingResult
timed_serving(const std::vector<serve::Request>& trace,
              SimOptions::ReplayMode mode, const ReplayCache& cache,
              double seconds, Tracer& tr, Figures& f, Checks& checks,
              int64_t& attempted, int64_t& failed)
{
    Span timed(tr, "phase.timed");
    serve::ServingResult first;
    std::vector<double> run, cpu, kips;
    repeat_for(seconds, [&](size_t i) {
        attempted += static_cast<int64_t>(trace.size());
        ReplayCache copy;
        if (mode != SimOptions::ReplayMode::kOff) {
            Span c(tr, "replay.copy", static_cast<int64_t>(i));
            copy = cache;
        }
        Span s(tr, "serve.run", static_cast<int64_t>(i));
        const double cpu0 = cpu_now();
        serve::ServingResult r = serve_trace(trace, mode, &copy);
        cpu.push_back(cpu_now() - cpu0);
        run.push_back(s.stop());
        kips.push_back(1e-3 * ratio(double(r.totals.instructions), run.back()));
        if (i == 0) {
            f.profiles = copy.size();
            first = std::move(r);
            return;
        }
        SimTotals a, b;
        a.add(first.totals);
        b.add(r.totals);
        if (a.counters() != b.counters()) {
            failed += static_cast<int64_t>(trace.size());
            checks.expect(false, "serving repeat " + std::to_string(i) +
                                     " changed the simulated counts");
        }
    });
    f.serving = true;
    f.timed_units = run.size();
    f.run_s = median(run);
    f.cpu_s = median(cpu);
    f.sim_kips = median(kips);
    f.req_per_s = ratio(double(trace.size()), f.run_s);
    f.sim.add(first.totals);
    f.serve = first.report;
    return first;
}

/** Serving set-up: @p step (generate the inputs, then one serving run)
 *  repeated kSetupRepeats times; setup_s is the median. */
void
serving_setup(Tracer& tr, Figures& f, const std::function<void(int)>& step)
{
    Span setup(tr, "phase.setup");
    std::vector<double> samples;
    for (int r = 0; r < kSetupRepeats; ++r) {
        const Clock::time_point t0 = Clock::now();
        step(r);
        samples.push_back(seconds_between(t0, Clock::now()));
    }
    f.setup_s = median(samples);
    f.setup_n = samples.size();
}

void
serve_detailed_workload(double seconds, Tracer& tr, Figures& f, Checks& checks,
                        int64_t& attempted, int64_t& failed)
{
    // Set-up: generate the trace, then serve its first requests once so
    // lazily built simulator state exists before the timed phase.
    std::vector<serve::Request> trace;
    serving_setup(tr, f, [&](int r) {
        {
            Span g(tr, "serve.trace_gen");
            trace = make_trace(kDetailedSeed, kDetailedRequests);
        }
        const std::vector<serve::Request> warm(trace.begin(),
                                               trace.begin() + kWarmupRequests);
        Span s(tr, "serve.run", r);
        const serve::ServingResult res =
            serve_trace(warm, SimOptions::ReplayMode::kOff, nullptr);
        attempted += kWarmupRequests;
        failed += res.report.requests - res.report.completed;
    });

    const serve::ServingResult first =
        timed_serving(trace, SimOptions::ReplayMode::kOff, ReplayCache{},
                      seconds, tr, f, checks, attempted, failed);

    Span check(tr, "phase.check");
    std::map<int, uint64_t> instr_by_m;
    failed += check_serving(first, "serve_detailed", &instr_by_m, checks);

    // Accuracy: each kernel shape this workload serves, launched alone
    // on the same slice, against the analytical Titan V stand-in.
    std::vector<double> hw, sim;
    for (int batch : {1, 8}) {
        const model::LoweredKernel lk =
            model::lower_model(mlp6(), batch).kernels.front();
        GemmItem it;
        it.kind = GemmItem::Kind::kShared;
        it.cfg = serve_config();
        it.mode = lk.mode;
        it.m = lk.m;
        it.n = lk.n;
        it.k = lk.k;
        LaunchTiming lt;
        ++attempted;
        sim.push_back(double(launch(it, 1, tr, -1, &lt).cycles));
        Span predict(tr, "hwref.predict");
        hw.push_back(
            hwref::TitanVModel(it.cfg).predict(reference_workload(it)).cycles);
        f.predict_s += predict.stop();
    }
    f.ref_err_pct = stats::mean_abs_rel_error_pct(hw, sim);
    f.ref_points = hw.size();
}

void
serve_replay_workload(double seconds, Tracer& tr, Figures& f, Checks& checks,
                      int64_t& attempted, int64_t& failed)
{
    // Set-up: generate the traces and record the cache the timed phase
    // replays from.
    ReplayCache cache;
    std::vector<serve::Request> trace;
    std::vector<double> record;
    serving_setup(tr, f, [&](int r) {
        std::vector<serve::Request> rec;
        {
            Span g(tr, "serve.trace_gen");
            rec = make_trace(kRecordSeed, kRecordRequests);
            trace = make_trace(kReplaySeed, kReplayRequests);
        }
        cache = ReplayCache{};
        Span s(tr, "serve.run", r);
        const serve::ServingResult res =
            serve_trace(rec, SimOptions::ReplayMode::kRecord, &cache);
        record.push_back(s.stop());
        attempted += kRecordRequests;
        failed += res.report.requests - res.report.completed;
    });
    f.record_s = median(record);

    const serve::ServingResult first =
        timed_serving(trace, SimOptions::ReplayMode::kReplay, cache, seconds,
                      tr, f, checks, attempted, failed);

    Span check(tr, "phase.check");
    std::vector<serve::Request> held_out;
    {
        Span g(tr, "serve.trace_gen");
        held_out = make_trace(kHeldOutSeed, kHeldOutRequests);
    }
    serve::ServingResult detailed, replayed;
    {
        Span s(tr, "serve.run");
        detailed = serve_trace(held_out, SimOptions::ReplayMode::kOff, nullptr);
    }
    {
        ReplayCache copy;
        {
            Span c(tr, "replay.copy");
            copy = cache;
        }
        Span s(tr, "serve.run");
        replayed =
            serve_trace(held_out, SimOptions::ReplayMode::kReplay, &copy);
    }
    attempted += 2 * kHeldOutRequests;
    std::map<int, uint64_t> instr_by_m;
    failed += check_serving(detailed, "held-out detailed", &instr_by_m, checks);
    failed += check_serving(replayed, "held-out replay", &instr_by_m, checks);
    failed += check_serving(first, "timed replay", &instr_by_m, checks);
    checks.expect(replayed.totals.replay_hits > 0,
                  "held-out replay hit the cache");
    f.replay_err_pct = latency_err_pct(detailed.report, replayed.report);
    f.ref_err_pct = f.replay_err_pct;
    f.ref_points = detailed.report.request_records.size();
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: tcsim_bench --workload "
                 "{gemm_tc|gemm_tc_par|gemm_mem|serve_detailed|serve_replay} "
                 "[--seed S] [--seconds T] [--trace-out FILE]\n");
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string workload, trace_out;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char* val = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            workload = val;
        } else if (arg == "--seed") {
            seed = std::strtoull(val, &end, 10);
        } else if (arg == "--seconds") {
            seconds = std::strtod(val, &end);
        } else if (arg == "--trace-out") {
            trace_out = val;
        } else {
            return usage();
        }
        if (end != nullptr && (*end != '\0' || end == val))
            return usage();
    }

    Tracer tracer(!trace_out.empty());
    Figures f;
    Checks checks;
    int64_t attempted = 0, failed = 0;
    try {
        if (workload == "gemm_tc" || workload == "gemm_tc_par" ||
            workload == "gemm_mem")
            gemm_workload(workload, seed, seconds, tracer, f, checks,
                          attempted, failed);
        else if (workload == "serve_detailed")
            serve_detailed_workload(seconds, tracer, f, checks, attempted,
                                    failed);
        else if (workload == "serve_replay")
            serve_replay_workload(seconds, tracer, f, checks, attempted,
                                  failed);
        else
            return usage();
    } catch (const std::exception& e) {
        checks.expect(false, std::string("workload threw: ") + e.what());
        ++failed;
    }

    emit_all(f, tracer);
    if (!trace_out.empty())
        checks.expect(tracer.write_chrome(trace_out), "wrote " + trace_out);
    std::printf("result %lld %lld\n", static_cast<long long>(attempted),
                static_cast<long long>(failed));
    return checks.failed() == 0 && failed == 0 ? 0 : 1;
}
