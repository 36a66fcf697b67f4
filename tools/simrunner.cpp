/**
 * @file
 * simrunner: the scenario driver CLI.  Loads declarative JSON
 * scenarios (files or directories), runs them on a thread-pool batch
 * runner — one simulator instance per worker — and prints per-scenario
 * tables plus an aggregate summary.  Optionally writes the full batch
 * report as JSON.
 *
 * Usage:
 *   simrunner [options] <scenario.json | dir>...
 *     --jobs N        batch worker threads (default: hardware
 *                     concurrency); shares one thread budget with
 *                     --sim-threads, so the two never oversubscribe
 *     --sim-threads N worker threads *inside* each simulation
 *                     (0 = hardware concurrency); overrides the
 *                     scenarios' sim.sim_threads.  Results are
 *                     bit-identical for every value
 *     --report FILE   write the aggregate JSON report to FILE
 *     --filter SUBS   only run scenarios whose name contains any of
 *                     the comma-separated patterns (repeatable)
 *     --replay[=MODE] override sim.replay on every scenario
 *                     (MODE: replay (default), record, off)
 *     --replay-cache DIR  merge every .rpc file under DIR into a
 *                     batch-shared profile cache before running,
 *                     write DIR/profiles.rpc after; needs --replay
 *     --fail-fast     stop the batch on the first scenario failure
 *     --list          list matching scenarios and exit
 *     --quiet         only print the summary and failures
 *     --sweep FILE    base scenario for a snapshot-forked sweep
 *                     (combine with --grid; a scenario with an inline
 *                     "sweep" key sweeps without any flag)
 *     --grid FILE     standalone {"fork_cycle", "points"} document to
 *                     attach to the --sweep base
 *     --cold-sweep    run every sweep point cold (prefix + point from
 *                     cycle 0) instead of forking the prefix snapshot
 *                     — the fork-identity reference leg
 *     --dump-dag DIR  write the dependency DAG of every matching
 *                     scenario to DIR/<name>.dag.json and .dag.dot
 *                     (the compiled plan for declarative scenarios,
 *                     one edgeless stream for plain ones) and exit
 *                     without running
 *   --trace-out DIR write each serving scenario's per-request
 *                     lifecycle to DIR/<name>.trace.jsonl (one JSON
 *                     object per request: id, arrival/admit/finish
 *                     cycles, batch id) — the lines parse back as a
 *                     "file"-kind input trace, so a recorded run can
 *                     be replayed
 *
 * Exit status: 0 when every scenario passed, 1 otherwise.
 *
 *   ./build/simrunner scenarios/                 # the curated suite
 *   ./build/simrunner --jobs 4 scenarios/ --report report.json
 *   ./build/simrunner --sim-threads 4 scenarios/ # parallel sim core
 *   ./build/simrunner --sweep base.json --grid grid.json
 */

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/table.h"
#include "driver/runner.h"
#include "driver/scenario.h"
#include "driver/taskgraph.h"
#include "metrics/metrics.h"
#include "sim/replay/replay_cache.h"

using namespace tcsim;

namespace {

struct Options
{
    int jobs = 0;         ///< 0 = hardware concurrency.
    int sim_threads = -1; ///< -1 = per-scenario sim.sim_threads.
    std::string report_path;
    /** --filter patterns (comma-separated and/or repeated); a
     *  scenario runs when its name contains ANY pattern. */
    std::vector<std::string> filters;
    bool fail_fast = false;
    bool list = false;
    bool quiet = false;
    std::string sweep_path;   ///< --sweep base scenario file.
    std::string grid_path;    ///< --grid standalone sweep document.
    bool cold_sweep = false;
    std::string dump_dag_dir; ///< --dump-dag output directory.
    std::string trace_out_dir; ///< --trace-out output directory.
    /** --replay mode as a SimOptions::ReplayMode int (-1 = keep the
     *  per-scenario sim.replay setting). */
    int replay_mode = -1;
    std::string replay_cache_dir; ///< --replay-cache directory.
    /** --timeout-ms per-scenario wall-clock watchdog (0 = none). */
    uint64_t timeout_ms = 0;
    std::vector<std::string> inputs;
};

void
usage(std::FILE* to)
{
    std::fprintf(
        to,
        "usage: simrunner [options] <scenario.json | dir>...\n"
        "  --jobs N        batch worker threads (default: hardware\n"
        "                  concurrency; clamped so jobs x sim-threads\n"
        "                  stays within the host's cores)\n"
        "  --sim-threads N worker threads inside each simulation\n"
        "                  (0 = hardware concurrency; results are\n"
        "                  bit-identical for every value)\n"
        "  --report FILE   write the aggregate JSON report to FILE\n"
        "  --filter SUBS   only run scenarios whose name contains any\n"
        "                  of the comma-separated patterns (repeatable)\n"
        "  --replay[=MODE] override sim.replay on every scenario.\n"
        "                  MODE: replay (default), record, off\n"
        "  --replay-cache DIR  share one profile cache across the\n"
        "                  batch: merge DIR/*.rpc before running and\n"
        "                  write DIR/profiles.rpc after (needs --replay)\n"
        "  --fail-fast     stop the batch on the first scenario failure\n"
        "  --list          list matching scenarios and exit\n"
        "  --quiet         only print the summary and failures\n"
        "  --sweep FILE    base scenario for a snapshot-forked sweep\n"
        "  --grid FILE     sweep document to attach to the --sweep base\n"
        "  --cold-sweep    run sweep points cold instead of forking\n"
        "  --dump-dag DIR  write each scenario's dependency DAG to\n"
        "                  DIR/<name>.dag.{json,dot} and exit\n"
        "  --trace-out DIR write per-request serving traces to\n"
        "                  DIR/<name>.trace.jsonl (replayable as\n"
        "                  \"file\"-kind input traces)\n"
        "  --timeout-ms N  per-scenario wall-clock watchdog: a hung or\n"
        "                  runaway scenario becomes a structured error\n"
        "                  row while the rest of the batch completes\n");
}

/** Parse the value @p v of integer flag @p flag: the whole string
 *  must be a base-10 integer that fits T and is at least @p lo.
 *  Prints an error and returns false otherwise (a null @p v was
 *  already reported as missing). */
template <typename T>
bool
parse_int_flag(const std::string& flag, const char* v, T lo, T* out)
{
    if (!v)
        return false;
    const char* end = v + std::strlen(v);
    T parsed{};
    auto [ptr, ec] = std::from_chars(v, end, parsed);
    if (ec != std::errc() || ptr != end || parsed < lo) {
        std::fprintf(stderr, "simrunner: bad %s value \"%s\"\n",
                     flag.c_str(), v);
        return false;
    }
    *out = parsed;
    return true;
}

bool
parse_args(int argc, char** argv, Options* opts)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "simrunner: %s needs a value\n",
                             arg.c_str());
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--jobs" || arg == "-j") {
            if (!parse_int_flag(arg, value(), 1, &opts->jobs))
                return false;
        } else if (arg == "--sim-threads") {
            if (!parse_int_flag(arg, value(), 0, &opts->sim_threads))
                return false;
        } else if (arg == "--report") {
            const char* v = value();
            if (!v)
                return false;
            opts->report_path = v;
        } else if (arg == "--filter") {
            const char* v = value();
            if (!v)
                return false;
            // Comma-separated patterns; repeated flags accumulate.
            std::string pats = v;
            size_t start = 0;
            while (start <= pats.size()) {
                size_t comma = pats.find(',', start);
                if (comma == std::string::npos)
                    comma = pats.size();
                if (comma > start)
                    opts->filters.push_back(
                        pats.substr(start, comma - start));
                start = comma + 1;
            }
        } else if (arg == "--replay" ||
                   arg.rfind("--replay=", 0) == 0) {
            std::string mode = arg == "--replay" ? "replay"
                                                 : arg.substr(9);
            if (mode == "off")
                opts->replay_mode = 0;
            else if (mode == "record")
                opts->replay_mode = 1;
            else if (mode == "replay")
                opts->replay_mode = 2;
            else {
                std::fprintf(stderr,
                             "simrunner: bad --replay mode \"%s\" "
                             "(want off|record|replay)\n",
                             mode.c_str());
                return false;
            }
        } else if (arg == "--replay-cache") {
            const char* v = value();
            if (!v)
                return false;
            opts->replay_cache_dir = v;
        } else if (arg == "--sweep") {
            const char* v = value();
            if (!v)
                return false;
            opts->sweep_path = v;
        } else if (arg == "--grid") {
            const char* v = value();
            if (!v)
                return false;
            opts->grid_path = v;
        } else if (arg == "--cold-sweep") {
            opts->cold_sweep = true;
        } else if (arg == "--timeout-ms") {
            if (!parse_int_flag(arg, value(), uint64_t{1},
                                &opts->timeout_ms))
                return false;
        } else if (arg == "--dump-dag") {
            const char* v = value();
            if (!v)
                return false;
            opts->dump_dag_dir = v;
        } else if (arg == "--trace-out") {
            const char* v = value();
            if (!v)
                return false;
            opts->trace_out_dir = v;
        } else if (arg == "--fail-fast") {
            opts->fail_fast = true;
        } else if (arg == "--list") {
            opts->list = true;
        } else if (arg == "--quiet" || arg == "-q") {
            opts->quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            std::exit(0);
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "simrunner: unknown option %s\n",
                         arg.c_str());
            return false;
        } else {
            opts->inputs.push_back(std::move(arg));
        }
    }
    if (!opts->grid_path.empty() && opts->sweep_path.empty()) {
        std::fprintf(stderr,
                     "simrunner: --grid needs a --sweep base scenario\n");
        return false;
    }
    if (!opts->replay_cache_dir.empty() && opts->replay_mode < 0) {
        std::fprintf(stderr,
                     "simrunner: --replay-cache needs --replay[=MODE]\n");
        return false;
    }
    if (opts->inputs.empty() && opts->sweep_path.empty()) {
        usage(stderr);
        return false;
    }
    return true;
}

/** Expand files/directories into a sorted scenario file list. */
std::vector<std::string>
collect_files(const std::vector<std::string>& inputs)
{
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    for (const std::string& input : inputs) {
        fs::path p(input);
        if (fs::is_directory(p)) {
            std::vector<std::string> dir_files;
            for (const auto& entry : fs::directory_iterator(p))
                if (entry.is_regular_file() &&
                    entry.path().extension() == ".json")
                    dir_files.push_back(entry.path().string());
            std::sort(dir_files.begin(), dir_files.end());
            files.insert(files.end(), dir_files.begin(), dir_files.end());
        } else {
            files.push_back(input);
        }
    }
    return files;
}

void
print_result(const driver::ScenarioResult& r, bool quiet)
{
    if (quiet && (r.passed || r.skipped))
        return;
    std::printf("\n=== %s (%s) ===\n", r.name.c_str(),
                r.skipped ? "SKIP" : (r.passed ? "PASS" : "FAIL"));
    if (!r.error.empty()) {
        std::printf("  %s%s\n", r.skipped ? "" : "error: ",
                    r.error.c_str());
        return;
    }
    std::vector<double> flops;
    std::vector<LaunchStats> kernels;
    kernels.reserve(r.kernels.size());
    for (const driver::KernelResult& k : r.kernels) {
        flops.push_back(k.flops);
        kernels.push_back(k.stats);
    }
    std::printf(
        "%s",
        metrics::launch_table(kernels, flops, r.clock_ghz).render().c_str());
    for (const driver::EventResult& e : r.events)
        std::printf("  event %-20s completed at cycle %llu\n",
                    e.name.c_str(),
                    static_cast<unsigned long long>(e.cycle));
    std::printf("  total: %llu cycles, IPC %.2f, %.2f TFLOPS, %.1f ms "
                "wall\n",
                static_cast<unsigned long long>(r.totals.cycles),
                r.totals.ipc, r.total_tflops, r.wall_ms);
    if (r.has_serving) {
        const serve::ServingReport& s = r.serving;
        std::printf("  serve: %s, %d/%d request(s) in %d batch(es) "
                    "(mean %.2f), latency p50/p95/p99 %llu/%llu/%llu "
                    "cycles, busy %.1f%%\n",
                    s.policy.c_str(), s.completed, s.requests, s.batches,
                    s.mean_batch_size,
                    static_cast<unsigned long long>(s.latency.latency_p50),
                    static_cast<unsigned long long>(s.latency.latency_p95),
                    static_cast<unsigned long long>(s.latency.latency_p99),
                    100.0 * s.busy_frac);
    }
    std::string mem = metrics::mem_summary(r.totals.mem);
    if (!mem.empty())
        std::printf("  %s\n", mem.c_str());
    for (const driver::AssertionResult& a : r.assertions)
        std::printf("  %s %s = %.10g (want %s)\n", a.passed ? "ok " : "FAIL",
                    a.metric.c_str(), a.value, a.detail.c_str());
}

/** Write each serving result's per-request lifecycle as JSONL (the
 *  "file"-kind trace format, so dumps replay as inputs).  Returns the
 *  number of files that failed to write. */
int
write_trace_files(const driver::BatchReport& report, const std::string& dir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir, ec);
    int failures = 0;
    for (const driver::ScenarioResult& r : report.results) {
        if (!r.has_serving)
            continue;
        std::string name = r.name;
        std::replace(name.begin(), name.end(), '/', '_');
        const std::string path = dir + "/" + name + ".trace.jsonl";
        std::string out;
        for (const serve::RequestRecord& q : r.serving.request_records) {
            driver::JsonValue line = driver::JsonValue::object();
            line.set("id", q.id);
            line.set("arrival_cycle", q.arrival_cycle);
            line.set("admit_cycle", q.admit_cycle);
            line.set("finish_cycle", q.finish_cycle);
            line.set("batch", q.batch);
            out += line.dump() + "\n";
        }
        std::FILE* f = std::fopen(path.c_str(), "w");
        bool ok = f != nullptr;
        if (f) {
            ok &= std::fwrite(out.data(), 1, out.size(), f) == out.size();
            ok &= std::fclose(f) == 0;
        }
        if (!ok) {
            std::fprintf(stderr, "simrunner: failed to write %s\n",
                         path.c_str());
            ++failures;
            continue;
        }
        std::printf("wrote %s (%zu request(s))\n", path.c_str(),
                    r.serving.request_records.size());
    }
    return failures;
}

}  // namespace

int
main(int argc, char** argv)
{
    Options opts;
    if (!parse_args(argc, argv, &opts))
        return 1;
    if (opts.jobs == 0)
        opts.jobs = hardware_threads();

    std::vector<driver::Scenario> scenarios;
    int load_failures = 0;
    if (!opts.sweep_path.empty()) {
        try {
            driver::Scenario sc =
                driver::load_scenario_file(opts.sweep_path);
            if (!opts.grid_path.empty())
                driver::attach_sweep(&sc,
                                     driver::json_parse_file(opts.grid_path),
                                     opts.grid_path);
            if (!sc.is_sweep())
                throw driver::ScenarioError(
                    opts.sweep_path + ": scenario \"" + sc.name +
                    "\" has no sweep (add an inline \"sweep\" key or "
                    "pass --grid)");
            scenarios.push_back(std::move(sc));
        } catch (const std::exception& e) {
            std::fprintf(stderr, "simrunner: %s\n", e.what());
            ++load_failures;
        }
    }
    for (const std::string& file : collect_files(opts.inputs)) {
        try {
            driver::Scenario sc = driver::load_scenario_file(file);
            if (!opts.filters.empty() &&
                std::none_of(opts.filters.begin(), opts.filters.end(),
                             [&](const std::string& pat) {
                                 return sc.name.find(pat) !=
                                        std::string::npos;
                             }))
                continue;
            scenarios.push_back(std::move(sc));
        } catch (const std::exception& e) {
            std::fprintf(stderr, "simrunner: %s\n", e.what());
            ++load_failures;
        }
    }

    if (!opts.dump_dag_dir.empty()) {
        namespace fs = std::filesystem;
        std::error_code ec;
        fs::create_directories(opts.dump_dag_dir, ec);
        int dump_failures = 0;
        for (const driver::Scenario& sc : scenarios) {
            std::string name = sc.name;
            std::replace(name.begin(), name.end(), '/', '_');
            std::string base = opts.dump_dag_dir + "/" + name + ".dag";
            const driver::JsonValue dag = driver::dag_to_json(sc);
            bool ok = driver::json_write_file_atomic(dag, base + ".json",
                                                     /*indent=*/2);
            std::string dot = driver::dag_to_dot(sc);
            if (std::FILE* f = std::fopen((base + ".dot").c_str(), "w")) {
                ok &= std::fwrite(dot.data(), 1, dot.size(), f) ==
                      dot.size();
                ok &= std::fclose(f) == 0;
            } else {
                ok = false;
            }
            if (!ok) {
                std::fprintf(stderr, "simrunner: failed to write %s.*\n",
                             base.c_str());
                ++dump_failures;
                continue;
            }
            std::printf("%s: %zu task(s), %zu edge(s), %d stream(s) -> "
                        "%s.{json,dot}\n",
                        sc.name.c_str(), sc.kernels.size(),
                        dag.find("edges")->as_array().size(),
                        static_cast<int>(dag.find("num_streams")->as_int()),
                        base.c_str());
        }
        return (load_failures || dump_failures) ? 1 : 0;
    }

    if (opts.list) {
        TextTable t;
        t.set_header({"scenario", "kernels", "gpu", "file"});
        for (const driver::Scenario& sc : scenarios)
            t.add_row({sc.name, std::to_string(sc.kernels.size()),
                       sc.gpu_preset, sc.file});
        std::printf("%s", t.render().c_str());
        return load_failures ? 1 : 0;
    }

    if (scenarios.empty()) {
        std::fprintf(stderr, "simrunner: no scenarios to run\n");
        return 1;
    }

    driver::BatchOptions batch;
    batch.jobs = opts.jobs;
    batch.fail_fast = opts.fail_fast;
    batch.sim_threads = opts.sim_threads;
    batch.cold_sweep = opts.cold_sweep;
    batch.timeout_ms = opts.timeout_ms;
    ReplayCache replay_cache;
    if (opts.replay_mode >= 0) {
        if (!opts.replay_cache_dir.empty()) {
            size_t merged = 0;
            try {
                merged = replay_cache.load_dir(opts.replay_cache_dir);
            } catch (const std::exception& e) {
                std::fprintf(stderr,
                             "simrunner: cannot load replay cache %s: %s\n",
                             opts.replay_cache_dir.c_str(), e.what());
                return 1;
            }
            if (merged > 0)
                std::printf("replay cache: merged %zu file(s) from %s "
                            "(%zu profile(s))\n",
                            merged, opts.replay_cache_dir.c_str(),
                            replay_cache.size());
        }
        batch.replay.mode = opts.replay_mode;
        batch.replay.cache = &replay_cache;
    }
    int jobs = driver::effective_jobs(batch, scenarios);
    std::printf("running %zu scenario(s) on %d batch worker(s)",
                scenarios.size(), jobs);
    if (jobs < opts.jobs)
        std::printf(" (clamped from %d: shared budget with sim threads)",
                    opts.jobs);
    if (opts.sim_threads >= 0)
        std::printf(", %d sim thread(s) per scenario", opts.sim_threads);
    std::printf("%s\n", opts.fail_fast ? " (fail-fast)" : "");
    driver::BatchReport report = driver::run_batch(scenarios, batch);

    for (const driver::ScenarioResult& r : report.results)
        print_result(r, opts.quiet);

    // Aggregate report: one line per scenario with its wall time, so
    // slow scenarios are visible without digging through the JSON.
    // Suppressed by --quiet (which promises summary-and-failures only);
    // the JSON report carries per-scenario wall_ms either way.
    if (!opts.quiet) {
        char wall[32], tps[32], thr[16];
        TextTable agg;
        agg.set_header({"scenario", "status", "wall ms", "ticks/s",
                        "sim thr"});
        // Cap the name column so one long scenario name cannot push
        // the numeric columns past the terminal edge and wrap rows
        // out of alignment.
        agg.set_max_col_width(0, 48);
        for (const driver::ScenarioResult& r : report.results) {
            std::snprintf(wall, sizeof(wall), "%.1f", r.wall_ms);
            std::snprintf(tps, sizeof(tps), "%.3g", r.ticks_per_sec);
            std::snprintf(thr, sizeof(thr), "%d", r.sim_threads);
            agg.add_row({r.name,
                         r.skipped ? "SKIP" : (r.passed ? "PASS" : "FAIL"),
                         wall, r.skipped ? "-" : tps, thr});
        }
        std::printf("\n%s", agg.render().c_str());
    }

    int failed = report.failed() + load_failures;
    std::printf("\n%zu scenario(s), %d failed, %d skipped, %.1f ms wall "
                "(%d jobs)\n",
                report.results.size(), failed, report.skipped(),
                report.wall_ms, report.jobs);

    if (opts.replay_mode >= 0) {
        uint64_t hits = 0, misses = 0;
        for (const driver::ScenarioResult& r : report.results) {
            hits += r.totals.replay_hits;
            misses += r.totals.replay_misses;
        }
        std::printf("replay: %llu hit(s), %llu miss(es), %zu profile(s) "
                    "cached\n",
                    static_cast<unsigned long long>(hits),
                    static_cast<unsigned long long>(misses),
                    replay_cache.size());
        if (!opts.replay_cache_dir.empty()) {
            namespace fs = std::filesystem;
            std::error_code ec;
            fs::create_directories(opts.replay_cache_dir, ec);
            const std::string path =
                opts.replay_cache_dir + "/profiles.rpc";
            if (replay_cache.save_file(path)) {
                std::printf("wrote %s\n", path.c_str());
            } else {
                std::fprintf(stderr, "simrunner: failed to write %s\n",
                             path.c_str());
                ++failed;
            }
        }
    }

    if (!opts.trace_out_dir.empty())
        failed += write_trace_files(report, opts.trace_out_dir);

    if (!opts.report_path.empty()) {
        // A vanished report artifact must not look like a green run.
        if (driver::write_report_file(report, opts.report_path))
            std::printf("wrote %s\n", opts.report_path.c_str());
        else
            ++failed;
    }

    return failed == 0 ? 0 : 1;
}
