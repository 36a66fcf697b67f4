/**
 * @file
 * Stream overlap demo: four small WMMA GEMMs that underfill the chip
 * individually, launched (a) back-to-back on one stream and (b) on
 * four concurrent streams.  Prints per-kernel cycle windows, IPC and
 * TFLOPS plus aggregate statistics, showing how the stream-aware
 * engine extends the paper's single-launch evaluation (Figs 14-17) to
 * realistic overlapped schedules.
 *
 * Build & run:
 *   cmake -B build -S . && cmake --build build -j
 *   ./build/stream_overlap
 */

#include <cstdio>
#include <string>
#include <vector>

#include "kernels/gemm_kernels.h"
#include "metrics/metrics.h"
#include "sim/gpu.h"

using namespace tcsim;

namespace {

struct Workload
{
    std::string name;
    int m, n, k;
    GemmProblem<float> prob;
    GemmBuffers buf;
    double flops;

    Workload(const std::string& name_, int m_, int n_, int k_)
        : name(name_), m(m_), n(n_), k(k_),
          prob(m_, n_, k_, Layout::kRowMajor, Layout::kRowMajor),
          flops(prob.flops())
    {
    }

    KernelDesc kernel() const
    {
        GemmKernelConfig cfg;
        cfg.m = m;
        cfg.n = n;
        cfg.k = k;
        cfg.functional = false;  // timing study
        KernelDesc kd = make_wmma_gemm_shared(cfg, buf);
        kd.name = name;
        return kd;
    }
};

GpuConfig
chip()
{
    GpuConfig cfg = titan_v_config();
    cfg.num_sms = 8;  // a Titan V slice the small GEMMs underfill
    return cfg;
}

std::vector<Workload>
make_workloads()
{
    std::vector<Workload> w;
    w.emplace_back("gemm_128", 128, 128, 128);
    w.emplace_back("gemm_128b", 128, 128, 128);
    w.emplace_back("gemm_64x256", 64, 256, 128);
    w.emplace_back("gemm_192", 192, 192, 64);
    return w;
}

EngineStats
run_schedule(bool overlapped, double* total_flops)
{
    Gpu gpu(chip());
    std::vector<Workload> work = make_workloads();
    *total_flops = 0.0;
    for (Workload& w : work) {
        w.buf = w.prob.upload(&gpu.mem());
        *total_flops += w.flops;
        Stream& s = overlapped ? gpu.create_stream() : gpu.default_stream();
        s.enqueue(w.kernel());
    }
    return gpu.run();
}

void
print_run(const char* title, const EngineStats& es, double total_flops,
          double clock_ghz)
{
    std::printf("\n=== %s ===\n", title);
    std::vector<Workload> work = make_workloads();
    std::vector<double> flops;
    for (const LaunchStats& k : es.kernels) {
        double f = 0.0;
        for (const Workload& w : work)
            if (w.name == k.kernel)
                f = w.flops;
        flops.push_back(f);
    }
    std::printf("%s", metrics::launch_table(es.kernels, flops, clock_ghz)
                          .render()
                          .c_str());
    std::printf("aggregate: %llu cycles, IPC %.2f, %.2f TFLOPS "
                "(%llu ticks simulated, %llu stalled cycles skipped)\n",
                static_cast<unsigned long long>(es.cycles), es.ipc,
                es.tflops(total_flops, clock_ghz),
                static_cast<unsigned long long>(es.ticks),
                static_cast<unsigned long long>(es.skipped_cycles));
}

}  // namespace

int
main()
{
    GpuConfig cfg = chip();
    std::printf("Stream overlap on a %d-SM %s slice\n", cfg.num_sms,
                cfg.name.c_str());

    double flops_serial = 0.0, flops_overlap = 0.0;
    EngineStats serial = run_schedule(false, &flops_serial);
    EngineStats overlap = run_schedule(true, &flops_overlap);

    print_run("serial: one stream, back-to-back", serial, flops_serial,
              cfg.clock_ghz);
    print_run("overlapped: one stream per kernel", overlap, flops_overlap,
              cfg.clock_ghz);

    double speedup = static_cast<double>(serial.cycles) /
                     static_cast<double>(overlap.cycles);
    std::printf("\noverlap speedup: %.2fx (%llu -> %llu cycles)\n", speedup,
                static_cast<unsigned long long>(serial.cycles),
                static_cast<unsigned long long>(overlap.cycles));
    return overlap.cycles < serial.cycles ? 0 : 1;
}
