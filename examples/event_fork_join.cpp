/**
 * @file
 * Events & synchronization walkthrough: a fork-join pipeline built
 * with the CUDA-runtime-style API —
 *
 *   - Stream::record / Stream::wait chain a producer GEMM into two
 *     concurrent consumer branches and a joining head kernel;
 *   - Event::elapsed_cycles times the branch phase, the analog of
 *     cudaEventElapsedTime;
 *   - Stream::add_callback fires a host-side hook when the producer
 *     retires;
 *   - Gpu::run_until advances the run incrementally (a service-style
 *     resumable simulation), and Gpu::synchronize(event) finishes the
 *     phase of interest before the full drain.
 */

#include <cstdio>

#include "kernels/gemm_kernels.h"
#include "sim/gpu.h"

using namespace tcsim;

namespace {

KernelDesc
gemm(Gpu* gpu, int m, int n, int k, const char* name)
{
    GemmKernelConfig cfg;
    cfg.m = m;
    cfg.n = n;
    cfg.k = k;
    cfg.functional = false;
    GemmProblem<float> prob(m, n, k, cfg.a_layout, cfg.b_layout);
    GemmBuffers buf = prob.upload(&gpu->mem());
    KernelDesc kd = make_wmma_gemm_shared(cfg, buf);
    kd.name = name;
    return kd;
}

}  // namespace

int
main()
{
    GpuConfig cfg = titan_v_config();
    cfg.num_sms = 8;  // Underfill the chip so branches overlap.
    Gpu gpu(cfg);

    Stream& producer = gpu.create_stream();
    Stream& branch_a = gpu.create_stream();
    Stream& branch_b = gpu.create_stream();

    Event& fork = gpu.create_event("fork");
    Event& a_done = gpu.create_event("a_done");
    Event& b_done = gpu.create_event("b_done");

    // Producer: one conv-shaped GEMM, then the fork point.
    producer.enqueue(gemm(&gpu, 128, 128, 128, "conv"));
    producer.add_callback([](uint64_t cycle) {
        std::printf("[callback] producer drained at cycle %llu\n",
                    static_cast<unsigned long long>(cycle));
    });
    producer.record(fork);

    // Two consumer branches, gated on the fork event.
    branch_a.wait(fork);
    branch_a.enqueue(gemm(&gpu, 64, 128, 128, "branch_a"));
    branch_a.record(a_done);

    branch_b.wait(fork);
    branch_b.enqueue(gemm(&gpu, 64, 128, 128, "branch_b"));
    branch_b.record(b_done);

    // Join: the head kernel waits for both branches.
    producer.wait(a_done);
    producer.wait(b_done);
    producer.enqueue(gemm(&gpu, 64, 64, 256, "head"));

    // Advance incrementally: peek at the first 15k cycles...
    RunProgress peek = gpu.run_until(15000);
    std::printf("after run_until(15000): %llu kernel(s) retired, engine "
                "paused at cycle %llu\n",
                static_cast<unsigned long long>(peek.kernels_retired),
                static_cast<unsigned long long>(peek.current_cycle));

    // ...then finish the branch phase and time it with events.
    gpu.synchronize(a_done);
    gpu.synchronize(b_done);
    uint64_t branch_phase = Event::elapsed_cycles(
        fork, a_done.cycle() > b_done.cycle() ? a_done : b_done);
    std::printf("branch phase (fork -> slower branch): %llu cycles\n",
                static_cast<unsigned long long>(branch_phase));

    // Drain the join and report per-kernel windows.
    EngineStats es = gpu.run();
    for (const LaunchStats& k : es.kernels)
        std::printf("  %-9s stream %d  [%8llu, %8llu]  ipc %.2f\n",
                    k.kernel.c_str(), k.stream,
                    static_cast<unsigned long long>(k.start_cycle),
                    static_cast<unsigned long long>(k.finish_cycle), k.ipc);
    std::printf("total: %llu cycles (%llu stalled cycles skipped by the "
                "event-driven loop)\n",
                static_cast<unsigned long long>(es.cycles),
                static_cast<unsigned long long>(es.skipped_cycles));

    // The branches must have overlapped: same start cycle.
    const LaunchStats *a = nullptr, *b = nullptr;
    for (const LaunchStats& k : es.kernels) {
        if (k.kernel == "branch_a")
            a = &k;
        if (k.kernel == "branch_b")
            b = &k;
    }
    if (!a || !b || a->start_cycle != b->start_cycle) {
        std::printf("FAIL: branches did not overlap\n");
        return 1;
    }
    std::printf("OK: branches forked together at cycle %llu\n",
                static_cast<unsigned long long>(a->start_cycle));
    return 0;
}
