/**
 * @file
 * Task-graph compiler tests: hazard derivation (RAW/WAR/WAW, no edge
 * for read-after-read), view-declared overlap, multi-writer and
 * undeclared-aliasing rejection (with source line:col through the
 * scenario layer), diamond stream coloring and event placement,
 * Gpu::launch_graph cycle identity against the hand-written plan and
 * its event naming, the declarative scenario frontend, and the
 * --dump-dag JSON round-trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <regex>

#include "driver/json.h"
#include "driver/runner.h"
#include "driver/scenario.h"
#include "driver/taskgraph.h"
#include "kernels/gemm_kernels.h"
#include "sim/gpu.h"
#include "sim/graph/task_graph.h"

using namespace tcsim;
using namespace tcsim::driver;

namespace {

bool
has_edge(const TaskGraph::Compiled& plan, int from, int to, HazardKind kind)
{
    return std::any_of(plan.edges.begin(), plan.edges.end(),
                       [&](const TaskGraph::Edge& e) {
                           return e.from == from && e.to == to &&
                                  e.kind == kind;
                       });
}

bool
has_any_edge(const TaskGraph::Compiled& plan, int from, int to)
{
    return std::any_of(plan.edges.begin(), plan.edges.end(),
                       [&](const TaskGraph::Edge& e) {
                           return e.from == from && e.to == to;
                       });
}

/** The message carries a "<line>:<col>:" source position. */
bool
has_line_col(const std::string& msg)
{
    static const std::regex re("(^|:)[0-9]+:[0-9]+:");
    return std::regex_search(msg, re);
}

}  // namespace

// ---- Hazard derivation --------------------------------------------------

TEST(TaskGraph, RawEdgeSharesStream)
{
    TaskGraph g;
    int t = g.declare_tensor("T", 1024);
    int u = g.declare_tensor("U", 1024);
    int a = g.add_task("a");
    g.task_writes(a, t);
    int b = g.add_task("b");
    g.task_reads(b, t);
    g.task_writes(b, u);

    TaskGraph::Compiled plan = g.compile();
    EXPECT_TRUE(has_edge(plan, a, b, HazardKind::kRaw));
    // A chain needs one stream and zero events.
    EXPECT_EQ(plan.num_streams, 1);
    EXPECT_EQ(plan.stream_of[0], plan.stream_of[1]);
    EXPECT_TRUE(plan.record_event[static_cast<size_t>(a)].empty());
    EXPECT_TRUE(plan.wait_events[static_cast<size_t>(b)].empty());
}

TEST(TaskGraph, WarEdgeOrdersWriterAfterReader)
{
    TaskGraph g;
    int t = g.declare_tensor("T", 1024);
    int u = g.declare_tensor("U", 1024);
    int reader = g.add_task("reader");
    g.task_reads(reader, t);
    g.task_writes(reader, u);
    int writer = g.add_task("writer");
    g.task_writes(writer, t);

    TaskGraph::Compiled plan = g.compile();
    EXPECT_TRUE(has_edge(plan, reader, writer, HazardKind::kWar));
    EXPECT_FALSE(has_any_edge(plan, writer, reader));
}

TEST(TaskGraph, WawAllowedWhenReadConsumesBetween)
{
    // write T -> read-modify-write T: the interleaved read disambiguates
    // the double write, so it compiles with both RAW and WAW edges.
    TaskGraph g;
    int t = g.declare_tensor("T", 1024);
    int init = g.add_task("init");
    g.task_writes(init, t);
    int rmw = g.add_task("rmw");
    g.task_reads(rmw, t);
    g.task_writes(rmw, t);

    TaskGraph::Compiled plan = g.compile();
    EXPECT_TRUE(has_edge(plan, init, rmw, HazardKind::kRaw));
    EXPECT_TRUE(has_edge(plan, init, rmw, HazardKind::kWaw));
}

TEST(TaskGraph, ReadAfterReadNeedsNoEdge)
{
    TaskGraph g;
    int t = g.declare_tensor("T", 1024);
    int u = g.declare_tensor("U", 1024);
    int v = g.declare_tensor("V", 1024);
    int r1 = g.add_task("r1");
    g.task_reads(r1, t);
    g.task_writes(r1, u);
    int r2 = g.add_task("r2");
    g.task_reads(r2, t);
    g.task_writes(r2, v);

    TaskGraph::Compiled plan = g.compile();
    EXPECT_FALSE(has_any_edge(plan, r1, r2));
    EXPECT_FALSE(has_any_edge(plan, r2, r1));
    // Independent readers overlap on separate streams.
    EXPECT_EQ(plan.num_streams, 2);
    EXPECT_NE(plan.stream_of[0], plan.stream_of[1]);
}

TEST(TaskGraph, DisjointViewsOverlapOnlyWithBase)
{
    // Two writers of disjoint halves run in parallel; a reader of the
    // whole tensor orders after both.
    TaskGraph g;
    int base = g.declare_tensor("A", 2048);
    int lo = g.declare_view("A_lo", base, 0, 1024);
    int hi = g.declare_view("A_hi", base, 1024, 1024);
    int out = g.declare_tensor("OUT", 1024);
    int wlo = g.add_task("wlo");
    g.task_writes(wlo, lo);
    int whi = g.add_task("whi");
    g.task_writes(whi, hi);
    int rd = g.add_task("rd");
    g.task_reads(rd, base);
    g.task_writes(rd, out);

    TaskGraph::Compiled plan = g.compile();
    EXPECT_FALSE(has_any_edge(plan, wlo, whi));
    EXPECT_TRUE(has_edge(plan, wlo, rd, HazardKind::kRaw));
    EXPECT_TRUE(has_edge(plan, whi, rd, HazardKind::kRaw));
    EXPECT_NE(plan.stream_of[0], plan.stream_of[1]);
    // Exactly one cross-stream edge needs an event (the other rides
    // the reader's own stream order).
    int events = 0;
    for (const TaskGraph::Edge& e : plan.edges)
        if (e.needs_event)
            ++events;
    EXPECT_EQ(events, 1);
}

TEST(TaskGraph, DiamondColorsTwoStreamsAndPlacesEvents)
{
    // a -> {b, c} -> d: b shares a's stream, c gets its own, and the
    // two cross-stream edges (a->c, c->d) each carry one event.
    TaskGraph g;
    int t = g.declare_tensor("T", 1024);
    int u = g.declare_tensor("U", 1024);
    int v = g.declare_tensor("V", 1024);
    int w = g.declare_tensor("W", 1024);
    int a = g.add_task("a");
    g.task_writes(a, t);
    int b = g.add_task("b");
    g.task_reads(b, t);
    g.task_writes(b, u);
    int c = g.add_task("c");
    g.task_reads(c, t);
    g.task_writes(c, v);
    int d = g.add_task("d");
    g.task_reads(d, u);
    g.task_reads(d, v);
    g.task_writes(d, w);

    TaskGraph::Compiled plan = g.compile();
    EXPECT_EQ(plan.num_streams, 2);
    EXPECT_EQ(plan.stream_of[static_cast<size_t>(a)], 1);
    EXPECT_EQ(plan.stream_of[static_cast<size_t>(b)], 1);
    EXPECT_EQ(plan.stream_of[static_cast<size_t>(c)], 2);
    EXPECT_EQ(plan.stream_of[static_cast<size_t>(d)], 1);
    EXPECT_EQ(plan.record_event[static_cast<size_t>(a)], "a_done");
    EXPECT_EQ(plan.record_event[static_cast<size_t>(c)], "c_done");
    ASSERT_EQ(plan.wait_events[static_cast<size_t>(c)].size(), 1u);
    EXPECT_EQ(plan.wait_events[static_cast<size_t>(c)][0], "a_done");
    ASSERT_EQ(plan.wait_events[static_cast<size_t>(d)].size(), 1u);
    EXPECT_EQ(plan.wait_events[static_cast<size_t>(d)][0], "c_done");
    // b -> d rides stream order; a -> b likewise.
    EXPECT_TRUE(plan.wait_events[static_cast<size_t>(b)].empty());
}

TEST(TaskGraph, TransitiveEdgeEmitsNoEvent)
{
    // a -> b -> c plus the direct hazard a -> c: the direct edge is
    // implied and must not wait on a second event.
    TaskGraph g;
    int t = g.declare_tensor("T", 1024);
    int u = g.declare_tensor("U", 1024);
    int a = g.add_task("a");
    g.task_writes(a, t);
    int b = g.add_task("b");
    g.task_reads(b, t);
    g.task_writes(b, u);
    int c = g.add_task("c");
    g.task_reads(c, t);
    g.task_reads(c, u);
    g.task_writes(c, t);

    TaskGraph::Compiled plan = g.compile();
    EXPECT_TRUE(has_any_edge(plan, a, c));
    // One chain, one stream: no events at all.
    EXPECT_EQ(plan.num_streams, 1);
    for (const TaskGraph::Edge& e : plan.edges)
        EXPECT_FALSE(e.needs_event);
}

TEST(TaskGraph, CompileIsDeterministic)
{
    TaskGraph g;
    int t = g.declare_tensor("T", 4096);
    std::vector<int> outs;
    for (int i = 0; i < 6; ++i)
        outs.push_back(g.declare_tensor("O" + std::to_string(i), 1024));
    int src = g.add_task("src");
    g.task_writes(src, t);
    for (int i = 0; i < 6; ++i) {
        int k = g.add_task("k" + std::to_string(i));
        g.task_reads(k, t);
        g.task_writes(k, outs[static_cast<size_t>(i)]);
    }
    TaskGraph::Compiled p1 = g.compile();
    TaskGraph::Compiled p2 = g.compile();
    EXPECT_EQ(p1.stream_of, p2.stream_of);
    EXPECT_EQ(p1.record_event, p2.record_event);
    EXPECT_EQ(p1.wait_events, p2.wait_events);
    EXPECT_EQ(p1.edges.size(), p2.edges.size());
}

// ---- Rejection ----------------------------------------------------------

TEST(TaskGraph, RejectsBlindDoubleWrite)
{
    TaskGraph g;
    int t = g.declare_tensor("T", 1024);
    int w1 = g.add_task("w1");
    g.task_writes(w1, t);
    int w2 = g.add_task("w2");
    g.task_writes(w2, t);
    try {
        g.compile();
        FAIL() << "expected TaskGraphError";
    } catch (const TaskGraphError& e) {
        EXPECT_EQ(e.task(), w2);
        EXPECT_NE(std::string(e.what()).find("multi-writer"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TaskGraph, RejectsUndeclaredAliasing)
{
    TaskGraph g;
    g.place_tensor("A", 0, 2048);
    int b = g.place_tensor("B", 1024, 1024);  // Overlaps A, not a view.
    int k = g.add_task("k");
    g.task_writes(k, b);
    try {
        g.compile();
        FAIL() << "expected TaskGraphError";
    } catch (const TaskGraphError& e) {
        EXPECT_EQ(e.tensor(), b);
        EXPECT_NE(std::string(e.what()).find("alias"), std::string::npos)
            << e.what();
    }
}

TEST(TaskGraph, RejectsViewOutsideBase)
{
    TaskGraph g;
    int base = g.declare_tensor("A", 1024);
    EXPECT_THROW(g.declare_view("V", base, 512, 1024), TaskGraphError);
}

TEST(TaskGraph, RejectsTaskTouchingNothing)
{
    TaskGraph g;
    g.declare_tensor("T", 1024);
    g.add_task("idle");
    EXPECT_THROW(g.compile(), TaskGraphError);
}

// ---- Gpu::launch_graph --------------------------------------------------

namespace {

GpuConfig
small_titan_v(int sms)
{
    GpuConfig cfg = titan_v_config();
    cfg.num_sms = sms;
    return cfg;
}

KernelDesc
small_gemm(Gpu* gpu, GemmProblem<float>* prob, const char* name)
{
    GemmKernelConfig cfg;
    cfg.m = prob->m();
    cfg.n = prob->n();
    cfg.k = prob->k();
    KernelDesc kd = make_wmma_gemm_shared(cfg, prob->upload(&gpu->mem()));
    kd.name = name;
    return kd;
}

/** A timing-only wmma_shared GEMM on buffers allocated the way the
 *  scenario runner allocates them: A, B, C, D in order, FP16 operands
 *  and FP32 accumulators. */
KernelDesc
timing_gemm(Gpu* gpu, int m, int n, int k, const char* name)
{
    const uint64_t mn = static_cast<uint64_t>(m) * n;
    GemmBuffers buf;
    buf.a = gpu->mem().alloc(static_cast<uint64_t>(m) * k * 2);
    buf.b = gpu->mem().alloc(static_cast<uint64_t>(k) * n * 2);
    buf.c = gpu->mem().alloc(mn * 4);
    buf.d = gpu->mem().alloc(mn * 4);
    GemmKernelConfig cfg;
    cfg.m = m;
    cfg.n = n;
    cfg.k = k;
    cfg.functional = false;
    KernelDesc kd = make_wmma_gemm_shared(cfg, buf);
    kd.name = name;
    return kd;
}

}  // namespace

TEST(LaunchGraph, ForkJoinMatchesHandWrittenPlan)
{
    // conv -> {branch_a, branch_b} -> head, built once declaratively
    // and once with the streams/events the compiler is expected to
    // derive. Cycle timing must be bit-identical.
    GemmProblem<float> conv_p(128, 128, 128, Layout::kRowMajor,
                              Layout::kRowMajor);
    GemmProblem<float> branch_p(64, 128, 128, Layout::kRowMajor,
                                Layout::kRowMajor);
    GemmProblem<float> head_p(64, 64, 256, Layout::kRowMajor,
                              Layout::kRowMajor);

    TaskGraph g;
    int x = g.declare_tensor("X", 32768);
    int act = g.declare_tensor("ACT", 32768);
    int ba = g.declare_tensor("Ba", 16384);
    int bb = g.declare_tensor("Bb", 16384);
    int out = g.declare_tensor("OUT", 8192);
    int conv = g.add_task("conv");
    g.task_reads(conv, x);
    g.task_writes(conv, act);
    int branch_a = g.add_task("branch_a");
    g.task_reads(branch_a, act);
    g.task_writes(branch_a, ba);
    int branch_b = g.add_task("branch_b");
    g.task_reads(branch_b, act);
    g.task_writes(branch_b, bb);
    int head = g.add_task("head");
    g.task_reads(head, ba);
    g.task_reads(head, bb);
    g.task_writes(head, out);

    Gpu gpu1(small_titan_v(4));
    std::vector<KernelDesc> kernels;
    kernels.push_back(small_gemm(&gpu1, &conv_p, "conv"));
    kernels.push_back(small_gemm(&gpu1, &branch_p, "branch_a"));
    kernels.push_back(small_gemm(&gpu1, &branch_p, "branch_b"));
    kernels.push_back(small_gemm(&gpu1, &head_p, "head"));
    TaskGraph::Compiled plan = g.compile();
    gpu1.launch_graph(plan, std::move(kernels));
    EngineStats derived = gpu1.run();

    // The plan the compiler must derive: conv/branch_a/head chained on
    // stream 1, branch_b on stream 2 gated by conv's event, head
    // waiting for branch_b's event.
    EXPECT_EQ(plan.num_streams, 2);
    EXPECT_EQ(plan.stream_of[static_cast<size_t>(conv)], 1);
    EXPECT_EQ(plan.stream_of[static_cast<size_t>(branch_a)], 1);
    EXPECT_EQ(plan.stream_of[static_cast<size_t>(branch_b)], 2);
    EXPECT_EQ(plan.stream_of[static_cast<size_t>(head)], 1);

    Gpu gpu2(small_titan_v(4));
    Stream& s1 = gpu2.create_stream();
    Stream& s2 = gpu2.create_stream();
    Event& conv_done = gpu2.create_event("conv_done");
    Event& bb_done = gpu2.create_event("branch_b_done");
    s1.enqueue(small_gemm(&gpu2, &conv_p, "conv"));
    s1.record(conv_done);
    s1.enqueue(small_gemm(&gpu2, &branch_p, "branch_a"));
    s2.wait(conv_done);
    s2.enqueue(small_gemm(&gpu2, &branch_p, "branch_b"));
    s2.record(bb_done);
    s1.wait(bb_done);
    s1.enqueue(small_gemm(&gpu2, &head_p, "head"));
    EngineStats manual = gpu2.run();

    EXPECT_EQ(derived.cycles, manual.cycles);
    ASSERT_EQ(derived.kernels.size(), manual.kernels.size());
    for (size_t i = 0; i < derived.kernels.size(); ++i) {
        EXPECT_EQ(derived.kernels[i].cycles, manual.kernels[i].cycles) << i;
        EXPECT_EQ(derived.kernels[i].start_cycle,
                  manual.kernels[i].start_cycle)
            << i;
        EXPECT_EQ(derived.kernels[i].finish_cycle,
                  manual.kernels[i].finish_cycle)
            << i;
        EXPECT_EQ(derived.kernels[i].stalls.counts,
                  manual.kernels[i].stalls.counts)
            << i;
    }
}

TEST(LaunchGraph, EventsKeepThePlanNames)
{
    // Each event is named after its producer task alone, so tasks
    // already carrying a namespace prefix ("b0.") are not prefixed
    // again: "b0.root_done", never "b0.b0.root_done".
    TaskGraph g;
    const int x = g.declare_tensor("b0.x", 256);
    const int a = g.declare_tensor("b0.a", 256);
    const int b = g.declare_tensor("b0.b", 256);
    const int out = g.declare_tensor("b0.out", 256);
    const int root = g.add_task("b0.root");
    g.task_writes(root, x);
    const int left = g.add_task("b0.left");
    g.task_reads(left, x);
    g.task_writes(left, a);
    const int right = g.add_task("b0.right");
    g.task_reads(right, x);
    g.task_writes(right, b);
    const int join = g.add_task("b0.join");
    g.task_reads(join, a);
    g.task_reads(join, b);
    g.task_writes(join, out);

    Gpu gpu(small_titan_v(4));
    std::vector<KernelDesc> descs;
    for (int t = 0; t < 4; ++t)
        descs.push_back(make_hmma_stress(Arch::kVolta, TcMode::kMixed, 1, 2,
                                         16, 4));
    gpu.launch_graph(g.compile(), std::move(descs));
    const Event* root_done = gpu.find_event("b0.root_done");
    ASSERT_NE(root_done, nullptr);
    EXPECT_NE(gpu.find_event("b0.right_done"), nullptr);
    EXPECT_EQ(gpu.find_event("b0.b0.root_done"), nullptr);
    gpu.run();
    EXPECT_TRUE(root_done->complete());
}

TEST(LaunchGraph, RejectsKernelCountMismatch)
{
    TaskGraph g;
    int t = g.declare_tensor("T", 1024);
    int a = g.add_task("a");
    g.task_writes(a, t);

    Gpu gpu(small_titan_v(1));
    EXPECT_THROW(gpu.launch_graph(g.compile(), {}), std::invalid_argument);
}

// ---- Declarative scenario frontend --------------------------------------

TEST(ScenarioTaskGraph, CompilesDeclarativeForm)
{
    Scenario sc = parse_scenario_text(R"({
      "name": "decl",
      "gpu": {"preset": "titan_v", "num_sms": 2},
      "tensors": [
        {"name": "T", "bytes": 1024},
        {"name": "U", "bytes": 1024},
        {"name": "V", "bytes": 1024}
      ],
      "kernels": [
        {"kernel": "hmma_stress", "name": "p", "writes": ["T"]},
        {"kernel": "hmma_stress", "name": "c1",
         "reads": ["T"], "writes": ["U"]},
        {"kernel": "hmma_stress", "name": "c2",
         "reads": ["T"], "writes": ["V"]}
      ]
    })");
    EXPECT_TRUE(sc.declarative);
    EXPECT_EQ(sc.plan.num_streams, 2);
    EXPECT_EQ(sc.stream_of(0), 1);
    EXPECT_EQ(sc.stream_of(1), 1);
    EXPECT_EQ(sc.stream_of(2), 2);
    EXPECT_EQ(sc.plan.record_event[0], "p_done");
    ASSERT_EQ(sc.plan.wait_events[2].size(), 1u);
    EXPECT_EQ(sc.plan.wait_events[2][0], "p_done");
    // The arena resolved every tensor to a concrete address.
    ASSERT_EQ(sc.tensors.size(), 3u);
    EXPECT_NE(sc.tensors[1].address, sc.tensors[0].address);
    // And the compiled scenario actually runs.
    ScenarioResult r = run_scenario(sc);
    EXPECT_TRUE(r.passed) << r.error;
}

TEST(ScenarioTaskGraph, RejectsStreamKeysInDeclarativeForm)
{
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "tensors": [{"name": "T", "bytes": 64}],
      "kernels": [
        {"kernel": "hmma_stress", "name": "k", "writes": ["T"],
         "stream": 1}
      ]
    })"),
                 ScenarioError);
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "tensors": [{"name": "T", "bytes": 64}],
      "kernels": [
        {"kernel": "hmma_stress", "name": "k", "writes": ["T"],
         "sync": true}
      ]
    })"),
                 ScenarioError);
}

TEST(ScenarioTaskGraph, RejectsSweepInDeclarativeForm)
{
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "tensors": [{"name": "T", "bytes": 64}],
      "kernels": [
        {"kernel": "hmma_stress", "name": "k", "writes": ["T"]}
      ],
      "sweep": {"fork_cycle": 0, "points": []}
    })"),
                 ScenarioError);
}

TEST(ScenarioTaskGraph, MultiWriterRejectionCarriesLineCol)
{
    try {
        parse_scenario_text(R"({
          "name": "s",
          "tensors": [{"name": "T", "bytes": 64}],
          "kernels": [
            {"kernel": "hmma_stress", "name": "w1", "writes": ["T"]},
            {"kernel": "hmma_stress", "name": "w2", "writes": ["T"]}
          ]
        })");
        FAIL() << "expected ScenarioError";
    } catch (const ScenarioError& e) {
        std::string msg = e.what();
        EXPECT_TRUE(has_line_col(msg)) << msg;
        EXPECT_NE(msg.find("multi-writer"), std::string::npos) << msg;
    }
}

TEST(ScenarioTaskGraph, UndeclaredAliasingRejectionCarriesLineCol)
{
    try {
        parse_scenario_text(R"({
          "name": "s",
          "tensors": [
            {"name": "A", "address": 0, "bytes": 2048},
            {"name": "B", "address": 1024, "bytes": 1024}
          ],
          "kernels": [
            {"kernel": "hmma_stress", "name": "k", "writes": ["B"]}
          ]
        })");
        FAIL() << "expected ScenarioError";
    } catch (const ScenarioError& e) {
        std::string msg = e.what();
        EXPECT_TRUE(has_line_col(msg)) << msg;
        EXPECT_NE(msg.find("alias"), std::string::npos) << msg;
    }
}

TEST(ScenarioTaskGraph, UnknownTensorRejectionCarriesLineCol)
{
    try {
        parse_scenario_text(R"({
          "name": "s",
          "tensors": [{"name": "T", "bytes": 64}],
          "kernels": [
            {"kernel": "hmma_stress", "name": "k", "writes": ["ghost"]}
          ]
        })");
        FAIL() << "expected ScenarioError";
    } catch (const ScenarioError& e) {
        std::string msg = e.what();
        EXPECT_TRUE(has_line_col(msg)) << msg;
        EXPECT_NE(msg.find("ghost"), std::string::npos) << msg;
    }
}

TEST(ScenarioTaskGraph, CompiledPlanMatchesHandWrittenScenarioCycles)
{
    // A tensor-parallel MLP layer in the declarative form must run
    // cycle-exactly like the streams and events written by hand on
    // the engine API: l1a and l1b on two streams, l2 behind l1a on
    // stream 1 and gated by l1b's event.
    Scenario decl = parse_scenario_text(R"({
      "name": "mlp_decl",
      "gpu": {"preset": "titan_v", "num_sms": 4},
      "tensors": [
        {"name": "X",  "bytes": 32768},
        {"name": "A1", "bytes": 32768},
        {"name": "A1a", "alias_of": "A1", "offset": 0, "bytes": 16384},
        {"name": "A1b", "alias_of": "A1", "offset": 16384, "bytes": 16384},
        {"name": "A2", "bytes": 16384}
      ],
      "kernels": [
        {"kernel": "wmma_shared", "name": "l1a", "m": 64, "n": 128,
         "k": 256, "reads": ["X"], "writes": ["A1a"]},
        {"kernel": "wmma_shared", "name": "l1b", "m": 64, "n": 128,
         "k": 256, "reads": ["X"], "writes": ["A1b"]},
        {"kernel": "wmma_shared", "name": "l2", "m": 64, "n": 64,
         "k": 256, "reads": ["A1"], "writes": ["A2"]}
      ]
    })");
    ScenarioResult rd = run_scenario(decl);
    ASSERT_TRUE(rd.error.empty()) << rd.error;

    Gpu gpu(small_titan_v(4));
    KernelDesc l1a = timing_gemm(&gpu, 64, 128, 256, "l1a");
    KernelDesc l1b = timing_gemm(&gpu, 64, 128, 256, "l1b");
    KernelDesc l2 = timing_gemm(&gpu, 64, 64, 256, "l2");
    Stream& s1 = gpu.create_stream();
    Stream& s2 = gpu.create_stream();
    Event& l1b_done = gpu.create_event("l1b_done");
    s1.enqueue(std::move(l1a));
    s2.enqueue(std::move(l1b));
    s2.record(l1b_done);
    s1.wait(l1b_done);
    s1.enqueue(std::move(l2));
    EngineStats manual = gpu.run();

    EXPECT_EQ(rd.totals.cycles, manual.cycles);
    EXPECT_EQ(rd.totals.stalls.counts, manual.stalls.counts);
    ASSERT_EQ(rd.kernels.size(), manual.kernels.size());
    for (size_t i = 0; i < rd.kernels.size(); ++i) {
        const LaunchStats& m = manual.kernels[i];
        EXPECT_EQ(rd.kernels[i].name, m.kernel);
        EXPECT_EQ(rd.kernels[i].stats.cycles, m.cycles) << m.kernel;
        EXPECT_EQ(rd.kernels[i].stats.start_cycle, m.start_cycle)
            << m.kernel;
        EXPECT_EQ(rd.kernels[i].stats.finish_cycle, m.finish_cycle)
            << m.kernel;
    }
}

// ---- DAG dump -----------------------------------------------------------

TEST(DagDump, JsonRoundTripsThroughDriverParser)
{
    Scenario sc = parse_scenario_text(R"({
      "name": "dump_me",
      "tensors": [
        {"name": "T", "bytes": 1024},
        {"name": "U", "bytes": 1024}
      ],
      "kernels": [
        {"kernel": "hmma_stress", "name": "p", "writes": ["T"]},
        {"kernel": "hmma_stress", "name": "c",
         "reads": ["T"], "writes": ["U"]}
      ]
    })");
    EXPECT_TRUE(sc.declarative);

    JsonValue doc = json_parse(dag_to_json(sc).dump());
    EXPECT_EQ(doc.find("scenario")->as_string(), "dump_me");
    EXPECT_EQ(doc.find("declarative")->as_bool(), true);
    EXPECT_EQ(doc.find("num_streams")->as_int(), 1);
    ASSERT_NE(doc.find("tasks"), nullptr);
    ASSERT_EQ(doc.find("tasks")->as_array().size(), 2u);
    const JsonValue& edge = doc.find("edges")->as_array().at(0);
    EXPECT_EQ(edge.find("from")->as_string(), "p");
    EXPECT_EQ(edge.find("to")->as_string(), "c");
    EXPECT_EQ(edge.find("kind")->as_string(), "raw");
    ASSERT_NE(doc.find("tensors"), nullptr);
    EXPECT_EQ(doc.find("tensors")->as_array().size(), 2u);

    std::string dot = dag_to_dot(sc);
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("\"p\" -> \"c\""), std::string::npos);
}

TEST(DagDump, PlainScenarioIsOneEdgelessStream)
{
    Scenario sc = parse_scenario_text(R"({
      "name": "plain_dag",
      "kernels": [
        {"kernel": "hmma_stress", "name": "p"},
        {"kernel": "hmma_stress", "name": "c"}
      ]
    })");
    EXPECT_FALSE(sc.declarative);
    EXPECT_TRUE(sc.plan.edges.empty());
    JsonValue doc = json_parse(dag_to_json(sc).dump());
    EXPECT_EQ(doc.find("declarative")->as_bool(), false);
    EXPECT_EQ(doc.find("num_streams")->as_int(), 1);
    EXPECT_TRUE(doc.find("edges")->as_array().empty());
    ASSERT_EQ(doc.find("tasks")->as_array().size(), 2u);
    EXPECT_EQ(doc.find("tasks")->as_array()[1].find("stream")->as_int(), 0);
}
