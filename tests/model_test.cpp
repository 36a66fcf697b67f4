/**
 * @file
 * Model-graph frontend tests: lowering of each layer kind to
 * GEMM-shaped launches (im2col/flattening identities, wmma tile
 * padding), activation chaining and its error cases, name prefixing
 * (the serving engine's per-wavefront namespace), every layer kind
 * lowering to a chain, and the scenario "model" key end-to-end through
 * the task-graph compiler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "driver/runner.h"
#include "driver/scenario.h"
#include "model/model_graph.h"
#include "sim/graph/task_graph.h"

using namespace tcsim;
using namespace tcsim::model;

namespace {

ModelGraph
mlp(int input, std::vector<int> widths, int tokens = 1)
{
    ModelGraph g;
    g.name = "mlp";
    g.tokens_per_request = tokens;
    g.input_features = input;
    for (size_t i = 0; i < widths.size(); ++i) {
        LayerSpec l;
        l.kind = LayerKind::kLinear;
        l.name = "fc" + std::to_string(i);
        l.out_features = widths[i];
        g.layers.push_back(l);
    }
    return g;
}

}  // namespace

TEST(ModelLowering, LinearShapesAndPadding)
{
    // 100 -> 60, batch 3, 1 token: every GEMM dim pads to the
    // wmma_shared tile grid (m,n % 64, k % 16 -- the lowering uses 64
    // for k too, the conservative choice valid for every family).
    ModelGraph g = mlp(100, {60});
    LoweredModel lm = lower_model(g, 3);
    ASSERT_EQ(lm.kernels.size(), 1u);
    const LoweredKernel& k = lm.kernels[0];
    EXPECT_EQ(k.family, "wmma_shared");
    EXPECT_EQ(k.m, 64);   // pad(3 rows)
    EXPECT_EQ(k.n, 64);   // pad(60)
    EXPECT_EQ(k.k, 128);  // pad(100)
    EXPECT_DOUBLE_EQ(k.flops, 2.0 * 64 * 64 * 128);
    EXPECT_DOUBLE_EQ(lm.total_flops, k.flops);

    // Tensors: input, weight, output -- with unpadded logical bytes.
    ASSERT_EQ(lm.tensors.size(), 3u);
    EXPECT_EQ(lm.tensors[0].name, "in");
    EXPECT_EQ(lm.tensors[0].bytes, 3u * 100 * 2);
    EXPECT_EQ(lm.tensors[1].name, "fc0.w");
    EXPECT_EQ(lm.tensors[1].bytes, 100u * 60 * 2);
    EXPECT_EQ(lm.tensors[2].name, "fc0.out");
    EXPECT_EQ(lm.tensors[2].bytes, 3u * 60 * 2);

    EXPECT_EQ(k.reads, (std::vector<std::string>{"in", "fc0.w"}));
    EXPECT_EQ(k.writes, (std::vector<std::string>{"fc0.out"}));
}

TEST(ModelLowering, ChainsActivationsAndRowsScaleWithTokens)
{
    ModelGraph g = mlp(64, {64, 64}, /*tokens=*/8);
    LoweredModel lm = lower_model(g, 16);  // 16 requests * 8 tokens.
    ASSERT_EQ(lm.kernels.size(), 2u);
    EXPECT_EQ(lm.kernels[0].m, 128);
    EXPECT_EQ(lm.kernels[1].m, 128);
    // Layer 1 reads layer 0's activation.
    EXPECT_EQ(lm.kernels[1].reads,
              (std::vector<std::string>{"fc0.out", "fc1.w"}));
    ASSERT_EQ(lm.last_kernel_of_layer, (std::vector<int>{0, 1}));
}

TEST(ModelLowering, InFeaturesMismatchThrows)
{
    ModelGraph g = mlp(64, {64, 64});
    g.layers[1].in_features = 100;  // Actual incoming width is 64.
    EXPECT_THROW(lower_model(g, 1), ModelError);
}

TEST(ModelLowering, Conv2dIm2colShapes)
{
    ModelGraph g;
    g.name = "conv";
    LayerSpec c;
    c.kind = LayerKind::kConv2d;
    c.name = "c0";
    c.in_channels = 3;
    c.out_channels = 32;
    c.kernel = 3;
    c.stride = 1;
    c.height = 16;
    c.width = 16;
    g.layers.push_back(c);
    LoweredModel lm = lower_model(g, 2);
    ASSERT_EQ(lm.kernels.size(), 1u);
    const LoweredKernel& k = lm.kernels[0];
    // oh = ow = (16-3)/1+1 = 14; m = pad(2*14*14) = 448; n = pad(32);
    // k = pad(3*3*3, 16) = 32.
    EXPECT_EQ(k.m, 448);
    EXPECT_EQ(k.n, 64);
    EXPECT_EQ(k.k, 32);

    // A second conv infers its input from the first's output.
    LayerSpec c2 = c;
    c2.name = "c1";
    c2.in_channels = 0;
    c2.height = 0;
    c2.width = 0;
    g.layers.push_back(c2);
    lm = lower_model(g, 2);
    ASSERT_EQ(lm.kernels.size(), 2u);
    // Incoming 32x14x14: oh = ow = 12; k = pad(32*9, 16) = 288.
    EXPECT_EQ(lm.kernels[1].m, 320);  // pad(2*12*12 = 288)
    EXPECT_EQ(lm.kernels[1].k, 288);
    EXPECT_EQ(lm.kernels[1].reads[0], "c0.out");
}

TEST(ModelLowering, FirstConvRequiresDims)
{
    ModelGraph g;
    LayerSpec c;
    c.kind = LayerKind::kConv2d;
    c.out_channels = 8;
    g.layers.push_back(c);
    EXPECT_THROW(lower_model(g, 1), ModelError);
}

TEST(ModelLowering, LinearFlattensImage)
{
    ModelGraph g;
    LayerSpec c;
    c.kind = LayerKind::kConv2d;
    c.name = "c0";
    c.in_channels = 4;
    c.out_channels = 8;
    c.kernel = 3;
    c.height = 10;
    c.width = 10;
    g.layers.push_back(c);
    LayerSpec fc;
    fc.kind = LayerKind::kLinear;
    fc.name = "fc";
    fc.out_features = 10;
    g.layers.push_back(fc);
    LoweredModel lm = lower_model(g, 5);
    // Flattened: 8 channels * 8x8 = 512 features, one row per request.
    EXPECT_EQ(lm.kernels[1].m, 64);   // pad(5 rows)
    EXPECT_EQ(lm.kernels[1].k, 512);
}

TEST(ModelLowering, AttentionExpandsToFourGemms)
{
    ModelGraph g;
    g.input_features = 128;
    g.tokens_per_request = 32;
    LayerSpec a;
    a.kind = LayerKind::kAttention;
    a.name = "att";
    a.embed_dim = 128;
    a.heads = 4;
    g.layers.push_back(a);
    LoweredModel lm = lower_model(g, 2);  // 64 rows total.
    ASSERT_EQ(lm.kernels.size(), 4u);
    EXPECT_EQ(lm.kernels[0].name, "att.qkv");
    EXPECT_EQ(lm.kernels[1].name, "att.scores");
    EXPECT_EQ(lm.kernels[2].name, "att.ctx");
    EXPECT_EQ(lm.kernels[3].name, "att.proj");
    // qkv: [rows x e] * [e x 3e] -> n = 384.
    EXPECT_EQ(lm.kernels[0].m, 64);
    EXPECT_EQ(lm.kernels[0].n, 384);
    EXPECT_EQ(lm.kernels[0].k, 128);
    // scores: n = pad(tokens) = 64; ctx swaps n and k.
    EXPECT_EQ(lm.kernels[1].n, 64);
    EXPECT_EQ(lm.kernels[1].k, 128);
    EXPECT_EQ(lm.kernels[2].n, 128);
    EXPECT_EQ(lm.kernels[2].k, 64);
    // One layer, whose boundary is the projection.
    ASSERT_EQ(lm.last_kernel_of_layer, (std::vector<int>{3}));
}

TEST(ModelLowering, AttentionHeadsMustDivide)
{
    ModelGraph g;
    g.input_features = 100;
    LayerSpec a;
    a.kind = LayerKind::kAttention;
    a.heads = 3;
    g.layers.push_back(a);
    EXPECT_THROW(lower_model(g, 1), ModelError);
}

TEST(ModelLowering, ElementwiseIsThinNaiveGemm)
{
    ModelGraph g = mlp(64, {64});
    LayerSpec e;
    e.kind = LayerKind::kElementwise;
    e.name = "relu";
    g.layers.push_back(e);
    LoweredModel lm = lower_model(g, 1);
    ASSERT_EQ(lm.kernels.size(), 2u);
    EXPECT_EQ(lm.kernels[1].family, "wmma_naive");
    EXPECT_EQ(lm.kernels[1].k, 16);
    EXPECT_EQ(lm.kernels[1].reads, (std::vector<std::string>{"fc0.out"}));
    EXPECT_EQ(lm.kernels[1].writes, (std::vector<std::string>{"relu.out"}));
}

TEST(ModelLowering, PrefixNamespacesEverything)
{
    // The serving engine lowers each wavefront under "b<id>." -- every
    // tensor, kernel, read and write must carry the prefix exactly
    // once, and reads must resolve against the declared tensors.
    ModelGraph g = mlp(64, {64, 64});
    LoweredModel lm = lower_model(g, 1, "b7.");
    std::set<std::string> tensors;
    for (const LoweredTensor& t : lm.tensors) {
        EXPECT_EQ(t.name.rfind("b7.", 0), 0u) << t.name;
        tensors.insert(t.name);
    }
    for (const LoweredKernel& k : lm.kernels) {
        EXPECT_EQ(k.name.rfind("b7.", 0), 0u) << k.name;
        for (const std::string& r : k.reads)
            EXPECT_TRUE(tensors.count(r)) << r;
        for (const std::string& w : k.writes)
            EXPECT_TRUE(tensors.count(w)) << w;
    }
}

TEST(ModelLowering, EveryLayerKindLowersToAChain)
{
    // The serving engine enqueues a lowered batch in declaration order
    // on one stream.  That is exact because every layer kind lowers to
    // a chain: compiled through the task graph, one of each kind (and
    // an elementwise launch on both an image and a sequence) yields a
    // single stream and no event, and every launch after the first
    // reads what its predecessor writes.
    ModelGraph g;
    g.name = "kinds";
    LayerSpec conv;
    conv.kind = LayerKind::kConv2d;
    conv.in_channels = 3;
    conv.out_channels = 16;
    conv.height = 8;
    conv.width = 8;
    g.layers.push_back(conv);
    LayerSpec ew;
    ew.kind = LayerKind::kElementwise;
    g.layers.push_back(ew);
    LayerSpec fc;
    fc.kind = LayerKind::kLinear;
    fc.out_features = 64;
    g.layers.push_back(fc);
    LayerSpec attn;
    attn.kind = LayerKind::kAttention;
    attn.heads = 2;
    g.layers.push_back(attn);
    g.layers.push_back(ew);
    const LoweredModel lm = lower_model(g, 2, "b0.");
    ASSERT_EQ(lm.kernels.size(), 8u);

    TaskGraph tg;
    std::map<std::string, int> ids;
    for (const LoweredTensor& t : lm.tensors)
        ids[t.name] = tg.declare_tensor(t.name, t.bytes);
    for (const LoweredKernel& k : lm.kernels) {
        const int t = tg.add_task(k.name);
        for (const std::string& r : k.reads)
            tg.task_reads(t, ids.at(r));
        for (const std::string& w : k.writes)
            tg.task_writes(t, ids.at(w));
    }
    const TaskGraph::Compiled plan = tg.compile();
    EXPECT_EQ(plan.num_streams, 1);
    for (const std::string& e : plan.record_event)
        EXPECT_TRUE(e.empty()) << e;
    for (size_t i = 1; i < lm.kernels.size(); ++i) {
        const std::vector<std::string>& prev = lm.kernels[i - 1].writes;
        const std::vector<std::string>& reads = lm.kernels[i].reads;
        ASSERT_EQ(prev.size(), 1u) << lm.kernels[i - 1].name;
        EXPECT_NE(std::find(reads.begin(), reads.end(), prev[0]),
                  reads.end())
            << lm.kernels[i].name << " does not read " << prev[0];
    }
}

TEST(ModelLowering, RejectsIntPrecisionAndBadInput)
{
    ModelGraph g = mlp(64, {64});
    g.precision = TcMode::kInt8;
    EXPECT_THROW(lower_model(g, 1), ModelError);

    ModelGraph h = mlp(0, {64});  // Sequence model without a width.
    EXPECT_THROW(lower_model(h, 1), ModelError);

    EXPECT_THROW(lower_model(mlp(64, {64}), 0), ModelError);
}

// --- Scenario "model" key ------------------------------------------

TEST(ModelScenario, LowersToDeclarativeForm)
{
    driver::Scenario sc = driver::parse_scenario_text(R"({
        "name": "m",
        "model": {
            "batch": 2,
            "tokens_per_request": 32,
            "input_features": 64,
            "layers": [
                {"type": "linear", "name": "fc0", "out_features": 64},
                {"type": "linear", "name": "fc1", "out_features": 64}
            ]
        },
        "expect": [{"metric": "kernel.fc1.cycles", "min": 1}]
    })");
    EXPECT_TRUE(sc.declarative);
    ASSERT_EQ(sc.kernels.size(), 2u);
    EXPECT_EQ(sc.kernels[0].name, "fc0");
    EXPECT_EQ(sc.kernels[0].m, 64);
    // in + per-layer weight and activation.
    ASSERT_EQ(sc.tensors.size(), 5u);
    // The task-graph compiler derived the chain: fc1 waits on fc0.
    EXPECT_FALSE(sc.plan.edges.empty());

    driver::ScenarioResult r = driver::run_scenario(sc);
    EXPECT_TRUE(r.passed) << r.error;
    EXPECT_GT(r.totals.cycles, 0u);
}

TEST(ModelScenario, SchemaErrors)
{
    // "model" excludes hand-written kernels.
    EXPECT_THROW(driver::parse_scenario_text(R"({
        "name": "m",
        "model": {"input_features": 64,
                  "layers": [{"type": "linear", "out_features": 64}]},
        "kernels": [{"family": "wmma_shared"}]
    })"),
                 driver::ScenarioError);
    // Unknown layer type.
    EXPECT_THROW(driver::parse_scenario_text(R"({
        "name": "m",
        "model": {"input_features": 64,
                  "layers": [{"type": "softmax"}]}
    })"),
                 driver::ScenarioError);
    // Layer keys are kind-checked strictly.
    EXPECT_THROW(driver::parse_scenario_text(R"({
        "name": "m",
        "model": {"input_features": 64,
                  "layers": [{"type": "linear", "out_features": 64,
                              "kernel": 3}]}
    })"),
                 driver::ScenarioError);
}
