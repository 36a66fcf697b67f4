/**
 * @file
 * Scenario driver unit tests: the JSON parser (malformed input, escape
 * handling, error positions), the strict scenario schema (unknown
 * keys, invalid values), assertion evaluation on real runs, and the
 * bench JsonEmitter round-tripping through the driver parser.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <utility>

#include "bench_util.h"
#include "driver/json.h"
#include "driver/metric.h"
#include "driver/runner.h"
#include "driver/scenario.h"

using namespace tcsim;
using namespace tcsim::driver;

// ---- JSON parser --------------------------------------------------------

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(json_parse("null").is_null());
    EXPECT_EQ(json_parse("true").as_bool(), true);
    EXPECT_EQ(json_parse("false").as_bool(), false);
    EXPECT_DOUBLE_EQ(json_parse("-2.5e3").as_number(), -2500.0);
    EXPECT_EQ(json_parse("42").as_int(), 42);
    EXPECT_EQ(json_parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNested)
{
    JsonValue v = json_parse(R"({"a": [1, 2, {"b": "c"}], "d": {}})");
    ASSERT_TRUE(v.is_object());
    const JsonValue* a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->as_array().size(), 3u);
    EXPECT_EQ(a->as_array()[2].find("b")->as_string(), "c");
    EXPECT_TRUE(v.find("d")->as_object().empty());
}

TEST(Json, AllowsLineComments)
{
    JsonValue v = json_parse("{\n  // a comment\n  \"a\": 1\n}");
    EXPECT_EQ(v.find("a")->as_int(), 1);
}

TEST(Json, EscapeRoundTrips)
{
    std::string nasty = "quote\" back\\slash\nnew\ttab\x01ctl";
    JsonValue obj = JsonValue::object();
    obj.set(nasty, JsonValue(nasty));
    JsonValue parsed = json_parse(obj.dump());
    EXPECT_EQ(parsed.find(nasty)->as_string(), nasty);
}

TEST(Json, RejectsMalformedWithPosition)
{
    EXPECT_THROW(json_parse(""), JsonError);
    EXPECT_THROW(json_parse("{"), JsonError);
    EXPECT_THROW(json_parse("{\"a\": 1,}"), JsonError);
    EXPECT_THROW(json_parse("[1 2]"), JsonError);
    EXPECT_THROW(json_parse("\"unterminated"), JsonError);
    EXPECT_THROW(json_parse("nul"), JsonError);
    EXPECT_THROW(json_parse("1.e5"), JsonError);
    EXPECT_THROW(json_parse("0123"), JsonError);
    EXPECT_THROW(json_parse("-0123"), JsonError);
    EXPECT_THROW(json_parse("1e999"), JsonError);
    EXPECT_DOUBLE_EQ(json_parse("0.5").as_number(), 0.5);
    EXPECT_EQ(json_parse("0").as_int(), 0);
    EXPECT_THROW(json_parse("{} trailing"), JsonError);
    EXPECT_THROW(json_parse(R"({"a": 1, "a": 2})"), JsonError);
    try {
        json_parse("{\n  \"a\": tru\n}");
        FAIL() << "expected JsonError";
    } catch (const JsonError& e) {
        EXPECT_NE(std::string(e.what()).find("2:"), std::string::npos)
            << e.what();
    }
}

TEST(Json, TypeMismatchThrows)
{
    JsonValue v = json_parse("[1]");
    EXPECT_THROW(v.as_object(), JsonError);
    EXPECT_THROW(v.as_string(), JsonError);
    EXPECT_THROW(json_parse("1.5").as_int(), JsonError);
}

// ---- Scenario schema ----------------------------------------------------

namespace {

const char* kMinimalScenario = R"({
  "name": "tiny",
  "gpu": {"preset": "titan_v", "num_sms": 1},
  "kernels": [
    {"kernel": "wmma_naive", "name": "g", "m": 16, "n": 16, "k": 16,
     "warps_per_cta": 1}
  ]
})";

}  // namespace

TEST(Scenario, ParsesMinimal)
{
    Scenario sc = parse_scenario_text(kMinimalScenario);
    EXPECT_EQ(sc.name, "tiny");
    EXPECT_EQ(sc.kernels.size(), 1u);
    EXPECT_EQ(sc.kernels[0].family, "wmma_naive");
    EXPECT_EQ(sc.stream_of(0), 0);
    EXPECT_FALSE(sc.kernels[0].functional);
    EXPECT_EQ(sc.gpu_config().num_sms, 1);
    EXPECT_EQ(sc.sim.scheduler, SchedulerPolicy::kGto);
}

TEST(Scenario, DefaultsKernelName)
{
    Scenario sc = parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "hmma_stress"}]
    })");
    EXPECT_EQ(sc.kernels[0].name, "hmma_stress_0");
}

TEST(Scenario, AppliesGpuOverrides)
{
    Scenario sc = parse_scenario_text(R"({
      "name": "s",
      "gpu": {"preset": "rtx2080", "num_sms": 4, "clock_ghz": 2.0,
              "l1_size": 65536},
      "kernels": [{"kernel": "hmma_stress"}]
    })");
    GpuConfig cfg = sc.gpu_config();
    EXPECT_EQ(cfg.arch, Arch::kTuring);
    EXPECT_EQ(cfg.num_sms, 4);
    EXPECT_DOUBLE_EQ(cfg.clock_ghz, 2.0);
    EXPECT_EQ(cfg.l1_size, 65536u);
}

TEST(Scenario, RejectsInapplicableKernelKeys)
{
    // warps_per_cta is fixed by every family except wmma_naive.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "wmma_shared", "warps_per_cta": 4}]
    })"),
                 ScenarioError);
    // hmma_stress knobs are meaningless on GEMM families...
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "wmma_naive", "ctas": 4}]
    })"),
                 ScenarioError);
    // ...and GEMM shape/layout keys on hmma_stress.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "hmma_stress", "m": 64}]
    })"),
                 ScenarioError);
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "hmma_stress", "functional": false}]
    })"),
                 ScenarioError);
}

TEST(Scenario, RejectsFractionalIntegerOverrides)
{
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "gpu": {"num_sms": 0.9},
      "kernels": [{"kernel": "hmma_stress"}]
    })"),
                 ScenarioError);
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "gpu": {"max_warps_per_sm": 2.5},
      "kernels": [{"kernel": "hmma_stress"}]
    })"),
                 ScenarioError);
    // Genuinely fractional fields stay fractional.
    Scenario sc = parse_scenario_text(R"({
      "name": "s", "gpu": {"clock_ghz": 1.47},
      "kernels": [{"kernel": "hmma_stress"}]
    })");
    EXPECT_DOUBLE_EQ(sc.gpu_config().clock_ghz, 1.47);
}

TEST(Scenario, RejectsUnknownKeys)
{
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "typo_key": 1,
      "kernels": [{"kernel": "hmma_stress"}]
    })"),
                 ScenarioError);
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "hmma_stress", "warp_count": 4}]
    })"),
                 ScenarioError);
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "gpu": {"sm_count": 4},
      "kernels": [{"kernel": "hmma_stress"}]
    })"),
                 ScenarioError);
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "sim": {"policy": "gto"},
      "kernels": [{"kernel": "hmma_stress"}]
    })"),
                 ScenarioError);
    // Keys of the removed sampled-SM mode: an old scenario must fail
    // loudly rather than silently run at full detail.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "sim": {"detailed_sms": 2},
      "kernels": [{"kernel": "hmma_stress"}]
    })"),
                 ScenarioError);
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "sim": {"sample_window": 4096},
      "kernels": [{"kernel": "hmma_stress"}]
    })"),
                 ScenarioError);
    // Keys and the value of the removed replay verify mode.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "sim": {"replay_verify_every": 8},
      "kernels": [{"kernel": "hmma_stress"}]
    })"),
                 ScenarioError);
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "sim": {"replay_verify_bound": 0.05},
      "kernels": [{"kernel": "hmma_stress"}]
    })"),
                 ScenarioError);
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "sim": {"replay": "verify"},
      "kernels": [{"kernel": "hmma_stress"}]
    })"),
                 ScenarioError);
    // The SM-array floor is the sweep runner's own setting
    // (SimOptions::min_sms), not a scenario key.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "sim": {"min_sms": 4},
      "kernels": [{"kernel": "hmma_stress"}]
    })"),
                 ScenarioError);
}

TEST(Scenario, RejectsInvalidValues)
{
    // Missing name.
    EXPECT_THROW(
        parse_scenario_text(R"({"kernels": [{"kernel": "hmma_stress"}]})"),
        ScenarioError);
    // Missing / empty kernels.
    EXPECT_THROW(parse_scenario_text(R"({"name": "s"})"), ScenarioError);
    EXPECT_THROW(parse_scenario_text(R"({"name": "s", "kernels": []})"),
                 ScenarioError);
    // Unknown kernel family.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "kernels": [{"kernel": "dgemm"}]
    })"),
                 ScenarioError);
    // Bad enum strings.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "wmma_shared", "mode": "fp64"}]
    })"),
                 ScenarioError);
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "wmma_shared", "a_layout": "rowmajor"}]
    })"),
                 ScenarioError);
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "sim": {"scheduler": "fifo"},
      "kernels": [{"kernel": "hmma_stress"}]
    })"),
                 ScenarioError);
    // CTA tile divisibility.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "wmma_shared", "m": 96, "n": 64, "k": 16}]
    })"),
                 ScenarioError);
    // Duplicate kernel names.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "hmma_stress", "name": "k"},
                  {"kernel": "hmma_stress", "name": "k"}]
    })"),
                 ScenarioError);
    // The SIMT baselines and hmma_stress are timing-only.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "sgemm_ffma", "functional": true}]
    })"),
                 ScenarioError);
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "hgemm_hfma2", "functional": true}]
    })"),
                 ScenarioError);
    // int8 needs the Turing preset; int4 has no registered family.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "hmma_stress", "mode": "int8"}]
    })"),
                 ScenarioError);
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "gpu": {"preset": "rtx2080"},
      "kernels": [{"kernel": "hmma_stress", "mode": "int4"}]
    })"),
                 ScenarioError);
}

TEST(Scenario, RejectsBadExpectations)
{
    // Unknown kernel reference.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "kernels": [{"kernel": "hmma_stress", "name": "k"}],
      "expect": [{"metric": "kernel.other.cycles", "min": 1}]
    })"),
                 ScenarioError);
    // verify.* without a functional kernel.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "kernels": [{"kernel": "hmma_stress"}],
      "expect": [{"metric": "verify.max_rel_err", "max": 0.1}]
    })"),
                 ScenarioError);
    // kernel.<name>.verify_rel_err on a timing-only kernel would pass
    // vacuously against the -1 sentinel; rejected at parse time.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "wmma_naive", "name": "g"}],
      "expect": [{"metric": "kernel.g.verify_rel_err", "max": 0.01}]
    })"),
                 ScenarioError);
    // No bound at all / contradictory bounds.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "kernels": [{"kernel": "hmma_stress"}],
      "expect": [{"metric": "total.cycles"}]
    })"),
                 ScenarioError);
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "kernels": [{"kernel": "hmma_stress"}],
      "expect": [{"metric": "total.cycles", "equals": 5, "min": 1}]
    })"),
                 ScenarioError);
    // Bad metric prefix.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "kernels": [{"kernel": "hmma_stress"}],
      "expect": [{"metric": "cycles", "min": 1}]
    })"),
                 ScenarioError);
}

// ---- Assertion evaluation on real runs ----------------------------------

namespace {

Scenario
tiny_stress_scenario(const std::string& extra_expect)
{
    std::string text = R"({
      "name": "tiny_stress",
      "gpu": {"preset": "titan_v", "num_sms": 1},
      "kernels": [
        {"kernel": "hmma_stress", "name": "s", "ctas": 1,
         "warps_per_cta": 1, "wmma_per_warp": 8}
      ],
      "expect": [)" + extra_expect + R"(]
    })";
    return parse_scenario_text(text);
}

}  // namespace

TEST(ScenarioRun, AssertionsPass)
{
    ScenarioResult r = run_scenario(tiny_stress_scenario(
        R"({"metric": "total.cycles", "min": 1, "max": 1000000},
           {"metric": "kernel.s.hmma_instructions", "min": 1},
           {"metric": "kernel.s.stream", "equals": 0})"));
    EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_TRUE(r.passed);
    ASSERT_EQ(r.assertions.size(), 3u);
    for (const AssertionResult& a : r.assertions)
        EXPECT_TRUE(a.passed) << a.metric;
    EXPECT_GT(r.totals.cycles, 0u);
    ASSERT_EQ(r.kernels.size(), 1u);
    EXPECT_EQ(r.kernels[0].stats.cycles, r.totals.cycles);
}

TEST(ScenarioRun, AssertionFailureFailsScenario)
{
    ScenarioResult r = run_scenario(
        tiny_stress_scenario(R"({"metric": "total.cycles", "max": 1})"));
    EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_FALSE(r.passed);
    ASSERT_EQ(r.assertions.size(), 1u);
    EXPECT_FALSE(r.assertions[0].passed);
    EXPECT_GT(r.assertions[0].value, 1.0);
}

TEST(ScenarioRun, FunctionalVerificationFeedsAssertions)
{
    Scenario sc = parse_scenario_text(R"({
      "name": "verify64",
      "gpu": {"preset": "titan_v", "num_sms": 1},
      "kernels": [
        {"kernel": "wmma_naive", "name": "g", "m": 16, "n": 16, "k": 16,
         "warps_per_cta": 1, "functional": true}
      ],
      "expect": [{"metric": "verify.max_rel_err", "max": 0.01}]
    })");
    ScenarioResult r = run_scenario(sc);
    EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_TRUE(r.passed);
    EXPECT_GE(r.verify_max_rel_err, 0.0);
    // Implicit tolerance assertion plus the explicit one.
    EXPECT_EQ(r.assertions.size(), 2u);
}

TEST(ScenarioRun, MaxCyclesExceededReportsErrorInsteadOfAborting)
{
    Scenario sc = parse_scenario_text(R"({
      "name": "runaway",
      "gpu": {"preset": "titan_v", "num_sms": 1},
      "sim": {"max_cycles": 10},
      "kernels": [{"kernel": "hmma_stress", "name": "s", "ctas": 1,
                   "warps_per_cta": 1, "wmma_per_warp": 64}]
    })");
    ScenarioResult r = run_scenario(sc);
    EXPECT_FALSE(r.passed);
    EXPECT_NE(r.error.find("max_cycles"), std::string::npos) << r.error;
}

TEST(ScenarioRun, OversubscribedKernelReportsErrorInsteadOfAborting)
{
    Scenario sc = parse_scenario_text(R"({
      "name": "too_big",
      "gpu": {"preset": "titan_v", "num_sms": 1, "registers_per_sm": 1024},
      "kernels": [{"kernel": "hmma_stress", "warps_per_cta": 4}]
    })");
    ScenarioResult r = run_scenario(sc);
    EXPECT_FALSE(r.passed);
    EXPECT_NE(r.error.find("exceeds SM resources"), std::string::npos)
        << r.error;
}

// ---- JsonEmitter round-trip ---------------------------------------------

TEST(JsonEmitter, RoundTripsThroughDriverParser)
{
    const std::string path = "BENCH_emitter_roundtrip.json";
    {
        bench::JsonEmitter json("emitter_roundtrip");
        json.add("plain", 1.25);
        json.add("quote\"key", 2.0);
        json.add("back\\slash\nnewline", -3.5);
        json.add("not_finite", std::nan(""));
    }
    JsonValue doc = json_parse_file(path);
    EXPECT_EQ(doc.find("bench")->as_string(), "emitter_roundtrip");
    const JsonValue* metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_DOUBLE_EQ(metrics->find("plain")->as_number(), 1.25);
    EXPECT_DOUBLE_EQ(metrics->find("quote\"key")->as_number(), 2.0);
    EXPECT_DOUBLE_EQ(metrics->find("back\\slash\nnewline")->as_number(),
                     -3.5);
    EXPECT_TRUE(metrics->find("not_finite")->is_null());
    // Atomic write: no temp file left behind.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());
    std::remove(path.c_str());
}

// ---- Dependencies and events --------------------------------------------

TEST(Scenario, RejectsRemovedDependencyKeys)
{
    // Dependencies are stated one way (a tensor arena plus read/write
    // sets).  Hand-written plumbing is a typed error naming the key
    // and the declarative alternative, in the plain and the
    // declarative form alike.
    auto expect_rejected = [](const std::string& text,
                              const std::string& key) {
        try {
            parse_scenario_text(text);
            ADD_FAILURE() << key << " accepted: " << text;
        } catch (const ScenarioError& e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("\"" + key + "\""), std::string::npos) << msg;
            EXPECT_NE(msg.find("\"tensors\""), std::string::npos) << msg;
            EXPECT_NE(msg.find("\"reads\"/\"writes\""), std::string::npos)
                << msg;
        }
    };
    const std::pair<std::string, std::string> plain[] = {
        {"stream", "1"},
        {"sync", "true"},
        {"record_event", R"("e")"},
        {"wait_event", R"(["e"])"}};
    for (const auto& [key, value] : plain)
        expect_rejected(R"({"name": "s", "kernels": [
                             {"kernel": "hmma_stress", ")" +
                            key + "\": " + value + "}]}",
                        key);
    for (const auto& [key, value] : plain)
        expect_rejected(R"({"name": "s",
                            "tensors": [{"name": "T", "bytes": 64}],
                            "kernels": [{"kernel": "hmma_stress",
                                         "writes": ["T"], ")" +
                            key + "\": " + value + "}]}",
                        key);
}

TEST(Scenario, RejectsBadEventMetrics)
{
    // event metric referencing an unrecorded event.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "hmma_stress", "name": "k"}],
      "expect": [{"metric": "event.ghost.cycle", "min": 1}]
    })"),
                 ScenarioError);
    // Only .cycle exists on events.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "tensors": [{"name": "T", "bytes": 64}, {"name": "U", "bytes": 64},
                  {"name": "V", "bytes": 64}],
      "kernels": [
        {"kernel": "hmma_stress", "name": "x", "writes": ["U"]},
        {"kernel": "hmma_stress", "name": "p", "writes": ["T"]},
        {"kernel": "hmma_stress", "name": "c", "reads": ["T", "U"],
         "writes": ["V"]}
      ],
      "expect": [{"metric": "event.p_done.latency", "min": 1}]
    })"),
                 ScenarioError);
}

TEST(ScenarioRun, EventDagGatesAndExposesEventMetrics)
{
    // x opens stream 1 and p stream 2; c follows x on stream 1 and
    // waits on p's derived event.
    Scenario sc = parse_scenario_text(R"({
      "name": "dag_run",
      "gpu": {"preset": "titan_v", "num_sms": 2},
      "tensors": [{"name": "T", "bytes": 64}, {"name": "U", "bytes": 64},
                  {"name": "V", "bytes": 64}],
      "kernels": [
        {"kernel": "hmma_stress", "name": "x", "ctas": 1,
         "warps_per_cta": 2, "wmma_per_warp": 16, "writes": ["U"]},
        {"kernel": "hmma_stress", "name": "p", "ctas": 1,
         "warps_per_cta": 2, "wmma_per_warp": 16, "writes": ["T"]},
        {"kernel": "hmma_stress", "name": "c", "ctas": 1,
         "warps_per_cta": 2, "wmma_per_warp": 16, "reads": ["T", "U"],
         "writes": ["V"]}
      ],
      "expect": [
        {"metric": "event.p_done.cycle", "min": 1},
        {"metric": "kernel.c.start_cycle", "min": 1}
      ]
    })");
    ScenarioResult r = run_scenario(sc);
    EXPECT_TRUE(r.passed) << r.error;
    ASSERT_EQ(r.events.size(), 1u);
    EXPECT_EQ(r.events[0].name, "p_done");
    // Happens-before: the consumer starts only after the event.
    const LaunchStats* producer = nullptr;
    const LaunchStats* consumer = nullptr;
    for (const KernelResult& k : r.kernels) {
        if (k.name == "p")
            producer = &k.stats;
        if (k.name == "c")
            consumer = &k.stats;
    }
    ASSERT_NE(producer, nullptr);
    ASSERT_NE(consumer, nullptr);
    EXPECT_GT(consumer->start_cycle, producer->finish_cycle);
    EXPECT_LE(r.events[0].cycle, consumer->start_cycle);
}

TEST(ScenarioRun, JoinWaitsForEveryProducer)
{
    // a and b write disjoint tensors (two streams); join reads both,
    // so the compiler orders it after each.
    Scenario sc = parse_scenario_text(R"({
      "name": "join",
      "gpu": {"preset": "titan_v", "num_sms": 2},
      "tensors": [{"name": "A", "bytes": 64}, {"name": "B", "bytes": 64},
                  {"name": "J", "bytes": 64}],
      "kernels": [
        {"kernel": "hmma_stress", "name": "a", "ctas": 1,
         "warps_per_cta": 2, "wmma_per_warp": 16, "writes": ["A"]},
        {"kernel": "hmma_stress", "name": "b", "ctas": 1,
         "warps_per_cta": 2, "wmma_per_warp": 48, "writes": ["B"]},
        {"kernel": "hmma_stress", "name": "join", "ctas": 1,
         "warps_per_cta": 2, "wmma_per_warp": 16, "reads": ["A", "B"],
         "writes": ["J"]}
      ]
    })");
    ASSERT_NE(sc.stream_of(0), sc.stream_of(1));
    ScenarioResult r = run_scenario(sc);
    EXPECT_TRUE(r.passed) << r.error;
    uint64_t join_start = 0, max_finish = 0;
    for (const KernelResult& k : r.kernels) {
        if (k.name == "join")
            join_start = k.stats.start_cycle;
        else
            max_finish = std::max(max_finish, k.stats.finish_cycle);
    }
    EXPECT_GT(join_start, max_finish);
}

TEST(ScenarioRun, StallCyclesMetricResolves)
{
    Scenario sc = parse_scenario_text(R"({
      "name": "stall_metric",
      "gpu": {"preset": "titan_v", "num_sms": 1},
      "kernels": [
        {"kernel": "wmma_naive", "name": "g", "m": 32, "n": 32, "k": 32}
      ],
      "expect": [
        {"metric": "total.stall_cycles", "min": 1},
        {"metric": "kernel.g.stall_cycles", "min": 1}
      ]
    })");
    ScenarioResult r = run_scenario(sc);
    EXPECT_TRUE(r.passed) << r.error;
}

TEST(Scenario, ParsesMemoryHierarchyKnobs)
{
    Scenario sc = parse_scenario_text(R"({
      "name": "knobs",
      "gpu": {"preset": "titan_v", "l1_mshr_entries": 8, "l2_banks": 4,
              "l2_bank_bytes_per_cycle": 16.5, "l2_bank_queue_depth": 2,
              "noc_bytes_per_cycle": 8, "noc_queue_depth": 4,
              "dram_queue_depth": 2, "dram_rw_turnaround": 0},
      "kernels": [{"kernel": "wmma_naive", "m": 32, "n": 32, "k": 32}]
    })");
    GpuConfig cfg = sc.gpu_config();
    EXPECT_EQ(cfg.l1_mshr_entries, 8);
    EXPECT_EQ(cfg.l2_banks, 4);
    EXPECT_DOUBLE_EQ(cfg.l2_bank_bytes_per_cycle, 16.5);
    EXPECT_EQ(cfg.l2_bank_queue_depth, 2);
    EXPECT_DOUBLE_EQ(cfg.noc_bytes_per_cycle, 8.0);
    EXPECT_EQ(cfg.noc_queue_depth, 4);
    EXPECT_EQ(cfg.dram_queue_depth, 2);
    EXPECT_EQ(cfg.dram_rw_turnaround, 0);  // 0 = disabled is legal.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "bad", "gpu": {"dram_queue_depth": 0},
      "kernels": [{"kernel": "wmma_naive", "m": 32, "n": 32, "k": 32}]
    })"),
                 ScenarioError);
}

TEST(ScenarioRun, MemMetricsResolve)
{
    // The tiny-L1 streaming GEMM exercises the whole transaction path,
    // so every mem.* counter the schema exposes resolves (and the
    // traffic ones are nonzero).
    Scenario sc = parse_scenario_text(R"({
      "name": "mem_metrics",
      "gpu": {"preset": "titan_v", "num_sms": 2, "l1_size": 16384},
      "kernels": [
        {"kernel": "wmma_naive", "name": "g", "m": 64, "n": 64, "k": 64}
      ],
      "expect": [
        {"metric": "mem.global_sectors", "min": 1},
        {"metric": "mem.l1_misses", "min": 1},
        {"metric": "mem.l2_misses", "min": 1},
        {"metric": "mem.dram_bytes", "min": 1},
        {"metric": "mem.mshr_peak", "min": 1},
        {"metric": "mem.mshr_merges", "min": 0},
        {"metric": "mem.l1_hits", "min": 0},
        {"metric": "mem.l2_hits", "min": 0},
        {"metric": "mem.noc_queue_cycles", "min": 0},
        {"metric": "mem.l2_queue_cycles", "min": 0},
        {"metric": "mem.dram_queue_cycles", "min": 0},
        {"metric": "mem.dram_turnarounds", "min": 0}
      ]
    })");
    ScenarioResult r = run_scenario(sc);
    EXPECT_TRUE(r.passed) << r.error;
}

TEST(ScenarioRun, PerReasonStallMetricsResolve)
{
    // Constrict the MSHR file so the new back-pressure stall reason is
    // observable through both total.stall.* and kernel.<n>.stall.*.
    Scenario sc = parse_scenario_text(R"({
      "name": "stall_reasons",
      "gpu": {"preset": "titan_v", "num_sms": 2, "l1_size": 16384,
              "l1_mshr_entries": 2},
      "kernels": [
        {"kernel": "wmma_naive", "name": "g", "m": 64, "n": 64, "k": 64}
      ],
      "expect": [
        {"metric": "total.stall.mshr_full", "min": 1},
        {"metric": "total.stall.scoreboard", "min": 1},
        {"metric": "kernel.g.stall.mshr_full", "min": 1}
      ]
    })");
    ScenarioResult r = run_scenario(sc);
    EXPECT_TRUE(r.passed) << r.error;
}

// ---- The metric table ---------------------------------------------------

namespace {

/** A kernel scenario: a functional GEMM "f" and a timing-only "g" on
 *  two streams, joined by "h", which waits on g's event "g_done";
 *  @p extra adds top-level keys. */
std::string
kernel_doc(const std::string& expect, const std::string& extra = "")
{
    return R"({"name": "k", "gpu": {"preset": "titan_v", "num_sms": 2},
      "tensors": [{"name": "T", "bytes": 64}, {"name": "U", "bytes": 64}],
      "kernels": [
        {"kernel": "wmma_shared", "name": "f", "m": 64, "n": 64, "k": 64,
         "functional": true, "writes": ["T"]},
        {"kernel": "wmma_naive", "name": "g", "m": 32, "n": 32, "k": 32,
         "writes": ["U"]},
        {"kernel": "hmma_stress", "name": "h", "ctas": 1,
         "warps_per_cta": 2, "wmma_per_warp": 16, "reads": ["T", "U"]}],)" +
           extra + R"("expect": [)" + expect + "]}";
}

/** A serving scenario reporting p99.5 and p12.25 besides the fixed
 *  percentiles; @p resilience is the "resilience" object or "". */
std::string
serving_doc(const std::string& expect, const std::string& resilience = "")
{
    return R"({"name": "s", "gpu": {"preset": "titan_v", "num_sms": 4},
      "serving": {
        "model": {"tokens_per_request": 16, "input_features": 64,
                  "layers": [{"type": "linear", "name": "fc1",
                              "out_features": 64}]},
        "trace": {"kind": "poisson", "seed": 3, "requests": 6,
                  "mean_interarrival_us": 2},
        "batching": {"policy": "static", "batch": 2, "timeout_us": 5},
        "percentiles": [99.5, 12.25])" +
           (resilience.empty() ? "" : ", \"resilience\": " + resilience) +
           R"(},
      "expect": [)" + expect + "]}";
}

/** A fault scenario: one disabled SM and a slowed kernel "h". */
std::string
fault_doc(const std::string& expect)
{
    return R"({"name": "f", "gpu": {"preset": "titan_v", "num_sms": 2},
      "faults": {"disabled_sms": [0],
                 "slowdowns": [{"match": "h", "factor": 2.0}]},
      "kernels": [{"kernel": "hmma_stress", "name": "h", "ctas": 2,
                   "warps_per_cta": 2, "wmma_per_warp": 8}],
      "expect": [)" + expect + "]}";
}

/** One expectation on @p metric. */
std::string
on(const std::string& metric)
{
    return R"({"metric": ")" + metric + R"(", "min": 0})";
}

/** The ScenarioError message parsing @p doc as "m.json" raises ("" if
 *  it parses). */
std::string
parse_error(const std::string& doc)
{
    try {
        parse_scenario_text(doc, "m.json");
    } catch (const ScenarioError& e) {
        return e.what();
    }
    return "";
}

}  // namespace

TEST(Scenario, RejectsBadMetricPathsAtParseTime)
{
    // Every error names the file, the expectation, the full path, and
    // why the path does not exist.  Each case is one error class.
    struct Case
    {
        std::string doc, where, path, why;
    };
    const std::vector<Case> cases = {
        // Unknown section.
        {kernel_doc(on("cycles")), "expect[0]", "cycles",
         "unknown section \"cycles\""},
        {kernel_doc(on("totals.cycles")), "expect[0]", "totals.cycles",
         "unknown section \"totals\""},
        // Unknown field, in each section.
        {kernel_doc(on("total.cyclez")), "expect[0]", "total.cyclez",
         "unknown total field \"cyclez\""},
        {kernel_doc(on("kernel.g.ipcc")), "expect[0]", "kernel.g.ipcc",
         "unknown kernel field \"ipcc\""},
        {kernel_doc(on("mem.no_such_counter")), "expect[0]",
         "mem.no_such_counter", "unknown mem field \"no_such_counter\""},
        {kernel_doc(on("event.g_done.latency")), "expect[0]",
         "event.g_done.latency", "unknown event field \"latency\""},
        {kernel_doc(on("verify.max_err")), "expect[0]", "verify.max_err",
         "unknown verify field \"max_err\""},
        {serving_doc(on("serve.latency_max_cycles")), "expect[0]",
         "serve.latency_max_cycles",
         "unknown serve field \"latency_max_cycles\""},
        {fault_doc(on("fault.hang")), "expect[0]", "fault.hang",
         "unknown fault field \"hang\""},
        {kernel_doc(on("kernel.g")), "expect[0]", "kernel.g",
         "want kernel.<name>.<field>"},
        // Unknown stall reason, under total and under a kernel.
        {kernel_doc(on("total.stall.no_such_reason")), "expect[0]",
         "total.stall.no_such_reason",
         "unknown stall reason \"no_such_reason\""},
        {kernel_doc(on("kernel.g.stall.no_such_reason")), "expect[0]",
         "kernel.g.stall.no_such_reason",
         "unknown stall reason \"no_such_reason\""},
        // Unknown kernel; an event no kernel records.
        {kernel_doc(on("kernel.other.cycles")), "expect[0]",
         "kernel.other.cycles", "unknown kernel \"other\""},
        {kernel_doc(on("event.ghost.cycle")), "expect[0]",
         "event.ghost.cycle", "no kernel records event \"ghost\""},
        // A percentile that is not listed, or not a number.
        {serving_doc(on("serve.latency_p99.9")), "expect[0]",
         "serve.latency_p99.9",
         "percentile 99.9 is not in serving.percentiles"},
        {serving_doc(on("serve.latency_p99x")), "expect[0]",
         "serve.latency_p99x", "percentile \"99x\" is not a number"},
        // Each missing facet.
        {kernel_doc(on("fault.hangs")), "expect[0]", "fault.hangs",
         "needs a \"faults\" object"},
        {serving_doc(on("serve.goodput")), "expect[0]", "serve.goodput",
         "needs a serving.resilience object"},
        {kernel_doc(on("serve.completed")), "expect[0]", "serve.completed",
         "needs a \"serving\" scenario"},
        {fault_doc(on("serve.shed")), "expect[0]", "serve.shed",
         "needs a \"serving\" scenario"},
        {serving_doc(on("kernel.fc1.cycles")), "expect[0]",
         "kernel.fc1.cycles", "a \"serving\" scenario reports"},
        {serving_doc(on("event.e.cycle")), "expect[0]", "event.e.cycle",
         "a \"serving\" scenario reports"},
        {serving_doc(on("verify.max_rel_err")), "expect[0]",
         "verify.max_rel_err", "a \"serving\" scenario reports"},
        {fault_doc(on("verify.max_rel_err")), "expect[0]",
         "verify.max_rel_err", "needs a functional kernel"},
        {kernel_doc(on("kernel.g.verify_rel_err")), "expect[0]",
         "kernel.g.verify_rel_err", "needs a functional kernel"},
        // The position names the failing entry.
        {kernel_doc(on("total.cycles") + ", " + on("mem.l1_hitz")),
         "expect[1]", "mem.l1_hitz", "unknown mem field \"l1_hitz\""},
    };
    for (const Case& c : cases) {
        const std::string err = parse_error(c.doc);
        EXPECT_EQ(err.rfind("m.json: " + c.where + ": metric \"" + c.path +
                                "\": " + c.why,
                            0),
                  0u)
            << c.path << " -> " << err;
    }

    // The same kinds of error inside a sweep point.
    auto sweep_doc = [](const std::string& point_expect) {
        return R"({"name": "w", "gpu": {"num_sms": 2},
          "kernels": [{"kernel": "hmma_stress", "name": "p"}],
          "sweep": {"fork_cycle": 100, "points": [
            {"name": "a", "kernels": [{"kernel": "hmma_stress",
                                       "name": "q"}],
             "expect": [)" +
               on("kernel.q.cycles") + ", " + point_expect + "]}]}}";
    };
    const std::vector<std::pair<std::string, std::string>> sweep_cases = {
        {"total.cyclez", "unknown total field \"cyclez\""},
        {"kernel.nope.cycles", "unknown kernel \"nope\""},
        {"kernel.q.stall.nope", "unknown stall reason \"nope\""},
        {"event.e.cycle", "no kernel records event \"e\""},
        {"verify.max_rel_err", "needs a functional kernel"},
        {"serve.completed", "needs a \"serving\" scenario"},
        {"fault.hangs", "needs a \"faults\" object"},
    };
    for (const auto& [path, why] : sweep_cases) {
        const std::string err = parse_error(sweep_doc(on(path)));
        EXPECT_EQ(err.rfind("m.json: sweep.points[0].expect[1]: metric \"" +
                                path + "\": " + why,
                            0),
                  0u)
            << path << " -> " << err;
    }
    // A point kernel is in scope for its own point's expectations.
    EXPECT_EQ(parse_error(sweep_doc(on("kernel.p.stall.scoreboard"))), "");
}

namespace {

/** @p report's numeric fields that metrics address, flattened to
 *  "total.stalls.mshr_full", "kernels[g].cycles", ... -> value. */
void
flatten(const JsonValue& v, const std::string& at,
        std::map<std::string, double>* out)
{
    if (v.is_number())
        (*out)[at] = v.as_number();
    if (v.is_object())
        for (const auto& [key, child] : v.as_object())
            flatten(child, at + "." + key, out);
}

std::map<std::string, double>
report_fields(const JsonValue& result)
{
    std::map<std::string, double> out;
    for (const char* block : {"total", "mem", "serve", "fault"})
        if (const JsonValue* b = result.find(block))
            flatten(*b, block, &out);
    for (const char* list : {"kernels", "events"})
        if (const JsonValue* l = result.find(list))
            for (const JsonValue& item : l->as_array())
                flatten(item,
                        std::string(list) + "[" +
                            item.find("name")->as_string() + "]",
                        &out);
    return out;
}

/** Where the report puts metric @p path, spelled as report_fields
 *  keys; @p result names the kernels and events. */
std::string
report_address(const std::string& path, const JsonValue& result)
{
    const size_t dot = path.find('.');
    const std::string section = path.substr(0, dot);
    std::string field = path.substr(dot + 1);
    auto stalls = [](const std::string& f) {
        return f.rfind("stall.", 0) == 0 ? "stalls." + f.substr(6) : f;
    };
    if (section == "kernel" || section == "event") {
        const std::string list = section + "s";
        std::string name;
        for (const JsonValue& item : result.find(list.c_str())->as_array()) {
            const std::string& n = item.find("name")->as_string();
            if (field.rfind(n + ".", 0) == 0 && n.size() > name.size())
                name = n;
        }
        return list + "[" + name + "]." + stalls(field.substr(name.size() + 1));
    }
    if (section == "serve") {
        for (const char* r : {"deadline_miss", "goodput", "retries", "shed",
                              "dropped", "killed_batches"})
            if (field == r)
                return "serve.resilience." + field;
        for (const auto& [stem, group] :
             std::vector<std::pair<std::string, std::string>>{
                 {"latency_", "latency_cycles"},
                 {"queue_wait_", "queue_wait_cycles"},
                 {"queue_depth_", "queue_depth"}})
            if (field.rfind(stem, 0) == 0)
                return "serve." + group + "." + field.substr(stem.size());
    }
    return section + "." + stalls(field);
}

}  // namespace

TEST(ScenarioRun, MetricTableMatchesReport)
{
    // On a functional-kernel run, a serving run with resilience and
    // extra percentiles, and a fault run, every path the table accepts
    // resolves to the value the report carries at that path's place,
    // and every numeric report field is some path's place.
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        runs = {
            {kernel_doc(on("total.cycles")),
             {"kernel.f.verify_rel_err", "verify.max_rel_err",
              "event.g_done.cycle", "kernel.g.stall.scoreboard",
              "mem.l1_hits"}},
            {serving_doc(on("serve.latency_p99.5"), R"({"deadline_us": 5})"),
             {"serve.latency_p12.25", "serve.goodput", "serve.queue_depth_peak",
              "total.stall.tc_busy"}},
            {fault_doc(on("fault.slowdowns")),
             {"fault.hangs", "fault.disabled_sms", "kernel.h.stall_cycles"}},
        };
    for (const auto& [doc, must_accept] : runs) {
        const Scenario sc = parse_scenario_text(doc);
        const std::vector<std::string> paths = metric_paths(sc);
        for (const std::string& p : must_accept)
            EXPECT_NE(std::find(paths.begin(), paths.end(), p), paths.end())
                << sc.name << ": " << p;

        BatchReport batch;
        batch.results.push_back(run_scenario(sc));
        const ScenarioResult& r = batch.results[0];
        ASSERT_TRUE(r.error.empty()) << r.error;
        const JsonValue result =
            report_to_json(batch).find("results")->as_array()[0];
        const std::map<std::string, double> fields = report_fields(result);
        std::set<std::string> addressed;
        for (const std::string& p : paths) {
            EXPECT_NO_THROW(check_metric(p, sc)) << p;
            const double value = resolve_metric(r, p);
            if (p == "verify.max_rel_err") {
                // The report carries it as the implicit verify assertion.
                const JsonValue& a = result.find("assertions")->as_array()[0];
                EXPECT_EQ(a.find("metric")->as_string(), p);
                EXPECT_EQ(a.find("value")->as_number(), value);
                continue;
            }
            const std::string at = report_address(p, result);
            addressed.insert(at);
            const auto it = fields.find(at);
            if (it == fields.end()) {
                // Only a stall reason that never occurred is left out.
                EXPECT_NE(at.find(".stalls."), std::string::npos)
                    << sc.name << ": " << p << " -> " << at;
                EXPECT_EQ(value, 0.0) << p;
            } else {
                EXPECT_EQ(value, it->second) << p << " -> " << at;
            }
        }
        for (const auto& [at, value] : fields)
            EXPECT_TRUE(addressed.count(at) || at == "serve.flops")
                << sc.name << ": no metric addresses " << at;
    }
}