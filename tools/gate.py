#!/usr/bin/env python3
"""The scenario gates: one script, a table of named checks.

Each gate runs simrunner over the committed scenarios (``scenarios/``
next to this script's directory) and checks what the simulator
promises:

  identity  The whole suite at ``--jobs 1 --sim-threads 1`` against
            ``--jobs 2 --sim-threads 4``: the batch reports must be
            identical modulo wall-clock fields.  This proves the
            parallel core, the batch runner, the serving loop and
            fault injection deterministic.
  serving   Reads the identity gate's two reports from the same
  fault     workdir (it must have run first) and checks one class of
            result: the serving results, or those carrying a fault or
            serve-resilience block.  The class must be non-empty and
            identical across the legs, so the identity gate cannot
            pass vacuously for it.
  fork      The sweep scenario forked from its prefix snapshot against
            ``--cold-sweep`` (every point from cycle 0): identical
            reports, the snapshot contract end to end.
  replay    Each replay scenario (the serving pair and a non-serving
            event DAG) at full detail, then ``--replay=record`` into
            a private cache, then ``--replay`` warmed from it.  Total
            cycles and serve latency percentiles must be within 5% of
            full detail, instruction counters exact, and the replay
            legs must hit the cache at least once.  This is the
            replay cache's accuracy check.
  dag       ``--dump-dag`` over the suite: every JSON artifact is
            well-formed, every wait names an event an earlier task on
            another stream records, and every DOT twin is a Graphviz
            digraph.

Reports are compared after stripping the wall-clock keys in
``WALL_KEYS``; everything else (cycles, counters, events, serve
timelines, assertion values) must match exactly.

Usage:
    tools/gate.py <gate> <simrunner> <workdir>

Exit status: 0 when the gate holds, 1 otherwise.
"""

import glob
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = os.path.join(ROOT, "scenarios")

# Wall-clock shaped keys, legitimately run-dependent: stripped before
# reports are compared.  Each result's "sim" block is telemetry.
WALL_KEYS = {"wall_ms", "ticks_per_sec", "sim_threads", "jobs", "sim"}

REPLAY_BOUND = 0.05
REPLAY_SCENARIOS = ("serving_mlp6_continuous.json",
                    "serving_mlp6_static.json",
                    "event_dag_mlp3.json")
FORK_SCENARIO = "sweep_fig14a_sizes.json"


def simrunner_report(simrunner, args, report):
    """Run simrunner with @p args writing @p report; return its exit
    status."""
    cmd = [simrunner, "--quiet", "--report", report] + args
    print("+", " ".join(cmd), flush=True)
    return subprocess.call(cmd)


def load(path):
    with open(path) as f:
        return json.load(f)


def strip(node):
    """Recursively remove the wall-clock keys from a parsed report."""
    if isinstance(node, dict):
        return {k: strip(v) for k, v in node.items() if k not in WALL_KEYS}
    if isinstance(node, list):
        return [strip(v) for v in node]
    return node


def diff(a, b, path="$"):
    """Yield human-readable difference lines between two JSON trees."""
    if type(a) is not type(b):
        yield "{}: type {} vs {}".format(path, type(a).__name__,
                                         type(b).__name__)
    elif isinstance(a, dict):
        for k in sorted(set(a) | set(b)):
            sub = "{}.{}".format(path, k)
            if k not in a:
                yield "{}: only in the second report".format(sub)
            elif k not in b:
                yield "{}: only in the first report".format(sub)
            else:
                yield from diff(a[k], b[k], sub)
    elif isinstance(a, list):
        if len(a) != len(b):
            yield "{}: length {} vs {}".format(path, len(a), len(b))
        for i, (x, y) in enumerate(zip(a, b)):
            yield from diff(x, y, "{}[{}]".format(path, i))
    elif a != b:
        yield "{}: {} vs {}".format(path, a, b)


IDENTITY_LEGS = [("serial", ["--jobs", "1", "--sim-threads", "1"]),
                 ("j2t4", ["--jobs", "2", "--sim-threads", "4"])]


def leg_report(workdir, name):
    return os.path.join(workdir, "report_{}.json".format(name))


def compare_legs(simrunner, workdir, inputs, legs):
    """Run the two @p legs ((name, extra simrunner args) pairs) over
    @p inputs and return (problems, first report).  A scenario failure
    in either leg is a problem too, reported after the diff."""
    reports = [leg_report(workdir, name) for name, _ in legs]
    codes = [simrunner_report(simrunner, args + inputs, report)
             for (_, args), report in zip(legs, reports)]
    problems = []
    differences = list(diff(strip(load(reports[0])),
                            strip(load(reports[1]))))
    if differences:
        problems.append("{} and {} reports differ:".format(legs[0][0],
                                                           legs[1][0]))
        problems += ["  " + d for d in differences]
    for (name, _), code in zip(legs, codes):
        if code != 0:
            problems.append("{} leg: simrunner reported failures".format(
                name))
    return problems, load(reports[0])


def gate_identity(simrunner, workdir):
    problems, serial = compare_legs(simrunner, workdir, [SCENARIOS],
                                    IDENTITY_LEGS)
    return problems, "{} results identical at jobs=2 x sim_threads=4".format(
        len(serial.get("results", [])))


def identity_class(workdir, label, member):
    """Check the results of the identity gate's reports in @p workdir
    for which @p member holds: present, and identical across legs."""
    try:
        reports = [load(leg_report(workdir, name))
                   for name, _ in IDENTITY_LEGS]
    except FileNotFoundError as exc:
        return ["{} (run the identity gate first)".format(exc)], ""
    legs = [[r for r in report.get("results", []) if member(r)]
            for report in reports]
    problems = ["  " + d for d in diff(strip(legs[0]), strip(legs[1]))]
    if problems:
        problems.insert(0, "{} results differ between the legs:".format(
            label))
    if not legs[0]:
        problems.append("no {} result: the identity gate would be vacuous "
                        "for it".format(label))
    return problems, ("{} {} results identical at jobs=2 x "
                      "sim_threads=4".format(len(legs[0]), label))


def gate_serving(simrunner, workdir):
    return identity_class(workdir, "serving", lambda r: "serve" in r)


def gate_fault(simrunner, workdir):
    return identity_class(
        workdir, "fault/resilience",
        lambda r: "fault" in r or "resilience" in r.get("serve", {}))


def gate_fork(simrunner, workdir):
    problems, forked = compare_legs(
        simrunner, workdir, [os.path.join(SCENARIOS, FORK_SCENARIO)],
        [("forked", ["--jobs", "1", "--sim-threads", "1"]),
         ("cold", ["--jobs", "1", "--sim-threads", "1", "--cold-sweep"])])
    return problems, "{} forked sweep points identical to cold reruns".format(
        len(forked.get("results", [])))


def gate_replay(simrunner, workdir):
    """Each input gets its own cache: a key's duration sequence is
    indexed by per-run occurrence order, so scenarios sharing
    fingerprints would overwrite each other's slots in a shared cache.
    The replay leg's own expect bands are advisory (they are tuned for
    full detail); the bound here is the contract replay makes."""
    problems = []
    hits = 0
    for scenario in REPLAY_SCENARIOS:
        inp = [os.path.join(SCENARIOS, scenario)]
        stem = os.path.splitext(scenario)[0]
        cache = os.path.join(workdir, "cache_" + stem)
        full = os.path.join(workdir, stem + "_full.json")
        record = os.path.join(workdir, stem + "_record.json")
        replay = os.path.join(workdir, stem + "_replay.json")
        # Record into an empty cache: a directory left by an earlier
        # run (or an older archive version) would be merged first.
        shutil.rmtree(cache, ignore_errors=True)
        if simrunner_report(simrunner, ["--jobs", "1"] + inp, full) != 0:
            problems.append("{}: full-detail leg failed".format(stem))
            continue
        if simrunner_report(simrunner, ["--jobs", "1", "--replay=record",
                                        "--replay-cache", cache] + inp,
                            record) != 0:
            problems.append("{}: record leg failed (recording must not "
                            "perturb execution)".format(stem))
            continue
        simrunner_report(simrunner, ["--jobs", "1", "--replay=replay",
                                     "--replay-cache", cache] + inp, replay)
        replayed = {r["name"]: r for r in load(replay).get("results", [])}
        for f in load(full).get("results", []):
            name = f["name"]
            r = replayed.get(name)
            if r is None:
                problems.append("{}: missing from the replay report".format(
                    name))
                continue
            if r.get("error"):
                problems.append("{}: replay run errored: {}".format(
                    name, r["error"]))
                continue
            hits += r.get("replay", {}).get("hits", 0)
            for counter in ("instructions", "hmma_instructions"):
                if f["total"][counter] != r["total"][counter]:
                    problems.append("{}: total.{} full={} replay={} "
                                    "(profile counters are "
                                    "shape-deterministic)".format(
                                        name, counter, f["total"][counter],
                                        r["total"][counter]))
            fl = f.get("serve", {}).get("latency_cycles", {})
            rl = r.get("serve", {}).get("latency_cycles", {})
            bounded = [("total.cycles", f["total"]["cycles"],
                        r["total"]["cycles"])]
            bounded += [("latency " + k, fl[k], rl.get(k)) for k in sorted(fl)]
            for what, fv, rv in bounded:
                if rv is None:
                    problems.append("{}: {} missing from replay".format(
                        name, what))
                    continue
                err = abs(rv - fv) / fv if fv else 0.0
                print("{} {}: {} full={} replay={} rel_err={:.4f}".format(
                    "ok  " if err <= REPLAY_BOUND else "FAIL", name, what,
                    fv, rv, err))
                if err > REPLAY_BOUND:
                    problems.append("{}: {} rel_err {:.4f} > {}".format(
                        name, what, err, REPLAY_BOUND))
    if hits == 0:
        problems.append("the replay legs never hit the cache: the gate "
                        "would be vacuous")
    return problems, ("replay within {:.0%} of full-detail cycles and "
                      "serve percentiles, counters exact, {} hit(s)".format(
                          REPLAY_BOUND, hits))


def check_dag(path, problems):
    dag = load(path)
    for key in ("scenario", "declarative", "num_streams", "tasks", "edges",
                "tensors"):
        if key not in dag:
            problems.append("{}: missing key {!r}".format(path, key))
            return

    names = [t["name"] for t in dag["tasks"]]
    if len(set(names)) != len(names):
        problems.append("{}: duplicate task names".format(path))
    by_name = {t["name"]: t for t in dag["tasks"]}

    if dag["declarative"]:
        tensor_names = {t["name"] for t in dag["tensors"]}
        for t in dag["tasks"]:
            if not 1 <= t["stream"] <= dag["num_streams"]:
                problems.append("{}: task {!r} stream {} outside 1..{}"
                                .format(path, t["name"], t["stream"],
                                        dag["num_streams"]))
            for ref in t.get("reads", []) + t.get("writes", []):
                if ref not in tensor_names:
                    problems.append("{}: task {!r} references unknown "
                                    "tensor {!r}".format(path, t["name"],
                                                         ref))

    for e in dag["edges"]:
        for end in (e["from"], e["to"]):
            if end not in by_name:
                problems.append("{}: edge endpoint {!r} is not a task"
                                .format(path, end))
        if e.get("event"):
            if by_name.get(e["from"], {}).get("record_event") != e["event"]:
                problems.append("{}: edge {} -> {} waits on {!r} which its "
                                "producer does not record".format(
                                    path, e["from"], e["to"], e["event"]))

    # Each wait must name an event an earlier task on another stream
    # records (same-stream order needs no event).
    recorder = {}
    for t in dag["tasks"]:
        for ev in t["wait_events"]:
            producer = recorder.get(ev)
            if producer is None or producer["stream"] == t["stream"]:
                problems.append("{}: task {!r} waits on {!r}, which no "
                                "earlier task on another stream records"
                                .format(path, t["name"], ev))
        if t.get("record_event"):
            recorder[t["record_event"]] = t


def gate_dag(simrunner, workdir):
    dump_dir = os.path.join(workdir, "dag_dump")
    cmd = [simrunner, "--dump-dag", dump_dir, SCENARIOS]
    print("+", " ".join(cmd), flush=True)
    if subprocess.call(cmd) != 0:
        return ["simrunner --dump-dag exited nonzero"], ""

    problems = []
    jsons = sorted(glob.glob(os.path.join(dump_dir, "*.dag.json")))
    if not jsons:
        problems.append("{}: no .dag.json artifacts produced".format(
            dump_dir))
    for path in jsons:
        try:
            check_dag(path, problems)
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            problems.append("{}: {}".format(path, exc))
        dot = path[:-len(".json")] + ".dot"
        if not os.path.exists(dot):
            problems.append("{}: missing DOT twin".format(dot))
            continue
        with open(dot) as f:
            text = f.read()
        if not text.startswith("digraph") or not text.rstrip().endswith("}"):
            problems.append("{}: does not look like a Graphviz digraph"
                            .format(dot))
    return problems, "{} DAG dump(s) valid".format(len(jsons))


GATES = {
    "identity": gate_identity,
    "serving": gate_serving,
    "fault": gate_fault,
    "fork": gate_fork,
    "replay": gate_replay,
    "dag": gate_dag,
}


def main(argv):
    if len(argv) != 4 or argv[1] not in GATES:
        print("usage: gate.py {{{}}} <simrunner> <workdir>".format(
            ",".join(GATES)), file=sys.stderr)
        return 2
    name, simrunner, workdir = argv[1:]
    os.makedirs(workdir, exist_ok=True)
    problems, summary = GATES[name](simrunner, workdir)
    if problems:
        print("gate {}: FAILED".format(name))
        for p in problems[:50]:
            print("  ", p)
        if len(problems) > 50:
            print("   ... and {} more".format(len(problems) - 50))
        return 1
    print("gate {}: OK — {}".format(name, summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
