#!/usr/bin/env python3
"""Benchmark of the AITF simulator: end-to-end run metrics and per-layer
metrics, with the simulated outputs checked on every point.

Run from the repository root:

    python3 perfbench/run.py --workload crowd_100k --seed 1 --seconds 30 --trace 0

  --workload  crowd_100k, megatree_105k, star_bakeoff, or `all` to run
              each in turn (its last line then sums the three results and
              names metrics `<workload>/<metric>`)
  --trace 0   untraced runs: setup_s, wall_s, events_per_s, peak_rss_mb
  --trace 1   traced runs, alternated with untraced ones: every per-layer
              metric (phase spans, allocation counts, loop sub-layers,
              deterministic counts, engine, trace overhead)

The script builds the point runner in this directory twice (plain, and
with the `trace` feature under the `traced` profile) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs one process per
repetition until --seconds have passed. Each process runs the workload
once, so its peak RSS is the workload's alone. Reported values are
medians over the repetitions.

Every point must pass its workload's outcome checks, and every
repetition, traced or untraced, must reproduce the first untraced
repetition's event count and simulated outputs exactly. A point that
panics, fails a check or disagrees counts as failed; any failed point
makes the exit code 1. Every run first feeds the checker perturbed
outputs and refuses to pass unless each gives a failed point.

The workloads, and why each was chosen, are read from BENCHMARK.json at
the repository root; the point runner reports each workload's points.
Host facts and the seed are printed beside the results and written,
with the raw repetitions, to $CARGO_TARGET_DIR/perfbench/. Traced runs
also write their spans there when the run ends.

The last line of stdout is one JSON object:
{"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
"""

import argparse
import copy
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BINARY = "aitf-perfbench"
BUILDS = {
    False: ("release", ["--release"]),
    True: ("traced", ["--profile", "traced", "--features", "trace"]),
}
MIN_REPS = 3
REP_TIMEOUT_S = 60
# The phase spans of a traced point must cover this share of its wall.
MIN_SPAN_COVERAGE = 0.95

# Names the workloads and why each is in the benchmark. All run
# single-process with a single-shard event loop on at most two threads.
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# Which end-to-end metric each per-layer metric should move, on which
# workload — written down before measuring, so a claimed gain can be
# checked against where it was predicted to appear.
LAYER_MOVES = {
    "scenario.spec": "setup_s on crowd_100k",
    "core.build": "setup_s, wall_s and peak_rss_mb on crowd_100k and "
    "megatree_105k; nothing on star_bakeoff",
    "attack.compile": "near zero today; shows work moved from build into compile",
    "netsim.loop": "wall_s and events_per_s on star_bakeoff (loop ~100% of "
    "the run) and crowd_100k (~20%)",
    "core.teardown": "wall_s on crowd_100k and megatree_105k",
    "loop sub-layers": "router_datapath ns/event on crowd_100k against "
    "star_bakeoff: one layer, working set far above vs within cache",
    "deterministic counts": "nothing: a speed-only change leaves them identical",
    "engine": "wall_s on star_bakeoff, where the path_stamp point straggles",
}

# Loop sub-layers: (metric, subsystem bucket of Simulator::subsystem_profile).
SUBSYSTEMS = [
    ("netsim.queue_s", "netsim_queue"),
    ("netsim.link_s", "link"),
    ("core.host_app_s", "host_app"),
    ("core.router_datapath_s", "router_datapath"),
    ("defense.hook_s", "defense_hook"),
    ("core.escalation_s", "escalation"),
    ("core.detector_s", "detector"),
]
COUNTS = [
    "core.data_forwarded",
    "core.spoofed_dropped",
    "core.requests_received",
    "core.filters_installed",
    "filter.hits",
    "filter.evictions",
    "attack.tx_pkts",
    "defense.footprint",
]
PHASES = [
    "scenario.spec",
    "core.build",
    "attack.compile",
    "netsim.loop",
    "scenario.probes",
    "core.teardown",
    "scenario.drop",
]


def outcome_checks(workload, point, out):
    """The assertions the experiments' own tests make, as
    (description, holds) pairs."""
    if workload == "crowd_100k":
        return [
            ("leak_r < 0.25", out["leak_r"] < 0.25),
            ("legit_frac > 0.5", out["legit_frac"] > 0.5),
        ]
    if workload == "megatree_105k":
        return [
            ("hub_filters == 0", out["hub_filters"] == 0),
            ("leaf_filters >= zombies > 0",
             out["leaf_filters"] >= out["zombies"] > 0),
        ]
    checks = [("leak_r < 0.25", out["leak_r"] < 0.25)]
    if point == "aitf":
        checks.append(("legit_frac > 0.9", out["legit_frac"] > 0.9))
    return checks


def point_failures(workload, rep, expected):
    """Failed points of one repetition as {point: reason}. `expected`
    maps point name to the (events, outcome) every run must reproduce."""
    failures = {}
    if rep.get("error"):
        return {p: rep["error"] for p in expected}
    seen = {p["point"]: p for p in rep["points"]}
    for name in expected:
        p = seen.get(name)
        if p is None:
            failures[name] = "point missing from the report"
            continue
        out = p["outcome"]
        if "panic" in out:
            failures[name] = "panicked: " + out["panic"]
            continue
        try:
            bad = [d for d, ok in outcome_checks(workload, name, out) if not ok]
        except (KeyError, TypeError) as e:
            bad = ["outcome value missing or malformed: %r" % e]
        if bad:
            failures[name] = "outcome check failed: " + ", ".join(bad)
        elif (p["events"], out) != expected[name]:
            failures[name] = "%s run disagrees with the reference: events %d vs %d" % (
                "traced" if rep["traced"] else "untraced",
                p["events"],
                expected[name][0],
            )
        elif rep["traced"]:
            covered = sum(ph["end"] - ph["start"] for ph in p["phases"])
            wall = p["end"] - p["start"]
            if covered < MIN_SPAN_COVERAGE * wall:
                failures[name] = "phase spans cover %.1f%% of the point's wall" % (
                    100 * covered / wall
                )
    return failures


def failures_of(workload, reps, expected):
    """Every failed (point, reason) over the repetitions. The run is
    correct, and exits 0, only if this is empty."""
    failures = []
    for r in reps:
        failures += sorted(point_failures(workload, r, expected).items())
    return failures


def checker_can_fail(workload, reference):
    """Feeds the checker perturbed copies of a passing repetition: a
    changed event count, a changed outcome value, and an expected event
    count raised by one must each give a failed point, and so a run that
    is not correct and exits nonzero."""
    expected = expectations(reference)
    name = reference["points"][0]["point"]
    bumped = copy.deepcopy(reference)
    bumped["points"][0]["events"] += 1
    skewed = copy.deepcopy(reference)
    skewed["points"][0]["outcome"]["leak_r"] = 1.0
    raised = dict(expected)
    raised[name] = (expected[name][0] + 1, expected[name][1])
    cases = [([bumped], expected), ([skewed], expected), ([reference], raised)]
    return all(
        any(p == name for p, _ in failures_of(workload, reps, exp))
        for reps, exp in cases
    )


def expectations(rep):
    return {p["point"]: (p["events"], p["outcome"]) for p in rep["points"]}


def host_facts():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rustc = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "rustc": rustc,
        "kernel": platform.release(),
    }


def build(target_dir):
    """Builds both point runners; returns {traced: path} or None."""
    paths = {}
    for traced, (profile, flags) in BUILDS.items():
        r = subprocess.run(
            ["cargo", "build", "--offline", "--quiet", "--manifest-path", MANIFEST]
            + flags,
            stdout=sys.stderr,
            env=dict(os.environ, CARGO_TARGET_DIR=target_dir),
        )
        if r.returncode != 0:
            return None
        paths[traced] = os.path.join(target_dir, profile, BINARY)
    return paths


def run_rep(binary, workload, seed):
    """One process, one run of the workload."""
    try:
        r = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": "timed out after %d s" % REP_TIMEOUT_S, "traced": None}
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        return {"error": "exit code %d" % r.returncode, "traced": None}
    try:
        return json.loads(r.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"error": "unreadable report", "traced": None}


def sweep_wall(rep):
    return rep["sweep_end"] - rep["sweep_start"]


def end_to_end(reps):
    return {
        "setup_s": (median([sum(p["setup_s"] for p in r["points"]) for r in reps]), "s"),
        "wall_s": (median([sweep_wall(r) for r in reps]), "s"),
        "events_per_s": (
            median([sum(p["events"] for p in r["points"]) / sweep_wall(r) for r in reps]),
            "1/s",
        ),
        "peak_rss_mb": (median([r["peak_rss_kb"] / 1024 for r in reps]), "MB"),
    }


def per_layer(traced, untraced):
    """Per-layer metrics: medians over traced repetitions of per-rep sums
    over points."""

    def phase_sum(rep, name, key):
        total = 0
        for p in rep["points"]:
            for ph in p["phases"]:
                if ph["name"] == name:
                    total += ph["end"] - ph["start"] if key == "s" else ph["allocs"]
        return total

    def med(f):
        return median([f(r) for r in traced])

    def outcome_sum(rep, key):
        return sum(p["outcome"][key] for p in rep["points"])

    def bucket(rep, name, key):
        return sum(p["subsystems"][name][key] for p in rep["points"])

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in ["scenario.spec", "core.build", "attack.compile", "netsim.loop"]:
        m[layer + "_s"] = (med(lambda r: phase_sum(r, layer, "s")), "s")
        m[layer + "_allocs"] = (med(lambda r: phase_sum(r, layer, "allocs")), "count")
    m["core.build_allocs_per_node"] = (
        med(
            lambda r: phase_sum(r, "core.build", "allocs")
            / sum(p["nodes"] for p in r["points"])
        ),
        "count/node",
    )
    m["netsim.events"] = (med(lambda r: sum(p["events"] for p in r["points"])), "count")
    m["netsim.loop_events_per_s"] = (
        med(
            lambda r: sum(p["events"] for p in r["points"])
            / phase_sum(r, "netsim.loop", "s")
        ),
        "1/s",
    )
    m["core.teardown_s"] = (med(lambda r: phase_sum(r, "core.teardown", "s")), "s")
    for metric, name in SUBSYSTEMS:
        m[metric] = (med(lambda r: bucket(r, name, "nanos") / 1e9), "s")
    m["core.router_datapath_ns_per_event"] = (
        med(
            lambda r: ratio(
                bucket(r, "router_datapath", "nanos"),
                bucket(r, "router_datapath", "events"),
            )
        ),
        "ns",
    )
    for key in COUNTS:
        m[key] = (med(lambda r: outcome_sum(r, key)), "count")
    # 0 when no request arrived at all (crowd_100k: ingress filtering
    # drops the spoofed flood before any victim asks for a filter).
    m["core.requests_accepted_frac"] = (
        med(
            lambda r: ratio(
                outcome_sum(r, "core.requests_accepted"),
                outcome_sum(r, "core.requests_received"),
            )
        ),
        "ratio",
    )
    m["filter.hit_frac"] = (
        med(
            lambda r: ratio(
                outcome_sum(r, "filter.hits"),
                outcome_sum(r, "filter.hits") + outcome_sum(r, "filter.misses"),
            )
        ),
        "ratio",
    )
    m["engine.sweep_s"] = (med(sweep_wall), "s")
    m["engine.busy_frac"] = (
        med(
            lambda r: sum(p["end"] - p["start"] for p in r["points"])
            / (r["workers"] * sweep_wall(r))
        ),
        "ratio",
    )
    m["trace.overhead_s"] = (
        med(sweep_wall) - median([sweep_wall(r) for r in untraced]),
        "s",
    )
    return m


def spans_of(reps):
    """Flattens traced repetitions into span records: name, start, end,
    parent. The sweep is the root; each point's phases share its id."""
    spans = []
    for rep_i, rep in enumerate(reps):
        sweep = len(spans)
        spans.append({"id": sweep, "rep": rep_i, "name": "engine.sweep",
                      "parent": None, "point": None,
                      "start": rep["sweep_start"], "end": rep["sweep_end"]})
        for p in rep["points"]:
            point = len(spans)
            spans.append({"id": point, "rep": rep_i, "name": "point",
                          "parent": sweep, "point": point, "label": p["point"],
                          "start": p["start"], "end": p["end"]})
            for ph in p["phases"]:
                spans.append({"id": len(spans), "rep": rep_i, "name": ph["name"],
                              "parent": point, "point": point,
                              "start": ph["start"], "end": ph["end"],
                              "allocs": ph["allocs"]})
    return spans


def self_times(spans, reps):
    """Median per-rep self time of each span name: its duration minus the
    part of it its children cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    per_rep = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], [])):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        per_rep.setdefault(s["name"], [0.0] * reps)[s["rep"]] += (
            s["end"] - s["start"] - covered
        )
    return {name: median(v) for name, v in per_rep.items()}


def run_workload(workload, why, args, binaries, host, target_dir):
    """Runs, checks and reports one workload; returns its result object."""
    seed, traced_mode = args.seed, args.trace == 1
    print("workload: %s  seed: %d  trace: %d" % (workload, seed, args.trace))
    print("why: " + why)

    # Untraced repetitions for --trace 0; traced ones alternated with
    # untraced ones for --trace 1. The first untraced repetition is the
    # reference every other repetition must reproduce.
    reps = {False: [], True: []}
    order = [False, True] if traced_mode else [False]
    deadline = time.monotonic() + args.seconds
    while True:
        for traced in order:
            reps[traced].append(run_rep(binaries[traced], workload, seed))
        if time.monotonic() >= deadline and len(reps[order[-1]]) >= MIN_REPS:
            break
    if not traced_mode:
        # One traced run, outside the timed window, so the traced and
        # untraced simulated outputs are compared in every run.
        reps[True].append(run_rep(binaries[True], workload, seed))

    all_reps = reps[False] + reps[True]
    reference = reps[False][0]
    notes = []
    if reference.get("error"):
        # Without a reference the points are unknown: the whole workload
        # counts as one failed point per repetition.
        expected = {workload: None}
        checker_ok = False
    else:
        expected = expectations(reference)
        checker_ok = checker_can_fail(workload, reference)
        if not checker_ok:
            notes.append("the checker did not flag a perturbed output")
    failures = failures_of(workload, all_reps, expected)
    attempted = len(all_reps) * len(expected)
    failed = len(failures)
    for point, reason in failures[:10]:
        print("FAILED %s: %s" % (point, reason))
    for n in notes:
        print("note: " + n)

    good = {t: [r for r in reps[t] if not r.get("error")] for t in reps}
    metrics = {}
    if traced_mode and good[True] and good[False]:
        metrics = per_layer(good[True], good[False])
        spans = spans_of(good[True])
        selfs = self_times(spans, len(good[True]))
        print("self time per layer (median over %d traced runs):" % len(good[True]))
        for name in ["engine.sweep", "point"] + PHASES:
            print("  %-16s %10.4f s" % (name, selfs.get(name, 0.0)))
        print("predicted effect of each layer on the end-to-end metrics:")
        for layer, moves in LAYER_MOVES.items():
            print("  %-20s -> %s" % (layer, moves))
        write_json(target_dir, "trace-%s-seed%d.json" % (workload, seed),
                   {"host": host, "workload": workload, "seed": seed, "spans": spans})
    elif not traced_mode and good[False]:
        metrics = end_to_end(good[False])
    print("metrics (median over %d runs):" % len(good[traced_mode]))
    for name, (value, unit) in metrics.items():
        print("  %-36s %16.6g %s" % (name, value, unit))
    print("  %-36s %16.6g %s" % ("failed_frac", failed / attempted, "ratio"))

    result = {
        "correct": failed == 0 and checker_ok and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    write_json(target_dir, "result-%s-seed%d-trace%d.json" % (workload, seed, args.trace),
               {"host": host, "workload": workload, "seed": seed, "trace": args.trace,
                "result": result, "failures": failures, "reps": all_reps})
    return result


def write_json(target_dir, name, doc):
    path = os.path.join(target_dir, "perfbench", name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f)


def main():
    with open(BENCHMARK) as f:
        whys = {w["name"]: w["why"] for w in json.load(f)["workloads"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(whys) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binaries = build(target_dir)
    if binaries is None:
        sys.stderr.write("perfbench: build failed\n")
        return 2

    host = host_facts()
    print("host: " + json.dumps(host, sort_keys=True))
    names = list(whys) if args.workload == "all" else [args.workload]
    results = {
        w: run_workload(w, whys[w], args, binaries, host, target_dir) for w in names
    }
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
