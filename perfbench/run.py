#!/usr/bin/env python3
"""The ncp2sim benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload paper16|scale1024|serve16|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds perfbench/ (the simulator's
libraries plus the runner in perfbench/src) into .bench_build/perfbench,
runs the workload in one child process, checks the results, prints every
metric with its unit and, as the last line of stdout, one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones. What
each metric means and which layer should move which metric is in
perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("paper16", "scale1024", "serve16")
VARIANTS = ("Base", "IPD", "AURC")
CHILD_TIMEOUT_S = 170

# A metric that does not apply to a workload (AURC cycles on serve16,
# request latency on paper16, ...) is reported as this constant, so
# every workload prints every metric and none is ever 0.
NOT_APPLICABLE = 1.0

# The backlog guard: a serve16 simulation fails when the mean queueing
# delay of its latest quarter of arrivals exceeds GROWTH times that of
# its earliest quarter plus one mean service time. A stable queue keeps
# the two close; a backlog grows linearly, putting the late quarter
# near 7x the early one.
BACKLOG_GROWTH = 2.0

# Host times are reported at a reference host speed: each simulation's
# times are scaled by CAL_REF_S over the mean probe time of the probe
# batches (src/calibrate.cc) that bracket it. CAL_REF_S is the probe's
# typical time on the 4-vCPU Xeon VM (2.0 GHz) the benchmark was defined
# on, so scaled seconds read close to that machine's wall seconds.
CAL_REF_S = 0.026



def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    """Configure once, then build incrementally; returns the runner path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under %s/src; run from the root "
             "of a full checkout" % ROOT)
    out = sys.stderr
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=out, stderr=out, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=out, stderr=out, check=True)
    return os.path.join(BUILD, "perfbench")


def run_child(binary, workload, seed, seconds, trace, extra=(),
              min_sets=None, env=None):
    """Run one workload in its own process; returns its JSON records.

    At least four sets: a warm-up set and three timed ones, so medians
    have a middle; a traced run alternates untraced and traced sets and
    ends on an untraced one. @p extra,
    @p min_sets and @p env are for the benchmark's own tests.
    """
    if min_sets is None:
        min_sets = 4
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--min-sets", str(min_sets)]
    if trace:
        cmd += ["--spans", os.path.join(BUILD, "spans-%s.json" % workload)]
    cmd += list(extra)
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           timeout=CHILD_TIMEOUT_S, text=True, env=env)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, CHILD_TIMEOUT_S))
    if p.returncode != 0:
        fail("%s runner exited with %d" % (workload, p.returncode))
    return [json.loads(l) for l in p.stdout.splitlines() if l.startswith("{")]


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def check(records):
    """Mark failed simulations; returns (attempted, failed, problems).

    A simulation fails when it threw (validate failures, fatal/panic,
    the watchdog and deadlock detection all throw), when its digest of
    every simulated statistic differs from the first run of the same
    simulation in this process (traced runs included), or when it trips
    the backlog guard.
    """
    first = {}
    attempted = failed = 0
    problems = []
    for r in records:
        if r["type"] != "sim":
            continue
        attempted += 1
        why = None
        if not r["ok"]:
            why = "threw: " + r["error"]
        else:
            want = first.setdefault(r["name"], r["digest"])
            if r["digest"] != want:
                why = "digest %s differs from %s" % (r["digest"], want)
            elif "backlog" in r:
                b = r["backlog"]
                limit = (BACKLOG_GROWTH * b["early_queue_mean"] +
                         b["service_mean"])
                if b["late_queue_mean"] > limit:
                    why = ("backlog grows: late-quarter queueing %.0f > "
                           "%.0f cycles" % (b["late_queue_mean"], limit))
        if why:
            failed += 1
            problems.append("set %d %s: %s" % (r["set"], r["name"], why))
    return attempted, failed, problems


def sets_of(records, traced):
    """Per set, in order: its sim records and its serve record (or None)."""
    out = {}
    for r in records:
        if r.get("traced") != traced or r["type"] not in ("sim", "serve"):
            continue
        s = out.setdefault(r["set"], {"sims": [], "serve": None})
        if r["type"] == "sim":
            s["sims"].append(r)
        else:
            s["serve"] = r
    return [out[k] for k in sorted(out)]


def scaled(sim, key):
    """Host seconds @p key of @p sim at the reference host speed."""
    return sim["host"][key] * CAL_REF_S / sim["host"]["cal_s"]


def set_median(sets, key, scale=True):
    """Median over @p sets of host time @p key summed over the set's
    reference simulations (scaled to the reference host speed). The
    held-out serve16 schedule changes with --seed, and its host time
    with it, so it is checked but not timed."""
    return statistics.median(
        sum(scaled(x, key) if scale else x["host"][key]
            for x in s["sims"] if x["reference"]) for s in sets)


def end_to_end(records, problems):
    sets = sets_of(records, False)
    end = [r for r in records if r["type"] == "end"][0]
    ok = [s for s in sets[0]["sims"] if s["ok"] and s["reference"]]
    # Set 0 is the warm-up: it runs in a cold process heap (scale1024
    # constructs 4x slower there), so host times come from later sets.
    if len(sets) < 2:
        fail("need at least two sets, one of them the warm-up")
    m = {
        "wall_s": set_median(sets[1:], "wall_s"),
        "setup_s": set_median(sets[1:], "construct_s"),
        "peak_rss_mb": end["peak_rss_mb"],
        "sim_Mcycles": geomean([s["exec_ticks"] / 1e6 for s in ok]),
    }
    for v in VARIANTS:
        ticks = [s["exec_ticks"] / 1e6 for s in ok if s["variant"] == v]
        m["sim_Mcycles." + v] = geomean(ticks) if ticks else NOT_APPLICABLE
    serve = sets[0]["serve"]
    lat = {"lat_read_p50_cycles": "read_p50",
           "lat_read_p999_cycles": "read_p999",
           "lat_write_p50_cycles": "write_p50",
           "lat_write_p99_cycles": "write_p99"}
    for name, key in lat.items():
        m[name] = serve[key] if serve else NOT_APPLICABLE
    if serve:
        # The reported percentiles must rest on >= 10 samples beyond them.
        for key in ("read_beyond_p999", "write_beyond_p99"):
            if serve[key] < 10:
                problems.append("%s only %d samples" % (key, serve[key]))
    return m


def per_layer(records):
    traced = sets_of(records, True)
    untraced = sets_of(records, False)

    # Counts and spans cover the reference simulations, so per-layer
    # figures repeat exactly from one --seed to the next.
    sims = [x for x in traced[0]["sims"] if x["reference"]]
    c = lambda key: sum(x["counts"].get(key, 0.0) for x in sims)
    host = lambda key: set_median(traced, key)
    simulate = (host("run_s") - host("plan_s") - host("validate_s"))
    m = {
        "sim.events": c("sim.events"),
        "sim.fiber_yields": c("sim.fiber_yields"),
        "sim.host_ns_per_event": ratio(simulate * 1e9, c("sim.events")),
        "dsm.construct_s": host("construct_s"),
        "dsm.destruct_s": host("destruct_s"),
        "apps.plan_s": host("plan_s"),
        "apps.validate_s": host("validate_s"),
        "dsm.simulate_s": simulate,
        # Set 0 is the warm-up; compare warm sets only.
        "trace.overhead_s":
            set_median(traced, "wall_s") - set_median(untraced[1:], "wall_s"),
        "host.speed": statistics.median(
            CAL_REF_S / x["host"]["cal_s"] for s in traced + untraced
            for x in s["sims"]),
        "host.unscaled_wall_s": set_median(untraced[1:], "wall_s",
                                           scale=False),
        "dsm.slow_path_calls": c("dsm.slow_path_calls"),
        "dsm.write_hook_calls": c("dsm.write_hook_calls"),
        "dsm.acquire_calls": c("dsm.acquire_calls"),
        "dsm.release_calls": c("dsm.release_calls"),
        "dsm.barrier_calls": c("dsm.barrier_calls"),
        "dsm.slow_path_ratio":
            ratio(c("dsm.slow_path_calls"), c("mem.accesses")),
        "dsm.host_ns_per_access": ratio(simulate * 1e9, c("mem.accesses")),
    }
    for cat in ("busy", "data", "synch", "ipc", "others", "idle",
                "diff_cpu", "diff_ctrl"):
        m["dsm.%s_Mcycles" % cat] = c("dsm.%s_cycles" % cat) / 1e6
    tmk = {"page_fetches": "page_fetches", "diff_requests": "diff_requests",
           "diffs_created": "diffs_created", "diffs_applied": "diffs_applied",
           "diff_words_moved": "diff_words", "twins_created": "twins",
           "write_notices": "write_notices", "lock_acquires": "lock_acquires",
           "barriers": "barriers"}
    for name, key in tmk.items():
        m["tmk." + name] = c("tmk." + key)
    m["tmk.lock_fast_grant_ratio"] = ratio(c("tmk.lock_fast_grants"),
                                           c("tmk.lock_acquires"))
    m["tmk.prefetch_useful_ratio"] = ratio(
        c("tmk.prefetches") - c("tmk.prefetches_useless"), c("tmk.prefetches"))
    m["tmk.empty_diff_ratio"] = ratio(c("tmk.empty_diffs"),
                                      c("tmk.diffs_created"))
    for name in ("updates_sent", "update_words", "wcache_hits",
                 "page_fetches", "update_drain_waits"):
        m["aurc." + name] = c("aurc." + name)
    m["ctrl.commands"] = c("ctrl.commands")
    for name in ("core_busy", "queue_wait", "dma_busy"):
        m["ctrl.%s_Mcycles" % name] = c("ctrl.%s_cycles" % name) / 1e6
    m["net.messages"] = c("net.messages")
    m["net.MB"] = c("net.bytes") / 1e6
    m["net.latency_Mcycles"] = c("net.latency_cycles") / 1e6
    m["net.contention_Mcycles"] = c("net.contention_cycles") / 1e6
    m["mem.accesses"] = c("mem.accesses")
    m["mem.cache_miss_ratio"] = ratio(c("mem.cache_misses"),
                                      c("mem.cache_probes"))
    m["mem.tlb_miss_ratio"] = ratio(c("mem.tlb_misses"), c("mem.accesses"))
    m["mem.bus_busy_Mcycles"] = c("mem.bus_busy_cycles") / 1e6
    m["pcib.busy_Mcycles"] = c("pcib.busy_cycles") / 1e6
    serve = traced[0]["serve"]
    backlog = [s["backlog"] for s in sims if "backlog" in s]
    m["serve.requests"] = serve["requests"] if serve else 0
    m["serve.queue_p99_cycles"] = serve["queue_p99"] if serve else 0
    m["serve.service_p99_cycles"] = serve["service_p99"] if serve else 0
    m["serve.backlog_growth"] = max(
        (ratio(b["late_queue_mean"], b["early_queue_mean"])
         for b in backlog), default=0.0)
    return m


def run_workload(binary, spec, workload, seed, seconds, trace, **child):
    """Run one workload; returns the result object for the last line."""
    records = run_child(binary, workload, seed, seconds, trace, **child)
    attempted, failed, problems = check(records)
    if trace:
        metrics = per_layer(records)
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end(records, problems)
        metrics["ok_frac"] = 1.0 - ratio(failed, attempted)
        wanted = spec["end_to_end"]
    names = [w["name"] for w in wanted]
    if sorted(names) != sorted(metrics):
        fail("metrics %s do not match BENCHMARK.json %s"
             % (sorted(metrics), sorted(names)))
    for p in problems:
        print("FAILED " + p, file=sys.stderr)
    print("== %s (seed %d, %s, %d simulations, %d failed) ==" % (
        workload, seed, "traced" if trace else "untraced", attempted,
        failed))
    for w in wanted:
        print("  %-28s %16.6f %s" % (w["name"], metrics[w["name"]],
                                     w["unit"]))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {w["name"]: {"value": metrics[w["name"]],
                                "unit": w["unit"]} for w in wanted},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    spec = load_spec()
    binary = build()
    todo = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(binary, spec, w, args.seed, args.seconds,
                            args.trace) for w in todo]
    if len(results) == 1:
        out = results[0]
    else:
        out = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {"%s/%s" % (w, k): v for w, r in zip(todo, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
