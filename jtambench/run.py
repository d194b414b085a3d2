#!/usr/bin/env python3
"""jtam benchmark runner.

    python3 jtambench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the harness (jtambench/jtambench.cpp linked against the simulator
library built from src/) into .bench_build/jtambench, runs one workload in a
child process, checks every simulation's digest against the digests recorded
in jtambench/digests.json, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
declared in jtambench/metrics.json.  The line before it, prefixed "report ",
carries provenance and the per-simulation digests.

    python3 jtambench/run.py --record

re-records digests.json at the default seed (every workload, both modes
must agree) after a change that is meant to alter simulated statistics.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "jtambench")
BINARY = os.path.join(BUILD, "jtambench")
SPANS = os.path.join(ROOT, ".bench_build", "spans")
DEADLINE_S = 170  # every run must end within 180 s once built
QS_PREFIX = "qs/"  # the only seeded program


def log(msg):
    print("jtambench: " + msg, file=sys.stderr, flush=True)


def load_json(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no simulator sources (src/CMakeLists.txt) next to the benchmark")
        sys.exit(2)
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "jtambench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            sys.exit(3)


def source_id():
    """git commit when the tree is a checkout, else a hash of the sources."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "jtambench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def run_harness(workload, seed, seconds, trace, budget_s):
    os.makedirs(SPANS, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans",
                os.path.join(SPANS, "%s-seed%d.json" % (workload, seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(budget_s, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("harness exceeded its %.0f s budget" % budget_s)
        sys.exit(4)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("harness failed with exit code %d" % proc.returncode)
        sys.exit(5)
    return json.loads(lines[-1])


def score(report, recorded, default_seed):
    """Counts simulation runs and failures; a digest that differs from the
    recorded one fails every run of that simulation.  Recorded digests are
    for the default seed; at other seeds only quicksort's input changes,
    so every other simulation must still match."""
    want = recorded.get(report["workload"], {})
    attempted = failed = 0
    for sim in report["sims"]:
        attempted += sim["runs"]
        bad = sim["failed"]
        expected = want.get(sim["id"])
        checked = report["seed"] == default_seed or not sim["id"].startswith(
            QS_PREFIX)
        if checked and expected is not None and expected != sim["digest"]:
            sim["error"] = sim["error"] or "digest %s, recorded %s" % (
                sim["digest"], expected)
            bad = sim["runs"]
        elif checked and expected is None:
            sim["error"] = sim["error"] or "no recorded digest"
            bad = sim["runs"]
        failed += bad
        if bad:
            log("%s: %s" % (sim["id"], sim["error"]))
    return attempted, failed


def record(decl):
    seed = decl["default_seed"]
    digests = {}
    for workload in decl["workloads"]:
        per_mode = []
        for trace in (0, 1):
            rep = run_harness(workload, seed, 1, trace, DEADLINE_S)
            if any(s["failed"] for s in rep["sims"]):
                log("%s: failures while recording" % workload)
                sys.exit(6)
            per_mode.append({s["id"]: s["digest"] for s in rep["sims"]})
        if per_mode[0] != per_mode[1]:
            log("%s: traced and untraced digests differ" % workload)
            sys.exit(6)
        digests[workload] = per_mode[0]
    with open(os.path.join(HERE, "digests.json"), "w") as f:
        json.dump({"seed": seed, "workloads": digests}, f, indent=2,
                  sort_keys=True)
        f.write("\n")
    log("recorded digests for %d workloads" % len(digests))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    start = time.monotonic()

    build()
    decl = load_json("metrics.json")
    if args.record:
        record(decl)
        return 0
    if args.workload not in decl["workloads"]:
        log("unknown workload %r (known: %s)" %
            (args.workload, ", ".join(decl["workloads"])))
        return 2
    if args.seed < 0:
        log("--seed must be non-negative")
        return 2

    report = run_harness(args.workload, args.seed, args.seconds, args.trace,
                         DEADLINE_S - (time.monotonic() - start))
    recorded = load_json("digests.json")
    attempted, failed = score(report, recorded["workloads"], recorded["seed"])

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    values = dict(report["metrics"])
    values["ops_failed_frac"] = failed / attempted if attempted else 1.0
    missing = []
    for name, m in decl["metrics"].items():
        if m["kind"] != kind:
            continue
        v = values.get(name)
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            missing.append(name)
            continue
        metrics[name] = {"value": v, "unit": m["unit"]}
    if missing:
        log("metrics not emitted: " + ", ".join(missing))

    prov = dict(report["provenance"])
    prov.update({"commit": source_id(), "seed": args.seed,
                 "workload": args.workload, "trace": args.trace,
                 "passes": report["passes"]})
    prov["release"] = prov["build_type"] == "Release"
    if not prov["release"]:
        log("WARNING: %s build; timings are not comparable" %
            prov["build_type"])
    print("report " + json.dumps({"provenance": prov,
                                  "sims": report["sims"],
                                  "samples": report["samples"]}))
    print(json.dumps({"correct": failed == 0 and not missing,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
