#!/usr/bin/env python3
"""End-to-end benchmark of the XKBlas simulator (see BENCHMARK.json).

    python3 perfbench/run.py --workload paper_dgx1 --seed 1 --trace 0

Builds the simulator and the perfbench harness from source on first use
(CMake, into .bench_build/ at the checkout root), runs one workload in a
fresh process, checks every simulated output against the fingerprints
pinned in perfbench/expected.json, and prints one JSON object as the last
line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
A fingerprint mismatch is a failed operation and makes the exit code 1.

    python3 perfbench/run.py --pin [--arrival-seed 42] [--mix-seed 11]

re-pins expected.json from the current simulator: every paper row, the
checked scale-out run and the service soak of those seeds.

--seed orders the paper rows (host side only).  The service soak's input
comes from --arrival-seed and --mix-seed, which BENCHMARK.json fixes: near
saturation another arrival stream moves the modelled p95 latencies
several-fold (perfbench/README.md).  The stencil has no random parameter.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "xkb_perfbench")
EXPECT = os.path.join(HERE, "expected.json")
WORKLOADS = ("paper_dgx1", "scaleout_checked", "service_soak")
DEFAULT_SEED = 42
DEFAULT_ARRIVAL_SEED = 42
DEFAULT_MIX_SEED = 11
# Leaves headroom under the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_checked(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it and wait for it to end."""
    with subprocess.Popen(cmd, **kw) as p:
        try:
            out, err = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            p.communicate()
            raise
        return p.returncode, out, err


def build():
    """Configure once, then let the build tool bring the harness up to date."""
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "xkb_perfbench",
                  "-j", jobs])
    with open(logfile, "w") as f:
        for cmd in steps:
            code, _, _ = run_checked(cmd, 850, stdout=f,
                                     stderr=subprocess.STDOUT, cwd=ROOT)
            if code != 0:
                with open(logfile) as g:
                    log("".join(g.readlines()[-30:]))
                raise SystemExit("perfbench: build failed (%s)" % logfile)


def harness(args, timeout=RUN_TIMEOUT_S):
    """Run the harness; return (exit code, human-readable lines, result)."""
    code, out, err = run_checked([BINARY] + args, timeout,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True, cwd=ROOT)
    sys.stderr.write(err)
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except ValueError:
            pass
    return code, lines, result


def declared_units(trace):
    """name -> unit of the metrics BENCHMARK.json declares for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def measure(a):
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--arrival-seed", str(a.arrival_seed),
            "--mix-seed", str(a.mix_seed),
            "--seconds", str(a.seconds), "--expect", EXPECT]
    if a.trace:
        args.append("--trace")
    code, lines, res = harness(args)
    for line in lines:
        print(line)
    if code != 0 or res is None:
        raise SystemExit("perfbench: harness failed (exit %d)" % code)

    values = res["metrics"]
    if not a.trace:
        values["peak_rss_mb"] = res["peak_rss_mb"]
    elif a.workload == "scaleout_checked":
        # VmHWM only grows, so the checker's memory is the difference of
        # two fresh single-run processes, checked and unchecked.
        rss = {}
        for mode in ("checked", "unchecked"):
            c, _, r = harness(["--workload", a.workload, "--probe-rss", mode])
            if c != 0 or r is None:
                raise SystemExit("perfbench: %s RSS probe failed" % mode)
            rss[mode] = r["peak_rss_mb"]
        values["check.rss_mb"] = rss["checked"] - rss["unchecked"]
        print("check.rss_mb: checked %.1f MB - unchecked %.1f MB"
              % (rss["checked"], rss["unchecked"]))

    units = declared_units(a.trace)
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise SystemExit("perfbench: %s not declared in BENCHMARK.json"
                         % unknown)
    if a.trace:
        # A layer the workload does not exercise reads 0.
        values = {n: values.get(n, 0.0) for n in units}
    missing = [n for n in units if n not in values]
    bad = [n for n, v in values.items()
           if not math.isfinite(v) or (v <= 0 and not a.trace)]
    if missing or bad:
        raise SystemExit("perfbench: metrics missing %s, invalid %s"
                         % (missing, bad))
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}

    correct = res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


def pin(a):
    expected = {}
    if os.path.exists(EXPECT):
        with open(EXPECT) as f:
            expected = json.load(f)
    for workload in WORKLOADS:
        code, _, res = harness(["--workload", workload,
                               "--arrival-seed", str(a.arrival_seed),
                               "--mix-seed", str(a.mix_seed),
                               "--seconds", "0", "--pin"], timeout=3600)
        if code != 0 or res is None:
            raise SystemExit("perfbench: pinning %s failed" % workload)
        expected.setdefault(workload, {}).update(res["observed"])
        log("pinned %s" % workload)
    with open(EXPECT, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--arrival-seed", type=int, default=DEFAULT_ARRIVAL_SEED)
    p.add_argument("--mix-seed", type=int, default=DEFAULT_MIX_SEED)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin", action="store_true",
                   help="re-pin expected.json from the current simulator")
    a = p.parse_args()
    if not a.pin and not a.workload:
        p.error("--workload is required")
    if min(a.seed, a.arrival_seed, a.mix_seed, a.seconds) < 0:
        p.error("seeds and --seconds must be non-negative")
    build()
    return pin(a) if a.pin else measure(a)


if __name__ == "__main__":
    sys.exit(main())
