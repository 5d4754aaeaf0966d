#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
harness (perfbench/CMakeLists.txt, Release) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls reuse the build. The harness
prints a `config` line (seed, host, build type, pinned knobs) and a result
object; this script checks the result's metrics against BENCHMARK.json,
reports per-layer metrics of layers the workload never enters as 0, and
prints the result as its last line. Any failure exits non-zero without a
result line.

--selftest builds a RelWithDebInfo harness, in which the elision audit
(BarrierStats Violations / RemSetViolations) is compiled in, and runs every
workload at tiny scale, traced and untraced.
"""

import argparse
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
HARNESS_TIMEOUT_S = 150
# Traced layers plus the explicit "other" must cover the untraced wall
# time to within this many percent.
COVERAGE_MARGIN_PCT = 5


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build(build_type):
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    bdir = os.path.join(base, "perfbench-" + build_type.lower())
    tmp = os.path.join(base, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(base, f"build-{build_type.lower()}.log")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                      f"-DCMAKE_BUILD_TYPE={build_type}"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")
    return os.path.join(bdir, "perfbench_harness")


def run_harness(harness, workload, seed, seconds, trace, tiny=False):
    """Runs the harness once; returns (config line, result dict)."""
    cmd = [harness, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--expected", os.path.join(BENCH_DIR, "expected_table1.txt")]
    if tiny:
        cmd.append("--tiny")
    # Every knob is pinned in the harness; strip the library's SATB_*
    # environment overrides as well, so none can leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SATB_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"harness exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("config "):
        fail("harness printed no result")
    try:
        return lines[-2], json.loads(lines[-1])
    except ValueError:
        fail("harness result is not JSON")


def finish_metrics(spec, result, trace):
    """Checks the harness metrics against BENCHMARK.json and returns them
    in its order; per-layer metrics of layers the workload never enters
    read 0."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    got = result.get("metrics", {})
    names = {m["name"] for m in declared}
    unknown = sorted(set(got) - names)
    if unknown:
        fail(f"harness reported undeclared metrics: {unknown}")
    out = {}
    for m in declared:
        v = got.get(m["name"])
        if v is None:
            if not trace:
                fail(f"end-to-end metric {m['name']} missing")
            v = {"value": 0, "unit": m["unit"]}
        if v["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {v['unit']} != declared {m['unit']}")
        if not math.isfinite(v["value"]):
            fail(f"{m['name']}: value is not finite")
        out[m["name"]] = {"value": v["value"], "unit": m["unit"]}
    return out


def selftest(spec):
    harness = build("RelWithDebInfo")
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            config, result = run_harness(harness, w["name"], 7, 1, trace,
                                         tiny=True)
            metrics = finish_metrics(spec, result, trace)
            audit = json.loads(config[len("config "):])["justification_audit"]
            good = (result["correct"] and result["failed"] == 0 and audit
                    and (trace or all(m["value"] > 0
                                      for m in metrics.values())))
            ok &= bool(good)
            print(f"{'ok  ' if good else 'FAIL'} {w['name']} trace={trace} "
                  f"attempted={result['attempted']} failed={result['failed']}"
                  f" audit={audit}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    if args.selftest:
        return selftest(spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    harness = build("Release")
    config, result = run_harness(harness, args.workload, args.seed,
                                 args.seconds, args.trace)
    metrics = finish_metrics(spec, result, args.trace)
    print(config)
    for name, m in metrics.items():
        print(f"# {name:40s} {m['value']:>18.6g} {m['unit']}")
    if args.trace:
        layers = metrics["trace.layers_pct"]["value"]
        other = metrics["trace.other_pct"]["value"]
        total = layers + other
        verdict = "within" if abs(total - 100) <= COVERAGE_MARGIN_PCT else "OUTSIDE"
        print(f"# coverage: layers {layers:.1f}% + other {other:.1f}% = "
              f"{total:.1f}% of the untraced wall time, {verdict} the "
              f"±{COVERAGE_MARGIN_PCT}% margin; tracing overhead "
              f"{metrics['trace.overhead_pct']['value']:+.1f}%")
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
