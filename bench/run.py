"""heightlab benchmark: certified time-to-result on four workloads.

    python3 bench/run.py --workload cm-scan --seed 1 --seconds 20 --trace 0

Runs one workload (see bench/README.md) from the repository root.
Each repetition runs in a fresh interpreter (rep.py), so every library
cache starts cold, as for one CLI invocation; repetitions follow one
another (closed loop, one caller) while the next one is expected to
end within --seconds.  The
outputs of every repetition are then checked against references built
without heightlab (oracle.py).  The last line of standard output is
one JSON object: correct, attempted, failed, and the end-to-end
metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1, which alternates untraced and traced repetitions).  The
full record, with machine facts and per-repetition numbers, goes to
bench/out/.  --quick shrinks every workload for the benchmark's tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402

# Every run ends within this many seconds; repetitions get what is left
# after reserving time for the reference checks.
DEADLINE_S = 170
CHECK_RESERVE_S = 30
# A repetition may take this much longer than the one before it on a
# shared machine; the loop stops early rather than overrun --seconds.
ROUND_MARGIN = 1.15


class RunError(RuntimeError):
    """The run cannot produce a result."""


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_rep(args, traced: bool, env: dict, timeout: float) -> dict:
    """One repetition in a fresh interpreter; set-up time runs from the
    spawn to the moment the inputs are built (CLOCK_MONOTONIC is shared
    between processes)."""
    cmd = [sys.executable, "-B", str(HERE / "rep.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced))]
    if args.quick:
        cmd.append("--quick")
    if traced:
        cmd += ["--trace-out", str(HERE / "out" / f"{args.workload}-seed{args.seed}-spans.json")]
    spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise RunError(f"repetition exceeded {timeout:.0f} s") from e
    if proc.returncode != 0:
        raise RunError(f"repetition failed:\n{proc.stderr[-2000:]}")
    rep = json.loads(proc.stdout.splitlines()[-1])
    rep["setup_s"] = rep["ready"] - spawn
    rep["traced"] = traced
    return rep


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure(args) -> dict:
    src = ROOT / "src" / "heightlab" / "__init__.py"
    if not src.is_file():
        raise RunError(f"no heightlab sources at {src.parent}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (HERE / "out").mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", MPMATH_NOGMPY="1")

    # repeat while another round (one repetition, or an untraced and a
    # traced one) is expected to end within --seconds
    start = time.monotonic()
    reps: list[dict] = []
    modes = (False, True) if args.trace else (False,)
    while True:
        round_start = time.monotonic()
        for traced in modes:
            left = DEADLINE_S - CHECK_RESERVE_S - (time.monotonic() - start)
            reps.append(run_rep(args, traced, env, timeout=max(left, 1)))
        now = time.monotonic()
        if now - start + ROUND_MARGIN * (now - round_start) > args.seconds:
            break
    measured_s = time.monotonic() - start

    facts = {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        **reps[0]["facts"],
    }
    if facts["mpmath_backend"] != "python":
        raise RunError(f"mpmath backend is {facts['mpmath_backend']}, not python")
    if Path(facts["heightlab_file"]).resolve() != src.resolve():
        raise RunError(f"imported {facts['heightlab_file']}, not {src}")

    # every repetition, traced ones included, must return the same
    # outputs, so checking the first checks them all
    data = inputs.workload_inputs(args.workload, args.seed, args.quick)
    t0 = time.monotonic()
    verdict = oracle.check(
        args.workload, data, reps[0]["outputs"], oracle.references(args.workload, data), args.quick
    )
    check_s = time.monotonic() - t0
    # all repetitions returned these outputs, so the items of one stand
    # for every repetition and the counts depend on the seed alone
    attempted, failed = verdict.attempted, len(verdict.failures)
    problems = []
    if any(rep["outputs"] != reps[0]["outputs"] for rep in reps):
        problems.append("outputs differ between repetitions")

    # Times are medians over the untraced repetitions, in durations of
    # the reference kernel that ran beside them (pace.py): on a shared
    # host the wall time of one repetition swings by up to 1.7 times
    # with the neighbours' load, its kernel-relative time by a few
    # percent.  Item percentiles pool the items of every repetition.
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    wall = {
        "run_s": statistics.median(r["run_s"] for r in plain),
        "item_p50_s": percentile([x for r in plain for x in r["latencies"]], 50),
        "item_p90_s": percentile([x for r in plain for x in r["latencies"]], 90),
    }
    if args.trace:
        layers = {}
        for name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            if not name.endswith("self_s") and len(set(values)) > 1:
                problems.append(f"{name} differs between traced repetitions: {values}")
            layers[name] = statistics.median(values)
        layers["trace.overhead_ratio"] = statistics.median(r["run_s"] for r in traced) / wall["run_s"]
        values, declared = layers, spec["per_layer"]
    else:
        items = [x for r in plain for x in r["latencies_ref"]]
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in reps),
            "run_ref": statistics.median(r["run_ref"] for r in plain),
            "item_p50_ref": percentile(items, 50),
            "item_p90_ref": percentile(items, 90),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "pass_ratio": (attempted - failed) / attempted,
            "radius_digits": float(-oracle.mpmath.log10(verdict.max_radius)),
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "facts": facts,
        "measured_s": measured_s,
        "check_s": check_s,
        "wall": wall,
        "repetitions": [
            {k: r.get(k) for k in ("traced", "setup_s", "run_s", "run_ref", "kernel_runs", "peak_rss_mb")}
            | {"items": len(r["latencies"])}
            for r in reps
        ],
        "checks": dict(verdict.checks),
        "failures": verdict.failures,
        "problems": problems,
        "metrics": metrics,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}.json"
    (HERE / "out" / name).write_text(json.dumps(record, indent=1))
    return {
        "record": record,
        "result": {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = ap.parse_args(argv)
    try:
        out = measure(args)
    except RunError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    record = out["record"]
    print("facts " + json.dumps(record["facts"]))
    print("checks " + json.dumps(record["checks"]))
    print("wall " + json.dumps(record["wall"]))
    for f in record["failures"][:20]:
        print(f"failed {f}")
    for p in record["problems"]:
        print(f"problem {p}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
