"""Tests of the benchmark itself, on --quick inputs.

    python3 -m pytest -q bench/test_bench.py

They check that one command prints every metric of BENCHMARK.json with
its unit, that the reference checks run and catch wrong outputs, that
traced counts repeat exactly, and that the tracer puts every binding
back.  Timings are never asserted.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import pace  # noqa: E402
import wire  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_quick(workload: str, trace: int, seed: int = 7):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    checks = json.loads(next(line for line in lines if line.startswith("checks "))[len("checks "):])
    return json.loads(lines[-1]), checks


def rep_outputs(workload: str, seed: int = 7) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-B", str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed), "--quick"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["outputs"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    result, checks = run_quick(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    # the reference checks ran on every repetition, traced ones included
    assert checks and all(n > 0 for n in checks.values())
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])


def test_traced_counts_repeat_exactly():
    first, _ = run_quick("exact", 1)
    second, _ = run_quick("exact", 1)
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if not k.endswith("self_s") and k != "trace.overhead_ratio"}
        for r in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["heights.LogCombination.sign.calls"] > 0


def _shift(ball, by):
    value, radius = wire.decode_ball(ball)
    return [wire.encode(value + by), ball[1]]


def checked(workload: str, outputs: dict) -> oracle.Verdict:
    data = inputs.workload_inputs(workload, 7, quick=True)
    return oracle.check(workload, data, outputs, oracle.references(workload, data), quick=True)


def test_cm_check_rejects_a_value_outside_its_disc():
    out = rep_outputs("cm-scan")
    assert not checked("cm-scan", out).failures
    bad = copy.deepcopy(out)
    bad["records"][3][2] = _shift(bad["records"][3][2], oracle.mpf("1e-20"))
    v = checked("cm-scan", bad)
    assert len(v.failures) == 1 and "j_height" in v.failures[0]


def test_classpoly_check_rejects_a_wrong_coefficient():
    out = rep_outputs("classpoly")
    assert not checked("classpoly", out).failures
    bad = copy.deepcopy(out)
    bad["polys"][0]["coeffs"][0] += 1
    assert len(checked("classpoly", bad).failures) == 1


def test_exact_check_rejects_changed_census_and_chain_values():
    out = rep_outputs("exact")
    base = len(checked("exact", out).failures)
    bad = copy.deepcopy(out)
    bad["census"]["entries"].pop()
    i = next(
        i for i, c in enumerate(bad["chain"])
        if c.get("verdict") == "holds" and all("exact" in c[k] for k in ("lhs", "middle", "rhs"))
    )
    bad["chain"][i]["lhs"]["exact"]["2"] = "1/7"
    failures = checked("exact", bad).failures
    assert len(failures) == base + 2
    assert any(f.startswith("census") for f in failures)


def test_roots_check_counts_discs_that_miss_every_root():
    out = rep_outputs("roots")
    v = checked("roots", out)
    degrees = sum(len(p["coeffs"]) - 1 for p in inputs.workload_inputs("roots", 7, quick=True)["polys"])
    assert v.checks["disc_contains_root"] == degrees
    random_item = next(p for p in out["polys"] if p["name"].startswith("random"))
    assert not any(f.startswith("random") for f in v.failures)
    random_item["discs"][0] = _shift(random_item["discs"][0], oracle.mpf("1e-30"))
    assert any(f.startswith("random") for f in checked("roots", out).failures)


def test_pace_takes_kernel_runs_out_and_divides_by_their_duration():
    p = pace.Pace()
    # kernel runs of 2 ms at 0.00, 0.05 and 0.10 s, then of 4 ms from 0.15 s
    p.samples = [(0.0, 0.002), (0.05, 0.002), (0.10, 0.002), (0.15, 0.004), (0.20, 0.004), (0.25, 0.004)]
    assert p.busy(0.01, 0.11) == pytest.approx(0.004)
    # kernel runs starting within 0.1 s of the interval: 0.00 .. 0.20, mean 2.8 ms
    assert p.ref(0.01, 0.11) == pytest.approx(0.096 / 0.0028)
    assert p.ref(0.30, 0.31) == pytest.approx(0.01 / 0.004)
    with pace.Pace() as live:
        sum(i * i for i in range(200_000))
    assert len(live.samples) >= 2


def test_chain_reference_on_a_hand_computed_point():
    # [1 : 2^(1/2)], gamma = -1: K = Q(sqrt 2), h(P) = h(sqrt 2) = (1/2) log 2
    from fractions import Fraction

    verdict, lhs, middle, rhs = oracle.chain_reference([{}, {2: Fraction(1, 2)}], Fraction(-1))
    half_log2 = oracle.mp.log(2) / 2
    assert verdict == "holds"
    assert abs(lhs - half_log2 / 2) < 1e-12
    assert abs(middle - half_log2 / 2) < 1e-12 and abs(rhs - half_log2 / 2) < 1e-12
    assert oracle.chain_reference([{}, None], Fraction(-1))[0] == "degenerate"


def test_tracer_restores_every_binding():
    import heightlab
    from heightlab import cmlab, heights, numcore, towers
    from tracer import Tracer

    modules = [heightlab, cmlab, heights, numcore, towers]
    before = [dict(vars(m)) for m in modules] + [dict(vars(cmlab.CDisc)), dict(vars(heights.LogCombination))]
    t = Tracer()
    t.install()
    assert cmlab._ulp_slop is heights._ulp_slop is numcore._ulp_slop
    assert cmlab._ulp_slop.__wrapped__ is before[3]["_ulp_slop"]
    assert heights.is_prime is towers.is_prime is numcore.is_prime
    heights.LogCombination({2: 1}).sign()
    t.uninstall()
    after = [dict(vars(m)) for m in modules] + [dict(vars(cmlab.CDisc)), dict(vars(heights.LogCombination))]
    assert all(a == b for a, b in zip(after, before))
    assert t.calls["heights.LogCombination.sign"] == 1
    assert t.calls["heights.LogCombination.interval"] == 1


def test_inputs_repeat_for_a_seed_and_change_between_seeds():
    for w in WORKLOADS:
        assert inputs.workload_inputs(w, 3) == inputs.workload_inputs(w, 3)
    assert inputs.workload_inputs("roots", 3) == inputs.workload_inputs("roots", 4)
    assert inputs.workload_inputs("exact", 3)["chain"] != inputs.workload_inputs("exact", 4)["chain"]
    assert len(inputs.fundamental_discriminants(inputs.workload_inputs("cm-scan", 3)["d_max"])) == 62
    assert all(25 <= len(inputs.reduced_forms(d)) <= 40 for d in inputs.CLASSPOLY_DISCS)


def test_run_fails_without_the_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""
