"""One repetition of one workload, in a fresh interpreter.

Run by run.py as ``python -B bench/rep.py --workload W --seed N``.  It
imports heightlab, builds the workload's inputs, runs the timed region
once (closed loop: each call starts when the previous one returned),
and prints one JSON line with the encoded outputs, the timings and,
with ``--trace 1``, the per-layer counters.  It checks nothing: the
checks run in the parent, against references built without heightlab.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from time import perf_counter

import mpmath

import inputs
import wire
from pace import Pace

import heightlab
from heightlab import cmlab, heights, radicals, towers
from heightlab.numcore import ConstructionError, IntPoly, PrecisionError

# An item fails by raising one of these; any other exception ends the
# repetition and fails the run.
ITEM_ERRORS = (PrecisionError, ConstructionError, radicals.ChainViolationError)


class ItemTimer:
    """Thin wrapper over one module binding: records the start and end
    of each call and keeps its result.  Puts the original back on exit."""

    def __init__(self, module, name: str):
        self.module, self.name = module, name
        self.spans: list[tuple[float, float]] = []
        self.results: list = []

    def __enter__(self):
        orig = self.orig = getattr(self.module, self.name)

        def timed(*args, **kwargs):
            t0 = perf_counter()
            out = orig(*args, **kwargs)
            self.spans.append((t0, perf_counter()))
            self.results.append(out)
            return out

        setattr(self.module, self.name, timed)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.name, self.orig)


def _attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), None
    except ITEM_ERRORS as e:
        return None, f"{type(e).__name__}: {e}"


# -- cm-scan: cm_scan(400, 24) and its CSV ---------------------------------

def run_cm_scan(job):
    with ItemTimer(cmlab, "cm_record") as items:
        try:
            records = cmlab.cm_scan(job["d_max"], job["precision"], workers=1)
            csv, error = cmlab.records_to_csv(records), None
        except ITEM_ERRORS as e:
            records, csv, error = (), "", f"{type(e).__name__}: {e}"
    return items.spans, (records, csv, error)


def encode_cm_scan(raw, job):
    records, csv, error = raw
    return {
        "records": [
            [r.d, r.class_number] + [wire.encode_ball(b) for b in (
                r.j_height, r.faltings_height, r.theta_height_est, r.residual, r.ratio)]
            for r in records
        ],
        "csv": csv,
        "error": error,
    }


# -- classpoly: hilbert_class_poly on three discriminants -----------------

def run_classpoly(job):
    out, spans = [], []
    # the certified j values the coefficients are built from, for the checks
    with ItemTimer(cmlab, "_j_at") as js:
        for d in job["discs"]:
            first = len(js.results)
            t0 = perf_counter()
            poly, error = _attempt(cmlab.hilbert_class_poly, d)
            spans.append((t0, perf_counter()))
            out.append((d, poly, error, js.results[first:]))
    return spans, out


def encode_classpoly(raw, job):
    return {
        "polys": [
            {
                "d": d,
                "coeffs": None if poly is None else list(poly.coeffs),
                "error": error,
                "j": [wire.encode_ball(j) for j in js],
            }
            for d, poly, error, js in raw
        ]
    }


# -- exact: census, two towers, chain battery -----------------------------

def prepare_exact(data):
    census = dict(data["census"])
    census["generator"] = radicals.RadicalScalar(census["generator"])
    census["threshold"] = heights.LogCombination(census["threshold"])
    chain = [
        (radicals.RadicalPoint([c if c is None else radicals.RadicalScalar(c) for c in p["coords"]]), p["gamma"])
        for p in data["chain"]
    ]
    return {"census": census, "towers": data["towers"], "chain": chain}


def run_exact(job):
    c = job["census"]
    census = _attempt(
        radicals.projective_northcott_experiment,
        [c["generator"]], dim=c["dim"], gamma=c["gamma"], threshold=c["threshold"], budget=c["budget"],
    )
    built = []
    for t in job["towers"]:
        spec, error = _attempt(towers.build_tower, t["schedule"], t["gamma"], t["target_c"])
        certs = []
        if spec is not None:
            certs = [
                _attempt(towers.certify_level, spec, i, t["monomials"])
                for i in range(1, spec.num_levels + 1)
            ]
        built.append((spec, error, certs))
    spans, chain = [], []
    for point, gamma in job["chain"]:
        t0 = perf_counter()
        chain.append(_attempt(radicals.lemma_chain_check, point, gamma))
        spans.append((t0, perf_counter()))
    return spans, (census, built, chain)


def _height(hv):
    if hv.is_exact:
        return {"exact": {str(p): str(r) for p, r in hv.exact.coeffs.items()}}
    return {"numeric": wire.encode_ball(hv.numeric)}


def encode_exact(raw, job):
    (census, census_error), built, chain = raw
    out = {"census": None, "census_error": census_error, "towers": [], "chain": []}
    if census is not None:
        out["census"] = {
            "entries": [[e.coord_strings(), str(e.height.exact)] for e in census.entries],
            "evaluated": census.evaluated,
            "shell_bound": census.shell_bound,
            "truncated": census.truncated,
        }
    for spec, error, certs in built:
        out["towers"].append({
            "error": error,
            "levels": [] if spec is None else [[str(lv.p), str(lv.q), lv.d] for lv in spec.levels],
            "certs": [
                {"error": e} if cert is None else {
                    "level": cert.level, "bound": repr(cert.bound),
                    "checked": cert.monomials_checked, "failures": repr(cert.failures),
                    "passed": cert.passed, "strict": cert.strict,
                }
                for cert, e in certs
            ],
        })
    for rep, error in chain:
        if rep is None:
            out["chain"].append({"error": error})
        else:
            out["chain"].append({
                "verdict": rep.verdict,
                "lhs": _height(rep.lhs), "middle": _height(rep.middle), "rhs": _height(rep.rhs),
            })
    return out


# -- roots: Mahler measures of random and Mignotte polynomials ------------

def prepare_roots(data):
    return {"polys": [(p["name"], IntPoly(p["coeffs"])) for p in data["polys"]], "precision": data["precision"]}


def run_roots(job):
    prec, out, spans = job["precision"], [], []
    # mahler_height(p, prec) isolates the roots with poly_roots(p, prec + 10);
    # keeping those discs checks the very discs the enclosure was built from
    with ItemTimer(heights, "poly_roots") as discs:
        for name, poly in job["polys"]:
            first = len(discs.results)
            t0 = perf_counter()
            mh, error = _attempt(heights.mahler_height, poly, prec)
            spans.append((t0, perf_counter()))
            found = discs.results[first:]
            out.append((name, poly, mh, error, found[-1] if found else None))
    return spans, out


def encode_roots(raw, job):
    polys = []
    for name, poly, mh, error, discs in raw:
        if discs is None and error is None:
            discs = heights.poly_roots(poly, job["precision"] + 10)
        polys.append({
            "name": name,
            "error": error,
            "mahler": None if mh is None else wire.encode_ball(mh),
            "discs": None if discs is None else [wire.encode_ball(b) for b in discs],
        })
    return {"polys": polys}


# workload -> (build the job from the inputs, timed run, encode outputs)
WORKLOADS = {
    "cm-scan": (dict, run_cm_scan, encode_cm_scan),
    "classpoly": (dict, run_classpoly, encode_classpoly),
    "exact": (prepare_exact, run_exact, encode_exact),
    "roots": (prepare_roots, run_roots, encode_roots),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", help="file for the spans and counters of a traced run")
    args = ap.parse_args(argv)

    prepare, run, encode = WORKLOADS[args.workload]
    data = inputs.workload_inputs(args.workload, args.seed, args.quick)
    job = prepare(data)
    ready = time.monotonic()

    # An untraced repetition runs beside the reference kernel (pace.py)
    # and reports its times both in seconds, less the kernel's share,
    # and in kernel durations; a traced one runs alone, so that the
    # layers' self times hold no kernel time.
    tracer, pace = None, None if args.trace else Pace()
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        with pace or contextlib.nullcontext():
            t0 = perf_counter()
            spans, raw = run(job)
            t1 = perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    outputs = encode(raw, job)
    spans = [(t0, t1)] + spans
    seconds = [b - a - (pace.busy(a, b) if pace else 0) for a, b in spans]

    result = {
        "ready": ready,
        "run_s": seconds[0],
        "latencies": seconds[1:],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs": outputs,
        "facts": {
            "python": sys.version.split()[0],
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "heightlab_file": heightlab.__file__,
        },
    }
    if pace is not None:
        refs = [pace.ref(a, b) for a, b in spans]
        result |= {"run_ref": refs[0], "latencies_ref": refs[1:], "kernel_runs": len(pace.samples)}
    if tracer is not None:
        h_total = sum(len(inputs.reduced_forms(d)) for d in data.get("discs", ()))
        result["layers"] = tracer.layer_metrics(h_total)
        if args.trace_out:
            with open(args.trace_out, "w") as f:
                json.dump(tracer.dump(), f)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
