"""Command line interface.

Subcommands

  height        exact + numeric height of a radical or algebraic number
  point-height  projective height of a radical point
  lemma-check   certified chain inequality for one radical point
  tower gen     construct a tower and write its JSON spec
  tower certify check tower levels against their bounds
  cm scan       per-discriminant height table (CSV/JSON)
  cm faltings   Faltings height of one discriminant
  cm theta      theta null point of one discriminant
  cm verify-tf  theta-vs-Faltings comparison experiment
  cm verify-decay   ratio decay experiment
  cm finiteness bounded-ratio discriminant demonstration

Global flags (before or after the subcommand): --precision, --workers,
--seed, --out, --format, --config.  A config file holds key=value lines
for those same keys; explicit flags win.  Exit codes: 0 success, 1
verification failure, 2 usage error, 3 precision failure.

Experiment outputs land in the --out directory as
<experiment>-<hash12>.<ext>, where hash12 is the first 12 hex digits of
the sha256 of the sorted-JSON parameter set, so identical parameters
map to identical file names."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction

from mpmath import mp, workdps

from .cmlab import (
    cm_scan,
    faltings_height_cm,
    finiteness_demo,
    records_to_csv,
    records_to_json,
    reduced_forms,
    theta_null_point,
    verify_decay,
    verify_theta_faltings,
)
from .heights import mahler_height, rational_roots
from .numcore import ConstructionError, IntPoly, PrecisionError, squarefree_decomposition
from .radicals import (
    ChainViolationError,
    RadicalPoint,
    RadicalScalar,
    lemma_chain_check,
    radical_height,
    weighted_projective_height,
    projective_height,
)
from .towers import TowerSpec, build_tower, certify_level

HARD_DEFAULTS = {
    "precision": 24,
    "workers": 1,
    "seed": 0,
    "out": ".",
    "format": "csv",
}

CONFIG_KEYS = set(HARD_DEFAULTS)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def _parse_fraction(text: str, expr: str, pos: int) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise UsageError(
            f"could not parse '{text.strip()}' as a rational "
            f"(column {pos + 1} of '{expr}')"
        )


def parse_radical(expr: str) -> RadicalScalar:
    """Parse 'b1 ^ e1 * b2 ^ e2 * ...' with rational bases and
    exponents into a radical scalar."""
    result = RadicalScalar.one()
    offset = 0
    for factor in expr.split("*"):
        pos = expr.index(factor, offset)
        offset = pos + len(factor)
        if not factor.strip():
            raise UsageError(
                f"empty factor at column {pos + 1} of '{expr}'"
            )
        parts = factor.split("^")
        if len(parts) > 2:
            raise UsageError(
                f"more than one '^' in factor at column {pos + 1} of '{expr}'"
            )
        base = _parse_fraction(parts[0], expr, pos)
        if base <= 0:
            raise UsageError(
                f"radical bases must be positive (column {pos + 1} of '{expr}')"
            )
        exp = Fraction(1)
        if len(parts) == 2:
            exp = _parse_fraction(parts[1], expr, pos + len(parts[0]) + 1)
        result = result * RadicalScalar.from_rational(base).pow(exp)
    return result


def parse_int_poly(expr: str) -> IntPoly:
    """Parse an integer polynomial in x, e.g. 'x^2 - x - 1'."""
    compact = expr.replace(" ", "")
    if not compact:
        raise UsageError("empty polynomial")
    # split into signed terms, tracking source positions
    terms = []
    start = 0
    for i in range(1, len(compact)):
        if compact[i] in "+-" and compact[i - 1] not in "+-^*":
            terms.append((start, compact[start:i]))
            start = i
    terms.append((start, compact[start:]))
    coeffs: dict[int, int] = {}
    for pos, term in terms:
        t = term
        sign = 1
        while t and t[0] in "+-":
            if t[0] == "-":
                sign = -sign
            t = t[1:]
        if not t:
            raise UsageError(f"dangling sign at column {pos + 1} of '{expr}'")
        if "x" in t:
            head, _, tail = t.partition("x")
            head = head.rstrip("*")
            if head == "":
                coeff = 1
            elif head.isdigit():
                coeff = int(head)
            else:
                raise UsageError(
                    f"bad coefficient '{head}' at column {pos + 1} of '{expr}'"
                )
            if tail == "":
                degree = 1
            elif tail.startswith("^") and tail[1:].isdigit():
                degree = int(tail[1:])
            else:
                raise UsageError(
                    f"bad exponent '{tail}' at column {pos + 1} of '{expr}'"
                )
        else:
            if not t.isdigit():
                raise UsageError(
                    f"bad term '{term}' at column {pos + 1} of '{expr}'"
                )
            coeff = int(t)
            degree = 0
        coeffs[degree] = coeffs.get(degree, 0) + sign * coeff
    top = max(coeffs)
    return IntPoly([coeffs.get(i, 0) for i in range(top + 1)])


def parse_point(text: str) -> RadicalPoint:
    """Comma-separated homogeneous coordinates; each is 0 or a radical
    expression."""
    coords = []
    for part in text.split(","):
        p = part.strip()
        if p == "0":
            coords.append(None)
        else:
            coords.append(parse_radical(p))
    return RadicalPoint(coords)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _param_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _output_path(out_dir: str, experiment: str, config: dict, ext: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, f"{experiment}-{_param_hash(config)}.{ext}")


def _write_text(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers (each returns an exit code)
# ---------------------------------------------------------------------------

def _cmd_height(args, opts) -> int:
    expr = " ".join(args.expression)
    kind, _, body = expr.partition(":")
    kind = kind.strip().lower()
    if not body or kind not in ("rad", "alg"):
        raise UsageError(
            "height expressions look like 'rad: 2/3 ^ 1/5' or "
            "'alg: x^2 - x - 1'"
        )
    gamma = Fraction(args.gamma) if args.gamma is not None else None
    digits = opts["precision"]
    if kind == "rad":
        r = parse_radical(body)
        if gamma is None:
            hv = radical_height(r)
        else:
            hv = weighted_projective_height(RadicalPoint([RadicalScalar.one(), r]), gamma, digits)
        if hv.is_exact:
            label, val = f"{hv.exact} ", hv.exact.evaluate(digits).value
        else:
            label, val = "", hv.numeric.value
        with workdps(digits + 10):
            print(f"{label}≈ {mp.nstr(val, 10)}")
        return 0
    poly = parse_int_poly(body)
    if poly.degree < 1:
        raise UsageError("the polynomial must be nonconstant")
    reducible = bool(rational_roots(poly)) and poly.degree > 1
    if not reducible:
        decomp = squarefree_decomposition(poly)
        if len(decomp) > 1 or decomp[0][1] > 1:
            reducible = True
    if reducible:
        print(
            "warning: polynomial is reducible; reporting the Mahler-measure "
            "height of the polynomial as given",
            file=sys.stderr,
        )
    mh = mahler_height(poly, precision_digits=max(digits, 24))
    val = mh.value
    if gamma is not None:
        with workdps(digits + 10):
            val = mp.power(poly.degree, mp.mpf(gamma.numerator) / gamma.denominator) * val
    with workdps(digits + 10):
        print(f"≈ {mp.nstr(val, 10)}")
    return 0


def _cmd_point_height(args, opts) -> int:
    point = parse_point(args.coords)
    digits = opts["precision"]
    if args.gamma is not None:
        hv = weighted_projective_height(point, Fraction(args.gamma), digits)
    else:
        hv = projective_height(point)
    if hv.is_exact:
        val = hv.exact.evaluate(digits).value
        with workdps(digits + 10):
            print(f"{hv.exact} ≈ {mp.nstr(val, 10)}")
    else:
        with workdps(digits + 10):
            print(f"≈ {mp.nstr(hv.numeric.value, 10)} (radius {mp.nstr(hv.numeric.radius, 3)})")
    return 0


def _cmd_lemma_check(args, opts) -> int:
    point = parse_point(args.coords)
    gamma = Fraction(args.gamma)
    report = lemma_chain_check(point, gamma, opts["precision"])
    digits = opts["precision"]

    def fmt(hv):
        v = hv.evaluate(digits)
        with workdps(digits + 10):
            return mp.nstr(v.value, 10)

    print(f"verdict: {report.verdict}")
    print(f"index set: {list(report.index_set)}")
    print(f"lhs    ≈ {fmt(report.lhs)}")
    print(f"middle ≈ {fmt(report.middle)}")
    print(f"rhs    ≈ {fmt(report.rhs)}")
    return 0


def _cmd_tower_gen(args, opts) -> int:
    degrees = [int(d) for d in args.degrees.split(",") if d.strip()]
    spec = build_tower(
        degrees,
        gamma=Fraction(args.gamma),
        target_c=Fraction(args.target_c),
        seed=opts["seed"],
    )
    config = {
        "experiment": "tower-gen",
        "degrees": degrees,
        "gamma": str(Fraction(args.gamma)),
        "C": repr(float(args.target_c)),
        "seed": opts["seed"],
    }
    path = _output_path(opts["out"], "tower-gen", config, "json")
    _write_text(path, spec.to_json() + "\n")
    for i, lv in enumerate(spec.levels, start=1):
        print(f"level {i}: d={lv.d} q={lv.q} p has {len(str(lv.p))} digits")
    print(f"spec written to {path}")
    return 0


def _cmd_tower_certify(args, opts) -> int:
    with open(args.spec) as fh:
        spec = TowerSpec.from_json(fh.read())
    levels = (
        [int(args.level)] if args.level is not None
        else list(range(1, spec.num_levels + 1))
    )
    results = []
    all_passed = True
    for i in levels:
        cert = certify_level(
            spec, i, num_monomials=args.monomials,
            precision_digits=opts["precision"],
        )
        results.append(cert)
        status = "passed" if cert.passed else "FAILED"
        extra = " (all strict)" if cert.strict else ""
        print(
            f"level {i}: {cert.monomials_checked} monomials vs bound "
            f"{mp.nstr(mp.mpf(cert.bound), 8)}: {status}{extra}"
        )
        for f in cert.failures[:5]:
            print(f"  failure: exponents {f['exponents']} "
                  f"weighted height {f['weighted_height']:.6f} < {f['bound']:.6f}")
        all_passed = all_passed and cert.passed
    config = {
        "experiment": "tower-certify",
        "spec": spec.to_json(),
        "levels": levels,
        "monomials": args.monomials,
        "precision": opts["precision"],
    }
    path = _output_path(opts["out"], "tower-certify", config, "json")
    _write_text(
        path,
        json.dumps(
            {
                "passed": all_passed,
                "levels": [
                    {
                        "level": c.level,
                        "bound": c.bound,
                        "monomials_checked": c.monomials_checked,
                        "failures": [list(f["exponents"]) for f in c.failures],
                        "passed": c.passed,
                        "strict": c.strict,
                    }
                    for c in results
                ],
            },
            sort_keys=True,
            indent=1,
        )
        + "\n",
    )
    print(f"certificate written to {path}")
    return 0 if all_passed else 1


def _cmd_cm_scan(args, opts) -> int:
    config = {
        "experiment": "cm-scan",
        "dmax": args.dmax,
        "precision": opts["precision"],
    }
    records = cm_scan(args.dmax, opts["precision"], opts["workers"])
    if opts["format"] == "json":
        text = records_to_json(records, config)
        path = _output_path(opts["out"], "cm-scan", config, "json")
    else:
        text = records_to_csv(records, _param_hash(config))
        path = _output_path(opts["out"], "cm-scan", config, "csv")
    _write_text(path, text)
    print(f"{len(records)} discriminants written to {path}")
    return 0


def _cmd_cm_faltings(args, opts) -> int:
    fh = faltings_height_cm(
        args.discriminant, opts["precision"],
        normalization_offset=args.offset,
    )
    with workdps(opts["precision"] + 10):
        print(
            f"faltings_height({args.discriminant}) ≈ "
            f"{mp.nstr(fh.value, min(opts['precision'], 20))} "
            f"(radius {mp.nstr(fh.radius, 3)})"
        )
    return 0


def _cmd_cm_theta(args, opts) -> int:
    form = reduced_forms(args.discriminant)[0]
    tau = form.tau(opts["precision"])
    nulls = theta_null_point(tau, opts["precision"])
    with workdps(opts["precision"] + 10):
        for j, th in enumerate(nulls):
            print(
                f"theta_{j} ≈ {mp.nstr(th.value, min(opts['precision'], 20))} "
                f"(radius {mp.nstr(th.radius, 3)})"
            )
    return 0


def _cmd_cm_verify_tf(args, opts) -> int:
    report = verify_theta_faltings(args.dmax, opts["precision"], opts["workers"])
    config = {
        "experiment": "cm-verify-tf",
        "dmax": args.dmax,
        "precision": opts["precision"],
    }
    path = _output_path(opts["out"], "cm-verify-tf", config, "json")
    slim = {k: v for k, v in report.items() if k != "records"}
    _write_text(path, json.dumps(slim, sort_keys=True, indent=1) + "\n")
    dat = _output_path(opts["out"], "cm-verify-tf", config, "dat")
    _write_text(
        dat,
        "".join(f"{-d} {q} {r}\n" for d, q, r in report["quotients"]),
    )
    print(
        f"fitted constant {report['fitted_constant']:.6f} "
        f"(radius {report['fitted_radius']:.2e}, argmax D={report['argmax_d']})"
    )
    print(f"report written to {path}")
    return 0 if report["passed"] else 1


def _cmd_cm_verify_decay(args, opts) -> int:
    report = verify_decay(
        args.dmax, precision_digits=opts["precision"], workers=opts["workers"]
    )
    config = {
        "experiment": "cm-verify-decay",
        "dmax": args.dmax,
        "precision": opts["precision"],
    }
    path = _output_path(opts["out"], "cm-verify-decay", config, "json")
    _write_text(path, json.dumps(report, sort_keys=True, indent=1) + "\n")
    dat = _output_path(opts["out"], "cm-verify-decay", config, "dat")
    _write_text(
        dat,
        "".join(
            f"{c['X_effective']} {c['envelope']} {c['radius']}\n"
            for c in report["checkpoints"]
        ),
    )
    for c in report["checkpoints"]:
        print(f"env(|D| >= {c['X_effective']}) = {c['envelope']:.6f}")
    print(f"{'decay confirmed' if report['passed'] else 'decay NOT confirmed'}")
    print(f"report written to {path}")
    return 0 if report["passed"] else 1


def _cmd_cm_finiteness(args, opts) -> int:
    report = finiteness_demo(
        args.dmax, args.cprime, precision_digits=opts["precision"],
        workers=opts["workers"],
    )
    config = {
        "experiment": "cm-finiteness",
        "dmax": args.dmax,
        "cprime": repr(float(args.cprime)),
        "precision": opts["precision"],
    }
    path = _output_path(opts["out"], "cm-finiteness", config, "json")
    _write_text(path, json.dumps(report, sort_keys=True, indent=1) + "\n")
    print(
        f"{report['count']} discriminants with ratio <= {args.cprime} "
        f"and |D| <= {args.dmax}"
    )
    for q in report["qualifying"]:
        print(
            f"  D={q['D']} h={q['class_number']} ratio={q['ratio']:.6f}"
        )
    print(f"report written to {path}")
    return 0


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------

def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("global options")
    g.add_argument("--precision", type=int, default=argparse.SUPPRESS,
                   help="working precision in decimal digits (>= 16)")
    g.add_argument("--workers", type=int, default=argparse.SUPPRESS,
                   help="worker processes for scans")
    g.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="seed for seeded constructions")
    g.add_argument("--out", default=argparse.SUPPRESS,
                   help="output directory for experiment files")
    g.add_argument("--format", choices=("csv", "json"),
                   default=argparse.SUPPRESS, help="table output format")
    g.add_argument("--config", default=argparse.SUPPRESS,
                   help="config file with key=value lines")
    return common


# argparse reads a separate "-1/3" as a flag ("expected one argument")
_NEGATIVE_GAMMA = "write a negative fraction as --gamma=-1/3"


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="heightlab",
        description="Arithmetic heights, radical points, Northcott "
        "towers, and CM moduli heights with certified numerics.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("height", parents=[common],
                       help="height of a radical or algebraic number")
    p.add_argument("expression", nargs="+",
                   help="'rad: 2/3 ^ 1/5' or 'alg: x^2 - x - 1'")
    p.add_argument("--gamma", help=f"degree weight exponent; {_NEGATIVE_GAMMA}")
    p.set_defaults(func=_cmd_height)

    p = sub.add_parser("point-height", parents=[common],
                       help="projective height of a radical point")
    p.add_argument("--coords", required=True,
                   help="comma-separated coordinates, e.g. '1,2^1/2,0'")
    p.add_argument("--gamma", help=f"degree weight (weighted height); {_NEGATIVE_GAMMA}")
    p.set_defaults(func=_cmd_point_height)

    p = sub.add_parser("lemma-check", parents=[common],
                       help="certified chain inequality at one point")
    p.add_argument("--coords", required=True)
    p.add_argument("--gamma", required=True, help=f"degree weight; {_NEGATIVE_GAMMA}")
    p.set_defaults(func=_cmd_lemma_check)

    tower = sub.add_parser("tower", help="tower construction/certification")
    tsub = tower.add_subparsers(dest="tower_command", required=True)
    p = tsub.add_parser("gen", parents=[common], help="construct a tower")
    p.add_argument("--degrees", required=True, help="e.g. 2,2,3,3,5")
    p.add_argument("--gamma", default="-1", help=f"degree weight (default -1); {_NEGATIVE_GAMMA}")
    p.add_argument("--C", dest="target_c", required=True, type=Fraction,
                   help="target height constant")
    p.set_defaults(func=_cmd_tower_gen)
    p = tsub.add_parser("certify", parents=[common],
                        help="check levels of a tower spec file")
    p.add_argument("spec", help="tower spec JSON (from 'tower gen')")
    p.add_argument("--level", type=int, help="single level (default: all)")
    p.add_argument("--monomials", type=int, default=500)
    p.set_defaults(func=_cmd_tower_certify)

    cm = sub.add_parser("cm", help="CM moduli experiments")
    csub = cm.add_subparsers(dest="cm_command", required=True)
    p = csub.add_parser("scan", parents=[common],
                        help="height table over fundamental discriminants")
    p.add_argument("--dmax", type=int, required=True)
    p.set_defaults(func=_cmd_cm_scan)
    p = csub.add_parser("faltings", parents=[common])
    p.add_argument("-D", "--discriminant", type=int, required=True)
    p.add_argument("--offset", type=float, default=None,
                   help="normalization offset (default -log(2)/2)")
    p.set_defaults(func=_cmd_cm_faltings)
    p = csub.add_parser("theta", parents=[common])
    p.add_argument("-D", "--discriminant", type=int, required=True)
    p.set_defaults(func=_cmd_cm_theta)
    p = csub.add_parser("verify-tf", parents=[common])
    p.add_argument("--dmax", type=int, default=5000)
    p.set_defaults(func=_cmd_cm_verify_tf)
    p = csub.add_parser("verify-decay", parents=[common])
    p.add_argument("--dmax", type=int, default=20000)
    p.set_defaults(func=_cmd_cm_verify_decay)
    p = csub.add_parser("finiteness", parents=[common])
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--cprime", type=float, required=True)
    p.set_defaults(func=_cmd_cm_finiteness)

    return parser


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(
                    f"{path}:{lineno}: expected key=value, got '{line}'"
                )
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in CONFIG_KEYS:
                raise UsageError(
                    f"{path}:{lineno}: unknown config key '{key}' "
                    f"(allowed: {', '.join(sorted(CONFIG_KEYS))})"
                )
            values[key] = value
    return values


def _resolve_options(args) -> dict:
    config_values = {}
    config_path = getattr(args, "config", None)
    if config_path:
        config_values = _load_config_file(config_path)
    opts = {}
    for key, default in HARD_DEFAULTS.items():
        if hasattr(args, key):
            opts[key] = getattr(args, key)
        elif key in config_values:
            raw = config_values[key]
            opts[key] = int(raw) if isinstance(default, int) else raw
        else:
            opts[key] = default
    if opts["format"] not in ("csv", "json"):
        raise UsageError("format must be csv or json")
    if opts["precision"] < 16:
        raise UsageError("precision must be at least 16 digits")
    if opts["workers"] < 1:
        raise UsageError("workers must be at least 1")
    if opts["seed"] < 0:
        raise UsageError("seed must be nonnegative")
    return opts


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _resolve_options(args)
        return args.func(args, opts)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConstructionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChainViolationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except PrecisionError as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
