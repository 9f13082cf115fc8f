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
verification failure ('cm verify-tf' has no verdict to fail), 2 usage
error, 3 precision failure.

Input past a work cap exits 2 at once, naming the cap:

  MAX_PRECISION     --precision of any command, in digits (10000)
  MAX_DISCRIMINANT  |D| of 'cm faltings' (10**8); the reduced forms
                    of D come from square roots of D and a sieve of
                    sqrt(|D| / 3) entries
  MAX_DMAX          --dmax of every 'cm' experiment (10**5)
  MAX_WORK          the work of 'cm faltings' (10**6 units), estimated
                    once its reduced forms are counted and before the
                    first series: h(D) * (1 + (p / 275)^2) at p digits
                    of precision.  One unit is about a millisecond on
                    a 2-vCPU host: one form costs 0.1-0.6 ms at 24
                    digits, 4-11 ms at 1000 and 0.35-0.85 s at 10000
                    (the most at D = -3, whose nome is complex),
                    quadratic in p from a few hundred digits on; the
                    1323 units of a form at 10000 digits leave room
                    for a host that runs 1.5 times slower.
  MAX_DEGREE        the degree of a 'height alg:' polynomial (1000),
                    checked on each exponent as it is parsed, before
                    the coefficient list is built: x^1000 - 2 takes
                    18 s at 24 digits on a 2-vCPU host.

'cm theta' needs only the principal form, so any D passes there.

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
from decimal import Decimal
from fractions import Fraction

from mpmath import mp, mpc, workdps
from mpmath.libmp import (
    ften,
    from_man_exp,
    mpf_mul,
    mpf_pow_int,
    round_ceiling,
    round_floor,
    to_int,
    to_str,
)

from .cmlab import (
    Discriminant,
    ReducedForm,
    _cm_nome,
    _nulls_at,
    class_number,
    cm_scan,
    faltings_height_cm,
    finiteness_demo,
    records_to_csv,
    records_to_json,
    verify_decay,
    verify_theta_faltings,
)
from .heights import HeightValue, degree_weight, mahler_height, rational_roots
from .numcore import IntPoly, PrecisionError, squarefree_decomposition
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

# Work caps (see the module docstring): past them a command exits 2 at
# once instead of running for hours.  A scan to X sieves sqrt(|D| / 3)
# entries for the reduced forms of each D, besides its theta series.
MAX_PRECISION = 10_000
MAX_DISCRIMINANT = 10**8
MAX_DMAX = 10**5
MAX_WORK = 10**6
MAX_DEGREE = 1000


def faltings_work(h: int, precision: int) -> int:
    """The work estimate of 'cm faltings' for h forms at precision
    digits (see the module docstring), rounded up."""
    return -(-h * (275**2 + precision**2) // 275**2)


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
                # its length first: int() refuses more than 4300 digits
                digits = tail[1:].lstrip("0") or "0"
                if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
                    raise UsageError(f"the exponent at column {pos + 1} is above MAX_DEGREE = {MAX_DEGREE}")
                degree = int(digits)
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


def _output_path(out_dir: str, config: dict, ext: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, f"{config['experiment']}-{_param_hash(config)}.{ext}")


def _write_artifacts(out_dir: str, config: dict, label: str, **files) -> None:
    """Write each ``ext=content`` to <out_dir>/<experiment>-<hash12>.<ext>,
    with the experiment named by config["experiment"].  Text is written
    as it is; any other content as sorted JSON with one-space indent
    and a final newline.  Prints '<label> written to <path>' for the
    first file."""
    paths = [_output_path(out_dir, config, ext) for ext in files]
    for path, content in zip(paths, files.values()):
        if not isinstance(content, str):
            content = json.dumps(content, sort_keys=True, indent=1) + "\n"
        with open(path, "w") as fh:
            fh.write(content)
    print(f"{label} written to {paths[0]}")


def _decimal(text: str) -> tuple:
    """(D, k) for the decimal D * 10**k that ``to_str`` printed as text,
    read by ``Decimal``: int() reads at most 4300 digits of a string."""
    sign, digits, exp = Decimal(text).as_tuple()
    return int(Decimal((sign, digits, 0))), exp


def _ball_text(ball) -> str:
    """'≈ value (radius r)' whose printed disc holds the ball.  The value
    is printed to as many significant digits as its rounding needs to
    move it by at most the radius, but to no more than its mantissa
    holds; the radius printed is the radius plus that move (the sum of
    the parts' moves for a complex value), rounded up to 3 significant
    digits.  Each part is dyadic and each printed part decimal, so they
    are compared as integers over one denominator 2**a 10**b: no gcd."""
    v, r = ball.value, ball.radius._mpf_
    parts = v._mpc_ if isinstance(v, mpc) else (v._mpf_,)
    cap = max(t[3] for t in parts) * 30103 // 100000 + 2
    # from below the digits |value| / radius asks for: 0.3 < log10(2)
    n = min(cap, max(1, (max(t[2] + t[3] for t in parts) - r[2] - r[3]) * 3 // 10 - 1))
    a = max(0, *(-t[2] for t in (*parts, r)))
    while True:  # mp.nstr prints each part as to_str does
        printed = [_decimal(to_str(t, n)) for t in parts]
        b = max(0, *(-k for _, k in printed))
        ten_b = 10**b
        move = sum(
            abs((d * 10 ** (k + b) << a) - ((-man if sign else man) << (exp + a)) * ten_b)
            for (d, k), (sign, man, exp, _) in zip(printed, parts)
        )
        radius = (r[1] << (r[2] + a)) * ten_b
        if move <= radius or n >= cap:
            return f"≈ {mp.nstr(v, n)} (radius {_round_up_3(radius + move, a, b)})"
        n += 1


def _round_up_3(num: int, a: int, b: int) -> str:
    """The least decimal m * 10**e at or above x = num / (2**a 10**b) >= 0
    with m of 3 digits: e starts where m > 1000, and each step up takes
    m to ceil(m / 10) = ceil(x / 10**(e + 1)) until m <= 1000.  That
    decimal grows with x, so it is first found for the two ends of a
    bracket of x / 10**e by 64-bit libmpf quotients rounded down and up;
    only when the ends give different decimals is the quotient formed
    exactly, which for a radius near 10**-200000 builds a 200000-digit
    power of ten."""
    # bits(2**a 10**b) <= a + b log2(10) + 1: e starts no higher than log10 x - 3.7
    e = (num.bit_length() - a - b * 3321929 // 1000000 - 1) * 30103 // 100000 - 4
    c = b + e  # m = ceil(num / (2**a 10**c))
    k = max(num.bit_length() - 64, 0)
    top = num >> k  # num / 2**k lies in [top, top + 1], and is top when no bit drops
    ends = {
        _three_digits(to_int(mpf_mul(from_man_exp(n, k - a), mpf_pow_int(ften, -c, 64, rnd), 64, rnd), round_ceiling), e)
        for n, rnd in ((top, round_floor), (top + (top << k != num), round_ceiling))
    }
    if len(ends) == 1:
        m, e = ends.pop()
    else:
        m, e = _three_digits(-(-num // (10**c << a)) if c >= 0 else -(-num * 10**-c >> a), e)
    with workdps(15):  # m * 10**e to 15 digits prints as m to 3
        return mp.nstr(m * mp.mpf(10) ** e, 3)


def _three_digits(m: int, e: int) -> tuple:
    """(ceil(m / 10**k), e + k) for the least k >= 0 that leaves at most
    1000."""
    while m > 1000:
        m, e = -(-m // 10), e + 1
    return m, e


# ---------------------------------------------------------------------------
# subcommand handlers (each returns an exit code)
# ---------------------------------------------------------------------------

def _height_text(hv: HeightValue, digits: int) -> str:
    """'exact ≈ value' for an exact height, '≈ value (radius r)' for a
    ball."""
    if hv.is_exact:
        return f"{hv.exact} ≈ {mp.nstr(hv.exact.evaluate(digits).value, 10)}"
    return _ball_text(hv.numeric)


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
        print(_height_text(hv, digits))
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
    if gamma is not None:
        with workdps(digits + 10):
            mh = mh * degree_weight(poly.degree, gamma, digits)
    print(_height_text(HeightValue(numeric=mh), digits))
    return 0


def _cmd_point_height(args, opts) -> int:
    point = parse_point(args.coords)
    digits = opts["precision"]
    if args.gamma is not None:
        hv = weighted_projective_height(point, Fraction(args.gamma), digits)
    else:
        hv = projective_height(point)
    print(_height_text(hv, digits))
    return 0


def _cmd_lemma_check(args, opts) -> int:
    point = parse_point(args.coords)
    gamma = Fraction(args.gamma)
    report = lemma_chain_check(point, gamma, opts["precision"])
    digits = opts["precision"]
    print(f"verdict: {report.verdict}")
    print(f"index set: {list(report.index_set)}")
    for name, hv in (("lhs   ", report.lhs), ("middle", report.middle), ("rhs   ", report.rhs)):
        print(f"{name} {_height_text(hv, digits)}")
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
    for i, lv in enumerate(spec.levels, start=1):
        print(f"level {i}: d={lv.d} q={lv.q} p has {len(str(lv.p))} digits")
    _write_artifacts(opts["out"], config, "spec", json=spec.to_json() + "\n")
    return 0


def _cmd_tower_certify(args, opts) -> int:
    with open(args.spec) as fh:
        spec = TowerSpec.from_json(fh.read())
    if args.level is not None and not 1 <= args.level <= spec.num_levels:
        raise UsageError(f"--level must be between 1 and {spec.num_levels}")
    if args.monomials < 1:
        raise UsageError("--monomials must be at least 1")
    levels = [args.level] if args.level is not None else list(range(1, spec.num_levels + 1))
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
    certificate = {
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
    }
    _write_artifacts(opts["out"], config, "certificate", json=certificate)
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
    else:
        text = records_to_csv(records, _param_hash(config))
    _write_artifacts(
        opts["out"], config, f"{len(records)} discriminants", **{opts["format"]: text}
    )
    return 0


def _cmd_cm_faltings(args, opts) -> int:
    if abs(args.discriminant) > MAX_DISCRIMINANT:
        raise UsageError(
            f"|D| = {abs(args.discriminant)} is above MAX_DISCRIMINANT = {MAX_DISCRIMINANT}: "
            "its reduced forms need a sieve of sqrt(|D|/3) entries"
        )
    work = faltings_work(class_number(args.discriminant), opts["precision"])
    if work > MAX_WORK:
        raise UsageError(
            f"the work of 'cm faltings -D {args.discriminant} --precision {opts['precision']}', "
            f"about {work} units, is above MAX_WORK = {MAX_WORK}"
        )
    fh = faltings_height_cm(
        args.discriminant, opts["precision"],
        normalization_offset=args.offset,
    )
    print(f"faltings_height({args.discriminant}) {_ball_text(fh)}")
    return 0


def _cmd_cm_theta(args, opts) -> int:
    d = Discriminant(args.discriminant).value
    b = d % 2
    form = ReducedForm(1, b, (b * b - d) // 4)  # the principal form
    # the nome from the form's exact data, 15 digits past the precision
    with workdps(opts["precision"] + 15):
        nulls = _nulls_at(_cm_nome(form))
    for j, th in enumerate(nulls):
        print(f"theta_{j} {_ball_text(th)}")
    return 0


def _cmd_cm_verify_tf(args, opts) -> int:
    report = verify_theta_faltings(args.dmax, opts["precision"], opts["workers"])
    config = {
        "experiment": "cm-verify-tf",
        "dmax": args.dmax,
        "precision": opts["precision"],
    }
    print(f"fitted constant (argmax D={report['argmax_d']}) {_ball_text(report.balls[0])}")
    _write_artifacts(
        opts["out"], config, "report",
        json={k: v for k, v in report.items() if k != "records"},
        dat="".join(f"{-d} {q} {r}\n" for d, q, r in report["quotients"]),
    )
    return 0


def _cmd_cm_verify_decay(args, opts) -> int:
    report = verify_decay(
        args.dmax, precision_digits=opts["precision"], workers=opts["workers"]
    )
    config = {
        "experiment": "cm-verify-decay",
        "dmax": args.dmax,
        "precision": opts["precision"],
    }
    for c, envelope in zip(report["checkpoints"], report.balls):
        print(f"env(|D| >= {c['X_effective']}) {_ball_text(envelope)}")
    print(f"{'decay confirmed' if report['passed'] else 'decay NOT confirmed'}")
    _write_artifacts(
        opts["out"], config, "report",
        json=report,
        dat="".join(
            f"{c['X_effective']} {c['envelope']} {c['radius']}\n"
            for c in report["checkpoints"]
        ),
    )
    return 0 if report["passed"] else 1


def _cmd_cm_finiteness(args, opts) -> int:
    try:
        cprime = repr(float(args.cprime))
    except OverflowError:
        raise UsageError(f"--cprime is not finite as a double (above {sys.float_info.max!r} in size)") from None
    config = {
        "experiment": "cm-finiteness",
        "dmax": args.dmax,
        "cprime": cprime,
        "precision": opts["precision"],
    }
    report = finiteness_demo(
        args.dmax, args.cprime, precision_digits=opts["precision"],
        workers=opts["workers"],
    )
    print(
        f"{report['count']} discriminants with ratio <= {config['cprime']} "
        f"and |D| <= {args.dmax}"
    )
    for q, ratio in zip(report["qualifying"], report.balls):
        print(f"  D={q['D']} h={q['class_number']} ratio {_ball_text(ratio)}")
    _write_artifacts(opts["out"], config, "report", json=report)
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
    p.add_argument("--offset", type=Fraction, default=None,
                   help="normalization offset, e.g. 1/3 or 0.1 (default -log(2)/2)")
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
    p.add_argument("--cprime", type=Fraction, required=True,
                   help="ratio bound, taken exactly, e.g. 1/3 or 0.05")
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
    if opts["precision"] > MAX_PRECISION:
        raise UsageError(f"precision {opts['precision']} is above MAX_PRECISION = {MAX_PRECISION} digits")
    if getattr(args, "dmax", 0) > MAX_DMAX:
        raise UsageError(f"--dmax {args.dmax} is above MAX_DMAX = {MAX_DMAX}")
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
    except ChainViolationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except PrecisionError as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError, OSError) as exc:  # ConstructionError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
