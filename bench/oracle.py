"""Reference values and output checks, built without heightlab.

Each ``check_<workload>`` takes the workload's inputs and one
repetition's decoded outputs and returns a ``Verdict``: how many items
were attempted, which failed and why, the largest certified radius the
workload output, and how many individual checks ran.  References come
from mpmath's own special functions and root finder (``kleinj``,
``qp``, ``jtheta``, ``polyroots``) or, for the exact workload, from
independent exact arithmetic plus digests of the outputs at the commit
that introduced this benchmark.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

import mpmath
from mpmath import mp, mpc, mpf

import inputs
from wire import decode_ball

# sha256 of the census and tower outputs, by quick flag, as produced by
# heightlab 0.1.0 (the exact workload's inputs do not depend on the seed).
EXACT_DIGESTS = {
    False: {
        "census": "252a7911599e3daf00778b60b3c702f733469bb8548fd9898e98d48c32f5c9b8",
        "towers": "86cdc8606f211a1fd55b34e9612383526974ba53cdddf1aa2a898649cb4505b6",
    },
    True: {
        "census": "a1616e09469bca0aa4b7ff0472a2aa93cce3f6e1fda1a8f90cf2c3e8034f989d",
        "towers": "2a03c03029b2ebb92d207a8579339927e13c11734054aa3139f180334f1d91ff",
    },
}


@dataclass
class Verdict:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    radii: list = field(default_factory=list)
    checks: Counter = field(default_factory=Counter)

    def item(self, problems: list[str], label: str) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))

    def contains(self, ball, ref, what: str, problems: list[str]) -> None:
        """The certified ball must contain the reference value."""
        value, radius = ball
        self.checks[what] += 1
        if not abs(value - ref) <= radius:
            problems.append(
                f"{what} {mpmath.nstr(value, 20)} +- {mpmath.nstr(radius, 3)} "
                f"misses reference {mpmath.nstr(ref, 20)}"
            )

    @property
    def max_radius(self):
        return max(self.radii) if self.radii else None


# -- cm-scan -------------------------------------------------------------

def cm_reference(d: int, dps: int = 60):
    """(h, j height, Faltings height, theta height estimate, residual,
    ratio) of discriminant d from mpmath's kleinj, qp and jtheta."""
    forms = inputs.reduced_forms(d)
    h = len(forms)
    with mp.workdps(dps):
        jh = s = th = mpf(0)
        for a, b, _ in forms:
            tau = mpc(-b, mp.sqrt(-d)) / (2 * a)
            jh += mp.log(max(1, abs(1728 * mp.kleinj(tau))))
            q = mp.exp(2j * mp.pi * tau)
            delta = q * mp.qp(q) ** 24
            s += -mp.log(abs(delta) * tau.imag**6) / 12
            # theta_j = sum over m = j mod 4 of w^(m^2), w^4 = exp(pi i tau)
            w4 = mp.exp(1j * mp.pi * tau)
            t2, t3, t4 = (mp.jtheta(k, 0, w4) for k in (2, 3, 4))
            mags = [abs(t3 + t4) / 2, abs(t2) / 2, abs(t3 - t4) / 2, abs(t2) / 2]
            th += mp.log(mp.sqrt(mp.fsum(m * m for m in mags)) / max(mags))
        jh, th = jh / h, th / h
        fh = s / h - mp.log(2) / 2
        residual = abs(max(1, th) - max(1, fh) / 2)
        return h, (jh, fh, th, residual, fh / h)


CM_FIELDS = ("j_height", "faltings_height", "theta_height_est", "residual", "ratio")


def check_cm_scan(data: dict, outputs: dict, refs: dict) -> Verdict:
    v = Verdict()
    discs = inputs.fundamental_discriminants(data["d_max"])
    records = {r[0]: r for r in outputs["records"]}
    csv_rows = {}
    for line in outputs["csv"].splitlines()[2:]:
        cells = line.split(",")
        csv_rows[int(cells[0])] = cells
    for d in discs:
        problems = [outputs["error"]] if outputs["error"] else []
        rec = records.get(d)
        if rec is None:
            problems.append("no record")
        else:
            h, values = refs[d]
            v.checks["class_number"] += 1
            if rec[1] != h:
                problems.append(f"class number {rec[1]} != {h}")
            with mp.workdps(60):
                for name, ball, ref in zip(CM_FIELDS, rec[2:], values):
                    ball = decode_ball(ball)
                    v.contains(ball, ref, name, problems)
                    v.radii.append(ball[1])
                cells = csv_rows.get(d)
                v.checks["csv_row"] += 1
                if cells is None or int(cells[1]) != h or any(
                    abs(mpf(c) - decode_ball(b)[0]) > mpf(10) ** -13 * max(1, abs(mpf(c)))
                    for c, b in zip(cells[2:7], rec[2:])
                ):
                    problems.append("CSV row does not match the record")
        v.item(problems, f"d={d}")
    return v


# -- classpoly -----------------------------------------------------------

def classpoly_reference(d: int):
    """Integer coefficients of the class polynomial of d (lowest first)
    and the j values 1728 kleinj(tau) of its forms, at the working
    precision they were computed with."""
    forms = inputs.reduced_forms(d)
    dps = int(inputs.class_poly_digits(d)) + 40
    with mp.workdps(dps):
        js = [1728 * mp.kleinj(mpc(-b, mp.sqrt(-d)) / (2 * a)) for a, b, _ in forms]
        coeffs = [mpc(1)]
        for j in js:
            nxt = [mpc(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] += c
                nxt[i] -= c * j
            coeffs = nxt
        ints = [int(mp.nint(c.real)) for c in coeffs]
        if any(abs(c - n) > mpf("0.01") for c, n in zip(coeffs, ints)):
            raise ArithmeticError(f"reference class polynomial of {d} did not round")
    return ints, js, dps


def check_classpoly(data: dict, outputs: dict, refs: dict) -> Verdict:
    v = Verdict()
    by_d = {p["d"]: p for p in outputs["polys"]}
    for d in data["discs"]:
        out, problems = by_d.get(d), []
        if out is None or out["error"]:
            problems.append(out["error"] if out else "no output")
        else:
            ints, js, dps = refs[d]
            v.checks["coefficients_exact"] += 1
            if out["coeffs"] != ints:
                problems.append("coefficients differ from the reference")
            with mp.workdps(dps):
                tol = mpf(10) ** (-(dps // 2))
                for j in js:
                    v.checks["reference_j_is_root"] += 1
                    val = scale = mpf(0)
                    for c in reversed(out["coeffs"]):
                        val = val * j + c
                        scale = scale * abs(j) + abs(c)
                    if abs(val) > tol * scale:
                        problems.append(f"P(j) = {mpmath.nstr(abs(val) / scale, 3)} (relative)")
                # every certified j value (all precision rounds) contains its reference
                for i, ball in enumerate(out["j"]):
                    value, radius = decode_ball(ball)
                    v.contains((value, radius), js[i % len(js)], "j_value", problems)
                    v.radii.append(radius / abs(value))
        v.item(problems, f"d={d}")
    return v


# -- exact ---------------------------------------------------------------

def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def exact_digests(outputs: dict) -> dict:
    """Digests of the census entries and the tower certificates."""
    return {"census": _digest(outputs["census"]), "towers": _digest(outputs["towers"])}


def _radical_height(ex: dict) -> mpf:
    """h(prod p^e) = max(sum_{e>0} e log p, sum_{e<0} -e log p), from
    h(a) = h(a^m) / m with a^m rational."""
    pos = mp.fsum(e.numerator * mp.log(p) / e.denominator for p, e in ex.items() if e > 0)
    neg = mp.fsum(-e.numerator * mp.log(p) / e.denominator for p, e in ex.items() if e < 0)
    return max(pos, neg)


def _point_height(coords: list[dict]) -> mpf:
    """Projective height of nonzero radical coordinates: raise every
    coordinate to the m-th power (m clears all exponent denominators),
    take the height of the rational point, divide by m."""
    m = 1
    for ex in coords:
        for e in ex.values():
            m = lcm(m, e.denominator)
    rats = []
    for ex in coords:
        r = Fraction(1)
        for p, e in ex.items():
            r *= Fraction(p) ** int(e * m)
        rats.append(r)
    den = 1
    for r in rats:
        den = lcm(den, r.denominator)
    ints = [int(r * den) for r in rats]
    g = 0
    for n in ints:
        g = gcd(g, n)
    return mp.log(max(ints) // g) / m


def _group_order(vectors: list[dict]) -> int:
    """Order of the subgroup of (Q/Z)^primes generated by the exponent
    vectors, by enumerating it; this is [Q(a_1..a_k) : Q] for positive
    real radicals (Kummer theory)."""
    primes = sorted({p for ex in vectors for p in ex})
    gens = [tuple(ex.get(p, Fraction(0)) % 1 for p in primes) for ex in vectors]
    seen = {tuple(Fraction(0) for _ in primes)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % 1 for a, b in zip(x, g))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def chain_reference(coords: list, gamma: Fraction):
    """(verdict, lhs, middle, rhs) of the height chain for the point
    [coords] (None is a zero coordinate), at 60 digits."""
    first = next(c for c in coords if c is not None)
    norm = [
        None if c is None else {
            p: e for p in set(c) | set(first)
            if (e := c.get(p, Fraction(0)) - first.get(p, Fraction(0)))
        }
        for c in coords
    ]
    lead = next(i for i, c in enumerate(norm) if c is not None)
    affine = [c for i, c in enumerate(norm) if i != lead]
    members = [c for c in affine if c]
    if not members:
        return "degenerate", mpf(0), mpf(0), mpf(0)
    n, k = len(affine), len(members)
    d_prod = 1
    for ex in members:
        d_prod *= _group_order([ex])
    nonzero = [c for c in norm if c is not None]
    big_k = _group_order(nonzero)
    g = mpf(gamma.numerator) / gamma.denominator
    geo = mp.fsum(mp.log(_radical_height(ex)) for ex in members) / k
    lhs = mpf(big_k) ** g * _point_height(nonzero)
    middle = mpf(d_prod) ** g * mp.exp(geo)
    rhs = mpf(d_prod) ** (n * g / k) * mp.exp(geo)
    return "holds", lhs, middle, rhs


def _height_ball(hv: dict):
    if "numeric" in hv:
        return decode_ball(hv["numeric"]), True
    value = mp.fsum(Fraction(r).numerator * mp.log(int(p)) / Fraction(r).denominator
                    for p, r in hv["exact"].items())
    return (value, mpf(10) ** -45 * max(1, abs(value))), False


def check_exact(data: dict, outputs: dict, refs: list, quick: bool) -> Verdict:
    v = Verdict()
    digests = exact_digests(outputs)
    for part in ("census", "towers"):
        v.checks[f"{part}_digest"] += 1
        problems = []
        if part == "census" and outputs["census_error"]:
            problems.append(outputs["census_error"])
        if digests[part] != EXACT_DIGESTS[quick][part]:
            problems.append("digest differs from the recorded outputs")
        v.item(problems, part)
    for spec, tower in zip(data["towers"], outputs["towers"]):
        problems = [tower["error"]] if tower["error"] else []
        problems += [c["error"] for c in tower["certs"] if "error" in c]
        v.checks["level_certified"] += len(tower["certs"])
        problems += [f"level {c['level']} not certified" for c in tower["certs"] if not c.get("passed")]
        v.item(problems, f"tower {spec['schedule']} gamma={spec['gamma']}")
    with mp.workdps(60):
        for i, (verdict, *values) in enumerate(refs):
            out, problems = outputs["chain"][i], []
            if "error" in out:
                problems.append(out["error"])
            else:
                v.checks["chain_verdict"] += 1
                if out["verdict"] != verdict:
                    problems.append(f"verdict {out['verdict']} != {verdict}")
                if verdict == "holds":
                    for name, ref in zip(("lhs", "middle", "rhs"), values):
                        ball, numeric = _height_ball(out[name])
                        v.contains(ball, ref, f"chain_{name}", problems)
                        if numeric:
                            v.radii.append(ball[1])
            v.item(problems, f"chain point {i}")
    return v


# -- roots ---------------------------------------------------------------

def roots_reference(coeffs: list[int], dps: int):
    """All roots of the integer polynomial (lowest coefficient first)
    from mpmath.polyroots, and its Mahler height
    (log|lc| + sum log max(1, |root|)) / degree."""
    with mp.workdps(dps):
        roots = mp.polyroots(list(reversed(coeffs)), maxsteps=500, extraprec=dps)
        mahler = (mp.log(abs(coeffs[-1])) + mp.fsum(mp.log(max(1, abs(r))) for r in roots)) / (len(coeffs) - 1)
    return roots, mahler


REF_DPS = 150


def check_roots(data: dict, outputs: dict, refs: dict) -> Verdict:
    """Every root disc must contain a reference root and the Mahler
    enclosure the reference Mahler height.  At 150 digits the reference
    roots agree with 600-digit ones to 1e-149 on these inputs, fifty
    orders below the disc radii (about 1e-97) being checked."""
    v = Verdict()
    by_name = {p["name"]: p for p in outputs["polys"]}
    with mp.workdps(REF_DPS):
        for p in data["polys"]:
            out, problems = by_name.get(p["name"]), []
            if out is None or out["error"]:
                problems.append(out["error"] if out else "no output")
            else:
                roots, mahler = refs[p["name"]]
                ball = decode_ball(out["mahler"])
                v.contains(ball, mahler, "mahler_height", problems)
                v.radii.append(ball[1])
                v.checks["disc_count"] += 1
                if len(out["discs"]) != len(roots):
                    problems.append(f"{len(out['discs'])} discs for {len(roots)} roots")
                missed = 0
                for disc in out["discs"]:
                    value, radius = decode_ball(disc)
                    v.checks["disc_contains_root"] += 1
                    if not min(abs(value - r) for r in roots) <= radius:
                        missed += 1
                if missed:
                    problems.append(f"{missed} root discs contain no root")
            v.item(problems, p["name"])
    return v


def references(workload: str, data: dict):
    """The reference values a check needs, computed once per run."""
    if workload == "cm-scan":
        return {d: cm_reference(d) for d in inputs.fundamental_discriminants(data["d_max"])}
    if workload == "classpoly":
        return {d: classpoly_reference(d) for d in data["discs"]}
    if workload == "roots":
        return {p["name"]: roots_reference(p["coeffs"], REF_DPS) for p in data["polys"]}
    with mp.workdps(60):
        return [chain_reference(p["coords"], p["gamma"]) for p in data["chain"]]


def check(workload: str, data: dict, outputs: dict, refs, quick: bool) -> Verdict:
    if workload == "cm-scan":
        return check_cm_scan(data, outputs, refs)
    if workload == "classpoly":
        return check_classpoly(data, outputs, refs)
    if workload == "roots":
        return check_roots(data, outputs, refs)
    return check_exact(data, outputs, refs, quick)
