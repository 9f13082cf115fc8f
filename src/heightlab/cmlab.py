"""CM moduli laboratory for elliptic curves: class groups, modular
invariants, and three notions of height computed with certified error
radii.

For an imaginary quadratic discriminant D < 0 the reduced binary
quadratic forms (a, b, c) of discriminant D are enumerated exactly;
each gives a CM point tau = (-b + i sqrt(|D|)) / (2a) in the standard
fundamental domain.  On top of that sit:

* j-invariants through the weight-4 Eisenstein series and the modular
  discriminant, both evaluated as q-series with explicit tail bounds,
  and Hilbert class polynomials recovered by rounding certified
  complex coefficients to integers;

* the stable Faltings height as the class-group average of
  s(tau) = -(1/12) log(|Delta(tau)| (Im tau)^6), an SL2(Z)-invariant
  quantity, plus a normalization offset.  The default offset
  -(1/2) log 2 converts the lattice-period term to the standard
  normalization of the semistable height (volume form scaled by
  (2pi)^(-2), algebraic discriminant (2pi)^12 Delta);

* level-2 theta null points (theta_0 : theta_1 : theta_2 : theta_3)
  with theta_j(tau) = sum over m = j mod 4 of w^(m^2), w = exp(pi i
  tau / 4), again with certified tails, and a height estimate read off
  their archimedean norms.

All floating results are BigFloat discs (midpoint plus radius that
includes both truncation tails and rounding slop), so experiment
verdicts can be made precision-robust.
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

from mpmath import mp, mpc, mpf, workdps

from .numcore import (
    DEFAULT_DIGITS,
    BigFloat,
    IntPoly,
    PrecisionError,
    _as_bigfloat,
    _ulp_slop,
    certify,
    factorint,
)

# |q| cap for the q-series; beyond this, convergence certification is
# refused rather than silently degraded
Q_MODULUS_CAP = mpf("0.9995")


# The benchmark's tracer (bench/tracer.py, bench/test_bench.py) binds the
# CM lab's ball type under this name; nothing else uses it.
CDisc = BigFloat


# ---------------------------------------------------------------------------
# discriminants and reduced forms
# ---------------------------------------------------------------------------

class Discriminant:
    """Validated imaginary quadratic discriminant: D < 0, D = 0 or 1
    mod 4."""

    __slots__ = ("value",)

    def __init__(self, value):
        value = int(value)
        if value >= 0:
            raise ValueError("discriminant must be negative")
        if value % 4 not in (0, 1):
            raise ValueError("discriminant must be 0 or 1 mod 4")
        self.value = value

    @property
    def is_fundamental(self) -> bool:
        d = self.value
        if d % 4 == 1:
            return _squarefree(-d)
        m = d // 4
        return m % 4 in (2, 3) and _squarefree(-m)

    def __int__(self):
        return self.value

    def __eq__(self, other):
        if isinstance(other, Discriminant):
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash(("Discriminant", self.value))

    def __repr__(self):
        return f"Discriminant({self.value})"


def _squarefree(n: int) -> bool:
    return all(e == 1 for e in factorint(n).values())


def _disc_value(d) -> int:
    if isinstance(d, Discriminant):
        return d.value
    return Discriminant(d).value


@dataclass(frozen=True)
class ReducedForm:
    """Reduced primitive positive definite binary quadratic form
    a x^2 + b x y + c y^2: |b| <= a <= c, gcd(a,b,c) = 1, and b >= 0
    when |b| = a or a = c."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        a, b, c = self.a, self.b, self.c
        if a <= 0 or b * b - 4 * a * c >= 0:
            raise ValueError("form must be positive definite")
        if gcd(gcd(a, b), c) != 1:
            raise ValueError("form must be primitive")
        if not (abs(b) <= a <= c):
            raise ValueError("form is not reduced")
        if (abs(b) == a or a == c) and b < 0:
            raise ValueError("form is not reduced (boundary sign)")

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def tau(self, precision_digits: int = DEFAULT_DIGITS) -> mpc:
        """CM point (-b + i sqrt(|D|)) / (2a), in the fundamental
        domain."""
        with workdps(precision_digits + 10):
            return mpc(-self.b, mp.sqrt(-self.discriminant)) / (2 * self.a)


@lru_cache(maxsize=4096)
def _reduced_forms_cached(d: int) -> tuple:
    out = []
    for a in range(1, isqrt(-d // 3) + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            out.append(ReducedForm(a, b, c))
    out.sort(key=lambda f: (f.a, f.b))
    return tuple(out)


def reduced_forms(d) -> list[ReducedForm]:
    """All reduced forms of discriminant d, sorted by (a, b).  Exact
    integer enumeration: a <= sqrt(|d|/3)."""
    return list(_reduced_forms_cached(_disc_value(d)))


def class_number(d) -> int:
    """h(d): the number of reduced forms."""
    return len(reduced_forms(d))


def fundamental_discriminants(bound: int) -> list[int]:
    """Fundamental discriminants d with |d| <= bound, by increasing
    |d|."""
    out = []
    for n in range(3, bound + 1):
        d = -n
        if d % 4 not in (0, 1):
            continue
        if Discriminant(d).is_fundamental:
            out.append(d)
    return out


# ---------------------------------------------------------------------------
# q-series with certified tails
# ---------------------------------------------------------------------------

def _eta_product(q: BigFloat) -> BigFloat:
    """f(q) = prod_{n>=1} (1 - q^n), summed as the pentagonal-number
    series sum_k (-1)^k q^(k(3k-1)/2) with a certified geometric tail
    bound.  Requires |q| below the convergence cap."""
    q_hi = q.abs_bounds()[1]
    if q_hi > Q_MODULUS_CAP:
        raise PrecisionError(
            "q-series refused: |q| too close to 1 (is Im tau positive "
            "and not tiny?)"
        )
    tol = mpf(10) ** (-(mp.dps - 5))
    total = BigFloat(1)
    k = 0
    while True:
        k += 1
        t = q.pow_int(k * (3 * k - 1) // 2) + q.pow_int(k * (3 * k + 1) // 2)
        total = total + (-t if k % 2 else t)
        e_next = (k + 1) * (3 * k + 2) // 2
        tail = 2 * q_hi**e_next / (1 - q_hi)
        if tail < tol:
            return BigFloat(total.value, total.radius + tail)
        if k > 10000:
            raise PrecisionError("pentagonal series did not converge")


def _eisenstein_e4(q: BigFloat) -> BigFloat:
    """E4(q) = 1 + 240 sum sigma_3(n) q^n with a certified tail via
    sigma_3(n) <= n^4 <= C * |q|^(-n/2)."""
    q_hi = q.abs_bounds()[1]
    if q_hi > Q_MODULUS_CAP:
        raise PrecisionError("q-series refused: |q| too close to 1")
    tol = mpf(10) ** (-(mp.dps - 5))
    sq = mp.sqrt(q_hi)
    # max over n of n^4 * sq^n, at n = 4/log(1/sq)
    c_max = (4 / (mp.e * mp.log(1 / sq))) ** 4 if sq > 0 else mpf(0)
    n_terms = 16
    while True:
        tail = 240 * c_max * sq ** (n_terms + 1) / (1 - sq) if sq > 0 else mpf(0)
        if tail < tol:
            break
        n_terms *= 2
        if n_terms > 1 << 22:
            raise PrecisionError("Eisenstein series did not converge")
    sigma3 = [0] * (n_terms + 1)
    for div in range(1, n_terms + 1):
        cube = div * div * div
        for m in range(div, n_terms + 1, div):
            sigma3[m] += cube
    total = BigFloat(1)
    q_pow = BigFloat(1)
    for n in range(1, n_terms + 1):
        q_pow = q_pow * q
        total = total + q_pow * (240 * sigma3[n])
    return BigFloat(total.value, total.radius + tail)


_TWO_PI_I_SLOP = 8


def _q_from_tau(tau: BigFloat) -> BigFloat:
    two_pi_i = BigFloat(mpc(0, 2) * mp.pi, _ulp_slop(mp.pi) * _TWO_PI_I_SLOP)
    return (two_pi_i * tau).exp()


def modular_discriminant(tau, precision_digits: int = DEFAULT_DIGITS) -> BigFloat:
    """Delta(tau) = q prod (1 - q^n)^24, q = exp(2 pi i tau), as a
    certified complex disc."""
    with workdps(precision_digits + 15):
        t = _as_bigfloat(tau)
        if not t.value.imag > 0:
            raise ValueError("tau must lie in the upper half plane")
        q = _q_from_tau(t)
        return q * _eta_product(q).pow_int(24)


def _j_at(tau: BigFloat) -> BigFloat:
    q = _q_from_tau(tau)
    e4 = _eisenstein_e4(q)
    delta = q * _eta_product(q).pow_int(24)
    return e4.pow_int(3) / delta


def _reduce_to_fundamental_domain(tau: mpc) -> mpc:
    """Apply T/S moves until |Re| <= 1/2 and |tau| >= 1 (within one
    ulp)."""
    if not tau.imag > 0:
        raise ValueError("tau must lie in the upper half plane")
    for _ in range(100000):
        n = int(mp.floor(tau.real + mpf("0.5")))
        if n:
            tau = tau - n
        if abs(tau) < 1 - mpf(10) ** (-mp.dps + 2):
            tau = -1 / tau
            continue
        return tau
    raise PrecisionError("fundamental domain reduction did not terminate")


def j_invariant(tau, precision_digits: int = DEFAULT_DIGITS) -> BigFloat:
    """j(tau) = E4(q)^3 / Delta(tau), computed after moving tau to the
    fundamental domain (j is SL2(Z)-invariant, and there the q-series
    tails are sharp)."""
    with workdps(precision_digits + 15):
        t = _reduce_to_fundamental_domain(mpc(tau))
        return _j_at(BigFloat(t))


def _tau_ball(form: ReducedForm) -> BigFloat:
    """CM point of a form, at ambient precision, as a disc."""
    root = mp.sqrt(mpf(-form.discriminant))
    val = mpc(-form.b, root) / (2 * form.a)
    return BigFloat(val, _ulp_slop(val) * 4)


def hilbert_class_poly(d) -> IntPoly:
    """The monic integer polynomial whose roots are the j-invariants
    of the reduced forms of discriminant d.  Precision escalates until
    every coefficient disc rounds unambiguously to an integer."""
    d = _disc_value(d)
    forms = reduced_forms(d)
    with workdps(30):
        est = mp.pi * mp.sqrt(mpf(-d)) * mp.fsum(mpf(1) / f.a for f in forms)
        dps = int(est / mp.log(10)) + 25

    def attempt(dps):
        with workdps(dps):
            coeffs = [BigFloat(1)]
            for f in forms:
                j = _j_at(_tau_ball(f))
                # multiply running polynomial by (x - j); lowest first
                nxt = [BigFloat(0)] * (len(coeffs) + 1)
                for i, cf in enumerate(coeffs):
                    nxt[i + 1] = nxt[i + 1] + cf
                    nxt[i] = nxt[i] - cf * j
                coeffs = nxt
            ints = []
            for cf in coeffs:
                re, im = cf.value.real, cf.value.imag
                n = int(mp.nint(re))
                if abs(im) + cf.radius > mpf("0.25") or abs(re - n) + cf.radius > mpf("0.25"):
                    return None
                ints.append(n)
            return IntPoly(ints)

    return certify(attempt, dps, dps << 7, "class polynomial coefficients")


# ---------------------------------------------------------------------------
# heights
# ---------------------------------------------------------------------------

def j_height(d, precision_digits: int = 24) -> BigFloat:
    """Weil height of the j-invariant of discriminant d: the class
    polynomial is monic with algebraic-integer roots, so the height is
    the average of log max(1, |j|) over the reduced forms."""
    d = _disc_value(d)
    forms = reduced_forms(d)
    with workdps(precision_digits + 15):
        acc = BigFloat(0, 0)
        for f in forms:
            lo, hi = _j_at(_tau_ball(f)).abs_bounds()
            if hi <= 1:
                continue
            if lo >= 1:
                llo, lhi = mp.log(lo), mp.log(hi)
                acc = acc + BigFloat((llo + lhi) / 2, (lhi - llo) / 2 + _ulp_slop(lhi))
            else:
                lhi = mp.log(hi)
                acc = acc + BigFloat(lhi / 2, lhi / 2 + _ulp_slop(lhi))
        return acc / len(forms)


def s_invariant(tau, precision_digits: int = DEFAULT_DIGITS) -> BigFloat:
    """s(tau) = -(1/12) log(|Delta(tau)| (Im tau)^6)
             = pi Im(tau)/6 - 2 log|f(q)| - (1/2) log Im(tau),
    an SL2(Z)-invariant function computed directly from the eta
    product (no reduction applied, so invariance is testable)."""
    with workdps(precision_digits + 15):
        t = _as_bigfloat(tau)
        return _s_at(t)


def _s_at(t: BigFloat) -> BigFloat:
    y_val = t.value.imag
    if not y_val - t.radius > 0:
        raise ValueError("tau must lie in the upper half plane")
    y = BigFloat(y_val, t.radius)
    q = _q_from_tau(t)
    log_f = _eta_product(q).log_abs()
    pi_bf = BigFloat(mp.pi, _ulp_slop(mp.pi))
    return pi_bf * y / 6 - log_f * 2 - y.log_abs() / 2


def _default_offset() -> BigFloat:
    v = -mp.log(2) / 2
    return BigFloat(v, _ulp_slop(v))


def faltings_height_cm(d, precision_digits: int = 24, normalization_offset=None) -> BigFloat:
    """Stable Faltings height of a CM elliptic curve with CM by the
    order of discriminant d: the class-group average of s(tau) plus a
    normalization offset (default -(1/2) log 2; see the module
    docstring)."""
    d = _disc_value(d)
    forms = reduced_forms(d)
    with workdps(precision_digits + 15):
        acc = BigFloat(0, 0)
        for f in forms:
            acc = acc + _s_at(_tau_ball(f))
        acc = acc / len(forms)
        if normalization_offset is None:
            off = _default_offset()
        elif isinstance(normalization_offset, BigFloat):
            off = normalization_offset
        else:
            off = BigFloat(mpf(normalization_offset), 0)
        return acc + off


# ---------------------------------------------------------------------------
# theta null points
# ---------------------------------------------------------------------------

def theta_null_point(tau, precision_digits: int = DEFAULT_DIGITS):
    """Level-2 theta null point (theta_0 : theta_1 : theta_2 : theta_3)
    with theta_j = sum over m = j (mod 4) of w^(m^2), w = exp(pi i
    tau/4).  Terms are accumulated by increasing |m|, so theta_1 and
    theta_3 (whose term sequences coincide) come out bitwise equal."""
    with workdps(precision_digits + 15):
        t = _as_bigfloat(tau)
        if not t.value.imag - t.radius > 0:
            raise ValueError("tau must lie in the upper half plane")
        return _theta_nulls(_theta_w(t))


def _theta_w(tau: BigFloat) -> BigFloat:
    """The theta nome w = exp(pi i tau / 4) of a tau ball."""
    pi_i_4 = BigFloat(mpc(0, 1) * mp.pi / 4, _ulp_slop(mp.pi) * 4)
    return (pi_i_4 * tau).exp()


def _theta_nulls(w: BigFloat):
    w_hi = w.abs_bounds()[1]
    if w_hi > Q_MODULUS_CAP:
        raise PrecisionError("theta series refused: |w| too close to 1")
    tol = mpf(10) ** (-(mp.dps - 5))
    buckets = [BigFloat(0), BigFloat(0), BigFloat(0), BigFloat(0)]
    buckets[0] = buckets[0] + BigFloat(1)
    w2 = w * w
    w_odd = w
    w_m2 = BigFloat(1)
    m = 0
    while True:
        m += 1
        w_m2 = w_m2 * w_odd
        w_odd = w_odd * w2
        buckets[m % 4] = buckets[m % 4] + w_m2
        buckets[(-m) % 4] = buckets[(-m) % 4] + w_m2
        gap = 1 - w_hi ** (2 * m + 3)
        if gap > mpf("0.5"):
            tail = 2 * w_hi ** ((m + 1) * (m + 1)) / gap
            if tail < tol:
                return tuple(
                    BigFloat(b.value, b.radius + tail) for b in buckets
                )
        if m > 1 << 20:
            raise PrecisionError("theta series did not converge")


def theta_height_estimate(d, precision_digits: int = 24) -> BigFloat:
    """Archimedean height estimate of the theta null orbit: the
    class-group average of log(||v||_2 / max_j |theta_j|), where v is
    the theta null vector.  Nonnegative by construction."""
    d = _disc_value(d)
    forms = reduced_forms(d)
    with workdps(precision_digits + 15):
        acc = BigFloat(0, 0)
        for f in forms:
            nulls = _theta_nulls(_theta_w(_tau_ball(f)))
            bounds = [th.abs_bounds() for th in nulls]
            l2_lo = mp.sqrt(mp.fsum(lo * lo for lo, _ in bounds))
            l2_hi = mp.sqrt(mp.fsum(hi * hi for _, hi in bounds))
            mx_lo = max(lo for lo, _ in bounds)
            mx_hi = max(hi for _, hi in bounds)
            if not mx_lo > 0:
                raise PrecisionError("theta maximum not separated from zero")
            term_lo = mp.log(l2_lo / mx_hi) if l2_lo > mx_hi else mpf(0)
            term_hi = mp.log(l2_hi / mx_lo)
            if term_hi < term_lo:
                term_hi = term_lo
            mid = (term_lo + term_hi) / 2
            acc = acc + BigFloat(mid, (term_hi - term_lo) / 2 + _ulp_slop(mid, 1))
        return acc / len(forms)


# ---------------------------------------------------------------------------
# per-discriminant records and experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CMRecord:
    """One scanned discriminant: heights, the theta-Faltings residual
    |max(1, theta est) - (1/2) max(1, Faltings)|, and the decay ratio
    (Faltings height over class number)."""

    d: int
    class_number: int
    j_height: BigFloat
    faltings_height: BigFloat
    theta_height_est: BigFloat
    residual: BigFloat
    ratio: BigFloat

    @property
    def error_radius(self) -> mpf:
        return max(
            self.j_height.radius,
            self.faltings_height.radius,
            self.theta_height_est.radius,
            self.residual.radius,
            self.ratio.radius,
        )


def _clamp_one(x: BigFloat) -> BigFloat:
    # max(1, x) is 1-Lipschitz: midpoint clamps, radius carries over
    return BigFloat(x.value if x.value > 1 else mpf(1), x.radius)


def _abs_bf(x: BigFloat) -> BigFloat:
    return BigFloat(abs(x.value), x.radius)


def cm_record(d, precision_digits: int = 24) -> CMRecord:
    """Compute the full record for one discriminant."""
    d = _disc_value(d)
    h = class_number(d)
    jh = j_height(d, precision_digits)
    fh = faltings_height_cm(d, precision_digits)
    th = theta_height_estimate(d, precision_digits)
    with workdps(precision_digits + 15):
        residual = _abs_bf(_clamp_one(th) - _clamp_one(fh) / 2)
        ratio = fh / h
    return CMRecord(
        d=d,
        class_number=h,
        j_height=jh,
        faltings_height=fh,
        theta_height_est=th,
        residual=residual,
        ratio=ratio,
    )


def _per_discriminant(fn, d_max: int, precision_digits: int, workers: int, chunksize: int) -> list:
    """fn(d, precision_digits) for every fundamental discriminant d with
    |d| <= d_max, by increasing |d|; on a pool of ``workers`` processes
    when there is more than one.  Results travel by pickle, which keeps
    every mpf bit-exact, so they do not depend on the worker count."""
    args = [(d, precision_digits) for d in fundamental_discriminants(d_max)]
    if workers > 1 and len(args) > 1:
        with multiprocessing.Pool(workers) as pool:
            return pool.starmap(fn, args, chunksize=chunksize)
    return [fn(*a) for a in args]


def cm_scan(d_max: int, precision_digits: int = 24, workers: int = 1):
    """Records for every fundamental discriminant with |d| <= d_max,
    sorted by |d|.  Each record is a pure function of (d, precision),
    so the result is identical for any worker count."""
    return tuple(_per_discriminant(cm_record, d_max, precision_digits, workers, chunksize=8))


CSV_HEADER = (
    "D,class_number,j_height,faltings_height,theta_height_est,"
    "residual,ratio,error_radius"
)


def records_to_csv(records, config_hash: str = "") -> str:
    """Deterministic CSV: one comment line naming the producing tool
    and configuration hash, the fixed header, then one row per record
    with values printed to 15 significant digits."""
    lines = [f"# heightlab cm scan; config {config_hash or 'unhashed'}"]
    lines.append(CSV_HEADER)
    for r in records:
        lines.append(
            ",".join(
                [
                    str(r.d),
                    str(r.class_number),
                    mp.nstr(r.j_height.value, 15),
                    mp.nstr(r.faltings_height.value, 15),
                    mp.nstr(r.theta_height_est.value, 15),
                    mp.nstr(r.residual.value, 15),
                    mp.nstr(r.ratio.value, 15),
                    mp.nstr(r.error_radius, 3),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def records_to_json(records, config: dict | None = None) -> str:
    """Deterministic JSON mirror of the CSV content."""
    payload = {
        "config": config or {},
        "records": [
            {
                "D": r.d,
                "class_number": r.class_number,
                "j_height": mp.nstr(r.j_height.value, 15),
                "faltings_height": mp.nstr(r.faltings_height.value, 15),
                "theta_height_est": mp.nstr(r.theta_height_est.value, 15),
                "residual": mp.nstr(r.residual.value, 15),
                "ratio": mp.nstr(r.ratio.value, 15),
                "error_radius": mp.nstr(r.error_radius, 3),
            }
            for r in records
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=1)


# --- light path: Faltings ratios only --------------------------------------

def _ratio_row(d: int, precision_digits: int):
    """(d, class number h, Faltings height, its ratio to h)."""
    h = class_number(d)
    fh = faltings_height_cm(d, precision_digits)
    with workdps(precision_digits + 15):
        return d, h, fh, fh / h


def verify_decay(
    d_max: int = 20000,
    checkpoints=None,
    precision_digits: int = 20,
    workers: int = 1,
) -> dict:
    """Decay experiment for the ratio (Faltings height / class number).

    Computes env(X) = max over |d| >= X of the ratio, at a list of
    checkpoints (default: 100 doubling up to d_max).  env is
    nonincreasing by construction; ``passed`` asserts certified strict
    decay from the first checkpoint to the last."""
    rows = _per_discriminant(_ratio_row, d_max, precision_digits, workers, chunksize=16)
    if not rows:
        raise ValueError("no fundamental discriminants in range")
    if checkpoints is None:
        checkpoints = [100]
        while checkpoints[-1] * 2 < d_max:
            checkpoints.append(checkpoints[-1] * 2)
        if checkpoints[-1] != d_max:
            checkpoints.append(d_max)
    checkpoints = sorted(set(int(x) for x in checkpoints))
    abs_ds = [-d for d, _, _, _ in rows]
    # suffix maxima of the ratios (as BigFloat, radius = max radius)
    suffix: list[BigFloat] = [None] * len(rows)
    cur = None
    for i in range(len(rows) - 1, -1, -1):
        r = rows[i][3]
        if cur is None:
            cur = r
        else:
            cur = BigFloat(
                r.value if r.value > cur.value else cur.value,
                max(r.radius, cur.radius),
            )
        suffix[i] = cur
    max_abs_d = abs_ds[-1]
    envelope = []
    for x in checkpoints:
        x_eff = min(x, max_abs_d)
        idx = next(i for i, ad in enumerate(abs_ds) if ad >= x_eff)
        x_eff = abs_ds[idx] if x_eff > abs_ds[idx] else x_eff
        env = suffix[idx]
        envelope.append(
            {
                "X": x,
                "X_effective": x_eff,
                "envelope": float(env.value),
                "radius": float(env.radius),
            }
        )
    first = suffix[next(i for i, ad in enumerate(abs_ds) if ad >= min(checkpoints[0], max_abs_d))]
    last = suffix[next(i for i, ad in enumerate(abs_ds) if ad >= min(checkpoints[-1], max_abs_d))]
    passed = (last.value + last.radius) < (first.value - first.radius)
    return {
        "d_max": d_max,
        "precision_digits": precision_digits,
        "checkpoints": envelope,
        "ratios": [
            [d, float(r.value), float(r.radius)] for d, _, _, r in rows
        ],
        "passed": bool(passed),
    }


def verify_theta_faltings(
    d_max: int = 5000, precision_digits: int = 24, workers: int = 1
) -> dict:
    """Theta-vs-Faltings comparison experiment.

    For every fundamental |d| <= d_max, the residual
    |max(1, theta est) - (1/2) max(1, Faltings)| is measured against
    log(min(theta est, Faltings) + 2); the fitted constant is the
    maximum of those quotients, reported as a disc so reruns at higher
    precision can be checked for consistency."""
    records = cm_scan(d_max, precision_digits, workers)
    if not records:
        raise ValueError("no fundamental discriminants in range")
    with workdps(precision_digits + 15):
        c_fit = None
        argmax_d = None
        per_d = []
        for r in records:
            tv, fv = r.theta_height_est, r.faltings_height
            m_val = tv.value if tv.value < fv.value else fv.value
            m_rad = max(tv.radius, fv.radius)
            den_lo = mp.log(m_val - m_rad + 2)
            den_hi = mp.log(m_val + m_rad + 2)
            if not den_lo > 0:
                raise PrecisionError("comparison denominator degenerate")
            q_hi = (r.residual.value + r.residual.radius) / den_lo
            q_lo = (r.residual.value - r.residual.radius) / den_hi
            if q_lo < 0:
                q_lo = mpf(0)
            q = BigFloat((q_lo + q_hi) / 2, (q_hi - q_lo) / 2)
            per_d.append((r.d, q))
            if c_fit is None:
                c_fit = q
                argmax_d = r.d
            else:
                if q.value > c_fit.value:
                    argmax_d = r.d
                c_fit = BigFloat(
                    q.value if q.value > c_fit.value else c_fit.value,
                    max(q.radius, c_fit.radius),
                )
    return {
        "d_max": d_max,
        "precision_digits": precision_digits,
        "fitted_constant": float(c_fit.value),
        "fitted_radius": float(c_fit.radius),
        "argmax_d": argmax_d,
        "finite": bool(mp.isfinite(c_fit.value)),
        "quotients": [[d, float(q.value), float(q.radius)] for d, q in per_d],
        "records": records,
        "passed": bool(mp.isfinite(c_fit.value)),
    }


def finiteness_demo(
    d_max: int, c_prime, precision_digits: int = 20, workers: int = 1
) -> dict:
    """Bounded-ratio demonstration: the fundamental discriminants with
    |d| <= d_max whose ratio (Faltings height / class number) is
    certified at most c_prime.  Inclusion and exclusion are decided by
    disc bounds, escalating precision on borderline cases."""
    c_prime = mpf(c_prime)
    rows = _per_discriminant(_ratio_row, d_max, precision_digits, workers, chunksize=16)
    qualifying = []

    def separated(row):
        ratio = row[3]
        hi = ratio.value + ratio.radius
        lo = ratio.value - ratio.radius
        return row if hi <= c_prime or lo > c_prime else None

    for row in rows:
        d = row[0]
        if separated(row) is None:
            row = certify(
                lambda dps: separated(_ratio_row(d, dps)),
                2 * precision_digits, 16 * precision_digits,
                f"ratio bound of discriminant {d}",
            )
        _, h, fh, ratio = row
        if ratio.value + ratio.radius <= c_prime:
            qualifying.append(
                {
                    "D": d,
                    "class_number": h,
                    "faltings_height": float(fh.value),
                    "ratio": float(ratio.value),
                }
            )
    return {
        "d_max": d_max,
        "c_prime": float(c_prime),
        "qualifying": qualifying,
        "class_number_one": [q["D"] for q in qualifying if q["class_number"] == 1],
        "count": len(qualifying),
    }
