"""CM moduli laboratory for elliptic curves: class groups, modular
invariants, and three notions of height computed with certified error
radii.

For an imaginary quadratic discriminant D < 0 the reduced binary
quadratic forms (a, b, c) of discriminant D are enumerated exactly;
each gives a CM point tau = (-b + i sqrt(|D|)) / (2a) in the standard
fundamental domain.  On top of that sit:

* j-invariants from one theta series: with the Jacobi theta nulls
  theta_2, theta_3, theta_4 at tau, E4 = (theta_2^8 + theta_3^8 +
  theta_4^8) / 2, Delta = (theta_2 theta_3 theta_4)^8 / 256 and
  j = E4^3 / Delta; Hilbert class polynomials are recovered by rounding
  certified complex coefficients to integers;

* the stable Faltings height as the class-group average of
  s(tau) = -(1/12) log(|Delta(tau)| (Im tau)^6), an SL2(Z)-invariant
  quantity, plus a normalization offset.  With the default offset
  -(1/2) log 2 the result is Deligne's normalization (Séminaire
  Bourbaki 616, 1985) plus (1/2) log 2pi: for d = -3, Chowla-Selberg
  gives -0.748752485503... in Deligne's normalization, and this
  module 0.170186047...;

* level-2 theta null points (theta_0 : theta_1 : theta_2 : theta_3)
  with theta_j(tau) = sum over m = j mod 4 of w^(m^2), w = exp(pi i
  tau / 4), and a height estimate read off their archimedean norms.
  The Jacobi theta nulls are theta_1 + theta_3, theta_0 + theta_2 and
  theta_0 - theta_2.  The series stops below the relative tolerance
  10^-dps |w|, so the small theta_1 ~ w keeps dps digits.

``cm_record`` sums the theta series once per reduced form and reads all
three heights off it: j as above, s(tau) from that same Delta, and the
theta term from the four buckets.  The standalone ``s_invariant``,
``faltings_height_cm`` and ``modular_discriminant`` take Delta from the
pentagonal series of prod (1 - q^n), q = exp(2 pi i tau), which stops
below 10^-(dps - 5): alone, s(tau) costs half as much that way as
through the theta nulls.  Both series bound their tails in 53-bit
arithmetic rounded up and add them with ``BigFloat.widened``.

All floating results are BigFloat discs (midpoint plus radius that
includes both truncation tails and rounding slop), so experiment
verdicts can be made precision-robust.
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import dataclass
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from math import gcd, isqrt

from mpmath import iv, mp, mpc, mpf, workdps
from mpmath.libmp import to_rational

from .heights import _iv_workdps
from .numcore import (
    DEFAULT_DIGITS,
    BigFloat,
    IntPoly,
    PrecisionError,
    _as_bigfloat,
    _geometric_tail,
    _ulp_slop,  # bound for bench/test_bench.py only; just numcore calls it
    certify,
    factorint,
    log_plus_sum,
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
    for k in range(1, 10001):
        t = q.pow_int(k * (3 * k - 1) // 2) + q.pow_int(k * (3 * k + 1) // 2)
        total = total + (-t if k % 2 else t)
        # the exponents left are distinct, from (k+1)(3k+2)/2 on
        tail = _geometric_tail(q_hi, (k + 1) * (3 * k + 2) // 2)
        if tail < tol:
            return total.widened(tail)
    raise PrecisionError("pentagonal series did not converge")


def _eisenstein_e4(eighths) -> BigFloat:
    """E4 = (theta_2^8 + theta_3^8 + theta_4^8) / 2 from the eighth
    powers of the Jacobi theta nulls."""
    t2, t3, t4 = eighths
    return (t2 + t3 + t4) / 2


def _q_from_tau(tau: BigFloat) -> BigFloat:
    return (BigFloat.rounded(mpc(0, 2) * mp.pi) * tau).exp()


def modular_discriminant(tau, precision_digits: int = DEFAULT_DIGITS) -> BigFloat:
    """Delta(tau) = q prod (1 - q^n)^24, q = exp(2 pi i tau), as a
    certified complex disc."""
    with workdps(precision_digits + 15):
        t = _as_bigfloat(tau)
        if not t.value.imag > 0:
            raise ValueError("tau must lie in the upper half plane")
        q = _q_from_tau(t)
        return q * _eta_product(q).pow_int(24)


def _j_and_delta(nulls) -> tuple[BigFloat, BigFloat]:
    """(j, Delta) from the four theta buckets b0..b3: the Jacobi theta
    nulls are theta_2 = b1 + b3, theta_3 = b0 + b2, theta_4 = b0 - b2,
    Delta = (theta_2 theta_3 theta_4)^8 / 256 and j = E4^3 / Delta."""
    b0, b1, b2, b3 = nulls
    eighths = [(b1 + b3).pow_int(8), (b0 + b2).pow_int(8), (b0 - b2).pow_int(8)]
    delta = eighths[0] * eighths[1] * eighths[2] / 256
    return _eisenstein_e4(eighths).pow_int(3) / delta, delta


def _j_at(tau: BigFloat) -> BigFloat:
    """j(tau) from one theta series in the nome w of tau."""
    return _j_and_delta(_nulls_at(tau))[0]


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
    """j(tau) = E4(tau)^3 / Delta(tau), computed after moving tau to
    the fundamental domain (j is SL2(Z)-invariant, and there the theta
    series converges fastest)."""
    with workdps(precision_digits + 15):
        t = _reduce_to_fundamental_domain(mpc(tau))
        return _j_at(BigFloat(t))


def _tau_ball(form: ReducedForm) -> BigFloat:
    """CM point of a form, at ambient precision, as a disc."""
    # two roundings (sqrt, then division), each within an ulp of Im tau <= |tau|
    tau = mpc(-form.b, mp.sqrt(-form.discriminant)) / (2 * form.a)
    return BigFloat.rounded(tau, 2)


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

def _class_averages(d, precision_digits: int, terms, totals) -> tuple:
    """Class-group averages at precision_digits + 15 digits.  terms(tau)
    gives a tuple of per-form terms at the CM point ball tau of each of
    the h reduced forms of d, in order; the i-th average is
    (1/h) * totals[i](i-th terms, zero ball), where each fold is ``sum``
    or another with its arguments."""
    forms = reduced_forms(d)
    with workdps(precision_digits + 15):
        columns = zip(*(terms(_tau_ball(f)) for f in forms))
        return tuple(total(col, BigFloat(0, 0)) / len(forms) for total, col in zip(totals, columns))


def _class_average(d, precision_digits: int, term, total=sum) -> BigFloat:
    """The one class-group average of term(tau), folded by total."""
    return _class_averages(d, precision_digits, lambda tau: (term(tau),), (total,))[0]


def _log_plus_total(js, zero: BigFloat) -> BigFloat:
    return log_plus_sum(zero, js)


def j_height(d, precision_digits: int = 24) -> BigFloat:
    """Weil height of the j-invariant of discriminant d: the class
    polynomial is monic with algebraic-integer roots, so the height is
    the average of log max(1, |j|) over the reduced forms."""
    return _class_average(d, precision_digits, _j_at, _log_plus_total)


def s_invariant(tau, precision_digits: int = DEFAULT_DIGITS) -> BigFloat:
    """s(tau) = -(1/12) log(|Delta(tau)| (Im tau)^6)
             = pi Im(tau)/6 - 2 log|f(q)| - (1/2) log Im(tau),
    an SL2(Z)-invariant function computed directly from the eta
    product (no reduction applied, so invariance is testable)."""
    with workdps(precision_digits + 15):
        t = _as_bigfloat(tau)
        return _s_at(t)


def _im_tau(t: BigFloat) -> BigFloat:
    """The real ball of Im tau, certified positive: |Im e| <= |e|, so
    the radius of tau carries over."""
    y = BigFloat(t.value.imag, t.radius)
    if not y.bounds()[0] > 0:
        raise ValueError("tau must lie in the upper half plane")
    return y


def _s_at(t: BigFloat) -> BigFloat:
    y = _im_tau(t)
    q = _q_from_tau(t)
    log_f = _eta_product(q).log_abs()
    return BigFloat.rounded(mp.pi) * y / 6 - log_f * 2 - y.log_abs() / 2


def _normalized(avg: BigFloat, offset) -> BigFloat:
    """avg plus the normalization offset of ``faltings_height_cm``."""
    if offset is None:
        return avg + BigFloat.rounded(-mp.log(2) / 2)
    return avg + _as_bigfloat(offset)


def faltings_height_cm(d, precision_digits: int = 24, normalization_offset=None) -> BigFloat:
    """Stable Faltings height of a CM elliptic curve with CM by the
    order of discriminant d: the class-group average of s(tau) plus a
    normalization offset (default -(1/2) log 2; see the module
    docstring).  A Fraction offset is enclosed with its rounding
    radius; ints, floats and balls are taken as they are."""
    avg = _class_average(d, precision_digits, _s_at)
    with workdps(precision_digits + 15):
        return _normalized(avg, normalization_offset)


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
        _im_tau(t)
        return _nulls_at(t)


def _theta_w(tau: BigFloat) -> BigFloat:
    """The theta nome w = exp(pi i tau / 4) of a tau ball."""
    return (BigFloat.rounded(mpc(0, 1) * mp.pi / 4) * tau).exp()


def _nulls_at(tau: BigFloat) -> tuple:
    """The four theta buckets at a tau ball: one theta series."""
    return _theta_nulls(_theta_w(tau))


def _theta_nulls(w: BigFloat):
    """The four buckets theta_j = sum over m = j (mod 4) of w^(m^2).
    The series stops once its tail is below 10^-dps |w|: a relative
    tolerance for theta_1 = w + w^9 + ..., whose relative accuracy j
    inherits through the Jacobi theta_2 = theta_1 + theta_3."""
    w_lo, w_hi = w.abs_bounds()
    if w_hi > Q_MODULUS_CAP:
        raise PrecisionError("theta series refused: |w| too close to 1")
    if not w_lo > 0:
        raise PrecisionError("theta nome not separated from zero")
    tol = mpf(10) ** (-mp.dps) * w_lo
    buckets = [BigFloat(1), BigFloat(0), BigFloat(0), BigFloat(0)]
    w2, w_odd, w_m2 = w * w, w, w
    for m in range(1, 1 << 20):
        buckets[m % 4] = buckets[m % 4] + w_m2
        buckets[-m % 4] = buckets[-m % 4] + w_m2
        # the exponents left start at (m+1)^2 and grow by 2m+3 or more
        tail = _geometric_tail(w_hi, (m + 1) * (m + 1), 2 * m + 3)
        if tail < tol:
            return tuple(b.widened(tail) for b in buckets)
        # w^((m+1)^2) = w^(m^2) w^(2m+1)
        w_odd = w_odd * w2
        w_m2 = w_m2 * w_odd
    raise PrecisionError("theta series did not converge")


def _theta_term(nulls) -> BigFloat:
    """log(||v||_2 / max_j |theta_j|) for the theta null vector v, given
    as its four buckets, enclosed in interval arithmetic at the working
    precision and clamped below at 0 (||v||_2 >= max_j |theta_j|)."""
    bounds = [th.abs_bounds() for th in nulls]
    mx_lo = max(lo for lo, _ in bounds)
    if not mx_lo > 0:
        raise PrecisionError("theta maximum not separated from zero")
    with _iv_workdps(mp.dps):
        l2 = iv.sqrt(iv.fsum(iv.mpf(b) ** 2 for b in bounds))
        term = iv.log(l2 / iv.mpf([mx_lo, max(hi for _, hi in bounds)]))
        return BigFloat.from_bounds(max(mpf(term.a), mpf(0)), mpf(term.b))


def theta_height_estimate(d, precision_digits: int = 24) -> BigFloat:
    """Archimedean height estimate of the theta null orbit: the
    class-group average of log(||v||_2 / max_j |theta_j|), where v is
    the theta null vector.  Nonnegative by construction."""
    return _class_average(d, precision_digits, lambda tau: _theta_term(_nulls_at(tau)))


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


def _cm_terms(tau: BigFloat) -> tuple:
    """(j, s(tau), theta term) at one CM point from one theta series:
    s(tau) = -(1/12) log|Delta| - (1/2) log Im tau with the Delta that j
    is built from."""
    nulls = _nulls_at(tau)
    j, delta = _j_and_delta(nulls)
    s = -(delta.log_abs() / 12) - _im_tau(tau).log_abs() / 2
    return j, s, _theta_term(nulls)


def cm_record(d, precision_digits: int = 24) -> CMRecord:
    """The full record for one discriminant.  One theta series per
    reduced form gives its j, s(tau) and theta term, so the j and theta
    heights are the balls of ``j_height`` and ``theta_height_estimate``
    bit for bit; the Faltings height takes Delta from the theta nulls
    instead of the pentagonal series of ``faltings_height_cm``, which
    it agrees with to the radii."""
    d = _disc_value(d)
    h = class_number(d)
    jh, s_avg, th = _class_averages(
        d, precision_digits, _cm_terms, (_log_plus_total, sum, sum)
    )
    with workdps(precision_digits + 15):
        fh = _normalized(s_avg, None)
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


def _row(r: CMRecord) -> tuple:
    """The CSV_HEADER columns of one record: D and h as ints, heights
    to 15 significant digits, the error radius to 3."""
    balls = (r.j_height, r.faltings_height, r.theta_height_est, r.residual, r.ratio)
    return (
        r.d,
        r.class_number,
        *(mp.nstr(b.value, 15) for b in balls),
        mp.nstr(r.error_radius, 3),
    )


def records_to_csv(records, config_hash: str = "") -> str:
    """Deterministic CSV: one comment line naming the producing tool
    and configuration hash, the fixed header, then one row per record
    with values printed to 15 significant digits."""
    lines = [f"# heightlab cm scan; config {config_hash or 'unhashed'}", CSV_HEADER]
    lines.extend(",".join(map(str, _row(r))) for r in records)
    return "\n".join(lines) + "\n"


def records_to_json(records, config: dict | None = None) -> str:
    """Deterministic JSON mirror of the CSV content."""
    columns = CSV_HEADER.split(",")
    payload = {
        "config": config or {},
        "records": [dict(zip(columns, _row(r))) for r in records],
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def _ball_max(a: BigFloat, b: BigFloat) -> BigFloat:
    """Ball enclosing max(x, y) for x in a and y in b: the larger
    midpoint with the larger radius (max is 1-Lipschitz)."""
    return BigFloat(a.value if a.value > b.value else b.value, max(a.radius, b.radius))


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
    # suffix[i]: the maximum of the ratios from row i on
    suffix = list(accumulate((row[3] for row in reversed(rows)), _ball_max))[::-1]
    capped = [min(x, abs_ds[-1]) for x in checkpoints]
    # env(X) is the suffix maximum from the first row with |d| >= X
    envs = [suffix[bisect_left(abs_ds, x)] for x in capped]
    envelope = []
    for x, xc, e in zip(checkpoints, capped, envs):
        value, radius = e.doubles()
        envelope.append({"X": x, "X_effective": xc, "envelope": value, "radius": radius})
    passed = envs[-1].bounds()[1] < envs[0].bounds()[0]
    return {
        "d_max": d_max,
        "precision_digits": precision_digits,
        "checkpoints": envelope,
        "ratios": [[d, *r.doubles()] for d, _, _, r in rows],
        "passed": bool(passed),
    }


def _tf_quotient(r: CMRecord) -> BigFloat:
    """The record's residual over log(min(theta est, Faltings) + 2),
    clamped below at 0, enclosed in interval arithmetic at the working
    precision."""
    tv, fv = r.theta_height_est, r.faltings_height
    # the smaller midpoint with the larger radius encloses the minimum
    m_val, m_rad = min(tv.value, fv.value), max(tv.radius, fv.radius)
    with _iv_workdps(mp.dps):
        den = iv.log(iv.mpf(m_val) + iv.mpf([-m_rad, m_rad]) + 2)
        if not den.a > 0:
            raise PrecisionError("comparison denominator degenerate")
        q = iv.mpf(r.residual.bounds()) / den
        return BigFloat.from_bounds(max(mpf(q.a), mpf(0)), mpf(q.b))


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
        per_d = [(r.d, _tf_quotient(r)) for r in records]
        c_fit = reduce(_ball_max, (q for _, q in per_d))
    # the first d whose quotient has the largest midpoint
    argmax_d = max(per_d, key=lambda dq: dq[1].value)[0]
    fitted, fitted_radius = c_fit.doubles()
    return {
        "d_max": d_max,
        "precision_digits": precision_digits,
        "fitted_constant": fitted,
        "fitted_radius": fitted_radius,
        "argmax_d": argmax_d,
        "finite": bool(mp.isfinite(c_fit.value)),
        "quotients": [[d, *q.doubles()] for d, q in per_d],
        "records": records,
        "passed": bool(mp.isfinite(c_fit.value)),
    }


def finiteness_demo(
    d_max: int, c_prime, precision_digits: int = 20, workers: int = 1
) -> dict:
    """Bounded-ratio demonstration: the fundamental discriminants with
    |d| <= d_max whose ratio (Faltings height / class number) is
    certified at most c_prime, a float, int or Fraction taken exactly.
    Inclusion and exclusion compare the exact ends of each ratio ball
    with c_prime, escalating precision on borderline cases."""
    c_prime = Fraction(c_prime)
    rows = _per_discriminant(_ratio_row, d_max, precision_digits, workers, chunksize=16)
    qualifying = []

    def ends(row):
        return [Fraction(*to_rational(e._mpf_)) for e in row[3].bounds()]

    def separated(row):
        lo, hi = ends(row)
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
        if ends(row)[1] <= c_prime:
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
