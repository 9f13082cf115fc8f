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
  j = E4^3 / Delta: the eighth powers, E4 and Delta on Gaussian
  integers, each with its own exponent and integer error count, and j
  by one ball division; Hilbert class polynomials are recovered by
  rounding the coefficients of an integer product of the j's real
  factors, all certified by one l1 error bound;

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
  theta_0 - theta_2.  theta_1 and theta_3 have the same terms, so the
  series sums them once.  It stops below the relative tolerance
  10^-dps |w|, so the small theta_1 ~ w keeps dps digits.  As in
  Enge's floating-point method, the series runs in fixed point: the
  nome's midpoint and its powers w^(m^2) are Gaussian integers at scale
  2**s, each product cut back toward zero (so a conjugate nome gives
  the conjugate buckets bit for bit), and one integer per running power
  counts its error in units of 2**-s, with no ball operation per term;
  the nome's radius enters each bucket once, by a derivative bound
  summed at the scale of the bucket's first term, and the series tail
  joins the same integer count; the tail and its tolerance are 53-bit
  pairs.  The theta term log(||v||_2 / max_j |theta_j|) is (1/2) log(S /
  N) of the exact integer norms of the bucket midpoints.  Like log|j|
  and s(tau), it hands exact integers to one log (``_log_bounds``), whose
  ends libmpf rounds outward, and widens them by one rule, a count over
  a lower bound rounded up (``_log_spread``): the CM-point kernel uses
  no mpmath ``iv``.

Each kind of point has one source for its nome, which the theta layer
takes.  A reduced form's comes from exact data (``_cm_nome``): w =
exp(-pi sqrt|d| / (8a)) e^(-i pi b / (8a)), each part between integer
products of directed ends of the modulus (libmpf exp and pi) and of
the angle's cos and sin (one libmpf cos_sin_pi per reduced fraction
b / (8a) and precision).  Its radius is about 2**-16 of a unit in the
last place, where a tau ball's nome in ball arithmetic has about 100.
A user's tau reaches the series only through ``_theta_w``, that nome
in ball arithmetic: at ``theta_null_point``, and at g tau after one
certified reduction, whose moves are ball operations, at
``j_invariant``, ``s_invariant`` and ``modular_discriminant``.

``cm_record`` sums the theta series once per pair of conjugate reduced
forms (a, +-b, c) and reads all three heights off it: log|j| from the
exact norms of E4^3 and Delta above, s(tau) from that of Delta and the
exact (Im tau)^12 = |d|^6 / (2a)^12, and the theta term from the four
buckets.  From the nome to the three class averages the work runs on
integers: each term is an integer interval at one scale, a column sums
exactly, each conjugate pair with weight 2, and each average is one
``BigFloat`` made after one division by h.  ``j_height``,
``faltings_height_cm`` and ``theta_height_estimate`` are its columns
bit for bit.  ``hilbert_class_poly`` also sums one series per pair of
conjugate forms, the mirror's buckets being the conjugates bit for
bit, and takes one j ball per form from them.

All floating results are BigFloat discs (midpoint plus radius that
includes both truncation tails and rounding slop), so experiment
verdicts can be made precision-robust.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from math import gcd, isqrt, sqrt
from typing import NamedTuple

from mpmath import mp, mpc, mpf, workdps
from mpmath.libmp import (
    from_int,
    from_man_exp,
    fzero,
    mpf_cos_sin_pi,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_shift,
    round_ceiling,
    round_floor,
    round_nearest,
    to_int,
    to_rational,
)

from .numcore import (
    DEFAULT_DIGITS,
    BigFloat,
    IntPoly,
    PrecisionError,
    _ONE,
    _SQRT2,
    _ZERO,
    _add_up,
    _as_bigfloat,
    _binary_power,
    _div_up,
    _down,
    _log2,
    _mag,
    _mul_up,
    _pair,
    _shift,
    _sub_down,
    _tail_below,
    _ten_to_minus_dps,
    _up,
    _ulp_slop,  # bound for bench/test_bench.py only; just numcore calls it
    certify,
    factorint,
)

# cap on the theta nome |w| (and |q| of the test-only pentagonal series);
# beyond it, convergence certification is refused, not degraded
Q_MODULUS_CAP = mpf("0.9995")
_CAP = _down(*Q_MODULUS_CAP._mpf_[1:3])  # the cap as a pair, rounded down


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


def _sqrt_mod_prime(d: int, p: int) -> int | None:
    """A square root of d modulo an odd prime p that does not divide d,
    by Tonelli-Shanks, or None when d is not a square mod p."""
    if pow(d, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(d, (p + 1) // 4, p)
    q, m = p - 1, 0
    while not q & 1:
        q, m = q >> 1, m + 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    c, t, r = pow(z, q, p), pow(d, q, p), pow(d, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _square_roots_mod(d: int, p: int, k: int, memo: dict) -> list:
    """The x in [0, p**k) with x^2 = d (mod p**k), p prime.  For odd p
    not dividing d, the roots mod p lift uniquely by Newton's step; for
    p = 2 or p | d, each root mod p**(k-1) is tried with its p lifts."""
    key = (p, k)
    if key not in memo:
        if k == 1:
            if p == 2 or d % p == 0:
                roots = [d % p]
            else:
                r = _sqrt_mod_prime(d % p, p)
                roots = [] if r is None else sorted({r, p - r})
        else:
            q = p ** (k - 1)
            pk = q * p
            prev = _square_roots_mod(d, p, k - 1, memo)
            if p != 2 and d % p:
                roots = [(r - (r * r - d) * pow(2 * r, -1, pk)) % pk for r in prev]
            else:
                roots = [x for r in prev for x in range(r, pk, q) if (x * x - d) % pk == 0]
        memo[key] = roots
    return memo[key]


@lru_cache(maxsize=4096)
def _reduced_forms_cached(d: int) -> tuple:
    """The reduced forms of d, by (a, b), from the square roots of d: for
    each a <= sqrt(|d| / 3), c = (b^2 - d) / (4a) is an integer iff b^2
    = d (mod 4a).  The roots mod each prime power of 4a (a factored by a
    smallest-prime-factor sieve) are combined by the Chinese remainder
    theorem; with b, b + 2a is a root too, so the roots fall into
    classes mod 2a, each met once by -a < b <= a."""
    top = isqrt(-d // 3)
    spf = list(range(top + 1))
    for p in range(2, isqrt(top) + 1):
        if spf[p] == p:
            for n in range(p * p, top + 1, p):
                if spf[n] == n:
                    spf[n] = p
    memo, out = {}, []
    for a in range(1, top + 1):
        powers, n = {2: 2}, a
        while n > 1:
            p = spf[n]
            powers[p] = powers.get(p, 0) + 1
            n //= p
        xs, mod = [0], 1
        for p, k in powers.items():
            q, roots = p**k, _square_roots_mod(d, p, k, memo)
            inv = pow(mod, -1, q)
            xs = [x + mod * ((r - x) * inv % q) for x in xs for r in roots]
            mod *= q
        for b in sorted({x % (2 * a) - 2 * a if x % (2 * a) > a else x % (2 * a) for x in xs}):
            c = (b * b - d) // (4 * a)
            if c >= a and not (a == c and b < 0) and gcd(gcd(a, b), c) == 1:
                out.append(ReducedForm(a, b, c))
    return tuple(out)


def reduced_forms(d) -> list[ReducedForm]:
    """All reduced forms of discriminant d, sorted by (a, b): for each a
    <= sqrt(|d| / 3), only the b with b^2 = d (mod 4a)."""
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
    bound.  Requires |q| below the convergence cap.  Nothing in the
    package calls it: the benchmark's tracer (bench/tracer.py) binds it
    as a counter, and the tests use it as a series independent of the
    theta nulls."""
    q_hi = q.abs_bounds()[1]
    if q_hi > Q_MODULUS_CAP:
        raise PrecisionError(
            "q-series refused: |q| too close to 1 (is Im tau positive "
            "and not tiny?)"
        )
    q_up, tol = _pair(q_hi._mpf_), _pair((mpf(10) ** (-(mp.dps - 5)))._mpf_)
    total = BigFloat(1)
    for k in range(1, 10001):
        t = q.pow_int(k * (3 * k - 1) // 2) + q.pow_int(k * (3 * k + 1) // 2)
        total = total + (-t if k % 2 else t)
        # the exponents left are distinct, from (k+1)(3k+2)/2 on
        tail = _tail_below(q_up, (k + 1) * (3 * k + 2) // 2, 1, tol)
        if tail is not None:
            return total.widened(mp.make_mpf(from_man_exp(*tail)))
    raise PrecisionError("pentagonal series did not converge")


def _eisenstein_e4(eighths) -> BigFloat:
    """E4 = (theta_2^8 + theta_3^8 + theta_4^8) / 2 from the eighth
    powers of the Jacobi theta nulls, ``BigFloat``s or, in
    ``_e4_cubed_and_delta``, ``_GaussBall``s."""
    t2, t3, t4 = eighths
    return (t2 + t3 + t4) / 2


class _Constants(NamedTuple):
    pi_i_4: BigFloat
    minus_half_log_2: BigFloat


@lru_cache(maxsize=64)
def _constants_at(prec: int, dps: int) -> _Constants:
    """The constant balls as ``BigFloat.rounded`` makes them at the
    ambient precision, which the key (mp.prec, mp.dps) names."""
    return _Constants(*map(BigFloat.rounded, (mpc(0, 1) * mp.pi / 4, -mp.log(2) / 2)))


def _constants() -> _Constants:
    """The constant balls at the working precision, built once per
    precision and bit for bit the same each time."""
    return _constants_at(mp.prec, mp.dps)


def modular_discriminant(tau, precision_digits: int = DEFAULT_DIGITS) -> BigFloat:
    """Delta(tau) = Delta(g tau) / (c tau + d)^12, as a certified complex
    disc, for the g = (a b; c d) of ``_to_fundamental_domain`` and
    Delta(g tau) from the theta buckets; for c = 0, g = +-T^n and the
    factor is 1."""
    with workdps(precision_digits + 15):
        t = _as_bigfloat(tau)
        gt, (c, d) = _to_fundamental_domain(t)
        delta = _ball_of(_e4_cubed_and_delta(_theta_nulls(_theta_w(gt)))[1])
        return delta / (t * c + d).pow_int(12) if c else delta


def _ceil_sqrt(n: int) -> int:
    root = isqrt(n)
    return root + (root * root != n)


def _modulus_up(re: int, im: int) -> int:
    """An integer at or above |re + im i|: the ceiling square root of the
    exact norm, or past 62 bits of the larger part, of the norm of both
    parts cut to that scale and rounded up in modulus (2**-59 relative
    at most above |re + im i|)."""
    k = max(abs(re).bit_length(), abs(im).bit_length()) - 62
    if k > 0:
        a, b = (abs(re) >> k) + 1, (abs(im) >> k) + 1
        return isqrt(a * a + b * b) + 1 << k
    return _ceil_sqrt(re * re + im * im)


class _GaussBall:
    """A complex ball on Gaussian integers: the midpoint (re + im i) 2**exp
    and an integer err, in units of 2**exp, bounding its distance from
    the exact quantity.  Each quantity keeps its own exponent.  + and -
    are exact; * keeps ``bits`` bits of the larger part, truncating both
    parts toward zero; / takes a power of two, exactly.  Operands share
    ``bits``.  ``mag`` >= |re + im i| is ``_modulus_up``, made when
    first read.  See ``_e4_cubed_and_delta`` for the error bounds."""

    __slots__ = ("re", "im", "exp", "err", "bits", "_modulus")

    def __init__(self, re: int, im: int, exp: int, err: int, bits: int):
        self.re, self.im, self.exp, self.err, self.bits, self._modulus = re, im, exp, err, bits, None

    @property
    def mag(self) -> int:
        if self._modulus is None:
            self._modulus = _modulus_up(self.re, self.im)
        return self._modulus

    def __add__(self, other: "_GaussBall") -> "_GaussBall":
        exp = min(self.exp, other.exp)
        a, b = self.exp - exp, other.exp - exp
        return _GaussBall(
            (self.re << a) + (other.re << b), (self.im << a) + (other.im << b), exp,
            (self.err << a) + (other.err << b), self.bits,
        )

    def __neg__(self) -> "_GaussBall":
        return _GaussBall(-self.re, -self.im, self.exp, self.err, self.bits)

    def __sub__(self, other: "_GaussBall") -> "_GaussBall":
        return self + -other

    def __mul__(self, other: "_GaussBall") -> "_GaussBall":
        a, b, c, d = self.re, self.im, other.re, other.im
        if other is self:
            re, im = (a + b) * (a - b), (a * b) << 1
            err = ((self.mag << 1) + self.err) * self.err
        else:
            re, im = a * c - b * d, a * d + b * c
            err = self.mag * other.err + other.mag * self.err + self.err * other.err
        exp = self.exp + other.exp
        k = max(abs(re).bit_length(), abs(im).bit_length()) - self.bits
        if k > 0:
            re = re >> k if re >= 0 else -(-re >> k)
            im = im >> k if im >= 0 else -(-im >> k)
            err, exp = (err >> k) + 3, exp + k
        return _GaussBall(re, im, exp, err, self.bits)

    def __truediv__(self, n: int) -> "_GaussBall":
        k = n.bit_length() - 1
        if n != 1 << k:
            raise ValueError("a Gaussian ball divides only by a power of two")
        return _GaussBall(self.re, self.im, self.exp - k, self.err, self.bits)


def _dyadic(m: int, e: int) -> tuple:
    """m 2**e as a libmpf number, exactly: the trailing zeros of m, which
    libmpf strips a few bits at a time, are dropped first."""
    t = (m & -m).bit_length() - 1
    return from_man_exp(m >> t, e + t) if m else fzero


def _ball_of(x: _GaussBall, real: bool = False) -> BigFloat:
    """The ``BigFloat`` of a Gaussian ball: its exact dyadic midpoint, a
    complex value unless real is asked for and the imaginary part is 0,
    and its count as a radius pair rounded up."""
    re = _dyadic(x.re, x.exp)
    value = mp.make_mpf(re) if real and not x.im else mp.make_mpc((re, _dyadic(x.im, x.exp)))
    return BigFloat._made(value, _up(x.err, x.exp), _mag(value))


def _units_up(pair: tuple, exp: int) -> int:
    """A pair (m, e) in units of 2**exp, rounded up."""
    m, e = pair
    return m << (e - exp) if e >= exp else -(-m >> (exp - e))


def _e4_cubed_and_delta(nulls) -> tuple[_GaussBall, _GaussBall]:
    """(E4^3, Delta) from the four theta buckets b0..b3 of
    ``_theta_nulls``: the Jacobi theta nulls are theta_2 = b1 + b3,
    theta_3 = b0 + b2, theta_4 = b0 - b2, Delta = (theta_2 theta_3
    theta_4)^8 / 256, and j = E4^3 / Delta.

    It runs on ``_GaussBall``s: X = x 2**e with x
    a Gaussian integer, each quantity with its own exponent e and one
    integer count E, |X* - X| <= E 2**e for the exact quantity X*.  One
    global scale would not do: theta_2 ~ 2 w and Delta ~ q shrink to
    about e^-134 on the classpoly forms, where theta_3 ~ 1.
    - The buckets come as such balls, with the bits mp.prec + 8.
    - Sums, differences and the divisions by 2 and 256 are exact: the
      counts, brought to the lower exponent, add, and a division moves e
      and keeps E.
    - A product of X = x 2**e and Y = y 2**f: X*Y* - XY = (X* - X) Y + X
      (Y* - Y) + (X* - X)(Y* - Y), so it is within (|x| F + |y| E + E F)
      2**(e + f); a square within (2 |x| + E) E 2**(2e).  |x| and |y|
      are read off the midpoints' norms by ``_modulus_up``, never from
      bounds on the parts: near rho, where j = 0, |E4| lies far below
      (|t2| + |t3| + |t4|) / 2, and a bound read that way made j balls
      wider than the ball formula's on 107 of the 453 forms with Im tau
      < 1.05 of |d| <= 2000.
    - The exact product is cut by k bits to mp.prec + 8 bits of its larger
      part, each part toward zero, which moves it by less than sqrt(2)
      units of the new scale 2**(e + f + k); the count becomes floor(count
      / 2**k) + 1 for the division, + 2 for the cut.  Truncation toward
      zero commutes with conjugation, so the mirror form's CM point
      -conj(tau) gives the conjugate balls bit for bit.
    The products are ((theta^2)^2)^2 for each eighth power, their product
    for 256 Delta, and E4 (E4 E4).  A cut adds 3 units of
    2**-(mp.prec + 7) |v| at most, where a ``BigFloat`` step adds 8 |v|
    10**-dps, 57 to 113 units of 2**-mp.prec."""
    b0, b1, b2, b3 = nulls
    eighths = [_binary_power(t, 8, operator.mul) for t in (b1 + b3, b0 + b2, b0 - b2)]
    delta = eighths[0] * eighths[1] * eighths[2] / 256
    e4 = _eisenstein_e4(eighths)
    return e4 * (e4 * e4), delta


def _j_at(nulls) -> BigFloat:
    """j from the four theta buckets of one series (``_theta_nulls``):
    E4^3 and Delta in fixed point (``_e4_cubed_and_delta``), then one
    ball division.  E4^3 and Delta have exact dyadic midpoints, so they
    become ``BigFloat``s exactly, with radius E 2**e rounded up
    (``_ball_of``); the division adds its own error bound and allowance.
    On the ``_cm_nome`` buckets of all forms of the fundamental |d| <=
    2000 at 39 digits and of -599 and -1832, no j ball is wider than the
    ball formula's: 0.0097 times in median."""
    num, den = _e4_cubed_and_delta(nulls)
    return _ball_of(num) / _ball_of(den)


def _to_fundamental_domain(t: BigFloat) -> tuple:
    """(g t, (c, d)) for a tau ball t and g = (a b; c d) in SL2(Z), by T
    and S moves chosen from the midpoint until |Re| <= 1/2 and |g t| >= 1
    (within one ulp), each a ball operation (t - n, -1/t), so g t
    encloses g's image of all of t."""
    _im_tau(t)
    a, b, c, d = 1, 0, 0, 1
    for _ in range(100000):
        n = int(mp.floor(t.value.real + mpf("0.5")))
        if n:
            t, a, b = t - n, a - n * c, b - n * d
        if abs(t.value) < 1 - mpf(10) ** (-mp.dps + 2):
            t, a, b, c, d = BigFloat(-1) / t, -c, -d, a, b
            continue
        return t, (c, d)
    raise PrecisionError("fundamental domain reduction did not terminate")


def j_invariant(tau, precision_digits: int = DEFAULT_DIGITS) -> BigFloat:
    """j(tau) = E4^3 / Delta at the g tau of ``_to_fundamental_domain``:
    j is SL2(Z)-invariant, and there the theta series converges
    fastest."""
    with workdps(precision_digits + 15):
        return _j_at(_theta_nulls(_theta_w(_to_fundamental_domain(_as_bigfloat(tau))[0])))


@lru_cache(maxsize=1024)
def _cos_sin_pi_ends(num: int, den: int, k: int) -> tuple:
    """Integers (c_lo, c_hi, s_lo, s_hi) with cos(pi x) in [c_lo, c_hi]
    2**-k and sin(pi x) in [s_lo, s_hi] 2**-k, for the reduced fraction
    x = num / den in [0, 1/8], from one libmpf cos_sin_pi at k bits; x =
    0 gives 1 and 0 exactly.  Keyed on the fraction and k, so the ends
    of one precision never serve another.

    Let u = 2**-k.  x rounded down to k bits, x', lies within ulp(x') <=
    u / 4 below x (x' <= 1/8), and cos falls and sin rises on [0, pi/8]
    with slopes below pi, so cos(pi x) is within 0.8 u below cos(pi x')
    and sin(pi x) within 0.8 u above sin(pi x').  cos(pi x') in [0.92,
    1) and sin(pi x') < 1/2 are rounded down to c, an integer C in units
    of u, and s, within an ulp (at most u) below them; s is cut down to
    the unit, to S.  cos_sin_pi rounds a value computed with 32 or more
    guard bits over k - 20 for x <= 1/8, so either may sit a few units
    of its last guard bit, far below u / 8, on the wrong side.  So
    cos(pi x) lies in [C - 1, C + 2] u and sin(pi x) in [S - 1, S + 3]
    u."""
    if not num:
        return 1 << k, 1 << k, 0, 0
    c, s = mpf_cos_sin_pi(mpf_div(from_int(num), from_int(den), k, round_floor), k, round_floor)
    big_c, big_s = _fixed_part(c, k)[0], _fixed_part(s, k)[0]
    return big_c - 1, big_c + 2, big_s - 1, big_s + 3


def _cm_nome(form: ReducedForm) -> BigFloat:
    """The theta nome w = exp(pi i tau / 4) of a form's CM point tau =
    (-b + i sqrt|d|) / (2a), from exact data, with no tau ball: w =
    exp(-x) e^(-i pi b / (8a)), x = pi sqrt|d| / (8a).

    The modulus.  At p = mp.prec + 20 + bits(sqrt|d| / a) bits (an
    error of x moves exp(-x) by that error relative, so x keeps its
    integer part's bits as guard), pi lies in [P, P + 1) 2**e for
    libmpf's pi rounded down, and sqrt|d| in [S, S + 1) 2**-p for S the
    integer square root of |d| 4**p, so x lies in [lo, hi] 2**(e - p),
    lo = floor(P S / (8a)) and hi = ceil((P + 1)(S + 1) / (8a)).
    libmpf's exp(-hi 2**(e - p)) rounded down is R 2**f, R of p bits,
    within one unit 2**f below the exact value; exp rounds a value
    computed with 14 guard bits, so a wrong-side rounding moves it by far
    less than a unit.  So exp(-hi 2**(e - p)) lies in [R - 1, R + 2]
    2**f, and exp(-x) in [R - 1, R_hi] 2**f, R_hi = R + 2 + ceil(2 (R +
    2) delta) for delta = (hi - lo) 2**(e - p) <= 1, as exp(delta) <= 1
    + 2 delta.

    The angle.  For |b| <= a the angle pi |b| / (8a) lies in [0, pi/8]:
    ``_cos_sin_pi_ends`` of the reduced fraction |b| / (8a) at k =
    mp.prec + 20 bits.

    Each part of w, |Re w| = exp(-x) cos and |Im w| = exp(-x) sin, lies
    between the exact integer products of its lower ends and of its
    upper ends, at scale 2**(f - k) (a lower end of sin may be -1,
    which keeps the product a lower bound).  The midpoint is the exact
    middle of each part's ends, Im negated for b > 0; the radius, the
    sum of the two half-widths, is within 2**-(mp.prec + 16) |w| or so.
    The magnitude bound R_hi (1 + 2**(4 - k)) 2**f, rounded up, holds:
    (c_hi^2 + s_hi^2) 4**-k <= 1 + 2**(4 - k).

    The mirror (a, -b, c) makes the same steps and negates the other
    imaginary part, so its nome is the conjugate one bit for bit."""
    a, b, n = form.a, abs(form.b), -form.discriminant
    p, k = mp.prec + 20 + (isqrt(n) // a).bit_length(), mp.prec + 20
    _, pi, e, _ = mpf_pi(p, round_floor)
    root = isqrt(n << 2 * p)
    lo, hi = pi * root // (8 * a), -(-(pi + 1) * (root + 1) // (8 * a))
    _, man, f, bc = mpf_exp(from_man_exp(-hi, e - p), p, round_floor)
    r, f = man << (p - bc), f - (p - bc)
    r_lo, r_hi = r - 1, r + 2 + (-(-(r + 2) * (hi - lo) >> (p - e - 1)))
    g = gcd(b, 8 * a)
    c_lo, c_hi, s_lo, s_hi = _cos_sin_pi_ends(b // g, 8 * a // g, k)
    re_lo, re_hi, im_lo, im_hi = r_lo * c_lo, r_hi * c_hi, r_lo * s_lo, r_hi * s_hi
    re, im = from_man_exp(re_lo + re_hi, f - k - 1), from_man_exp(im_lo + im_hi, f - k - 1)
    value = mp.make_mpc((re, mpf_neg(im) if form.b > 0 else im))
    radius = _up(re_hi - re_lo + im_hi - im_lo, f - k - 1)
    return BigFloat._made(value, radius, _up(r_hi + (r_hi >> (k - 4)) + 1, f))


def _fixed_part(t: tuple, s: int) -> tuple:
    """A libmpf number t times 2**s rounded down, and whether that was
    exact."""
    sign, man, exp, _ = t
    v, k = -man if sign else man, exp + s
    return _shift(v, k), k >= 0 or not v & ((1 << -k) - 1)


def _gaussian_part(ball, s: int) -> tuple:
    """(a, b, rho, m) for a complex ball about j: its midpoint as the
    Gaussian integer g = (a + bi) / 2**s, each part rounded down, and
    pairs rho >= |j - g| and m >= |g|."""
    (a, a_exact), (b, b_exact) = (_fixed_part(t, s) for t in ball.value._mpc_)
    cut = _ZERO if a_exact and b_exact else (_SQRT2[0], _SQRT2[1] - s)
    return a, b, _add_up(ball._r, cut), _add_up(ball._mag, cut)


def _class_poly_factor(roots: tuple, s: int) -> tuple:
    """(q, n, delta) for one real factor of ``_class_poly_product``: its
    coefficients at scale 2**s, lowest first, the leading one 2**s; a
    pair n >= ||q||_1; and a pair delta bounding the l1 distance from q
    to the exact factor.  roots is one j ball, whose exact j is real, or
    the balls of a conjugate pair j, j'; a cut to scale 2**s counts
    only when it drops a nonzero bit."""
    one = 1 << s
    if len(roots) == 1:
        (ball,) = roots
        a, exact = _fixed_part(ball.value._mpc_[0], s)
        delta = ball._r if exact else _add_up(ball._r, _up(1, -s))
        return [-a, one], _up(one + abs(a), -s), delta
    (a, b, rho, m), (c, e, rho2, m2) = (_gaussian_part(ball, s) for ball in roots)
    prod = a * c - b * e
    p = prod >> s
    delta = reduce(_add_up, [rho, rho2, _mul_up(m, rho2), _mul_up(m2, rho), _mul_up(rho, rho2)])
    if prod & (one - 1):
        delta = _add_up(delta, _up(1, -s))
    return [p, -(a + c), one], _up(one + abs(a + c) + abs(p), -s), delta


def _class_poly_product(groups, s: int) -> IntPoly | None:
    """The monic integer polynomial prod (x - j) over the exact roots of
    the ball groups (one ``_class_poly_factor`` each), from a product of
    integer polynomials at scale 2**s under one l1 error bound; None
    when a coefficient does not round unambiguously.  Only Gaussian
    integers and 53-bit pairs are formed (see ``hilbert_class_poly``)."""
    one, quarter = 1 << s, _up(1, -2)
    poly, err, norm = [one], _ZERO, _ONE
    for group in groups:
        q, n, delta = _class_poly_factor(group, s)
        top = len(q) - 1
        acc = [0] * (len(poly) + top)
        for t, c in enumerate(q[:top]):
            for k, v in enumerate(poly):
                acc[k + t] += v * c
        # each coefficient is cut to scale 2**s rounding down; 2**s poly x^top is exact
        cut = _up(sum(1 for v in acc if v & (one - 1)), -s)
        nxt = [v >> s for v in acc]
        for k, v in enumerate(poly):
            nxt[k + top] += v
        err = _add_up(_add_up(_mul_up(err, n), _mul_up(_add_up(norm, err), delta)), cut)
        norm, poly = _add_up(_mul_up(norm, n), cut), nxt
    ints = [(v + (one >> 1)) >> s for v in poly]
    if any(_sub_down(_add_up(_up(abs(v - (k << s)), -s), err), quarter)[0] for v, k in zip(poly, ints)):
        return None
    return IntPoly(ints)


def hilbert_class_poly(d) -> IntPoly:
    """The monic integer polynomial whose roots are the j-invariants
    of the reduced forms of discriminant d.  Precision escalates until
    every coefficient rounds unambiguously to an integer.

    As in Enge's floating-point method (The complexity of class
    polynomial computation via floating point approximations, Math.
    Comp. 78, 2009), the product runs on integers.  ``_j_at`` gives one
    ball per reduced form, in order, from the theta buckets of its
    ``_cm_nome``.  A form (a, b, c) whose mirror (a, -b, c) is reduced
    has the conjugate j' = conj(j), as j(-conj tau) = conj(j(tau)); the
    pair folds into the real quadratic x^2 - (j + j')x + j j'.  Any
    other form is equivalent to its mirror, so its j is real and gives a
    real linear factor.  The series runs once per pair, on the form
    with b > 0: ``_cm_nome`` gives the mirror the conjugate nome, and
    every cut in ``_theta_nulls`` truncates toward zero, which commutes
    with conjugation, so the mirror's buckets are the conjugates bit for
    bit.

    Each midpoint becomes a Gaussian integer g at scale 2**s, each part
    rounded down, with s = mp.prec + 2b + 8 for h of b bits.  For a
    ball of radius r about the true j, |j - g| <= rho = r + sqrt(2) 2**-s
    and |g| <= |mid| + sqrt(2) 2**-s (rho = r and |g| <= |mid| where the
    cut is exact).  A real number x is at least as close to Re z as to
    z.  So the factor q_i with coefficients Re(g + g') and Re(g g'), the
    latter cut down to scale 2**s, is within delta_i = rho + rho' +
    |g| rho' + |g'| rho + rho rho' + 2**-s of x^2 - (j + j')x + j j' in
    the l1 norm, as j j' - g g' = (j - g) g' + g (j' - g') + (j - g)
    (j' - g'); a linear factor x - Re g is within r + 2**-s of x - j.

    The running product Q_i = Q_(i-1) q_i + c_i is formed exactly and
    cut to scale 2**s rounding down: its leading coefficient is exact
    and ||c_i||_1 <= k_i 2**-s, k_i counting the coefficients the cut
    changes.  With P_i the exact product of the first i true factors
    f_i, Q_i - P_i = (Q_(i-1) - P_(i-1)) q_i + P_(i-1) (q_i - f_i) + c_i,
    and the l1 norm is submultiplicative, so with n_i >= ||q_i||_1,
    ||P_(i-1)||_1 <= N_(i-1) + E_(i-1) and ||Q_i||_1 <= N_i:
      E_i = E_(i-1) n_i + (N_(i-1) + E_(i-1)) delta_i + k_i 2**-s,
      N_i = N_(i-1) n_i + k_i 2**-s,  E_0 = 0, N_0 = 1,
    in 53-bit pairs rounded up, bound ||Q_h - P_h||_1 and so the error
    of every coefficient.  A coefficient of P_h = H_d is an integer, so
    a computed one within 1/4 - E_h of an integer k rounds to k."""
    d = _disc_value(d)
    forms = reduced_forms(d)
    with workdps(30):
        est = mp.pi * mp.sqrt(mpf(-d)) * mp.fsum(mpf(1) / f.a for f in forms)
        dps = int(est / mp.log(10)) + 25
    # smallest |j| (largest a) first: the running product's coefficients
    # stay short for longest
    index = {(f.a, f.b): i for i, f in enumerate(forms)}
    groups = [
        (i, index[f.a, -f.b]) if f.b and (f.a, -f.b) in index else (i,)
        for i, f in reversed(list(enumerate(forms)))
        if f.b >= 0
    ]

    def attempt(dps):
        with workdps(dps):
            nulls = {(f.a, f.b): _theta_nulls(_cm_nome(f)) for f in forms if f.b >= 0}
            js = [
                _j_at(nulls[f.a, f.b] if f.b >= 0 else tuple(
                    _GaussBall(b.re, -b.im, b.exp, b.err, b.bits) for b in nulls[f.a, -f.b]
                ))
                for f in forms
            ]
            s = mp.prec + 2 * len(forms).bit_length() + 8
        return _class_poly_product([tuple(js[i] for i in g) for g in groups], s)

    return certify(attempt, dps, dps << 7, "class polynomial coefficients")


# ---------------------------------------------------------------------------
# heights
# ---------------------------------------------------------------------------

def _class_averages(d, precision_digits: int, terms) -> tuple:
    """Class-group averages at precision_digits + 15 digits.
    terms(form, scale) gives, at the CM point of a reduced form of d, a
    tuple of integer intervals (lo, hi), each term in [lo, hi]
    2**-scale, scale = mp.prec + 64, so that a term's outward rounding
    to the unit costs 2**-64 of its working precision; the i-th average
    is that of the i-th terms over the h reduced forms.

    A form (a, -b, c), b > 0, has the CM point -conj(tau) of (a, b, c):
    its nome (``_cm_nome``) is the conjugate one bit for bit, and so are
    its theta buckets.  The terms read only |j|, the real s(tau) and the
    theta term, which are invariant under tau -> -conj(tau), so the
    mirror's terms are the pair's, bit for bit, and each conjugate pair
    is evaluated and folded once, with weight 2.  A column's ends sum
    exactly, and the average of h forms lies in [floor(lo / h),
    ceil(hi / h)] 2**-scale: one ``_interval_ball``."""
    forms = reduced_forms(d)
    keys = {(f.a, f.b) for f in forms}
    with workdps(precision_digits + 15):
        scale = mp.prec + 64
        rows = [
            (2 if f.b and (f.a, -f.b) in keys else 1, terms(f, scale))
            for f in forms if f.b >= 0
        ]
        h = len(forms)
        return tuple(_interval_ball(lo // h, -(-hi // h), scale) for lo, hi in _fold_columns(rows))


def _interval_ball(lo: int, hi: int, scale: int) -> BigFloat:
    """The ball of [lo, hi] 2**-scale for integers lo <= hi: its midpoint
    exact, its radius rounded up."""
    return BigFloat.from_bounds(*(mp.make_mpf(from_man_exp(end, -scale)) for end in (lo, hi)))


def _fold_columns(rows) -> list:
    """The column sums (sum of w lo, sum of w hi) of rows (w, terms),
    each term an integer interval (lo, hi)."""
    return [
        (sum(w * t[0] for w, t in col), sum(w * t[1] for w, t in col))
        for col in zip(*([(w, t) for t in row] for w, row in rows))
    ]


def _class_average(d, precision_digits: int, term) -> BigFloat:
    """The one class-group average of term(form, scale)."""
    return _class_averages(d, precision_digits, lambda f, scale: (term(f, scale),))[0]


def _log_plus_term(num: _GaussBall, den: _GaussBall, scale: int) -> tuple:
    """log max(1, |j|) for j = num / den, the ``_e4_cubed_and_delta``
    balls E4^3 = x 2**e and Delta = y 2**f with counts E and F, as
    integers (lo, hi) with the term in [lo, hi] 2**-scale.  With n and N
    the exact norms of x and y, |E4^3| <= (ceil(sqrt(n)) + E) 2**e and
    |Delta| >= (floor(sqrt(N)) - F) 2**f = M 2**f; where the first is at
    most the second, |j| <= 1 and the term is 0.  Otherwise log|j| is
    (1/2) log(n 4**e / (N 4**f)) at the midpoints, rounded outward by
    libmpf, and the counts move log|E4^3| by at most E / (m - E), m =
    floor(sqrt(n)), and log|Delta| by at most F / M, each quotient
    rounded up to the unit; the ends clamp at 0, as log max(1, t) =
    max(0, log t).  PrecisionError when M or m - E is not positive
    there."""
    n, big_n = num.re * num.re + num.im * num.im, den.re * den.re + den.im * den.im
    big_m = isqrt(big_n) - den.err
    spread = _log_spread(den.err, big_m, scale, "Delta")
    k = num.exp - den.exp
    if _ceil_sqrt(n) + num.err << max(k, 0) <= big_m << max(-k, 0):
        return 0, 0
    spread += _log_spread(num.err, isqrt(n) - num.err, scale, "E4")
    lo, hi = _log_bounds(n, 2 * k, big_n, scale - 1)
    return max(0, lo - spread), max(0, hi + spread)


def j_height(d, precision_digits: int = 24) -> BigFloat:
    """Weil height of the j-invariant of discriminant d: the class
    polynomial is monic with algebraic-integer roots, so the height is
    the average of log max(1, |j|) over the reduced forms."""
    return _class_average(
        d, precision_digits,
        lambda f, scale: _log_plus_term(*_e4_cubed_and_delta(_theta_nulls(_cm_nome(f))), scale),
    )


def s_invariant(tau, precision_digits: int = DEFAULT_DIGITS) -> BigFloat:
    """s(tau) = -(1/12) log(|Delta(tau)| (Im tau)^6), an SL2(Z)-invariant
    function: ``_s_term`` at the g tau of ``_to_fundamental_domain``.
    Its midpoint's imaginary part y is exact, and the radius r of g tau
    moves Im tau by at most r, so log Im tau by at most r / (y - r), y -
    r rounded down: s(tau) widens by r / (2 (y - r)), rounded up to the
    unit.  PrecisionError when y - r is not positive."""
    with workdps(precision_digits + 15):
        t, scale = _to_fundamental_domain(_as_bigfloat(tau))[0], mp.prec + 64
        y = t.value._mpc_[1]
        y_gap = _sub_down(_down(y[1], y[2]), t._r)
        if y[0] or not y_gap[0]:
            raise PrecisionError("Im tau not separated from zero")
        widen = _units_up(_div_up(t._r, (y_gap[0], y_gap[1] + 1)), -scale)
        delta = _e4_cubed_and_delta(_theta_nulls(_theta_w(t)))[1]
        s = _s_term(delta, Fraction(*to_rational(y)) ** 12, widen, scale)
        return _interval_ball(*s, scale)


def _im_tau(t: BigFloat) -> BigFloat:
    """The real ball of Im tau, certified positive: |Im e| <= |e|, so
    the radius of tau carries over."""
    y = t.with_value(t.value.imag)
    if not y.bounds()[0] > 0:
        raise ValueError("tau must lie in the upper half plane")
    return y


def _normalized(avg: BigFloat, offset) -> BigFloat:
    """avg plus the normalization offset of ``faltings_height_cm``."""
    if offset is None:
        return avg + _constants().minus_half_log_2
    return avg + _as_bigfloat(offset)


def faltings_height_cm(d, precision_digits: int = 24, normalization_offset=None) -> BigFloat:
    """Stable Faltings height of a CM elliptic curve with CM by the
    order of discriminant d: the class-group average of s(tau) plus a
    normalization offset (default -(1/2) log 2; see the module
    docstring).  A Fraction offset is enclosed with its rounding
    radius; ints, floats and balls are taken as they are.  The average
    is the s(tau) column of ``cm_record``, bit for bit."""
    avg = _class_average(
        d, precision_digits,
        lambda f, scale: _s_term(_e4_cubed_and_delta(_theta_nulls(_cm_nome(f)))[1], _im_tau_12(f), 0, scale),
    )
    with workdps(precision_digits + 15):
        return _normalized(avg, normalization_offset)


# ---------------------------------------------------------------------------
# theta null points
# ---------------------------------------------------------------------------

def theta_null_point(tau, precision_digits: int = DEFAULT_DIGITS):
    """Level-2 theta null point (theta_0 : theta_1 : theta_2 : theta_3)
    with theta_j = sum over m = j (mod 4) of w^(m^2), w = exp(pi i
    tau/4).  theta_1 and theta_3 have the same terms w^(m^2), m odd,
    which ``_theta_nulls`` sums once: the two balls are bitwise equal."""
    with workdps(precision_digits + 15):
        t = _as_bigfloat(tau)
        _im_tau(t)
        return _nulls_at(_theta_w(t))


def _theta_w(tau: BigFloat) -> BigFloat:
    """The theta nome w = exp(pi i tau / 4) of a tau ball."""
    return (_constants().pi_i_4 * tau).exp()


def _nulls_at(w: BigFloat) -> tuple:
    """The four theta buckets at the nome w, from one theta series, as
    ``BigFloat``s: complex, but for a bucket with no terms, the real 1 or
    0 (with the tail as its radius)."""
    return tuple(_ball_of(b, not b.im and b.re in (0, 1 << -b.exp)) for b in _theta_nulls(w))


def _abs_up(parts: tuple, radius: tuple, p: int) -> tuple:
    """|re + im i| of libmpf parts rounded up to p bits, as libmpf's
    sqrt of the exact norm rounds it with round_ceiling, plus the radius
    pair, exactly, and that sum rounded up once to a pair.  The exact
    norm n 4**e is cut by 2t bits to 2p - 1 or 2p bits, whose integer
    square root r has p bits; the p-bit ceiling is r 2**(t + e) when the
    cut drops nothing and r^2 is what is left, else (r + 1) 2**(t + e)."""
    parts = [(man, exp) for _, man, exp, _ in parts if man]
    if not parts:
        return radius
    e = min(exp for _, exp in parts)
    n = sum((man << exp - e) ** 2 for man, exp in parts)
    t = (n.bit_length() - 2 * p + 1) >> 1
    cut = n >> 2 * t if t > 0 else n << -2 * t
    r = isqrt(cut)
    if r * r != cut or t > 0 and n & ((1 << 2 * t) - 1):
        r += 1
    (m, f), low = radius, min(t + e, radius[1])
    return _up((r << t + e - low) + (m << f - low), low)


def _fixed_toward_zero(t: tuple, s: int) -> int:
    """A libmpf number t times 2**s truncated toward zero."""
    sign, man, exp, _ = t
    v = man << (exp + s) if exp + s >= 0 else man >> -(exp + s)
    return -v if sign else v


def _mul_cut(ar: int, ai: int, br: int, bi: int, s: int) -> tuple:
    """The Gaussian integer (ar + ai i)(br + bi i) 2**-s, each part
    truncated toward zero."""
    u, v = ar * br - ai * bi, ar * bi + ai * br
    return u >> s if u >= 0 else -(-u >> s), v >> s if v >= 0 else -(-v >> s)


def _mul_up_64(p: int, q: int) -> int:
    """p q at scale 2**64 rounded up, for p, q >= 0 at that scale."""
    return -(-p * q >> 64)


def _slope_sum(m: int, k: int, last: int, gap: int, step: int) -> int:
    """sum of n x^(n - m^2) over n = m^2, (m + k)^2, ... up to last^2, at
    scale 2**64 rounded up, from gap = x^(2mk + k^2) and step = x^(2k^2)
    at that scale rounded up, 0 <= x < 1: the exponent gaps (m + k)^2 -
    m^2 grow by 2k^2.  Every power is a product rounded up, so an upper
    bound, and none falls below one unit of the first term, however
    small x is."""
    total, p = 0, 1 << 64
    while m <= last:
        total += m * m * p
        p, gap, m = _mul_up_64(p, gap), _mul_up_64(gap, step), m + k
    return total


def _theta_nulls(w: BigFloat) -> tuple:
    """The four buckets theta_j = sum over m = j (mod 4) of w^(m^2),
    m over all integers, as ``_GaussBall``s of one exponent.  The odd m
    give theta_1 and theta_3 the same terms w, w^9, w^25, ..., so their
    sum is made once and returned as both; an even m adds w^(m^2)
    twice, for m and for -m.  The series stops at
    the first M whose tail past M^2 is below 10^-dps |w|_lo, with
    |w|_lo from ``_min_abs``: a relative tolerance for theta_1 = w + w^9
    + ..., whose relative accuracy j inherits through the Jacobi theta_2
    = theta_1 + theta_3.  The tolerance is libmpf's product at mp.prec,
    rounded to nearest, then up to a pair; the tail is a pair too, so it
    lies below the one iff it lies below the other.

    The M terms run on Gaussian integers at scale 2**s, s = mp.prec +
    2 bits(M) + 8 + 4 ceil(log2(1 / |w|_lo)): the last bits keep the
    relative accuracy of theta_2 ~ 2 w^4 for tiny w (for M = 1, where
    theta_2 = 0, one ceil(log2(1 / |w|_lo)) keeps that of theta_1 = w,
    and |w| may be as small as 2**-179000).  The midpoint v of w, as it
    is (``_cm_nome``'s has more bits than mp.prec), is cut to that
    scale, and w^((m+1)^2) = w^(m^2) w^(2m+1), w^(2m+1) = w^(2m-1) w^2
    are formed exactly and cut back, every cut toward
    zero, which commutes with conjugation.  One integer count per
    running power bounds its distance from the power of v in units u =
    2**-s: if p, q are within a u and b u of P, Q with |P|, |Q| <= 1
    (here |v| <= x < 1), then pq - PQ = (p - P) Q + P (q - Q) + (p -
    P)(q - Q) is within (a + b + ab u) u, and the cut of the exact pq
    adds less than sqrt(2) u; so the product is within (a + b + 3) u
    while ab <= 2**s, which is checked.  The first cut costs 2.  A
    bucket's count is the sum of its terms' counts, each even term
    twice: the sums themselves are exact.

    The radius r of w (``_cm_nome``'s lies far below the series count,
    ``_theta_w``'s need not) enters once per bucket: with x the pair of
    |v| + r rounded up (``_abs_up``), |w^n - v^n| <= n x^(n-1) r, summed
    over the bucket's exponents by ``_slope_sum`` at the scale of its
    first term, whose power of x is a pair.  The terms past M^2 have
    moduli at most x^n, n from (M+1)^2 on with gaps of 2M+3 or more, and
    a bucket holds each at most twice: the tail 2 x^((M+1)^2) / (1 -
    x^(2M+3)), a pair (``_tail_below``), bounds what each bucket leaves
    out.  So a bucket is within count * u + slope + tail of its exact
    value, and all three join one integer count in units of 2**exp, exp
    = -s - g, with g >= 0 the largest -s - f over the slope and tail
    pairs m 2**f (the tail's trailing zeros dropped): the series count
    times 2**g and each pair m 2**(f - exp), all exact.  A radius pair made from
    that sum, rounded up once, is never wider than the sum rounded up
    step by step.  g passes the precision only for M = 1 and a tiny
    nome, where the tail x^4 lies about 3 log2(1 / x) bits below u.  The
    midpoints, 1 + the sums for theta_0, are exact at 2**-s and so at
    2**exp; an empty bucket (theta_0 for M < 4, theta_2 for M < 2) is 1
    or 0 with the tail as its count."""
    # x = |v| + r rounded up once to a pair from |v| rounded up: never
    # above the full-precision |v| + r + guard, and so never a wider tail
    w_lo, x = w._min_abs(), _abs_up(w.value._mpc_, w._r, mp.prec + 10)
    if _sub_down(x, _CAP)[0]:
        raise PrecisionError("theta series refused: |w| too close to 1")
    if not w_lo[0]:
        raise PrecisionError("theta nome not separated from zero")
    # the libmpf product at mp.prec, rounded to nearest, then up to a pair
    tol = _pair(mpf_mul(_ten_to_minus_dps(mp.prec, mp.dps)._mpf_, from_man_exp(*w_lo), mp.prec, round_nearest))
    # the tail past M^2 is at least 2 x^((M+1)^2), so no M with
    # (M+1)^2 log2 x >= 1 + log2 tol stops the series: start just below
    ratio = (1 + _log2(tol)) / _log2(x)
    for last in range(max(1, int(sqrt(max(ratio, 0))) - 2), 1 << 20):
        # the exponents left start at (M+1)^2 and grow by 2M+3 or more
        tail = _tail_below(x, (last + 1) * (last + 1), 2 * last + 3, tol)
        if tail is not None:
            break
    else:
        raise PrecisionError("theta series did not converge")
    # w_lo = m 2**e with m of 53 bits: ceil(log2(1 / w_lo)) = -e - 52;
    # with one term, theta_2 = 0 and theta_1 = w asks for 1 log2(1 / w_lo)
    s = mp.prec + 2 * last.bit_length() + 8 + (4 if last > 1 else 1) * max(0, -w_lo[1] - 52)
    # the midpoint as it is: mpc() would round a longer one to mp.prec
    re, im = w.value._mpc_
    a, b = _fixed_toward_zero(re, s), _fixed_toward_zero(im, s)
    sq, odd, power = _mul_cut(a, b, a, b, s), (a, b), (a, b)  # w^2, w^(2m-1), w^(m^2)
    e_sq, e_odd, e_pow = 7, 2, 2  # their error counts
    sums_re, sums_im, counts = [0, 0, 0], [0, 0, 0], [0, 0, 0]  # theta_0 less its 1
    for m in range(1, last + 1):
        j, times = (1, 1) if m % 2 else (m % 4, 2)
        sums_re[j] += times * power[0]
        sums_im[j] += times * power[1]
        counts[j] += times * e_pow
        if m == last:
            break
        odd = _mul_cut(*odd, *sq, s)
        power = _mul_cut(*power, *odd, s)
        e_odd += e_sq + 3
        e_pow += e_odd + 3
    if (e_pow * e_pow).bit_length() > s:  # the largest product of two counts taken
        raise PrecisionError("theta series error count out of range")
    # x^8, x^32 and x^48 at scale 2**64 rounded up: the gaps and steps of
    # the buckets, whose first exponents are 16, 1 and 4; x8 starts as x
    x8 = x[0] << (x[1] + 64) if x[1] >= -64 else -(-x[0] >> -(x[1] + 64))
    for _ in range(3):
        x8 = _mul_up_64(x8, x8)
    x16 = _mul_up_64(x8, x8)
    x32 = _mul_up_64(x16, x16)
    shapes = ((4, 4, 2, _mul_up_64(x32, x16), x32), (1, 2, 1, x8, x8), (2, 4, 2, x32, x32))
    slopes = [
        _mul_up(
            _mul_up(w._r, _binary_power(x, first * first - 1, _mul_up) if first > 1 else _ONE),
            _up(times * _slope_sum(first, k, last, gap, step), -64),
        )
        if first <= last else _ZERO  # a bucket with no terms has no slope
        for first, k, times, gap, step in shapes
    ]
    zeros = (tail[0] & -tail[0]).bit_length() - 1  # dropped as libmpf did: g reads the exponent
    tail = tail[0] >> zeros, tail[1] + zeros
    g = max([0] + [-s - e for m, e in (tail, *slopes) if m])
    exp, bits = -s - g, mp.prec + 8
    sums_re[0] += 1 << s
    b0, b1, b2 = (
        _GaussBall(re << g, im << g, exp, (count << g) + _units_up(slope, exp) + _units_up(tail, exp), bits)
        for re, im, count, slope in zip(sums_re, sums_im, counts, slopes)
    )
    return b0, b1, b2, b1


def _log_bounds(num: int, shift: int, den: int, scale: int) -> tuple:
    """log(num 2**shift / den) for positive integers num and den as
    integers (lo, hi), the log in [lo, hi] 2**-scale: the CM terms' one
    log.  libmpf rounds the exact quotient and then its log outward at
    the working precision, as mpmath ``iv`` does, and the ends go out to
    the unit."""
    n, d = from_man_exp(num, shift), from_int(den)
    return tuple(
        to_int(mpf_shift(mpf_log(mpf_div(n, d, mp.prec, rnd), mp.prec, rnd), scale), rnd)
        for rnd in (round_floor, round_ceiling)
    )


def _log_spread(err: int, low: int, scale: int, what: str) -> int:
    """ceil(err 2**scale / low): how far an error err moves a log, in
    units of 2**-scale, where low bounds the quantity below.
    PrecisionError when low is not positive."""
    if low <= 0:
        raise PrecisionError(f"{what} not separated from zero")
    return -(-(err << scale) // low)


def _theta_term(nulls, scale: int) -> tuple:
    """log(||v||_2 / max_j |theta_j|) for the theta null vector v, given
    as its four ``_theta_nulls`` buckets, as integers (lo, hi) with the
    term in [lo, hi] 2**-scale and lo >= 0 (||v||_2 >= max_j |theta_j|).

    The buckets share one exponent e, so their midpoints' squared
    moduli n_j are exact integers in units of 2**(2e), and their radii
    the integer counts r_j in units of 2**e.  At the midpoints the term
    is (1/2) log(S / N), S = sum_j n_j and N = n_k the largest; S / N
    and its log are rounded outward by libmpf at the working precision,
    as mpmath ``iv`` rounds them.  The radii move sum_j |theta_j|^2 by
    at most E = sum_j r_j (2 |theta_j| + r_j), with |theta_j| <=
    ceil(sqrt(n_j)), so (1/2) log S by at most E / (2 (S - E)); the
    maximum M = |theta_k| >= floor(sqrt(N)) moves by at most r, the
    largest r_j of the buckets whose |theta_j| + r_j can reach |theta_k|
    - r_k, so log M by at most r / (M - r).  Both ends widen by these two
    quotients, each rounded up to the unit 2**-scale.  PrecisionError
    when S - E or M - r is not positive."""
    norms = [b.re * b.re + b.im * b.im for b in nulls]
    k = max(range(4), key=norms.__getitem__)
    tops = [_ceil_sqrt(n) for n in norms]
    m_lo, r = isqrt(norms[k]), nulls[k].err
    reach = m_lo - r
    for b, top in zip(nulls, tops):
        # r_j counts unless |theta_j| + r_j < |theta_k| - r_k
        if b.err > r and top + b.err >= reach:
            r = b.err
    spread = _log_spread(r, m_lo - r, scale, "theta maximum")
    total = sum(norms)
    err = sum(b.err * (2 * top + b.err) for b, top in zip(nulls, tops))
    spread += _log_spread(err, 2 * (total - err), scale, "theta norm")
    lo, hi = _log_bounds(total, 0, norms[k], scale - 1)
    return max(0, lo - spread), hi + spread


def theta_height_estimate(d, precision_digits: int = 24) -> BigFloat:
    """Archimedean height estimate of the theta null orbit: the
    class-group average of log(||v||_2 / max_j |theta_j|), where v is
    the theta null vector.  Nonnegative by construction."""
    return _class_average(d, precision_digits, lambda f, scale: _theta_term(_theta_nulls(_cm_nome(f)), scale))


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
    return x.with_value(x.value if x.value > 1 else mpf(1))


def _abs_bf(x: BigFloat) -> BigFloat:
    return x.with_value(abs(x.value))


def _s_term(delta: _GaussBall, y12: Fraction, widen: int, scale: int) -> tuple:
    """s(tau) = -(1/24) log(N(Delta) (Im tau)^12), for the
    ``_e4_cubed_and_delta`` ball Delta and y12 = y^12, an exact
    rational, as integers (lo, hi) with s(tau) in [lo, hi] 2**-scale,
    each end then moved out by widen, a bound in units of 2**-scale on
    |log Im tau - log y| / 2 that the caller gives: 0 at a CM point,
    where y12 = |d|^6 / (2a)^12 is (Im tau)^12 itself, and r / (2 (y -
    r)) in ``s_invariant``, y the exact imaginary part of a tau ball's
    midpoint and r its radius.

    N(Delta) = n 4**e is the exact norm of Delta's midpoint x 2**e, so
    N(Delta) y12 is an exact quotient of integers, whose log is rounded
    outward by libmpf, then to integers at 2**-scale, where the quotient
    by 24 rounds each end outward again.  |Delta| >= floor(sqrt(n)) 2**e
    = m 2**e, and Delta's count E moves log|Delta| by at most E / (m -
    E); s(tau) = -(1/12) log|Delta| - (1/2) log Im tau, so the ends
    widen by E / (12 (m - E)), rounded up to the unit, and by widen.
    PrecisionError when m - E is not positive."""
    n = delta.re * delta.re + delta.im * delta.im
    spread = _log_spread(delta.err, 12 * (isqrt(n) - delta.err), scale, "Delta") + widen
    lo, hi = _log_bounds(n * y12.numerator, 2 * delta.exp, y12.denominator, scale)
    return -hi // 24 - spread, -(lo // 24) + spread


def _im_tau_12(form: ReducedForm) -> Fraction:
    """(Im tau)^12 = |d|^6 / (2a)^12 at a form's CM point, exactly."""
    return Fraction(form.discriminant ** 6, (2 * form.a) ** 12)


def _cm_terms(form: ReducedForm, scale: int) -> tuple:
    """(log max(1, |j|), s(tau), theta term) at a form's CM point from
    one theta series in its exact-data nome (``_cm_nome``), each as
    integers (lo, hi) at scale 2**-scale: log|j| and s(tau) from the
    same E4^3 and Delta, s(tau) with the exact (Im tau)^12."""
    nulls = _theta_nulls(_cm_nome(form))
    num, den = _e4_cubed_and_delta(nulls)
    return _log_plus_term(num, den, scale), _s_term(den, _im_tau_12(form), 0, scale), _theta_term(nulls, scale)


def cm_record(d, precision_digits: int = 24) -> CMRecord:
    """The full record for one discriminant.  One theta series per
    conjugate pair of reduced forms gives j, s(tau) and the theta term
    (``_class_averages`` folds the pair once), so the j and theta
    heights are the balls of ``j_height``, ``faltings_height_cm`` and
    ``theta_height_estimate`` bit for bit."""
    d = _disc_value(d)
    h = class_number(d)
    jh, s_avg, th = _class_averages(d, precision_digits, _cm_terms)
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
        # imported here: at the top it adds 8-11 ms (socket, selectors,
        # pickle) to every import of the package
        import multiprocessing

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


class _Report(dict):
    """An experiment's JSON-ready report that also holds, as ``balls``,
    the balls some of its doubles were written from, for printing with
    every certified digit; they take no part in equality or JSON."""

    __slots__ = ("balls",)

    def __init__(self, items: dict, balls: list):
        super().__init__(items)
        self.balls = balls


def _ball_max(a: BigFloat, b: BigFloat) -> BigFloat:
    """Ball enclosing max(x, y) for x in a and y in b: the larger
    midpoint with the larger radius (max is 1-Lipschitz)."""
    return (a if a.radius >= b.radius else b).with_value(a.value if a.value > b.value else b.value)


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
    decay from the first checkpoint to the last.  The envelope balls
    the checkpoints' doubles enclose are on ``report.balls``.  An empty
    checkpoint list raises ValueError before the scan."""
    if checkpoints is None:
        checkpoints = [100]
        while checkpoints[-1] * 2 < d_max:
            checkpoints.append(checkpoints[-1] * 2)
        if checkpoints[-1] != d_max:
            checkpoints.append(d_max)
    checkpoints = sorted(set(int(x) for x in checkpoints))
    if not checkpoints:
        raise ValueError("no checkpoints")
    rows = _per_discriminant(_ratio_row, d_max, precision_digits, workers, chunksize=16)
    if not rows:
        raise ValueError("no fundamental discriminants in range")
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
    return _Report({
        "d_max": d_max,
        "precision_digits": precision_digits,
        "checkpoints": envelope,
        "ratios": [[d, *r.doubles()] for d, _, _, r in rows],
        "passed": bool(passed),
    }, envs)


def _tf_quotient(r: CMRecord) -> BigFloat:
    """The record's residual over log(min(theta est, Faltings) + 2),
    clamped below at 0, as a ball worked at 3 digits over the working
    precision."""
    tv, fv = r.theta_height_est, r.faltings_height
    # the smaller midpoint with the larger radius encloses the minimum
    low = (tv if tv.radius >= fv.radius else fv).with_value(min(tv.value, fv.value))
    with workdps(mp.dps + 3):
        arg = low + 2
        if not arg.bounds()[0] > 1:
            raise PrecisionError("comparison denominator degenerate")
        lo, hi = (r.residual / arg.log_abs()).bounds()
    return BigFloat.from_bounds(max(lo, mpf(0)), hi)


def verify_theta_faltings(
    d_max: int = 5000, precision_digits: int = 24, workers: int = 1
) -> dict:
    """Theta-vs-Faltings comparison experiment.

    For every fundamental |d| <= d_max, the residual
    |max(1, theta est) - (1/2) max(1, Faltings)| is measured against
    log(min(theta est, Faltings) + 2); the fitted constant is the
    maximum of those quotients, reported as a disc (its ball on
    ``report.balls``) so reruns at higher precision can be checked for
    consistency.  No verdict: an uncertified fit raises PrecisionError."""
    records = cm_scan(d_max, precision_digits, workers)
    if not records:
        raise ValueError("no fundamental discriminants in range")
    with workdps(precision_digits + 15):
        per_d = [(r.d, _tf_quotient(r)) for r in records]
        c_fit = reduce(_ball_max, (q for _, q in per_d))
    # the first d whose quotient has the largest midpoint
    argmax_d = max(per_d, key=lambda dq: dq[1].value)[0]
    fitted, fitted_radius = c_fit.doubles()
    return _Report({
        "d_max": d_max,
        "precision_digits": precision_digits,
        "fitted_constant": fitted,
        "fitted_radius": fitted_radius,
        "argmax_d": argmax_d,
        "quotients": [[d, *q.doubles()] for d, q in per_d],
        "records": records,
    }, [c_fit])


def finiteness_demo(
    d_max: int, c_prime, precision_digits: int = 20, workers: int = 1
) -> dict:
    """Bounded-ratio demonstration: the fundamental discriminants with
    |d| <= d_max whose ratio (Faltings height / class number) is
    certified at most c_prime, a float, int or Fraction taken exactly.
    Inclusion and exclusion compare the exact ends of each ratio ball
    with c_prime, escalating precision on borderline cases.  Each
    qualifying Faltings height and ratio is written as a double with a
    radius that encloses its ball (``BigFloat.doubles``); the ratio
    balls themselves are on ``report.balls``."""
    c_prime = Fraction(c_prime)
    c_double = float(c_prime)  # OverflowError past the doubles, before any series
    rows = _per_discriminant(_ratio_row, d_max, precision_digits, workers, chunksize=16)
    qualifying, balls = [], []

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
            (fv, fr), (rv, rr) = fh.doubles(), ratio.doubles()
            qualifying.append({"D": d, "class_number": h, "faltings_height": fv,
                               "faltings_radius": fr, "ratio": rv, "ratio_radius": rr})
            balls.append(ratio)
    return _Report({
        "d_max": d_max,
        "c_prime": c_double,
        "qualifying": qualifying,
        "class_number_one": [q["D"] for q in qualifying if q["class_number"] == 1],
        "count": len(qualifying),
    }, balls)
