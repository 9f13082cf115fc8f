"""Exact integer kernels and certified arbitrary-precision numerics.

Everything downstream (heights, radical points, towers, the CM module)
leans on four primitives kept here: big-integer primality testing, Smith
normal form with unimodular transforms, polynomial root isolation with
a posteriori error radii, and ``BigFloat``, the package's one real or
complex ball type, whose error radius is propagated conservatively
(reported radius is always an upper bound for the true error, never an
estimate).  The CM lab builds its complex discs with it too; the name
``cmlab.CDisc`` is kept as an alias only because the benchmark's tracer
binds it.

Two policies make every numeric decision certified:

* ``certify(attempt, dps, max_dps, what)`` is the one precision
  escalation: a decision is enclosed at dps and retried at doubled
  precision until it is separated, or a ``PrecisionError`` naming it is
  raised past ``max_dps``;

* ``BigFloat.from_bounds(lo, hi)`` is the one conversion of an
  enclosure into a ball, and ``BigFloat.bounds()`` the one reading of
  a real ball's ends: midpoints and ends are exact and radii rounded
  up, so neither depends on the ambient precision.

Rounding allowances are computed only here, in the ball operations
and ``BigFloat.rounded``; root discs come from ball arithmetic.  Ball
midpoints carry the working precision; ball radii carry _RADIUS_BITS
(53) bits, each step of their arithmetic rounded up through libmpf, so
a radius is exact as a float and costs the same at 39 digits as at 250.
"""

from __future__ import annotations

import cmath
import operator
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

import mpmath
from mpmath import mp, mpc, mpf, workdps
from mpmath.libmp import (
    fone,
    from_float,
    from_int,
    from_man_exp,
    from_rational,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_le,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_pos,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    round_ceiling,
    round_floor,
    to_float,
    to_int,
    to_rational,
)

DEFAULT_DIGITS = 64

# Doublings of the working precision root isolation may take.
MAX_ESCALATIONS = 10


class PrecisionError(ArithmeticError):
    """Requested certified accuracy could not be reached within the
    escalation budget."""


class ConstructionError(ValueError):
    """A requested object cannot be built within configured bounds."""


def certify(attempt, dps: int, max_dps: int, what: str):
    """First result of ``attempt`` that is not None, trying it at dps,
    2*dps, 4*dps, ... while the precision stays at most ``max_dps``.

    ``attempt(dps)`` returns None when its enclosures at dps do not
    decide; when no attempt decides, PrecisionError names ``what``."""
    while dps <= max_dps:
        out = attempt(dps)
        if out is not None:
            return out
        dps *= 2
    raise PrecisionError(f"{what} not certified within {max_dps} digits")


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------

def primes_below(n: int) -> list[int]:
    """Sieve of Eratosthenes; primes strictly below n."""
    if n <= 2:
        return []
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n, p)))
    return [i for i in range(n) if sieve[i]]


_SMALL_PRIMES = primes_below(3000)
_SMALL_PRIME_SET = set(_SMALL_PRIMES)

# Deterministic Miller-Rabin witness set; sufficient for all n < 3.3e24,
# in particular for all n < 2**64 (Sorenson-Webster).
_MR_WITNESSES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Rounds of seeded Miller-Rabin above 2**64.  Error probability is at most
# 4**-64 = 2**-128 per call, with witnesses drawn from a PRNG seeded
# deterministically by the input so results are reproducible.
_MR_ROUNDS_BIG = 64


def _miller_rabin(n: int, base: int) -> bool:
    """One Miller-Rabin round; True means 'probably prime'."""
    base %= n
    if base == 0:
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


@lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    """Primality test.

    Deterministic for n < 2**64 (fixed Miller-Rabin witness set).  For
    larger n, runs 64 Miller-Rabin rounds with witnesses drawn from a
    PRNG seeded by n itself, so the answer is deterministic across runs
    and the error probability is below 2**-128.  Results are cached;
    tower and radical code re-validates the same few hundred-digit
    primes constantly.
    """
    if n < 2:
        return False
    if n < 3000:
        return n in _SMALL_PRIME_SET
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return False
    if n < 2**64:
        return all(_miller_rabin(n, a) for a in _MR_WITNESSES_64)
    if not all(_miller_rabin(n, a) for a in _MR_WITNESSES_64):
        return False
    rng = random.Random(f"heightlab-isprime-{n}")
    return all(
        _miller_rabin(n, rng.randrange(2, n - 1)) for _ in range(_MR_ROUNDS_BIG)
    )


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    c = max(n + 1, 2)
    if c == 2:
        return 2
    if c % 2 == 0:
        c += 1
    while not is_prime(c):
        c += 2
    return c


# Pollard-rho steps one factorint call may take.  After trial division
# to 3000, a composite n <= 10**24 has a prime factor p <= 10**12, and
# rho finds p within mu + lambda <= 2**23 steps unless the map's orbit
# mod p is longer, which happens with probability about
# exp(-2**46 / (2p)) < 1e-15.  Beyond the budget factorint raises
# ConstructionError (hostile input, e.g. two 20-digit primes).
_RHO_STEPS = 1 << 23
# Steps per gcd: the differences of a batch are multiplied mod n first.
_RHO_BATCH = 64


def _pollard_rho(n: int, steps: int) -> tuple[int, int]:
    """A nontrivial factor of composite odd n and what is left of
    ``steps``: Floyd cycle detection on x -> x^2 + c with a
    deterministic schedule of c, one gcd per batch of steps, and a
    batch whose gcd is n replayed step by step."""
    if n % 2 == 0:
        return 2, steps
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            if steps < _RHO_BATCH:
                raise ConstructionError(
                    f"factorization of {n} needs more than {_RHO_STEPS} Pollard-rho steps"
                )
            steps -= _RHO_BATCH
            x0, y0, q = x, y, 1
            for _ in range(_RHO_BATCH):
                x = (x * x + c) % n
                y = (y * y + c) % n
                y = (y * y + c) % n
                q = q * (x - y) % n
            d = gcd(q, n)
        if d == n:
            x, y, d = x0, y0, 1
            while d == 1:
                x = (x * x + c) % n
                y = (y * y + c) % n
                y = (y * y + c) % n
                d = gcd(x - y, n)
        if d != n:
            return d, steps
    raise ArithmeticError(f"rho failed on {n}")


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}.  Raises
    ConstructionError when splitting the part without factors below
    3000 takes more than _RHO_STEPS Pollard-rho steps in all."""
    if n < 1:
        raise ValueError("factorint expects n >= 1")
    steps = _RHO_STEPS
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        if n == 1:
            return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = isqrt(m)
        if r * r == m:
            stack.extend([r, r])
            continue
        d, steps = _pollard_rho(m, steps)
        stack.extend([d, m // d])
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# integer polynomials
# ---------------------------------------------------------------------------

class IntPoly:
    """Integer polynomial, coefficients stored lowest-degree first.

    Immutable; trailing zero coefficients are stripped on construction.
    The zero polynomial has coeffs == () and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        return g

    def primitive(self) -> "IntPoly":
        g = self.content()
        if g <= 1:
            return self
        return IntPoly([c // g for c in self.coeffs])

    def primitive_positive(self) -> "IntPoly":
        """The primitive part with positive leading coefficient."""
        p = self.primitive()
        if p.coeffs and p.leading < 0:
            p = IntPoly([-c for c in p.coeffs])
        return p

    def __call__(self, x):
        acc = 0 * x if self.coeffs else 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if not self.coeffs or not other.coeffs:
            return IntPoly([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("IntPoly", self.coeffs))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "IntPoly(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c:+d}")
            elif i == 1:
                terms.append(f"{c:+d}*x")
            else:
                terms.append(f"{c:+d}*x^{i}")
        return "IntPoly(" + " ".join(terms) + ")"


def _strip(p: list) -> list:
    """p without trailing zero coefficients (in place)."""
    while p and p[-1] == 0:
        p.pop()
    return p


def _divmod_q(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of num by den over Q, coefficients lowest
    first; den's last coefficient is nonzero, the remainder is stripped."""
    r = list(num)
    dd, ld = len(den) - 1, den[-1]
    q = [Fraction(0)] * max(len(r) - dd, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + dd] / ld
        for i in range(dd + 1):
            r[k + i] -= c * den[i]
    return q, _strip(r[:dd])


def _poly_gcd_q(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic gcd over Q, coefficients lowest first."""
    a, b = _strip(list(a)), _strip(list(b))
    while b:
        a, b = b, _divmod_q(a, b)[1]
    if a:
        la = a[-1]
        a = [c / la for c in a]
    return a


def _intpoly_of(fr: list[Fraction]) -> IntPoly:
    """The primitive integer polynomial with positive leading
    coefficient that is a rational multiple of fr."""
    den = lcm(*(c.denominator for c in fr))
    return IntPoly([int(c * den) for c in fr]).primitive_positive()


def squarefree_decomposition(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun's algorithm: [(g_i, m_i)] with p = lc * prod g_i^{m_i}, each
    g_i squarefree, primitive, with positive leading coefficient."""
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    fa = [Fraction(c) for c in p.coeffs]
    fb = [Fraction(c) for c in p.derivative().coeffs]
    g = _poly_gcd_q(fa, fb)
    if len(g) - 1 == 0:
        return [(p.primitive_positive(), 1)]

    out: list[tuple[IntPoly, int]] = []
    w = _divmod_q(fa, g)[0]
    y = _divmod_q(fb, g)[0]
    m = 1
    while True:
        wd = [Fraction(i * c) for i, c in enumerate(w)][1:]
        z = _strip([a - b for a, b in zip(y + [Fraction(0)] * len(wd), wd + [Fraction(0)] * len(y))])
        if not z:
            if len(w) > 1:
                out.append((_intpoly_of(w), m))
            break
        g2 = _poly_gcd_q(list(w), list(z))
        if len(g2) > 1:
            out.append((_intpoly_of(g2), m))
        w = _divmod_q(w, g2)[0]
        y = _divmod_q(z, g2)[0]
        m += 1
    return [(g_i, m_i) for (g_i, m_i) in out if g_i.degree >= 1]


# ---------------------------------------------------------------------------
# BigFloat: value plus certified error radius
# ---------------------------------------------------------------------------

def _ulp_slop(*vals) -> mpf:
    """Bound on the rounding error of one arithmetic op at current
    precision, scaled to the magnitudes involved."""
    m = mpf(0)
    for v in vals:
        av = abs(v)
        if av > m:
            m = av
    return 8 * m * mpf(10) ** (-mp.dps)


# Bits of every ball radius and magnitude bound (a double's mantissa).
_RADIUS_BITS = 53


@lru_cache(maxsize=None)
def _allowance(dps: int) -> tuple:
    """8 * 10**-dps rounded up to _RADIUS_BITS: the rounding allowance
    of one ball operation per unit of magnitude, as in ``_ulp_slop``."""
    return from_rational(8, 10**dps, _RADIUS_BITS, round_ceiling)


def _mag(v, rnd=round_ceiling) -> tuple:
    """|v| rounded to _RADIUS_BITS, up (round_ceiling) or down
    (round_floor).  A complex modulus rounds its parts the same way,
    squares them exactly and rounds the sum and the square root."""
    if not isinstance(v, mpc):
        return mpf_abs(v._mpf_, _RADIUS_BITS, rnd)
    re, im = v._mpc_
    re, im = mpf_abs(re, _RADIUS_BITS, rnd), mpf_abs(im, _RADIUS_BITS, rnd)
    return mpf_sqrt(mpf_add(mpf_mul(re, re), mpf_mul(im, im), _RADIUS_BITS, rnd), _RADIUS_BITS, rnd)


def _add_up(a, b) -> tuple:
    return mpf_add(a, b, _RADIUS_BITS, round_ceiling)


def _mul_up(a, b) -> tuple:
    return mpf_mul(a, b, _RADIUS_BITS, round_ceiling)


def _div_up(a, b) -> tuple:
    return mpf_div(a, b, _RADIUS_BITS, round_ceiling)


class BigFloat:
    """A real or complex value with a certified absolute error radius.

    ``value`` is an mpmath number; ``radius`` bounds the distance to the
    exact quantity being represented.  All arithmetic enlarges the
    radius conservatively (true error <= reported radius), including a
    rounding allowance for the op itself.

    Radius policy: a midpoint is computed by the same mpmath expression
    at the working precision, but every radius is a _RADIUS_BITS number
    computed through libmpf with each step rounded up, whatever the
    working precision.  Each ball also keeps ``_mag``, an upper bound of
    |value| at _RADIUS_BITS made with the ball; the allowance of an
    operation is that bound times 8 * 10**-dps rounded up, so it is
    never below the exact 8 * |v| * 10**-dps (nor, from 15 digits on,
    below ``_ulp_slop(v)``).  Denominators of ``/``, ``log_abs`` and
    ``sqrt_pos`` are |value| - radius rounded down.
    """

    __slots__ = ("value", "radius", "_mag")

    def __init__(self, value, radius=0):
        self.value = mpmath.mpmathify(value)
        # rounded up, so the stored radius is never below the one given
        r = mpf_pos(mpmath.mpmathify(radius)._mpf_, _RADIUS_BITS, round_ceiling)
        if mpf_lt(r, fzero):
            raise ValueError("radius must be nonnegative")
        self.radius = mp.make_mpf(r)
        self._mag = _mag(self.value)

    @classmethod
    def _made(cls, value, radius: tuple, mag: tuple) -> "BigFloat":
        """The ball of value with a raw radius and magnitude bound, both
        already rounded up to _RADIUS_BITS."""
        ball = cls.__new__(cls)
        ball.value, ball.radius, ball._mag = value, mp.make_mpf(radius), mag
        return ball

    @classmethod
    def _op(cls, v, mag: tuple, spread: tuple, scale=None) -> "BigFloat":
        """The ball of v, which mpmath computed in one rounded operation,
        with magnitude bound mag: its radius is spread, the error the
        operands carry into v, plus the allowance 8 * scale * 10**-dps;
        scale defaults to mag."""
        slop = _mul_up(mag if scale is None else scale, _allowance(mp.dps))
        return cls._made(v, _add_up(spread, slop), mag)

    def _min_abs(self) -> tuple:
        """|value| - radius rounded down: a lower bound of |z| over the
        ball, which excludes 0 when it is positive."""
        return mpf_sub(_mag(self.value, round_floor), self.radius._mpf_, _RADIUS_BITS, round_floor)

    @classmethod
    def from_bounds(cls, lo, hi) -> "BigFloat":
        """The ball enclosing the real interval [lo, hi]: its midpoint is
        exact and its radius rounded up to _RADIUS_BITS, whatever the
        ambient precision."""
        a, b = mpmath.mpmathify(lo)._mpf_, mpmath.mpmathify(hi)._mpf_
        rad = mpf_shift(mpf_sub(b, a, _RADIUS_BITS, round_ceiling), -1)
        if mpf_lt(rad, fzero):
            raise ValueError("interval bounds out of order")
        value = mp.make_mpf(mpf_shift(mpf_add(a, b, 0), -1))
        return cls._made(value, rad, _mag(value))

    @classmethod
    def rounded(cls, value, steps: int = 1) -> "BigFloat":
        """The ball of a value that mpmath computed in ``steps``
        correctly rounded operations at the current precision."""
        return cls(value, steps * _ulp_slop(value))

    def bounds(self) -> tuple[mpf, mpf]:
        """The exact ends value - radius and value + radius of a real
        ball, whatever the ambient precision."""
        v, r = self.value._mpf_, self.radius._mpf_
        return mp.make_mpf(mpf_sub(v, r, 0)), mp.make_mpf(mpf_add(v, r, 0))

    def doubles(self) -> tuple[float, float]:
        """A real ball as two doubles for a report: the midpoint rounded
        to a double, and the radius widened by that rounding and rounded
        up, so the pair encloses the ball."""
        v = self.value._mpf_
        value = to_float(v)
        gap = mpf_abs(mpf_sub(v, from_float(value), 0), _RADIUS_BITS, round_ceiling)
        return value, to_float(_add_up(self.radius._mpf_, gap), rnd=round_ceiling)

    def __repr__(self) -> str:
        return f"BigFloat({mpmath.nstr(self.value, 17)} ± {mpmath.nstr(self.radius, 3)})"

    def __add__(self, other) -> "BigFloat":
        other = _as_bigfloat(other)
        v = self.value + other.value
        return BigFloat._op(v, _mag(v), _add_up(self.radius._mpf_, other.radius._mpf_))

    __radd__ = __add__

    def __neg__(self) -> "BigFloat":
        # negated exactly: rounding a midpoint longer than the working
        # precision would move it out of the unchanged radius
        v = self.value
        if isinstance(v, mpc):
            re, im = v._mpc_
            v = mp.make_mpc((mpf_neg(re), mpf_neg(im)))
        else:
            v = mp.make_mpf(mpf_neg(v._mpf_))
        return BigFloat._made(v, self.radius._mpf_, self._mag)

    def __sub__(self, other) -> "BigFloat":
        return self + (-_as_bigfloat(other))

    def __rsub__(self, other) -> "BigFloat":
        return _as_bigfloat(other) + (-self)

    def __mul__(self, other) -> "BigFloat":
        other = _as_bigfloat(other)
        v = self.value * other.value
        ra, rb = self.radius._mpf_, other.radius._mpf_
        spread = _add_up(_add_up(_mul_up(self._mag, rb), _mul_up(other._mag, ra)), _mul_up(ra, rb))
        return BigFloat._op(v, _mag(v), spread)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "BigFloat":
        other = _as_bigfloat(other)
        lo = other._min_abs()
        if not mpf_gt(lo, fzero):
            raise PrecisionError("division by a disc containing zero")
        v = self.value / other.value
        mag = _mag(v)
        spread = _div_up(_add_up(self.radius._mpf_, _mul_up(mag, other.radius._mpf_)), lo)
        return BigFloat._op(v, mag, spread)

    def abs_bounds(self) -> tuple[mpf, mpf]:
        # outward absolute guard keeps the bounds valid even when the
        # caller's working precision is below the value's own
        a = abs(self.value)
        guard = 4 * (a + self.radius) * mpf(2) ** (-mp.prec)
        lo = a - self.radius - guard
        return (lo if lo > 0 else mpf(0), a + self.radius + guard)

    def exp(self) -> "BigFloat":
        """|exp(z + e) - exp(z)| <= |exp(z)| (exp(r) - 1) for |e| <= r;
        exp(r) - 1 <= r + (e - 2) r^2 <= r + r^2 when r <= 1, and
        exp(r) - 1 < exp(r) < 2^(3r/2) above."""
        v = mpmath.exp(self.value)
        mag = _mag(v)
        r = self.radius._mpf_
        if mpf_le(r, fone):
            grow = _add_up(r, _mul_up(r, r))
        else:
            grow = mpf_shift(fone, to_int(mpf_mul(r, from_man_exp(3, -1)), round_ceiling))
        return BigFloat._op(v, mag, _mul_up(mag, grow))

    def log_abs(self) -> "BigFloat":
        """log|self|; requires the disc to exclude zero.  The allowance
        has an absolute floor: rounding |value| costs up to one ulp of 1
        in the log, however small the log itself is."""
        lo = self._min_abs()
        if not mpf_gt(lo, fzero):
            raise PrecisionError("log of a disc containing zero")
        v = mpmath.log(abs(self.value))
        mag = _mag(v)
        return BigFloat._op(v, mag, _div_up(self.radius._mpf_, lo), mag if mpf_gt(mag, fone) else fone)

    def sqrt_pos(self) -> "BigFloat":
        """Square root of a certified-positive real disc."""
        lo = self._min_abs()
        if not mpf_gt(lo, fzero):
            raise PrecisionError("sqrt of a disc containing zero")
        v = mpmath.sqrt(abs(self.value))
        root_lo = mpf_shift(mpf_sqrt(lo, _RADIUS_BITS, round_floor), 1)
        return BigFloat._op(v, _mag(v), _div_up(self.radius._mpf_, root_lo))

    def widened(self, extra) -> "BigFloat":
        """The same midpoint with radius + extra, rounded up: how a
        truncation tail or other error bound joins a ball."""
        extra = mpmath.mpmathify(extra)._mpf_
        if mpf_lt(extra, fzero):
            raise ValueError("a ball can only be widened")
        return BigFloat._made(self.value, _add_up(self.radius._mpf_, extra), self._mag)

    def pow_int(self, n: int) -> "BigFloat":
        if n < 0:
            return BigFloat(1) / self.pow_int(-n)
        return _binary_power(self, n, operator.mul) if n else BigFloat(1)


def _binary_power(x, n: int, mul):
    """x**n for n >= 1 by squaring with mul, from the power of n's
    lowest set bit (not from 1) to its highest: every product is used."""
    while not n & 1:
        x = mul(x, x)
        n >>= 1
    out = x
    n >>= 1
    while n:
        x = mul(x, x)
        if n & 1:
            out = mul(out, x)
        n >>= 1
    return out


def _geometric_tail(x, e: int, k: int = 1) -> mpf:
    """2 x**e / (1 - x**k) rounded up to _RADIUS_BITS, for 0 <= x < 1
    and e, k >= 1: a bound of a series tail of terms of modulus at most
    2 x**n whose exponents n start at e and grow by at least k."""
    x = mpf_pos(mpmath.mpmathify(x)._mpf_, _RADIUS_BITS, round_ceiling)
    gap = mpf_sub(fone, _binary_power(x, k, _mul_up), _RADIUS_BITS, round_floor)
    if not mpf_gt(gap, fzero):
        raise ValueError("geometric tail needs a ratio below 1")
    return mp.make_mpf(_div_up(mpf_shift(_binary_power(x, e, _mul_up), 1), gap))


def _as_bigfloat(x) -> BigFloat:
    if isinstance(x, BigFloat):
        return x
    if isinstance(x, Fraction):
        v = mpf(x.numerator) / mpf(x.denominator)
        return BigFloat(v) if Fraction(*to_rational(v._mpf_)) == x else BigFloat.rounded(v)
    return BigFloat(x)


def log_plus_sum(total: BigFloat, balls) -> BigFloat:
    """total + sum of log max(1, |z|) over the balls z.  Balls with
    |z| <= 1 add nothing; a ball straddling the unit circle adds the
    ball of [0, log(|z|+r)]."""
    for z in balls:
        lo, hi = z.abs_bounds()
        if hi <= 1:
            continue
        if lo >= 1:
            total = total + z.log_abs()
        else:
            total = total + BigFloat.from_bounds(0, BigFloat.rounded(mpmath.log(hi)).bounds()[1])
    return total


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def _circle_start(coeffs: tuple) -> list:
    """n points on the circle of radius max_k |c_(n-k)/c_n|^(1/k), half
    Fujiwara's bound on the moduli of the roots."""
    n = len(coeffs) - 1
    lc = mpf(coeffs[-1])
    rho = max(abs(mpf(c) / lc) ** (mpf(1) / (n - k)) for k, c in enumerate(coeffs[:-1]))
    return [rho * cmath.exp(2j * cmath.pi * (k + 0.1357) / n) for k in range(n)]


def _aberth(coeffs: list, z: list, eps) -> None:
    """Gauss-Seidel Aberth-Ehrlich sweeps on the approximations z of the
    roots of sum c_k x^k, in place, in Python complex or in mpc.  z_i
    stops moving once |p(z_i)| <= eps * sum |c_k| |z_i|^k: rounding
    then hides p."""
    n, live = len(z), range(len(z))
    for _ in range(60 + 40 * n):
        moving = []
        for i in live:
            x = z[i]
            p, dp, bound, ax = coeffs[-1], 0, abs(coeffs[-1]), abs(x)
            for c in coeffs[-2::-1]:
                dp = dp * x + p
                p = p * x + c
                bound = bound * ax + abs(c)
            if abs(p) > eps * bound:
                ratio = p / dp
                z[i] = x - ratio / (1 - ratio * sum(1 / (x - z[j]) for j in range(n) if j != i))
                moving.append(i)
        if not moving:
            return
        live = moving


def _weierstrass_discs(coeffs: tuple, z: list, target: tuple) -> list[BigFloat] | None:
    """The discs D(z_i, 2n |w_i|), w_i = p(z_i) / (c_n prod_(j != i) (z_i - z_j))
    enclosed in ball arithmetic from the integer coefficients and the
    exact z_i; None when one is wider than target or two meet."""
    n, balls, radii = len(z), [BigFloat(v) for v in z], []
    for x in balls:
        p = den = BigFloat(coeffs[-1])
        for c in coeffs[-2::-1]:
            p = p * x + c
        for y in balls:
            if y is not x:
                den = den * (x - y)
        w = p / den
        radii.append(_mul_up(from_int(2 * n), _add_up(w._mag, w.radius._mpf_)))
    if all(mpf_le(r, target) for r in radii) and all(
        mpf_gt((balls[i] - balls[j])._min_abs(), _add_up(radii[i], radii[j]))
        for i in range(n) for j in range(i + 1, n)
    ):
        return [b.widened(mp.make_mpf(r)) for b, r in zip(balls, radii)]
    return None


def _dk_roots(poly: IntPoly, digits: int) -> list[BigFloat]:
    """Pairwise disjoint discs of radius <= 10**-digits, each holding one
    root of a squarefree integer polynomial p of degree n >= 2.  (The
    name, from the Durand-Kerner iteration this replaced, is kept for
    the benchmark's tracer.)

    As in MPSolve (Bini-Fiorentino, Numer. Algorithms 23, 2000): Aberth
    sweeps (Bini, Numer. Algorithms 13, 1996) in Python complex from a
    circle start, skipped when a coefficient over c_n overflows a double
    or the sweeps end on a value not finite or twice; then Aberth sweeps
    in mpc at the working precision; then a certificate with no float
    in it.  For distinct z_i, each connected component of the union of
    the discs D(z_i, n |w_i|) made of m discs holds m roots
    (Braess-Hadeler, Numer. Math. 21, 1973), so disjoint discs
    D(z_i, 2n |w_i|_upper) from ``_weierstrass_discs`` hold one each.
    When discs are too wide or meet, or a product ball holds 0,
    ``certify`` doubles the precision; the iterates carry over.
    """
    n, coeffs = poly.degree, poly.coeffs
    z = _circle_start(coeffs)
    try:
        start = [complex(v) for v in z]
        _aberth([c / coeffs[-1] for c in coeffs], start, 16 * n * 2.0**-53)
        if all(map(cmath.isfinite, start)) and len(set(start)) == n:
            z = start
    except (OverflowError, ZeroDivisionError):
        pass
    target = from_rational(1, 10**digits, _RADIUS_BITS, round_floor)

    def attempt(dps):
        nonlocal z
        with workdps(dps):
            z = [mpc(v) for v in z]
            try:
                _aberth([mpf(c) for c in coeffs], z, 16 * n * mpf(2) ** -mp.prec)
                return _weierstrass_discs(coeffs, z, target)
            except ZeroDivisionError:  # two equal iterates, or p'(z_i) = 0
                z = _circle_start(coeffs)
            except PrecisionError:  # a product ball holds 0
                pass
        return None

    dps = max(digits + 15, 2 * digits, 30)
    return certify(
        attempt, dps, dps << MAX_ESCALATIONS, f"root discs of radius <= 1e-{digits}"
    )


def poly_roots(poly: IntPoly, precision_digits: int = DEFAULT_DIGITS) -> list[BigFloat]:
    """All complex roots of an integer polynomial, with multiplicity.

    Squarefree decomposition splits off repeated factors, and a root of
    multiplicity m appears as m copies of one disc.  A linear factor's
    root is its rational value, of radius 0 when a binary number holds
    it.  Every other factor gets ``_dk_roots``' discs: each of radius at
    most 10**(-precision_digits), pairwise disjoint, and certified by
    ball arithmetic to hold exactly one root.
    """
    if poly.degree < 1:
        raise ValueError("poly_roots requires degree >= 1")
    out: list[BigFloat] = []
    for factor, mult in squarefree_decomposition(poly):
        if factor.degree == 1:
            c0, c1 = factor.coeffs
            with workdps(max(precision_digits + 15, 30)):
                discs = [_as_bigfloat(Fraction(-c0, c1))]
        else:
            discs = _dk_roots(factor, precision_digits)
        out.extend(d for d in discs for _ in range(mult))
    out.sort(key=lambda b: (mpmath.re(b.value), mpmath.im(b.value)))
    return out


# ---------------------------------------------------------------------------
# integer matrices and Smith normal form
# ---------------------------------------------------------------------------

class IntMatrix:
    """Immutable rectangular integer matrix (arbitrary-precision entries)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rs = tuple(tuple(int(x) for x in r) for r in rows)
        if rs:
            w = len(rs[0])
            if any(len(r) != w for r in rs):
                raise ValueError("ragged rows")
            if w == 0:
                raise ValueError("zero-width matrix")
        self.rows = rs

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(("IntMatrix", self.rows))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        m, k = self.shape
        k2, n = other.shape
        if k != k2:
            raise ValueError("shape mismatch")
        ot = list(zip(*other.rows)) if other.rows else []
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.rows]
        )

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        m, n = self.shape
        if m != n:
            raise ValueError("det of non-square matrix")
        if n == 0:
            return 1
        a = [list(r) for r in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.rows]!r})"


def smith_normal_form(matrix: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms.

    Returns (S, U, V) with U * matrix * V = S, S diagonal with
    nonnegative entries d_1 | d_2 | ..., and det(U), det(V) = +-1.
    """
    if isinstance(matrix, (list, tuple)):
        matrix = IntMatrix(matrix)
    m, n = matrix.shape
    a = [list(r) for r in matrix.rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in a:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(m, n):
        # locate a pivot: the nonzero entry of minimal magnitude
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    piv = (i, j)
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the remaining block by the pivot
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)  # adds offender row into pivot row
        t += 1

    for i in range(min(m, n)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return IntMatrix(a), IntMatrix(u), IntMatrix(v)
