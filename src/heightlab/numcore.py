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

Three policies make every numeric decision certified:

* ``certify(attempt, dps, max_dps, what)`` is the one precision
  escalation: a decision is enclosed at dps and retried at doubled
  precision until it is separated, or a ``PrecisionError`` naming it is
  raised past ``max_dps``;

* ``certify_order(x, y, dps, max_dps, what)`` is the one comparison:
  the sign of x - y, read from the exact ends of the first pair of
  enclosures that do not overlap, escalated by ``certify``, and
  ``certify_ball_order`` takes those ends from two computed balls;

* ``BigFloat.from_bounds(lo, hi)`` is the one conversion of mpmath
  ends into a ball, and ``BigFloat.bounds()`` the one reading of
  a real ball's ends: midpoints and ends are exact and radii rounded
  up, so neither depends on the ambient precision.

Rounding allowances are computed only here, in the ball operations
and ``BigFloat.rounded``.  Root isolation trusts only its certificate:
its Aberth sweeps run in Python complex and on Gaussian integers scaled
by 2**mp.prec, never in mpmath numbers, and the certificate bounds the
residuals and gaps of those Gaussian integers in 53-bit pairs, by a
Horner with a running error bound; only its output discs are balls.
Ball midpoints carry the working precision; ball radii are integer pairs
(m, e) worth m * 2**e with m of _RADIUS_BITS (53) bits, each step of
their arithmetic on Python ints and rounded up exactly as libmpf's
round_ceiling, so a radius costs the same at 39 digits as at 250.
"""

from __future__ import annotations

import cmath
import operator
import random
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import zip_longest
from math import floor, gcd, inf, isqrt, log2, pi

import mpmath
from mpmath import mp, mpc, mpf, workdps
from mpmath.libmp import (
    from_float,
    from_man_exp,
    from_rational,
    fnan,
    fone,
    fzero,
    mpf_add,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_shift,
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


def certify_order(x, y, dps: int, max_dps: int, what: str) -> int:
    """1 if x > y and -1 if x < y, read from the first enclosures
    ``x(dps)``, ``y(dps)`` that do not overlap, at the precisions
    ``certify`` tries.  An enclosure is a pair (lo, hi) with exact ends,
    or None where it cannot be formed; both are formed at every dps."""

    def attempt(dps):
        xs, ys = x(dps), y(dps)
        if xs and ys:
            return 1 if xs[0] > ys[1] else -1 if xs[1] < ys[0] else None

    return certify(attempt, dps, max_dps, what)


def certify_ball_order(x, y, dps: int, what: str) -> int:
    """``certify_order`` on the exact ends of the real balls ``x(dps)``
    and ``y(dps)``, either None where it cannot be formed, from max(40,
    dps) up to 2**13 digits: the one comparison of two computed balls."""

    def ends(ball):
        return lambda dps: None if (b := ball(dps)) is None else b.bounds()

    return certify_order(ends(x), ends(y), max(40, dps), 1 << 13, what)


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


def _prem_primitive(a: list[int], b: list[int]) -> list[int]:
    """The primitive part of the pseudo-remainder of a by b over Z,
    coefficients lowest first; b's last coefficient is nonzero."""
    r, db, lb = list(a), len(b) - 1, b[-1]
    for k in range(len(r) - 1 - db, -1, -1):
        c = r[k + db]
        r = [lb * x for x in r]
        for i, bi in enumerate(b):
            r[k + i] -= c * bi
    r = _strip(r[:db])
    g = gcd(*r)
    return [x // g for x in r]


def _gcd_primitive(a: list[int], b: list[int]) -> list[int]:
    """A primitive gcd of a != 0 and b over Z, coefficients lowest
    first, by a primitive pseudo-remainder sequence."""
    while b:
        a, b = b, _prem_primitive(a, b)
    g = gcd(*a)
    return [x // g for x in a]


def _div_exact(num: list[int], den: list[int]) -> list[int]:
    """num / den for a primitive den that divides num over Q,
    coefficients lowest first.  The quotient lies in Z[x] (Gauss's
    lemma), so every step of the long division divides exactly."""
    r, dd, ld = list(num), len(den) - 1, den[-1]
    q = [0] * max(len(r) - dd, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + dd] // ld
        for i, d in enumerate(den):
            r[k + i] -= c * d
    return q


# Primes q for the modular squarefree test, tried in turn
_SQUAREFREE_PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1)


def _squarefree_mod(coeffs: tuple, q: int) -> bool:
    """Whether q does not divide c_n and p mod q is coprime to p' mod q,
    by Euclid over F_q; coefficients lowest first."""
    if coeffs[-1] % q == 0:
        return False
    a = [c % q for c in coeffs]
    b = _strip([i * c % q for i, c in enumerate(coeffs)][1:])
    while b:
        inv, db = pow(b[-1], -1, q), len(b) - 1
        for k in range(len(a) - 1 - db, -1, -1):
            f = a[k + db] * inv % q
            for i, c in enumerate(b):
                a[k + i] = (a[k + i] - f * c) % q
        a, b = b, _strip(a[:db])
    return len(a) == 1


def squarefree_decomposition(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun's algorithm (SYMSAC 1976) over Z: [(g_i, m_i)] with
    p = lc * prod g_i^{m_i}, each g_i squarefree, primitive, with
    positive leading coefficient, by increasing m_i.

    First an exact modular test: when, for a prime q of
    ``_SQUAREFREE_PRIMES`` that does not divide lc(p), p mod q is coprime
    to p' mod q, p is squarefree and [(primitive part, 1)] comes back at
    once.  Proof: were p = g^2 h with g, h in Z[x] and deg g >= 1 (Gauss's
    lemma puts a square factor over Q into Z[x]), q would not divide
    lc(g), as lc(g)^2 divides lc(p); so the reduction g~ of g has degree
    deg g >= 1, and g~ divides p~ = g~^2 h~ and p~' = g~ (2 g~' h~ + g~ h~'),
    hence their gcd.  A q that divides lc(p) or the discriminant of p
    passes the turn to the next prime, then to Yun's algorithm.

    Yun runs on integer lists: g = gcd(p, p'), w = p / g, y = p' / g,
    then for m = 1, 2, ...: z = y - w', g_m = gcd(w, z), w <- w / g_m,
    y <- z / g_m, until w is constant.  Each gcd is the primitive one of
    a pseudo-remainder sequence, so each quotient is an exact integer
    long division: a primitive divisor over Q of an integer polynomial
    divides it over Z (Gauss's lemma).
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    if any(_squarefree_mod(p.coeffs, q) for q in _SQUAREFREE_PRIMES):
        return [(p.primitive_positive(), 1)]
    a, b = list(p.coeffs), list(p.derivative().coeffs)
    g = _gcd_primitive(a, b)
    if len(g) == 1:
        return [(p.primitive_positive(), 1)]
    out: list[tuple[IntPoly, int]] = []
    w, y, m = _div_exact(a, g), _div_exact(b, g), 1
    while len(w) > 1:
        z = _strip([c - (i + 1) * d for i, (c, d) in enumerate(zip_longest(y, w[1:], fillvalue=0))])
        g = _gcd_primitive(w, z)
        if len(g) > 1:
            out.append((IntPoly(g).primitive_positive(), m))
        w, y, m = _div_exact(w, g), _div_exact(z, g), m + 1
    return out


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
    return 8 * m * _ten_to_minus_dps(mp.prec, mp.dps)


@lru_cache(maxsize=64)
def _ten_to_minus_dps(prec: int, dps: int) -> mpf:
    """10**-dps as mpmath rounds it at the ambient precision, which the
    key (mp.prec, mp.dps) names: once per working precision."""
    return mpf(10) ** (-dps)


# Every ball radius and magnitude bound is a pair (m, e) worth m * 2**e,
# with m = 0 or 2**52 <= m < 2**53: a number of _RADIUS_BITS bits (a
# double's mantissa) whose arithmetic runs on Python ints, each step
# rounded up exactly as libmpf rounds with round_ceiling.
_RADIUS_BITS = 53
_ZERO = (0, 0)
_ONE = (1 << 52, -52)


def _up(m: int, e: int) -> tuple:
    """The pair of m * 2**e rounded up, for an integer m >= 0."""
    s = m.bit_length() - _RADIUS_BITS
    if s <= 0:
        return (m << -s, e + s) if m else _ZERO
    m = -(-m >> s)
    return (m >> 1, e + s + 1) if m >> _RADIUS_BITS else (m, e + s)


def _down(m: int, e: int) -> tuple:
    """The pair of m * 2**e rounded down, for an integer m >= 0."""
    s = max(m.bit_length() - _RADIUS_BITS, 0)
    return _up(m >> s, e + s)


def _pair(t: tuple) -> tuple:
    """The pair of |t| rounded up, for a libmpf number t; ValueError if t
    is inf or nan, which libmpf writes with mantissa 0 unlike 0 itself."""
    if not t[1] and t != fzero:
        raise ValueError("a ball needs a finite midpoint and radius")
    return _up(t[1], t[2])


@lru_cache(maxsize=None)
def _allowance(dps: int) -> tuple:
    """8 * 10**-dps rounded up: a ball operation's allowance per unit of |v|."""
    return _pair(from_rational(8, 10**dps, _RADIUS_BITS, round_ceiling))


def _mag(v, rnd=round_ceiling) -> tuple:
    """|v| as a pair rounded up (round_ceiling) or down (round_floor),
    for an mpf, an mpc, or a Gaussian integer (a, b, e) worth
    (a + bi) * 2**e.  A complex modulus is the ``isqrt`` of the exact
    sum of the squares of the parts' mantissas cut to 64 bits, scaled
    to a root of 55 bits or more, each step rounded the same way; a
    part whose leading bit lies over 2 * 53 + 8 bits below the other's
    moves |v| by less than the unit in the other's 53rd bit, which
    round_ceiling adds."""
    up = rnd == round_ceiling
    to = _up if up else _down
    kind = type(v)
    if kind is mpc:
        (_, ma, ea, ba), (_, mb, eb, bb) = v._mpc_
    elif kind is tuple:
        ma, mb, ea = abs(v[0]), abs(v[1]), v[2]
        ba, bb, eb = ma.bit_length(), mb.bit_length(), ea
    else:
        return to(v._mpf_[1], v._mpf_[2])
    if not (ma and mb):  # a zero part gives |other part|
        return to(ma, ea) if ma else to(mb, eb)
    if abs(ea + ba - eb - bb) > 2 * _RADIUS_BITS + 8:
        big = to(ma, ea) if ea + ba > eb + bb else to(mb, eb)
        return _up(big[0] + 1, big[1]) if up else big
    if ba > 64:
        top = ma >> (ba - 64)
        ma, ea = top + (up and top << (ba - 64) != ma), ea + ba - 64
    if bb > 64:
        top = mb >> (bb - 64)
        mb, eb = top + (up and top << (bb - 64) != mb), eb + bb - 64
    if ea < eb:
        n, e = ma * ma + (mb << (eb - ea)) ** 2, ea
    else:
        n, e = (ma << (ea - eb)) ** 2 + mb * mb, eb
    k = (110 - n.bit_length()) >> 1
    if k > 0:
        n, e = n << 2 * k, e - k
    root = isqrt(n)
    if up:
        root += root * root != n
    # the root has 55 bits or more: its pair is its top 53, rounded as
    # _up or _down would round it
    c = root.bit_length() - _RADIUS_BITS
    m = -(-root >> c) if up else root >> c
    return (m >> 1, e + c + 1) if m >> _RADIUS_BITS else (m, e + c)


def _add_up(a: tuple, b: tuple) -> tuple:
    """a + b rounded up: at an exponent gap of 53 or more, the larger plus one unit."""
    if not (a[0] and b[0]):
        return a if b[0] == 0 else b
    (ma, ea), (mb, eb) = (a, b) if a[1] >= b[1] else (b, a)
    if ea - eb >= _RADIUS_BITS:
        return _up(ma + 1, ea)
    return _up((ma << (ea - eb)) + mb, eb)


def _sub_down(a: tuple, b: tuple) -> tuple:
    """a - b rounded down, or zero when a <= b: nonzero iff a > b.  A b
    below a quarter unit of a rounds as 2**-56 units of a would."""
    if not b[0]:
        return a
    (ma, ea), (mb, eb) = a, b if a[1] - b[1] <= _RADIUS_BITS + 2 else (1, a[1] - 56)
    n = (ma << (ea - eb)) - mb if ea >= eb else 0
    return _down(n, eb) if n > 0 else _ZERO


def _mul_up(a: tuple, b: tuple) -> tuple:
    return _up(a[0] * b[0], a[1] + b[1])


def _mul_down(a: tuple, b: tuple) -> tuple:
    return _down(a[0] * b[0], a[1] + b[1])


def _div_up(a: tuple, b: tuple) -> tuple:
    """a / b rounded up, for b > 0, via a ceiling quotient of 55+ bits."""
    return _up(-(-(a[0] << 55) // b[0]), a[1] - b[1] - 55)


# The largest |e| of a decimal exponent 'e<e>' that ``_exact`` reads:
# Fraction builds 10**|e| exactly, in 0.01 s at 10**5 and 9 s at 10**7
# on a 2-vCPU host
MAX_EXPONENT = 10**5


def _exact(x):
    """A str or Decimal as the Fraction it names; ValueError if none, or
    if its decimal exponent is above MAX_EXPONENT in size, checked before
    any power of 10 is built."""
    if not isinstance(x, (str, Decimal)):
        return x
    x = str(x)  # a Decimal's exact text
    _, e, digits = x.lower().rpartition("e")
    digits = digits.strip().lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdecimal() and (len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT):
        raise ValueError(f"the decimal exponent of {x[:40]!r} is above MAX_EXPONENT = {MAX_EXPONENT}")
    try:
        return Fraction(x)
    except (ValueError, OverflowError, ZeroDivisionError):  # nan, inf, "1/0"
        raise ValueError(f"{x!r} is not a finite real number") from None


class BigFloat:
    """A real or complex value with a certified absolute error radius.

    ``value`` is an mpmath number; ``radius`` bounds the distance to the
    exact quantity being represented.  All arithmetic enlarges the
    radius conservatively (true error <= reported radius), including a
    rounding allowance for the op itself.

    Radius policy: a midpoint is computed by the same mpmath expression
    at the working precision; the radius ``_r`` is an integer pair of
    _RADIUS_BITS bits whatever the precision, each step rounded up as
    libmpf's round_ceiling rounds, and ``radius`` reads it as an exact
    mpf.  ``_mag``, such a pair made with the ball, bounds |value| (for
    a complex value, by an integer square root of its parts'
    mantissas); an operation's allowance is that bound times 8 *
    10**-dps rounded up, never below the exact 8 * |v| * 10**-dps (nor,
    from 15 digits on, below ``_ulp_slop(v)``).  Denominators of ``/``,
    ``log_abs`` and ``sqrt_pos`` are |value| - radius rounded down.  A
    midpoint or radius that is not finite raises ValueError.  A str or
    Decimal is the Fraction it names.  A Fraction midpoint is rounded at
    the working precision, and its ball gets the radius of ``rounded``
    unless the rounding is exact; a Fraction radius is rounded up.
    """

    __slots__ = ("value", "_r", "_mag")

    def __init__(self, value, radius=0):
        slop = _ZERO
        value, radius = _exact(value), _exact(radius)
        if isinstance(radius, Fraction):
            radius = mp.make_mpf(from_rational(radius.numerator, radius.denominator, _RADIUS_BITS, round_ceiling))
        if isinstance(value, Fraction):  # exact when binary, else a rounded ball
            v = mpf(value.numerator) / mpf(value.denominator)
            if Fraction(*to_rational(v._mpf_)) != value:
                slop = BigFloat.rounded(v)._r
            value = v
        value, r = mpmath.mpmathify(value), mpmath.mpmathify(radius)._mpf_
        parts = value._mpc_ if isinstance(value, mpc) else (value._mpf_,)
        if not all(t[1] or t == fzero for t in parts):
            raise ValueError("a ball needs a finite midpoint and radius")
        if r[0]:
            raise ValueError("radius must be nonnegative")
        # rounded up, never below the radius given; _pair refuses inf and nan
        self.value, self._r, self._mag = value, _add_up(_pair(r), slop), _mag(value)

    @classmethod
    def _made(cls, value, r: tuple, mag: tuple) -> "BigFloat":
        """The ball of value with radius and magnitude bound as pairs."""
        ball = cls.__new__(cls)
        ball.value, ball._r, ball._mag = value, r, mag
        return ball

    @property
    def radius(self) -> mpf:
        return mp.make_mpf(from_man_exp(*self._r))

    def with_value(self, value) -> "BigFloat":
        """This radius about value: the image under a 1-Lipschitz map."""
        value = mpmath.mpmathify(value)
        return BigFloat._made(value, self._r, _mag(value))

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
        return _sub_down(_mag(self.value, round_floor), self._r)

    @classmethod
    def from_bounds(cls, lo, hi) -> "BigFloat":
        """The ball enclosing the real interval [lo, hi]: its midpoint is
        exact and its radius rounded up to _RADIUS_BITS, whatever the
        ambient precision."""
        a, b = mpmath.mpmathify(lo)._mpf_, mpmath.mpmathify(hi)._mpf_
        width = mpf_sub(b, a, _RADIUS_BITS, round_ceiling)
        if mpf_lt(width, fzero):
            raise ValueError("interval bounds out of order")
        value = mp.make_mpf(mpf_shift(mpf_add(a, b, 0), -1))
        return cls._made(value, _pair(mpf_shift(width, -1)), _mag(value))

    @classmethod
    def rounded(cls, value, steps: int = 1) -> "BigFloat":
        """The ball of a value that mpmath computed in ``steps``
        correctly rounded operations at the current precision."""
        return cls(value, steps * _ulp_slop(value))

    def bounds(self) -> tuple[mpf, mpf]:
        """The exact ends value - radius and value + radius of a real
        ball, whatever the ambient precision."""
        v, r = self.value._mpf_, from_man_exp(*self._r)
        return mp.make_mpf(mpf_sub(v, r, 0)), mp.make_mpf(mpf_add(v, r, 0))

    def doubles(self) -> tuple[float, float]:
        """A real ball as two doubles for a report: the midpoint rounded
        to a double, and the radius widened by that rounding and rounded
        up, so the pair encloses the ball."""
        v = self.value._mpf_
        value = to_float(v)
        gap = _pair(mpf_sub(v, from_float(value), 0))
        return value, to_float(from_man_exp(*_add_up(self._r, gap)), rnd=round_ceiling)

    def __repr__(self) -> str:
        return f"BigFloat({mpmath.nstr(self.value, 17)} ± {mpmath.nstr(self.radius, 3)})"

    def __add__(self, other) -> "BigFloat":
        other = _as_bigfloat(other)
        v = self.value + other.value
        return BigFloat._op(v, _mag(v), _add_up(self._r, other._r))

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
        return BigFloat._made(v, self._r, self._mag)

    def __sub__(self, other) -> "BigFloat":
        return self + (-_as_bigfloat(other))

    def __rsub__(self, other) -> "BigFloat":
        return _as_bigfloat(other) + (-self)

    def __mul__(self, other) -> "BigFloat":
        other = _as_bigfloat(other)
        v = self.value * other.value
        ra, rb = self._r, other._r
        spread = _add_up(_add_up(_mul_up(self._mag, rb), _mul_up(other._mag, ra)), _mul_up(ra, rb))
        return BigFloat._op(v, _mag(v), spread)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "BigFloat":
        other = _as_bigfloat(other)
        lo = other._min_abs()
        if not lo[0]:
            raise PrecisionError("division by a disc containing zero")
        v = self.value / other.value
        mag = _mag(v)
        spread = _div_up(_add_up(self._r, _mul_up(mag, other._r)), lo)
        return BigFloat._op(v, mag, spread)

    def abs_bounds(self) -> tuple[mpf, mpf]:
        # outward absolute guard keeps the bounds valid even when the
        # caller's working precision is below the value's own
        a, r = abs(self.value), self.radius
        top = a + r
        guard = mp.make_mpf(mpf_shift(top._mpf_, 2 - mp.prec))
        lo = a - r - guard
        return (lo if lo > 0 else mpf(0), top + guard)

    def exp(self) -> "BigFloat":
        """|exp(z + e) - exp(z)| <= |exp(z)| (exp(r) - 1) for |e| <= r;
        exp(r) - 1 <= r + (e - 2) r^2 <= r + r^2 when r <= 1, and
        exp(r) - 1 < exp(r) < 2^(3r/2) above."""
        v = mpmath.exp(self.value)
        mag = _mag(v)
        r = self._r
        if not _sub_down(r, _ONE)[0]:
            grow = _add_up(r, _mul_up(r, r))
        else:
            grow = _up(1, to_int(from_man_exp(3 * r[0], r[1] - 1), round_ceiling))
        return BigFloat._op(v, mag, _mul_up(mag, grow))

    def log_abs(self) -> "BigFloat":
        """log|self|; requires the disc to exclude zero.  The allowance
        has an absolute floor: rounding |value| costs up to one ulp of 1
        in the log, however small the log itself is."""
        lo = self._min_abs()
        if not lo[0]:
            raise PrecisionError("log of a disc containing zero")
        v = mpmath.log(abs(self.value))
        mag = _mag(v)
        return BigFloat._op(v, mag, _div_up(self._r, lo), mag if _sub_down(mag, _ONE)[0] else _ONE)

    def sqrt_pos(self) -> "BigFloat":
        """Square root of a certified-positive real disc."""
        lo = self._min_abs()
        if not lo[0]:
            raise PrecisionError("sqrt of a disc containing zero")
        v = mpmath.sqrt(abs(self.value))
        m, e = lo if lo[1] % 2 == 0 else (lo[0] << 1, lo[1] - 1)
        root_lo = _down(isqrt(m << 106), e // 2 - 52)  # 2 sqrt(lo) rounded down
        return BigFloat._op(v, _mag(v), _div_up(self._r, root_lo))

    def widened(self, extra) -> "BigFloat":
        """The same midpoint with radius + extra, rounded up: how a
        truncation tail or other error bound joins a ball."""
        extra = mpmath.mpmathify(extra)._mpf_
        if extra[0] or extra == fnan:  # negative or nan; +inf fails in _pair
            raise ValueError("a ball can only be widened")
        r = mpf_add(from_man_exp(*self._r), extra, _RADIUS_BITS, round_ceiling)
        return BigFloat._made(self.value, _pair(r), self._mag)

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


def _geometric_tail(x: tuple, e: int, k: int = 1) -> tuple:
    """2 x**e / (1 - x**k) as a pair rounded up, for a pair 0 <= x < 1
    and e, k >= 1: a bound of a series tail of terms of modulus at most
    2 x**n whose exponents n start at e and grow by at least k."""
    gap = _sub_down(_ONE, _binary_power(x, k, _mul_up))
    if not gap[0]:
        raise ValueError("geometric tail needs a ratio below 1")
    return _div_up(_binary_power(x, e, _mul_up), (gap[0], gap[1] - 1))


def _log2(t: tuple) -> float:
    """log2 of a positive pair (m, e), read as e + bits + log2(m /
    2**bits) lest it underflow a double."""
    m, e = t
    bits = m.bit_length()
    return e + bits + log2(m / (1 << bits))


def _tail_below(x: tuple, e: int, k: int, tol: tuple) -> tuple | None:
    """``_geometric_tail(x, e, k)`` if below tol, else None, for pairs x
    and tol.  The tail is at least 2 x**e, so it is formed only once
    log2 of that, read by ``_log2``, is below log2(4 tol): a margin of 2
    over float errors near (e + |log2 tol|) 2**-52."""
    if x[0] and tol[0] and 1 + e * _log2(x) >= 2 + _log2(tol):
        return None
    tail = _geometric_tail(x, e, k)
    return tail if _sub_down(tol, tail)[0] else None


def _as_bigfloat(x) -> BigFloat:
    return x if isinstance(x, BigFloat) else BigFloat(x)


def _norm(z) -> tuple:
    """|z|^2 of a real or complex midpoint, exact, as a libmpf number."""
    parts = z._mpc_ if isinstance(z, mpc) else (z._mpf_,)
    return reduce(mpf_add, [mpf_mul(t, t) for t in parts])


def log_plus_sum(total: BigFloat, balls) -> BigFloat:
    """total + sum of log max(1, |z|) over the balls z.  Balls with
    |z| <= 1 add nothing; a ball of midpoint v and radius r straddling
    the unit circle adds the ball of [0, u], u = ((|v| + r)^2 - 1) / 2,
    as log t <= (t^2 - 1) / 2 for t >= 1: |v|^2 - 1 is exact in libmpf,
    (2 |v| + r) r joins it as a pair rounded up, and u is rounded up
    once.  A ball that the 53-bit pairs |value| + radius rounded up and
    ``_min_abs`` place on one side of the circle costs no
    full-precision modulus.  One they leave across the circle, or
    within about 2**-52 of it, is placed by ``abs_bounds``."""
    for z in balls:
        if not _sub_down(_add_up(z._mag, z._r), _ONE)[0]:
            continue  # |z| <= |value| + radius <= 1
        if _sub_down(_ONE, z._min_abs())[0]:  # |value| - radius >= 1 not shown
            lo, hi = z.abs_bounds()
            if hi <= 1:
                continue
            if lo < 1:
                spread = from_man_exp(*_mul_up(_add_up((z._mag[0], z._mag[1] + 1), z._r), z._r))
                u = mpf_add(mpf_sub(_norm(z.value), fone, 0), spread, _RADIUS_BITS, round_ceiling)
                if u[0] or u == fzero:  # |v| + r <= 1 after all
                    continue
                total = total + BigFloat.from_bounds(0, mp.make_mpf(mpf_shift(u, -1)))
                continue
        total = total + z.log_abs()
    return total


# ---------------------------------------------------------------------------
# the logarithm on integers
# ---------------------------------------------------------------------------

def _atanh_fixed(t: int, w: int) -> tuple:
    """(s, err): atanh(t 2**-w) lies within err 2**-w of s 2**-w, for an
    integer t with |t| <= 2**w / 3.

    The series tau + tau^3/3 + tau^5/5 + ..., tau = t 2**-w, is summed
    by rectangular splitting (Smith, Math. Comp. 52, 1989; Johansson,
    ARITH 22, 2015): with u = tau^2 and U_l = u^l at 2**-w for l <= m =
    floor(sqrt(2n)), block i is sum_(l < m) U_l / (2(im + l) + 1), and
    the blocks are joined by Horner's rule in U_m, so n terms cost about
    m + n / m products of w-bit numbers and n divisions by small integers.

    Proof, in units of 2**-w.  |tau| < 2**-c for c = w - bitlen|t|, so
    n = ceil((w - c) / (2c)) terms, or more, leave a tail of at most
    |tau|^(2n+1) / ((2n + 1)(1 - u)) < 2**(-c(2n + 1)) <= 2**-w, as u <=
    1/9: less than 1.  Every step floors, and every value but t and s is
    nonnegative.  U_1 lies below u 2**w by less than 1 and U_l below u^l
    2**w by d_l < 2 + d_(l-1) / 9, so by less than 9/4.  A block lies
    below its value by less than 7m/4: U_0 = 2**w is exact, and U_l / (2j
    + 1) with 2j + 1 >= 3 loses less than 3/4 + 1.  Horner's accumulator
    a <= 9/8 (a tail of sum u^l) stays less than e below its value: a
    step loses e u^m + a d_m + 1 < e / 9 + 3.54 and the block's 7m/4, so
    e < (7m/4 + 3.54) 9/8 < 2m + 4.  The last product loses |tau| e + 1
    < m + 3, and with the tail err = m + 4.  For n <= 1, s = t and only
    the tail remains."""
    c = w - abs(t).bit_length()
    n = (w + c - 1) // (2 * c)
    if n <= 1:
        return t, 1
    m = isqrt(2 * n)
    u = t * t >> w
    powers = [1 << w]
    for _ in range(m):
        powers.append(powers[-1] * u >> w)
    top = powers.pop()
    acc, step = 0, 2 * m
    for d in range(step * ((n - 1) // m) + 1, 0, -step):
        acc = (acc * top >> w) + sum(map(operator.floordiv, powers, range(d, d + step, 2)))
    return t * acc >> w, m + 4


def _atanh_third(a: int, b: int) -> tuple:
    """(B, Q, T) with T / (B Q) = sum_(a <= j < b) 1 / ((2j + 1) q_a ...
    q_j), q_0 = 1 and q_j = 9 else, B the product of the 2j + 1 and Q
    that of the q_j: binary splitting (Haible and Papanikolaou, 1998),
    as the sum over [a, b) is that over [a, m) plus 1 / (q_a ... q_(m-1))
    times that over [m, b).  So T / (B Q) for [0, n) is the sum of the
    first n terms of 3 atanh(1/3) = sum_j 9**-j / (2j + 1)."""
    if b - a == 1:
        return 2 * a + 1, 9 if a else 1, 1
    m = (a + b) // 2
    b1, q1, t1 = _atanh_third(a, m)
    b2, q2, t2 = _atanh_third(m, b)
    return b1 * b2, q1 * q2, b2 * q2 * t1 + b1 * t2


# (W, lo): the widest enclosure [lo, lo + 8] 2**-W of log 2 made so far
_LN2 = (-1, 0)


def _ln2_fixed(w: int) -> tuple:
    """Integers (lo, hi) with log 2 in [lo, hi] 2**-w and hi - lo = 8:
    log 2 = 2 atanh(1/3).  The first n terms of atanh(1/3) sum exactly to
    S = T / D, D = 3 B Q (``_atanh_third``), and with 9**n >= 2**w the
    rest is below 3**(-2n-1) (9/8) / (2n + 1) < 2**-w.  Cut by h = max(0,
    bitlen D - w - 64) bits, D' = floor(D / 2**h) and T' = floor(T /
    2**h) give T' / D' within 2**-(w + 63) of S <= 1/2 (exactly S for h
    = 0), so atanh(1/3) 2**w lies in (s - 1, s + 3) for s = floor(T'
    2**w / D').  Only the widest enclosure, at W, is kept, and w = W - k
    < W is cut from it: log 2 2**w lies in [lo, lo + 8] 2**-k, within
    [l, l + 5) for l = floor(lo / 2**k)."""
    global _LN2
    big, lo = _LN2
    if w > big:
        n = w // 3 + 1  # 9**n > 8**n > 2**w
        big_b, q, t = _atanh_third(0, n)
        d = 3 * big_b * q
        h = max(d.bit_length() - w - 64, 0)
        big, lo = _LN2 = w, 2 * ((t >> h << w) // (d >> h)) - 2
    lo >>= big - w
    return lo, lo + 8


@lru_cache(maxsize=16)
def _sixty_fourth_roots(w: int) -> tuple:
    """C_j below 2**(w - j/64) by less than 57, for j < 64.

    2**(-1/8) and 2**(-1/64) 2**w come from 1/2 by three and six floored
    square roots at 2**-w.  The values are at least 1/2, so a square root
    turns an error d below the value into less than d / sqrt(2) + 1, and
    the roots lie below their values by less than 3.  A product
    floor(X r / 2**w) of values at most 1, below them by d and d', lies
    below its value by less than d + d' + 1: the powers A_i and B_l, i, l
    < 8, of the two roots by less than 4 * 7, and C_(8i + l) = floor(A_i
    B_l / 2**w) by less than 57."""
    r = 1 << (w - 1)
    roots = []
    for _ in range(6):
        r = isqrt(r << w)
        roots.append(r)
    a, b = [1 << w], [1 << w]
    for table, r in ((a, roots[2]), (b, roots[5])):
        for _ in range(7):
            table.append(table[-1] * r >> w)
    return tuple(x * y >> w for x in a for y in b)


def _log_fixed(num: int, den: int, shift: int, w: int) -> tuple:
    """Integers (lo, hi) with log(num 2**shift / den) in [lo, hi] 2**-w,
    for positive integers num and den: an enclosure from integers only,
    hi - lo a few units.

    It runs at W = w + R + 8 bits, R = floor(sqrt(w) / 10), in four steps
    (Brent, J. ACM 23, 1976).  Errors are in units of 2**-W.
    * Reduction by multiples of (log 2) / 64.  x = num 2**shift / den =
      2**k y with y in (1/2, 2), and Y = floor(y 2**(W+1)).  A double's
      log2 of Y gives j' = 64q + j, 0 <= j < 64 and q >= -1, within 1/2 +
      10**-9 of 64 log2 y, so z = y 2**(-q - j/64) has |log2 z| < 1/64
      and log x = (64(k + q) + j) (log 2) / 64 + log z.  Z = floor(Y C_j
      / 2**(V + 1 + q)), C_j below 2**(V - j/64) by less than 57 from
      ``_sixty_fourth_roots`` at V >= W + 10 bits, lies below z 2**W by
      less than 3: 1 from Y, 57 (y 2**-q) 2**(W - V) < 0.12 from C_j (y
      2**-q < 2.03) and 1 from the floor.
    * r = max(0, R - c) square roots Z <- isqrt(Z 2**W), where |Z - 2**W|
      < 2**(W - c): z_r = z**(2**-r) and log z = 2**r log z_r.  As Z >
      0.98 2**W, a square root turns an error d below the value into less
      than d / (2 sqrt(0.98)) + 1, so the error stays below 3.
    * t = floor((Z - 2**W) 2**W / (Z + 2**W)) lies within 0.51 * 3 + 1
      of tau 2**W, tau = (z_r - 1) / (z_r + 1), as the derivative of (z -
      1) / (z + 1) is below 2 / 1.98**2 < 0.51 there.  log z_r = 2
      atanh(tau) with |tau| < 0.006, where atanh' < 1.0001, so atanh(tau)
      2**W lies within err + 3 of ``_atanh_fixed``'s s, and log z 2**W
      within 2**(r+1) (err + 3) of 2**(r+1) s.
    * log 2 from ``_ln2_fixed`` at V' >= W + bitlen|K| bits, K = 64(k +
      q) + j: K times its width of 8 units 2**-V', taken to 2**-(W + 6),
      is at most 1/8 of a unit.
    Each end is floored or ceiled to 2**-w.  As W - w >= r + 8, the
    series adds at most (err + 3) / 64 <= 1 unit 2**-w to hi - lo while
    m <= 57, so for w up to about 100000 bits."""
    k = num.bit_length() + shift - den.bit_length()
    big_r = isqrt(w) // 10
    big = w + big_r + 8
    y = _shift(num, big + 1 + shift - k) // den
    j = round((log2(y) - big - 1) * 64)
    if j:
        q, j = divmod(j, 64)
        k += q
        v = (big + 73) >> 6 << 6
        y = y * _sixty_fourth_roots(v)[j] >> (v + 1 + q)
    else:
        y >>= 1
    one = 1 << big
    r = max(big_r + abs(y - one).bit_length() - big, 0)
    for _ in range(r):
        y = isqrt(y << big)
    s, err = _atanh_fixed(((y - one) << big) // (y + one), big)
    err = (err + 3) << r + 1
    s <<= r + 1
    lo, hi = s - err, s + err
    k = 64 * k + j
    if k:
        v = (big + abs(k).bit_length() + 63) >> 6 << 6
        l0, l1 = _ln2_fixed(v)
        if k < 0:
            l0, l1 = l1, l0
        lo += k * l0 >> v + 6 - big
        hi -= -k * l1 >> v + 6 - big
    return lo >> big - w, -(-hi >> big - w)


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def _log2_abs(c: int) -> float:
    """log2|c| for an integer c != 0: its bit length past 53 plus the log2
    of its top 53 bits, so finite however long c is."""
    c = abs(c)
    s = max(c.bit_length() - 53, 0)
    return s + log2(c >> s)


def _start(coeffs: tuple) -> list[tuple[float, float]]:
    """Bini's start (Numer. Algorithms 13, 1996, sec. 3) as pairs
    (log2|z|, arg z): for each edge from i to k of the upper convex hull
    of the points (k, log2|c_k|), c_k != 0, k - i points on the circle
    of radius |c_i / c_k|^(1/(k - i)); and a point 0, written log2 -inf,
    for each vanishing low coefficient, the roots at 0."""
    n, hull = len(coeffs) - 1, []
    for k, l in ((k, _log2_abs(c)) for k, c in enumerate(coeffs) if c):
        # drop the last vertex while it lies on or below the chord to (k, l)
        while len(hull) > 1:
            (i, li), (j, lj) = hull[-2:]
            if (lj - li) * (k - i) > (l - li) * (j - i):
                break
            hull.pop()
        hull.append((k, l))
    z = [(-inf, 0.0)] * hull[0][0]
    for (i, li), (k, lk) in zip(hull, hull[1:]):
        z += [((li - lk) / (k - i), 2 * pi * (j / (k - i) + k / n) + 0.7) for j in range(k - i)]
    return z


def _aberth(z: list, step) -> None:
    """Gauss-Seidel Aberth-Ehrlich sweeps (Bini, Numer. Algorithms 13,
    1996) on the approximations z of the roots, in place: step(z, i) is
    the corrected z_i, or None once z_i stops.  A z_i that stopped is
    not swept again; the sweeps end after 60 + 40n."""
    live = range(len(z))
    for _ in range(60 + 40 * len(z)):
        moving = []
        for i in live:
            x = step(z, i)
            if x is not None:
                z[i] = x
                moving.append(i)
        if not moving:
            return
        live = moving


def _horner(top_first: list, x) -> tuple:
    """p(x), p'(x) and sum |c_k| |x|^k for the coefficients of p, highest first."""
    p, dp, bound, ax = top_first[0], 0, abs(top_first[0]), abs(x)
    for c in top_first[1:]:
        dp = dp * x + p
        p = p * x + c
        bound = bound * ax + abs(c)
    return p, dp, bound


def _float_step(coeffs: list, eps: float):
    """The Aberth step in Python complex for sum c_k x^k, c_k floats.  A
    z_i stops once |p(z_i)| <= eps * sum |c_k| |z_i|^k, as rounding then
    hides p; a value or bound not finite never stops.  Beyond the unit circle, p
    is read through r(y) = y^n p(1/y), whose terms stay below their
    coefficients: p / p' = x r(y) / (n r(y) - y r'(y)) at y = 1/x."""
    n, down = len(coeffs) - 1, coeffs[::-1]

    def step(z, i):
        x = z[i]
        if abs(x) > 1:
            y = 1 / x
            r, dr, bound = _horner(coeffs, y)
            if abs(r) <= eps * bound < inf:
                return None
            ratio = x * r / (n * r - y * dr)
        else:
            p, dp, bound = _horner(down, x)
            if abs(p) <= eps * bound < inf:
                return None
            ratio = p / dp
        return x - ratio / (1 - ratio * sum(1 / (x - v) for j, v in enumerate(z) if j != i))

    return step


def _horner_fixed(top_first: tuple, a: int, b: int, t: int) -> tuple:
    """p and p' at x = (a + bi) / 2**t as Gaussian integers at scale
    2**t, each product rounded down: p's error is at most sqrt(2) n
    units when |x| <= 1.  Coefficients are integers, highest first."""
    pr, pi, dr, di = top_first[0] << t, 0, 0, 0
    for c in top_first[1:]:
        dr, di = ((dr * a - di * b) >> t) + pr, ((dr * b + di * a) >> t) + pi
        pr, pi = ((pr * a - pi * b) >> t) + (c << t), (pr * b + pi * a) >> t
    return pr, pi, dr, di


def _divide_fixed(ur: int, ui: int, vr: int, vi: int, s: int) -> tuple:
    """u / v at scale 2**s for Gaussian integers u, v of one scale, each
    part rounded down; ZeroDivisionError for v = 0."""
    d = vr * vr + vi * vi
    return ((ur * vr + ui * vi) << s) // d, ((ui * vr - ur * vi) << s) // d


def _ratio(nr: int, ni: int, c: int, e: int) -> complex:
    """(nr + ni i) / (c + ei) in doubles, all four cut by one power of 2
    to 1000 bits; inf when the cut zeroes c + ei (the quotient is then
    over 2**998), ZeroDivisionError for c = e = 0."""
    k = max(abs(nr).bit_length(), abs(ni).bit_length(), abs(c).bit_length(), abs(e).bit_length()) - 1000
    if k > 0:
        nr, ni, c, e = nr >> k, ni >> k, c >> k, e >> k
    return complex(nr, ni) / complex(c, e) if k <= 0 or c or e else complex(inf)


def _fixed_step(coeffs: tuple, s: int):
    """The Aberth step on Gaussian integers z_i = (a, b) worth
    (a + bi) / 2**s, from the exact integer coefficients.  A z_i stops
    once both parts of p(z_i) are within 4n units of 2**-s, where its
    rounding error hides it, or those of its correction within 4 units.
    Beyond the unit circle p is read through r(y) = y^n p(1/y) as in
    ``_float_step``, at y = 1/x taken at scale 2**t, t = s + 2 log2|x|,
    fine enough that the Newton ratio N, which scales like |x|^2 / r',
    keeps s fractional bits: a direct Horner there carries integers of
    about n log2|x| bits, and the steps on H_-4703, whose roots reach
    10^93, took four times as long.  N is exact, and the correction
    N / (1 - N S), S = sum 1 / (x - z_j), is N + N q, q = N S / (1 - N S),
    N S summed in doubles from the exact gaps x - z_j (by ``_ratio`` past
    a double).  q's rounding moves it by about |N|^2 |S| n 2**-52, far
    below the cubic step; a q not finite leaves Newton's step N."""
    n, down, s2 = len(coeffs) - 1, coeffs[::-1], 2 * s

    def step(z, i):
        a, b = z[i]
        m = a * a + b * b
        if m >> s2:  # |x| > 1: num / den = x r(y) / (n r(y) - y r'(y))
            t = s + m.bit_length() - s2
            ya, yb = (a << (s + t)) // m, (-b << (s + t)) // m
            rr, ri, dr, di = _horner_fixed(coeffs, ya, yb, t)
            if abs(rr) <= 4 * n and abs(ri) <= 4 * n:
                return None
            nr, ni = (a * rr - b * ri) >> s, (a * ri + b * rr) >> s
            dr, di = n * rr - ((ya * dr - yb * di) >> t), n * ri - ((ya * di + yb * dr) >> t)
        else:
            nr, ni, dr, di = _horner_fixed(down, a, b, s)
            if abs(nr) <= 4 * n and abs(ni) <= 4 * n:
                return None
        nr, ni = _divide_fixed(nr, ni, dr, di, s)
        gaps = [(a - c, b - e) for j, (c, e) in enumerate(z) if j != i]
        try:  # a gap's part of 2**1023 or more divides to 0: harmless while N < 2**960
            if max(abs(nr), abs(ni)) >> 960:
                raise OverflowError
            w = complex(nr, ni)
            ns = sum(w / complex(c, e) for c, e in gaps)
        except OverflowError:
            ns = sum(_ratio(nr, ni, c, e) for c, e in gaps)
        q = ns / (1 - ns) if ns != 1 else inf
        if cmath.isfinite(q):
            qr, qi = _fixed(q.real, s), _fixed(q.imag, s)
            nr, ni = nr + ((nr * qr - ni * qi) >> s), ni + ((nr * qi + ni * qr) >> s)
        if abs(nr) <= 4 and abs(ni) <= 4:
            return None
        return a - nr, b - ni

    return step


def _float_roots(coeffs: tuple, start: list) -> list | None:
    """Aberth sweeps in Python complex from the start; None when a
    coefficient over c_n or a start point overflows a double, or the
    sweeps end on a value not finite or on two equal ones."""
    n = len(coeffs) - 1
    try:
        z = [cmath.rect(2.0**l, t) for l, t in start]
        _aberth(z, _float_step([c / coeffs[-1] for c in coeffs], 16 * n * 2.0**-53))
    except (OverflowError, ZeroDivisionError):
        return None
    if not all(map(cmath.isfinite, z)) or len(set(z)) < n:
        return None
    return z


def _shift(v: int, k: int) -> int:
    """v * 2**k rounded down."""
    return v << k if k >= 0 else v >> -k


def _fixed(v: float, k: int) -> int:
    """v * 2**k rounded down, exactly."""
    n, d = v.as_integer_ratio()
    return _shift(n, k) // d


def _polar_fixed(l: float, t: float, s: int) -> tuple:
    """2**l e^(it) as a Gaussian integer at scale 2**s; 0 for l = -inf."""
    if l == -inf:
        return 0, 0
    e = floor(l)
    w = cmath.rect(2.0 ** (l - e), t)
    return _fixed(w.real, s + e), _fixed(w.imag, s + e)


# sqrt(2) rounded up as a pair: the modulus bound of a Gaussian integer
# whose parts are each off by less than one unit
_SQRT2 = (isqrt(2 << 104) + 1, -52)


def _residual(top_first: tuple, a: int, b: int, s: int) -> tuple:
    """|p(z)| rounded up as a pair, at z = (a + bi) / 2**s, for the
    integer coefficients of p, highest first: Horner on Gaussian-integer
    mantissas P at exponent e, each step P z + c formed exactly and cut
    to t bits rounding down, t being 2 log2 n + 8 bits over the longer
    of z's mantissas and s, with the running error bound ``err`` of
    ``_weierstrass_discs``."""
    t = max(s, abs(a).bit_length(), abs(b).bit_length()) + 2 * len(top_first).bit_length() + 8
    za, err = _mag((a, b, -s)), _ZERO
    pr, pi, e = top_first[0], 0, 0  # P = (pr + pi i) * 2**e
    for c in top_first[1:]:
        pr, pi, e = pr * a - pi * b, pr * b + pi * a, e - s
        if e >= 0:
            pr, pi, e = (pr << e) + c, pi << e, 0
        else:
            pr += c << -e
        if err[0]:
            err = _mul_up(err, za)
        k = max(abs(pr).bit_length(), abs(pi).bit_length()) - t
        if k > 0:
            low = (1 << k) - 1
            if pr & low or pi & low:  # the cut drops a nonzero bit
                err = _add_up(err, (_SQRT2[0], _SQRT2[1] + e + k))
            pr, pi, e = pr >> k, pi >> k, e + k
    return _add_up(_mag((pr, pi, e)), err)


def _weierstrass_radii(coeffs: tuple, z: list, s: int) -> tuple | None:
    """The radii 2n |w_i| of ``_weierstrass_discs`` rounded up as pairs,
    and the lower bounds of |z_i - z_j| for i < j, from the Gaussian
    integers (a_i, b_i) of z_i = (a_i + b_i i) / 2**s; None when two z_i
    are equal.  Each |z_i - z_j| is the modulus of the exact integer
    difference rounded down, formed once and joining both products."""
    n, top_first = len(z), coeffs[::-1]
    dens, gaps = [_down(abs(coeffs[-1]), 0)] * n, {}
    for i, (a, b) in enumerate(z):
        for j in range(i + 1, n):
            c, d = z[j]
            gap = gaps[i, j] = _mag((a - c, b - d, -s), round_floor)
            if not gap[0]:
                return None
            dens[i], dens[j] = _mul_down(dens[i], gap), _mul_down(dens[j], gap)
    two_n = _up(2 * n, 0)
    radii = [_mul_up(two_n, _div_up(_residual(top_first, a, b, s), den)) for (a, b), den in zip(z, dens)]
    return radii, gaps


def _weierstrass_discs(coeffs: tuple, z: list, s: int, target: tuple) -> list[BigFloat] | None:
    """The discs D(z_i, 2n |w_i|), w_i = p(z_i) / (c_n prod_(j != i) (z_i - z_j)),
    about the exact z_i = (a_i + b_i i) / 2**s, for the integer
    coefficients of p, lowest first; None when two z_i are equal, a disc
    is wider than target or two discs meet.

    The bounds are rigorous although only Gaussian integers and 53-bit
    pairs are formed: |w_i| <= (|P~| + err) / D_i, all rounded up.  The
    denominator D_i is |c_n| prod |z_i - z_j|, each factor and product
    rounded down.  The residual is Higham's running error bound for
    Horner (Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    2002, sec. 5.1), made simpler by an exact z: ``_residual`` computes
    P~_n = c_n and P~_k = P~_(k+1) z + c_k + d_k, where d_k is what the
    cut to t bits drops, |d_k| < sqrt(2) ulp_k, or 0 when it drops only
    zeros.  The exact P_k obeys the same recurrence without d_k, so
    E_k = P~_k - P_k has E_n = 0 and |E_k| <= |E_(k+1)| |z| + |d_k|, and
    err, which follows this bound in pairs rounded up, bounds |E_0|:
    |p(z_i)| = |P_0| <= |P~_0| + err.  A z_i at which every cut is exact
    and p vanishes, such as a root at 0 placed there by Bini's start,
    gets radius 0.  Only the output discs are mpmath numbers."""
    out = _weierstrass_radii(coeffs, z, s)
    if out is None:
        return None
    radii, gaps = out
    if any(_sub_down(r, target)[0] for r in radii) or not all(
        _sub_down(gap, _add_up(radii[i], radii[j]))[0] for (i, j), gap in gaps.items()
    ):
        return None
    discs = []
    for (a, b), r in zip(z, radii):
        v = mp.make_mpc((from_man_exp(a, -s), from_man_exp(b, -s)))
        discs.append(BigFloat._made(v, r, _mag(v)))
    return discs


def _dk_roots(poly: IntPoly, digits: int) -> list[BigFloat]:
    """Pairwise disjoint discs of radius <= 10**-digits, each holding one
    root of a squarefree integer polynomial p of degree n >= 2.  (The
    name, from the Durand-Kerner iteration this replaced, is kept for
    the benchmark's tracer.)

    As in MPSolve (Bini-Fiorentino, Numer. Algorithms 23, 2000), only
    the last step is rigorous.  Aberth sweeps (Bini, Numer. Algorithms
    13, 1996) run in Python complex from Bini's start (``_start``),
    skipped when a coefficient over c_n or a start point overflows a
    double or the sweeps end on a value not finite or twice; then on
    Gaussian integers scaled by 2**mp.prec, from the exact integer
    coefficients, the Aberth sum in doubles (``_fixed_step``), which
    suffice as the sweeps only choose the z_i; then a certificate with
    no float in it, on those Gaussian integers.  For distinct z_i, each connected component of
    the union of the discs D(z_i, n |w_i|) made of m discs holds m roots
    (Braess-Hadeler, Numer. Math. 21, 1973), so disjoint discs
    D(z_i, 2n |w_i|_upper) from ``_weierstrass_discs`` hold one each.
    When discs are too wide or meet, or two iterates are equal there,
    ``certify`` doubles the precision and the iterates carry over; two
    equal iterates in a sweep, or p'(z_i) = 0, restart the next attempt
    from the start.
    """
    coeffs = poly.coeffs
    start = _start(coeffs)
    z, scale = _float_roots(coeffs, start), None
    target = _pair(from_rational(1, 10**digits, _RADIUS_BITS, round_floor))

    def attempt(dps):
        nonlocal z, scale
        with workdps(dps):
            s = mp.prec
            if z is None:
                z = [_polar_fixed(l, t, s) for l, t in start]
            elif scale is None:  # the float stage's roots
                z = [(_fixed(v.real, s), _fixed(v.imag, s)) for v in z]
            else:
                z = [(_shift(a, s - scale), _shift(b, s - scale)) for a, b in z]
            scale = s
            try:
                _aberth(z, _fixed_step(coeffs, s))
            except ZeroDivisionError:  # two equal iterates, or p'(z_i) = 0
                z = None
                return None
            return _weierstrass_discs(coeffs, z, s, target)

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
    ``_weierstrass_discs`` to hold exactly one root.
    """
    if poly.degree < 1:
        raise ValueError("poly_roots requires degree >= 1")
    out: list[BigFloat] = []
    for factor, mult in squarefree_decomposition(poly):
        if factor.degree == 1:
            c0, c1 = factor.coeffs
            with workdps(max(precision_digits + 15, 30)):
                discs = [BigFloat(Fraction(-c0, c1))]
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
