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
  enclosure into a ball: the midpoint is exact and the radius rounded
  up, so the ball contains [lo, hi] whatever the ambient precision.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import mpmath
from mpmath import mp, mpc, mpf, workdps
from mpmath.libmp import mpf_add, mpf_shift, mpf_sub, round_ceiling

DEFAULT_DIGITS = 64

# Doublings of the working precision root isolation may take.
MAX_ESCALATIONS = 10


class PrecisionError(ArithmeticError):
    """Requested certified accuracy could not be reached within the
    escalation budget."""


class ConstructionError(ValueError):
    """A requested object cannot be built within configured bounds."""


class VerificationFailure(RuntimeError):
    """An experiment's verification predicate failed."""


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


def _poly_gcd_q(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic gcd over Q, coefficients lowest first."""
    def norm(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    a, b = norm(list(a)), norm(list(b))
    while b:
        # a mod b
        r = list(a)
        db, lb = len(b) - 1, b[-1]
        while len(r) - 1 >= db and norm(r):
            dr = len(r) - 1
            if dr < db:
                break
            q = r[-1] / lb
            for i in range(db + 1):
                r[dr - db + i] -= q * b[i]
            norm(r)
        a, b = b, norm(r)
    if a:
        la = a[-1]
        a = [c / la for c in a]
    return a


def squarefree_decomposition(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun's algorithm: [(g_i, m_i)] with p = lc * prod g_i^{m_i}, each
    g_i squarefree, primitive, with positive leading coefficient."""
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    fa = [Fraction(c) for c in p.coeffs]
    fb = [Fraction(c) for c in p.derivative().coeffs]
    g = _poly_gcd_q(fa, fb)
    if len(g) - 1 == 0:
        q = p.primitive()
        if q.leading < 0:
            q = IntPoly([-c for c in q.coeffs])
        return [(q, 1)]

    def to_intpoly(fr: list[Fraction]) -> IntPoly:
        from math import lcm
        den = 1
        for c in fr:
            den = lcm(den, c.denominator)
        ip = IntPoly([int(c * den) for c in fr]).primitive()
        if ip.coeffs and ip.leading < 0:
            ip = IntPoly([-c for c in ip.coeffs])
        return ip

    def q_div(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
        num = list(num)
        out = [Fraction(0)] * (len(num) - len(den) + 1)
        dd, ld = len(den) - 1, den[-1]
        for k in range(len(out) - 1, -1, -1):
            c = num[k + dd] / ld
            out[k] = c
            for i in range(dd + 1):
                num[k + i] -= c * den[i]
        return out

    out: list[tuple[IntPoly, int]] = []
    w = q_div(fa, g)
    y = q_div(fb, g)
    m = 1
    while True:
        wd = [Fraction(i * c) for i, c in enumerate(w)][1:]
        z = [a - b for a, b in zip(y + [Fraction(0)] * len(wd), wd + [Fraction(0)] * len(y))]
        while z and z[-1] == 0:
            z.pop()
        if not z:
            if len(w) > 1:
                out.append((to_intpoly(w), m))
            break
        g2 = _poly_gcd_q(list(w), list(z))
        if len(g2) > 1:
            out.append((to_intpoly(g2), m))
        w = q_div(w, g2)
        y = q_div(z, g2)
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


# Bits of a radius built by BigFloat.from_bounds (a double's mantissa).
_RADIUS_BITS = 53


class BigFloat:
    """A real or complex value with a certified absolute error radius.

    ``value`` is an mpmath number; ``radius`` bounds the distance to the
    exact quantity being represented.  All arithmetic enlarges the
    radius conservatively (true error <= reported radius), including a
    rounding-slop term for the op itself.
    """

    __slots__ = ("value", "radius")

    def __init__(self, value, radius=0):
        self.value = mpmath.mpmathify(value)
        r = mpf(radius)
        if r < 0:
            raise ValueError("radius must be nonnegative")
        self.radius = r

    @classmethod
    def from_bounds(cls, lo, hi) -> "BigFloat":
        """The ball enclosing the real interval [lo, hi]: its midpoint is
        exact and its radius rounded up to _RADIUS_BITS, whatever the
        ambient precision."""
        a, b = mpmath.mpmathify(lo)._mpf_, mpmath.mpmathify(hi)._mpf_
        rad = mp.make_mpf(mpf_shift(mpf_sub(b, a, _RADIUS_BITS, round_ceiling), -1))
        if rad < 0:
            raise ValueError("interval bounds out of order")
        ball = cls.__new__(cls)
        ball.value = mp.make_mpf(mpf_shift(mpf_add(a, b, 0), -1))
        ball.radius = rad
        return ball

    @property
    def is_complex(self) -> bool:
        return isinstance(self.value, mpc) and self.value.imag != 0

    def __repr__(self) -> str:
        return f"BigFloat({mpmath.nstr(self.value, 17)} ± {mpmath.nstr(self.radius, 3)})"

    def __add__(self, other) -> "BigFloat":
        other = _as_bigfloat(other)
        v = self.value + other.value
        return BigFloat(v, self.radius + other.radius + _ulp_slop(v))

    __radd__ = __add__

    def __neg__(self) -> "BigFloat":
        return BigFloat(-self.value, self.radius)

    def __sub__(self, other) -> "BigFloat":
        return self + (-_as_bigfloat(other))

    def __rsub__(self, other) -> "BigFloat":
        return _as_bigfloat(other) + (-self)

    def __mul__(self, other) -> "BigFloat":
        other = _as_bigfloat(other)
        v = self.value * other.value
        r = (
            abs(self.value) * other.radius
            + abs(other.value) * self.radius
            + self.radius * other.radius
            + _ulp_slop(v)
        )
        return BigFloat(v, r)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "BigFloat":
        other = _as_bigfloat(other)
        od = abs(other.value)
        if not od > other.radius:
            raise PrecisionError("division by a disc containing zero")
        v = self.value / other.value
        r = (self.radius + abs(v) * other.radius) / (od - other.radius) + _ulp_slop(v)
        return BigFloat(v, r)

    def abs_bounds(self) -> tuple[mpf, mpf]:
        # outward absolute guard keeps the bounds valid even when the
        # caller's working precision is below the value's own
        a = abs(self.value)
        guard = 4 * (a + self.radius) * mpf(2) ** (-mp.prec)
        lo = a - self.radius - guard
        return (lo if lo > 0 else mpf(0), a + self.radius + guard)

    def exp(self) -> "BigFloat":
        v = mpmath.exp(self.value)
        r = abs(v) * mpmath.expm1(self.radius) if self.radius else mpf(0)
        return BigFloat(v, r + _ulp_slop(v))

    def log_abs(self) -> "BigFloat":
        """log|self|; requires the disc to exclude zero.  The slop has an
        absolute floor: rounding |value| costs up to one ulp of 1 in the
        log, however small the log itself is."""
        lo, hi = self.abs_bounds()
        if not lo > 0:
            raise PrecisionError("log of a disc containing zero")
        v = mpmath.log(abs(self.value))
        r = self.radius / lo + _ulp_slop(v, 1)
        return BigFloat(v, r)

    def sqrt_pos(self) -> "BigFloat":
        """Square root of a certified-positive real disc."""
        lo, hi = self.abs_bounds()
        if not lo > 0:
            raise PrecisionError("sqrt of a disc containing zero")
        v = mpmath.sqrt(abs(self.value))
        r = self.radius / (2 * mpmath.sqrt(lo)) + _ulp_slop(v)
        return BigFloat(v, r)

    def pow_int(self, n: int) -> "BigFloat":
        if n < 0:
            return BigFloat(1) / self.pow_int(-n)
        out = BigFloat(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


def _as_bigfloat(x) -> BigFloat:
    if isinstance(x, BigFloat):
        return x
    if isinstance(x, Fraction):
        v = mpf(x.numerator) / mpf(x.denominator)
        return BigFloat(v, _ulp_slop(v))
    return BigFloat(x)


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def _dk_roots(poly: IntPoly, digits: int) -> list[BigFloat]:
    """Durand-Kerner simultaneous iteration on a squarefree polynomial.

    Returns one disc per root with a posteriori Weierstrass radii
    (each disc D(z_i, n*|w_i|) contains a root of the polynomial; once
    the discs are pairwise disjoint each contains exactly one).
    """
    n = poly.degree
    target = mpf(10) ** (-digits)
    z = None  # iterates carry over to the next precision

    def attempt(dps):
        nonlocal z
        with workdps(dps):
            lc = mpf(poly.leading)
            monic = [mpf(c) / lc for c in poly.coeffs]
            cauchy = 1 + max(abs(c) for c in monic[:-1]) if n > 0 else mpf(1)
            if z is None:
                z = [
                    cauchy * mpmath.expjpi(2 * mpf(k) / n + mpf("0.2843"))
                    for k in range(n)
                ]
            else:
                z = [mpc(v) for v in z]

            def peval(x):
                acc = mpc(1)
                for c in reversed(monic[:-1]):
                    acc = acc * x + c
                return acc

            tol = mpf(10) ** (-(dps - 6))
            w = [mpf(0)] * n
            for _ in range(60 + 40 * n):
                delta = mpf(0)
                for i in range(n):
                    d = mpc(1)
                    for j in range(n):
                        if j != i:
                            d *= z[i] - z[j]
                    if d == 0:
                        d = mpc(tol)
                    w[i] = peval(z[i]) / d
                    z[i] = z[i] - w[i]
                    aw = abs(w[i])
                    if aw > delta:
                        delta = aw
                if delta < tol * max(cauchy, 1):
                    break
            radii = []
            ok = True
            for i in range(n):
                d = mpc(1)
                for j in range(n):
                    if j != i:
                        d *= z[i] - z[j]
                if d == 0:
                    ok = False
                    radii.append(mpf("inf"))
                    continue
                wi = abs(peval(z[i]) / d)
                radii.append(2 * n * wi + _ulp_slop(z[i]))
            if ok and max(radii) <= target:
                # isolation: discs pairwise disjoint
                isolated = all(
                    abs(z[i] - z[j]) > radii[i] + radii[j]
                    for i in range(n)
                    for j in range(i + 1, n)
                )
                if isolated:
                    return [BigFloat(z[i], radii[i]) for i in range(n)]
        return None

    dps = max(digits + 15, 2 * digits, 30)
    return certify(
        attempt, dps, dps << MAX_ESCALATIONS, f"root discs of radius <= 1e-{digits}"
    )


def poly_roots(poly: IntPoly, precision_digits: int = DEFAULT_DIGITS) -> list[BigFloat]:
    """All complex roots of an integer polynomial, with multiplicity.

    Each returned disc has radius at most 10**(-precision_digits).
    Repeated roots are handled by squarefree decomposition first, so the
    returned discs for distinct roots are pairwise isolating.  Rational
    roots of linear factors are returned with radius 0 when exactly
    representable at working precision.
    """
    if poly.degree < 1:
        raise ValueError("poly_roots requires degree >= 1")
    out: list[BigFloat] = []
    for factor, mult in squarefree_decomposition(poly):
        if factor.degree == 1:
            c0, c1 = factor.coeffs
            root = Fraction(-c0, c1)
            with workdps(max(precision_digits + 15, 30)):
                v = mpf(root.numerator) / mpf(root.denominator)
                rad = mpf(0) if v == root else _ulp_slop(v)
                discs = [BigFloat(v, rad)]
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
