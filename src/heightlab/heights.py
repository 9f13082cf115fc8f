"""Absolute logarithmic Weil heights of algebraic numbers.

Heights are computed through the Mahler measure of the minimal
polynomial: for alpha with primitive integer minimal polynomial p of
degree d and leading coefficient lc,

    height(alpha) = (log|lc| + sum over roots of log max(1, |root|)) / d.

Two value representations coexist.  Exact heights are finite rational
combinations  c + sum_p r_p * log p  over primes (``LogCombination``),
closed under the arithmetic the rest of the package needs, and admit a
*certified* sign/comparison routine: coefficient identity decides
equality outright, and any nonzero combination is bounded away from
zero, so outward-rounded interval evaluation at escalating precision
always terminates.  (A nonzero combination cannot vanish: with zero
constant term that is multiplicative independence of the primes, and
with nonzero rational constant it would make e^c algebraic.)  Numeric
heights are ``BigFloat`` discs.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import mpmath
from mpmath import iv, mp, mpf, workdps
from mpmath.libmp import mpf_add, mpf_sub

from .numcore import (
    DEFAULT_DIGITS,
    BigFloat,
    IntPoly,
    PrecisionError,
    _ulp_slop,
    certify,
    factorint,
    is_prime,
    poly_roots,
)

LESS = "less"
EQUAL = "equal"
GREATER = "greater"
INCONCLUSIVE = "inconclusive"


@contextmanager
def _iv_workdps(dps: int):
    """Interval and mp working precision both at dps, so endpoints read
    off an enclosure as mpf are not rounded to the ambient precision."""
    old = iv.dps
    iv.dps = dps
    try:
        with workdps(dps):
            yield
    finally:
        iv.dps = old


def _iv_fraction(q: Fraction):
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


class LogCombination:
    """Exact value  const + sum_p coeffs[p] * log(p)  (p prime, all
    coefficients rational).  Immutable."""

    __slots__ = ("const", "coeffs")

    def __init__(self, coeffs=None, const=0):
        cs = {}
        for p, r in (coeffs or {}).items():
            r = Fraction(r)
            if r == 0:
                continue
            p = int(p)
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            cs[p] = r
        self.coeffs = dict(sorted(cs.items()))
        self.const = Fraction(const)

    @staticmethod
    def log_of_rational(q) -> "LogCombination":
        """log(q) for a positive rational q, expanded over primes."""
        q = Fraction(q)
        if q <= 0:
            raise ValueError("need a positive rational")
        cs: dict[int, Fraction] = {}
        for p, e in factorint(q.numerator).items():
            cs[p] = cs.get(p, Fraction(0)) + e
        for p, e in factorint(q.denominator).items():
            cs[p] = cs.get(p, Fraction(0)) - e
        return LogCombination(cs)

    def is_zero(self) -> bool:
        return not self.coeffs and self.const == 0

    def __add__(self, other: "LogCombination") -> "LogCombination":
        cs = dict(self.coeffs)
        for p, r in other.coeffs.items():
            cs[p] = cs.get(p, Fraction(0)) + r
        return LogCombination(cs, self.const + other.const)

    def __neg__(self) -> "LogCombination":
        return LogCombination({p: -r for p, r in self.coeffs.items()}, -self.const)

    def __sub__(self, other: "LogCombination") -> "LogCombination":
        return self + (-other)

    def scale(self, q) -> "LogCombination":
        q = Fraction(q)
        return LogCombination(
            {p: r * q for p, r in self.coeffs.items()}, self.const * q
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LogCombination)
            and self.coeffs == other.coeffs
            and self.const == other.const
        )

    def __hash__(self):
        return hash(("LogCombination", self.const, tuple(self.coeffs.items())))

    def interval(self, dps: int):
        """Outward-rounded enclosure at the given working precision."""
        with _iv_workdps(dps):
            acc = _iv_fraction(self.const)
            for p, r in self.coeffs.items():
                acc += _iv_fraction(r) * iv.log(iv.mpf(p))
            return mpf(acc.a), mpf(acc.b)

    def evaluate(self, precision_digits: int = DEFAULT_DIGITS) -> BigFloat:
        return BigFloat.from_bounds(*self.interval(precision_digits + 10))

    def sign(self, max_dps: int = 1 << 14) -> int:
        """Certified sign in {-1, 0, +1}.

        Zero only via coefficient identity; otherwise interval
        evaluation is escalated until the enclosure excludes zero.
        """
        if not self.coeffs:
            return (self.const > 0) - (self.const < 0)

        def attempt(dps):
            lo, hi = self.interval(dps)
            return 1 if lo > 0 else -1 if hi < 0 else None

        return certify(attempt, 40, max_dps, "sign of a log combination")

    def compare(self, other: "LogCombination") -> str:
        s = (self - other).sign()
        return {1: GREATER, 0: EQUAL, -1: LESS}[s]

    def __repr__(self) -> str:
        return f"LogCombination({self})"

    def __str__(self) -> str:
        parts = []
        if self.const != 0:
            parts.append(str(self.const))
        for p, r in self.coeffs.items():
            if r == 1:
                term = f"log({p})"
            elif r == -1:
                term = f"-log({p})"
            else:
                term = f"{r}*log({p})"
            if parts and not term.startswith("-"):
                parts.append("+ " + term)
            elif parts:
                parts.append("- " + term[1:])
            else:
                parts.append(term)
        return " ".join(parts) if parts else "0"


class HeightValue:
    """A height, either exact (rational combination of logs of primes)
    or numeric (disc with certified radius).  ``is_exact`` records which
    form is held."""

    __slots__ = ("exact", "numeric", "is_exact")

    def __init__(self, exact: LogCombination | None = None, numeric: BigFloat | None = None):
        if (exact is None) == (numeric is None):
            raise ValueError("exactly one of exact/numeric must be given")
        if exact is not None and exact.const != 0:
            raise ValueError("height values carry no rational constant term")
        self.exact = exact
        self.numeric = numeric
        self.is_exact = exact is not None

    @staticmethod
    def zero() -> "HeightValue":
        return HeightValue(exact=LogCombination())

    def evaluate(self, precision_digits: int = DEFAULT_DIGITS) -> BigFloat:
        if self.is_exact:
            return self.exact.evaluate(precision_digits)
        return self.numeric

    def bounds(self, dps: int) -> tuple[mpf, mpf]:
        """Enclosure: outward at dps if exact, the disc's exact ends if
        numeric."""
        if self.is_exact:
            return self.exact.interval(dps)
        v, r = self.numeric.value._mpf_, self.numeric.radius._mpf_
        return mp.make_mpf(mpf_sub(v, r, 0)), mp.make_mpf(mpf_add(v, r, 0))

    def __repr__(self) -> str:
        if self.is_exact:
            return f"HeightValue({self.exact})"
        return f"HeightValue({self.numeric!r})"


def height_value_compare(x: HeightValue, y: HeightValue) -> str:
    """Certified comparison of two height values.

    Exact vs exact is decided symbolically (coefficient identity for
    equality, escalating certified evaluation otherwise).  When a
    numeric disc is involved, its radius is respected as hard
    uncertainty: overlapping enclosures give "inconclusive".
    """
    if x.is_exact and y.is_exact:
        return x.exact.compare(y.exact)

    def attempt(dps):
        xlo, xhi = x.bounds(dps)
        ylo, yhi = y.bounds(dps)
        if xhi < ylo:
            return LESS
        if ylo == yhi and xlo == xhi and xlo == ylo:
            return EQUAL
        if xlo > yhi:
            return GREATER
        return None

    # two discs do not sharpen with precision: one attempt decides
    max_dps = 320 if x.is_exact or y.is_exact else 40
    try:
        return certify(attempt, 40, max_dps, "height comparison")
    except PrecisionError:
        return INCONCLUSIVE


# ---------------------------------------------------------------------------
# algebraic numbers
# ---------------------------------------------------------------------------

def rational_roots(poly: IntPoly) -> list[Fraction]:
    """All rational roots, found exactly via divisor candidates."""
    if poly.degree < 1:
        return []
    coeffs = poly.coeffs
    k = 0
    while coeffs[k] == 0:
        k += 1
    roots = [Fraction(0)] if k > 0 else []
    c0, lc = abs(coeffs[k]), abs(poly.leading)
    if c0 > 10**24 or lc > 10**24:
        # divisor enumeration would be unreasonable; callers treat the
        # filter as inconclusive
        return roots

    def divisors(n: int) -> list[int]:
        ds = [1]
        for p, e in factorint(n).items():
            ds = [d * p**i for d in ds for i in range(e + 1)]
        return ds

    trimmed = IntPoly(coeffs[k:])
    for num in divisors(c0):
        for den in divisors(lc):
            for s in (1, -1):
                cand = Fraction(s * num, den)
                if trimmed(cand) == 0:
                    roots.append(cand)
    return sorted(set(roots))


def _eisenstein_certifies(poly: IntPoly) -> bool:
    """Eisenstein's criterion at primes dividing the constant term,
    tried on p(x), p(x+1) and p(x-1)."""
    def shift(p: IntPoly, a: int) -> IntPoly:
        out = [0] * (p.degree + 1)
        for i, c in enumerate(p.coeffs):
            b = 1  # binomial expansion of c * (x + a)^i
            for j in range(i + 1):
                out[j] += c * b * (a ** (i - j))
                b = b * (i - j) // (j + 1)
        return IntPoly(out)

    for cand in (poly, shift(poly, 1), shift(poly, -1)):
        if not cand.coeffs or cand.coeffs[0] == 0:
            continue
        c0 = abs(cand.coeffs[0])
        if c0 > 10**18:
            continue
        for p in factorint(c0):
            if cand.leading % p != 0 and c0 % (p * p) != 0:
                if all(c % p == 0 for c in cand.coeffs[:-1]):
                    return True
    return False


class AlgebraicNumber:
    """An algebraic number: primitive integer minimal polynomial with
    positive leading coefficient, plus an isolating approximation.

    Irreducibility is required but only screened by cheap filters
    (exact rational-root search; Eisenstein at shifts 0, +-1; degrees
    <= 3 are settled completely by the root search).  When the filters
    are inconclusive the caller must vouch via ``trust_irreducible``;
    ``irreducibility_certified`` records which case applied.
    """

    __slots__ = ("minpoly", "approx", "irreducibility_certified")

    def __init__(self, minpoly: IntPoly, approx=None, trust_irreducible: bool = False):
        if minpoly.degree < 1:
            raise ValueError("minimal polynomial must have degree >= 1")
        minpoly = minpoly.primitive()
        if minpoly.leading < 0:
            minpoly = IntPoly([-c for c in minpoly.coeffs])
        if minpoly.degree >= 2:
            rr = rational_roots(minpoly)
            if rr:
                raise ValueError(f"reducible: rational root {rr[0]}")
            if minpoly.degree <= 3:
                self.irreducibility_certified = True
            elif _eisenstein_certifies(minpoly):
                self.irreducibility_certified = True
            elif trust_irreducible:
                self.irreducibility_certified = False
            else:
                raise ValueError(
                    "irreducibility filters inconclusive; pass "
                    "trust_irreducible=True to accept the polynomial"
                )
        else:
            self.irreducibility_certified = True
        self.minpoly = minpoly

        if approx is None:
            self.approx = poly_roots(minpoly, 30)[0]
        else:
            if not isinstance(approx, BigFloat):
                approx = BigFloat(approx, mpf("1e-6"))
            discs = poly_roots(minpoly, 30)
            best = min(discs, key=lambda d: abs(d.value - approx.value))
            self.approx = best

    @property
    def degree(self) -> int:
        return self.minpoly.degree

    def __repr__(self) -> str:
        return (
            f"AlgebraicNumber({self.minpoly!r}, "
            f"approx={mpmath.nstr(self.approx.value, 10)})"
        )


def mahler_height(poly: IntPoly, precision_digits: int = 40) -> BigFloat:
    """(log|lc| + sum log max(1,|root|)) / deg for any integer
    polynomial of positive degree, with certified radius.

    Root discs straddling the unit circle contribute the midpoint of
    [0, log(|z|+r)] with matching radius, so heights of roots of unity
    come out as 0 within a tiny certified radius.
    """
    if poly.degree < 1:
        raise ValueError("degree >= 1 required")
    roots = poly_roots(poly, precision_digits + 10)
    with workdps(precision_digits + 15):
        total = BigFloat(mpmath.log(abs(poly.leading)), _ulp_slop(mpf(poly.leading)))
        for disc in roots:
            lo, hi = disc.abs_bounds()
            if hi <= 1:
                continue
            if lo >= 1:
                total = total + disc.log_abs()
            else:
                top = mpmath.log(hi)
                total = total + BigFloat(top / 2, top / 2 + _ulp_slop(top))
        total = total * BigFloat(Fraction(1, poly.degree))
        v, r = total.value, total.radius
        if v < 0:
            # mathematically >= 0; fold the undershoot into the radius
            return BigFloat(mpf(0), r + abs(v))
    return BigFloat(v, r)


def weil_height(alpha: AlgebraicNumber, precision_digits: int = 40) -> HeightValue:
    """Absolute logarithmic Weil height, via the Mahler measure of the
    minimal polynomial.  Independent of which conjugate ``approx``
    singles out."""
    return HeightValue(numeric=mahler_height(alpha.minpoly, precision_digits))


def weighted_height(alpha: AlgebraicNumber, gamma, precision_digits: int = 40) -> HeightValue:
    """Degree-weighted height  deg(alpha)**gamma * height(alpha)."""
    h = weil_height(alpha, precision_digits)
    b = h.numeric
    g = Fraction(gamma)
    with workdps(precision_digits + 15):
        if g.denominator == 1:
            f = _as_fraction_bigfloat(Fraction(alpha.degree) ** g.numerator)
        else:
            v = mpf(alpha.degree) ** (mpf(g.numerator) / g.denominator)
            f = BigFloat(v, _ulp_slop(v))
        scaled = b * f
    return HeightValue(numeric=scaled)


def _as_fraction_bigfloat(q: Fraction) -> BigFloat:
    v = mpf(q.numerator) / mpf(q.denominator)
    r = mpf(0) if v == q else _ulp_slop(v)
    return BigFloat(v, r)
