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

Degree weights d**gamma are settled here for the whole package:
``rational_power`` gives the exact value when it is rational,
``degree_weight`` is the one enclosure of it, a ``BigFloat``, and
``degree_weighted_ball`` the one ball of d**gamma times an exact
height.  Every other enclosure in the package is a ``BigFloat`` too;
mpmath ``iv`` is left inside ``LogCombination.interval`` alone.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import iv, mpf, workdps

from .numcore import (
    DEFAULT_DIGITS,
    BigFloat,
    IntPoly,
    PrecisionError,
    _ulp_slop,  # bound for bench/test_bench.py only; just numcore calls it
    certify_order,
    factorint,
    is_prime,
    log_plus_sum,
    poly_roots,
)

LESS = "less"
EQUAL = "equal"
GREATER = "greater"
INCONCLUSIVE = "inconclusive"
SIGN_MAX_DPS = 1 << 14  # the most digits LogCombination.sign escalates to


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


def rational_power(d: int, gamma) -> Fraction | None:
    """d**gamma for a positive integer d when that is rational, else None.
    Integer gamma needs no factoring; otherwise d**gamma is rational
    exactly when gamma times every prime exponent of d is an integer."""
    gamma = Fraction(gamma)
    if gamma.denominator == 1 or d == 1:
        return Fraction(d) ** gamma.numerator
    out = Fraction(1)
    for p, e in factorint(d).items():
        k = e * gamma
        if k.denominator != 1:
            return None
        out *= Fraction(p) ** k.numerator
    return out


@lru_cache(maxsize=1024)
def degree_weight(d: int, gamma, precision_digits: int = 40) -> BigFloat:
    """Ball enclosing d**gamma, as exp(gamma * log d) at precision_digits
    + 15.  Balls are immutable, so one is kept per argument triple."""
    with workdps(precision_digits + 15):
        return (BigFloat(d).log_abs() * BigFloat(Fraction(gamma))).exp()


def degree_weighted_ball(comb: LogCombination, d: int, gamma, dps: int) -> BigFloat:
    """The ball of d**gamma times comb, each enclosed at dps digits, their
    product taken at dps + 3."""
    with workdps(dps + 3):
        return degree_weight(d, gamma, dps) * comb.ball(dps)


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

    @classmethod
    def _canonical(cls, coeffs: dict, const: Fraction) -> "LogCombination":
        """From Fraction coefficients keyed by already validated primes
        and a Fraction constant: drops zeros and sorts, and checks
        nothing."""
        out = cls.__new__(cls)
        out.coeffs = {p: r for p, r in sorted(coeffs.items()) if r}
        out.const = const
        return out

    def is_zero(self) -> bool:
        return not self.coeffs and self.const == 0

    def _plus(self, other: "LogCombination", sign: int) -> "LogCombination":
        cs = dict(self.coeffs)
        for p, r in other.coeffs.items():
            cs[p] = cs.get(p, 0) + sign * r
        return LogCombination._canonical(cs, self.const + sign * other.const)

    def __add__(self, other: "LogCombination") -> "LogCombination":
        return self._plus(other, 1)

    def __sub__(self, other: "LogCombination") -> "LogCombination":
        return self._plus(other, -1)

    def __neg__(self) -> "LogCombination":
        return self.scale(-1)

    def scale(self, q) -> "LogCombination":
        q = Fraction(q)
        return LogCombination._canonical(
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

    def ball(self, dps: int) -> BigFloat:
        """The ball of ``interval(dps)``."""
        return BigFloat.from_bounds(*self.interval(dps))

    def evaluate(self, precision_digits: int = DEFAULT_DIGITS) -> BigFloat:
        return self.ball(precision_digits + 10)

    def sign(self) -> int:
        """Certified sign in {-1, 0, +1}.

        Zero only via coefficient identity; otherwise interval
        evaluation is escalated until the enclosure excludes zero.
        """
        if not self.coeffs:
            return (self.const > 0) - (self.const < 0)
        return certify_order(
            self.interval, lambda dps: (0, 0), 40, SIGN_MAX_DPS, "sign of a log combination"
        )

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
        return self.numeric.bounds()

    def __repr__(self) -> str:
        if self.is_exact:
            return f"HeightValue({self.exact})"
        return f"HeightValue({self.numeric!r})"


def height_value_compare(x: HeightValue, y: HeightValue) -> str:
    """Certified comparison of two height values.

    Exact vs exact is decided symbolically (coefficient identity for
    equality, escalating certified evaluation otherwise).  When a
    numeric disc is involved, its radius is respected as hard
    uncertainty: overlapping enclosures give "inconclusive", unless
    they are the same point.
    """
    if x.is_exact and y.is_exact:
        return x.exact.compare(y.exact)
    # two discs do not sharpen with precision: one attempt decides
    max_dps = 320 if x.is_exact or y.is_exact else 40
    try:
        s = certify_order(x.bounds, y.bounds, 40, max_dps, "height comparison")
    except PrecisionError:
        (xlo, xhi), (ylo, yhi) = x.bounds(40), y.bounds(40)
        return EQUAL if xlo == xhi == ylo == yhi else INCONCLUSIVE
    return GREATER if s > 0 else LESS


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
        minpoly = minpoly.primitive_positive()
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

    Root discs straddling the unit circle contribute the ball of
    [0, log(|z|+r)] (``log_plus_sum``), so heights of roots of unity
    come out as 0 within a tiny certified radius.  log|lc| of the exact
    integer lc is 0 exactly for lc = +-1, and otherwise the rounded log
    with an allowance relative to it alone: the absolute floor of
    ``BigFloat.log_abs`` pays for a rounded |value|, which lc is not.
    """
    if poly.degree < 1:
        raise ValueError("degree >= 1 required")
    roots = poly_roots(poly, precision_digits + 10)
    with workdps(precision_digits + 15):
        lc = abs(poly.leading)
        lead = BigFloat(0) if lc == 1 else BigFloat.rounded(mpmath.log(lc))
        total = log_plus_sum(lead, roots) / poly.degree
        if total.value < 0:
            # mathematically >= 0; fold the undershoot into the radius
            return total.with_value(0).widened(-total.value)
    return total


def weil_height(alpha: AlgebraicNumber, precision_digits: int = 40) -> HeightValue:
    """Absolute logarithmic Weil height, via the Mahler measure of the
    minimal polynomial.  Independent of which conjugate ``approx``
    singles out."""
    return HeightValue(numeric=mahler_height(alpha.minpoly, precision_digits))


def weighted_height(alpha: AlgebraicNumber, gamma, precision_digits: int = 40) -> HeightValue:
    """Degree-weighted height  deg(alpha)**gamma * height(alpha)."""
    h = weil_height(alpha, precision_digits)
    w = degree_weight(alpha.degree, gamma, precision_digits)
    with workdps(precision_digits + 15):
        return HeightValue(numeric=h.numeric * w)
