"""Radical scalars, radical projective points, and their exact heights.

A radical scalar is the positive real number  prod_p p^{e_p}  with
finitely many nonzero rational exponents e_p (positive real branch of
every root).  Its height, the heights of projective points with radical
coordinates, and the degrees of the generated fields all admit exact
computations:

* height(prod p^{e_p}) = sum_{e_l < 0} (-e_l) log l
                         + max(0, sum_p e_p log p),
  a rational combination of logs of primes (the max is decided by a
  certified sign computation);

* [Q(a_1,...,a_k) : Q] is the index [G : Z^S] where G is the subgroup
  of Q^S generated by Z^S and the exponent vectors, computed exactly
  through the Smith normal form of the stacked, denominator-cleared
  generator matrix.

The chain checker certifies the two-step comparison

  [K:Q]^g h(P)  >=  (prod_{i in I} d_i^g) (prod_{i in I} h(a_i))^{1/#I}
                >=  (prod_{i in I} h_{Ng}(a_i))^{1/#I}

for g < 0, I the coordinates of nonzero weighted height.  The second
step is proved, not tested: the ratio of its sides is (prod d_i)^s with
s = g (1 - N/#I) >= 0.  The first is decided by exact detection of the
(complete) equality pattern plus escalating interval separation
otherwise.  A genuine violation raises; it is never reported as a
result.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from mpmath import workdps

from .heights import (
    HeightValue,
    LogCombination,
    degree_weight,
    degree_weighted_ball,
    rational_power,
)
from .numcore import (
    DEFAULT_DIGITS,
    IntMatrix,
    _exact,
    certify,
    certify_ball_order,
    certify_order,
    smith_normal_form,
)


class RadicalScalar:
    """prod_p p^{exponents[p]} with rational exponents; always the
    positive real value.  Held as its logarithm, a LogCombination with
    zero constant, so products, quotients and powers of scalars are
    sums, differences and multiples of logs."""

    __slots__ = ("_log",)

    def __init__(self, exponents=None):
        self._log = LogCombination(exponents)

    @staticmethod
    def _of(log: LogCombination) -> "RadicalScalar":
        a = RadicalScalar.__new__(RadicalScalar)
        a._log = log
        return a

    @property
    def exponents(self) -> dict[int, Fraction]:
        """{prime: exponent}, zero exponents dropped, sorted by prime."""
        return self._log.coeffs

    @staticmethod
    def one() -> "RadicalScalar":
        return RadicalScalar()

    @staticmethod
    def from_rational(q) -> "RadicalScalar":
        q = Fraction(q)
        if q <= 0:
            raise ValueError("radical scalars are positive")
        return RadicalScalar._of(LogCombination.log_of_rational(q))

    def is_one(self) -> bool:
        return self._log.is_zero()

    def __mul__(self, other: "RadicalScalar") -> "RadicalScalar":
        return RadicalScalar._of(self._log + other._log)

    def __truediv__(self, other: "RadicalScalar") -> "RadicalScalar":
        return RadicalScalar._of(self._log - other._log)

    def pow(self, k) -> "RadicalScalar":
        return RadicalScalar._of(self._log.scale(k))

    def log_value(self) -> LogCombination:
        """log of the scalar, as an exact combination."""
        return self._log

    def __eq__(self, other):
        return isinstance(other, RadicalScalar) and self._log == other._log

    def __hash__(self):
        return hash(("RadicalScalar", tuple(self.exponents.items())))

    def __repr__(self) -> str:
        return f"RadicalScalar({self})"

    def __str__(self) -> str:
        if not self.exponents:
            return "1"
        parts = []
        for p, e in self.exponents.items():
            if e == 1:
                parts.append(str(p))
            else:
                parts.append(f"{p}^({e})")
        return "*".join(parts)


def radical_degree(a: RadicalScalar) -> int:
    """[Q(a) : Q]: the least m with a**m rational, which is the lcm of
    the exponent denominators."""
    return lcm(*(e.denominator for e in a.exponents.values()))


def compositum_degree(scalars) -> int:
    """[Q(a_1, ..., a_k) : Q] for radical scalars, via the exponent
    lattice: the index of Z^S in the group generated by Z^S and the
    exponent vectors, computed with an exact Smith normal form."""
    scalars = [s for s in scalars if s is not None]
    primes = sorted({p for s in scalars for p in s.exponents})
    if not primes:
        return 1
    m = lcm(*map(radical_degree, scalars))
    if m == 1:
        return 1
    n = len(primes)
    rows = []
    for s in scalars:
        row = [int(s.exponents.get(p, Fraction(0)) * m) for p in primes]
        if any(row):
            rows.append(row)
    for i in range(n):
        rows.append([m if j == i else 0 for j in range(n)])
    s_mat, _, _ = smith_normal_form(IntMatrix(rows))
    prod_d = 1
    for i in range(n):
        prod_d *= s_mat[i, i]
    degree, rem = divmod(m**n, prod_d)
    if rem:
        raise ArithmeticError("lattice index computation is inconsistent")
    return degree


def radical_height(a: RadicalScalar) -> HeightValue:
    """Exact Weil height of a radical scalar.

    Denominator places contribute sum_{e_l<0} (-e_l) log l; the
    archimedean place contributes log of the value when that is >= 1.
    Combined: sum_p max(e_p, 0) log p if the value is >= 1, else
    sum_p max(-e_p, 0) log p.  The branch is decided by a certified
    sign computation (exact for the tie value = 1)."""
    if a.is_one():
        return HeightValue.zero()
    s = a.log_value().sign()
    if s >= 0:
        comb = LogCombination({p: e for p, e in a.exponents.items() if e > 0})
    else:
        comb = LogCombination({p: -e for p, e in a.exponents.items() if e < 0})
    return HeightValue(exact=comb)


# ---------------------------------------------------------------------------
# projective points
# ---------------------------------------------------------------------------

class RadicalPoint:
    """A point of P^N with coordinates that are radical scalars or zero
    (zero encoded as None).  At least one coordinate must be nonzero."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        cs = []
        for c in coords:
            if c is None:
                cs.append(None)
            elif isinstance(c, RadicalScalar):
                cs.append(c)
            else:
                cs.append(RadicalScalar.from_rational(c))
        if not any(c is not None for c in cs):
            raise ValueError("a projective point needs a nonzero coordinate")
        if len(cs) < 2:
            raise ValueError("need at least two homogeneous coordinates")
        self.coords = tuple(cs)

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    def normalized(self) -> "RadicalPoint":
        """Scale so the first nonzero coordinate is 1."""
        first = next(c for c in self.coords if c is not None)
        if first.is_one():
            return self
        return RadicalPoint(
            [None if c is None else c / first for c in self.coords]
        )

    def affine_coords(self) -> list[RadicalScalar | None]:
        """Coordinates other than the leading 1 of the normalized point."""
        norm = self.normalized()
        lead = next(i for i, c in enumerate(norm.coords) if c is not None)
        return [c for i, c in enumerate(norm.coords) if i != lead]

    def __eq__(self, other):
        return isinstance(other, RadicalPoint) and self.coords == other.coords

    def __hash__(self):
        return hash(("RadicalPoint", self.coords))

    def __repr__(self):
        inner = " : ".join("0" if c is None else str(c) for c in self.coords)
        return f"[{inner}]"


def projective_height(point: RadicalPoint) -> HeightValue:
    """Exact projective Weil height of a radical point.

    Per finite place l the contribution is log max_i |x_i|_l, i.e.
    max_i(-e_{l,i}) * log l over the nonzero coordinates; the
    archimedean place contributes log max_i x_i, the maximizer found by
    certified comparison (a tie forces identical exponent vectors, so
    it is resolved by coefficient identity)."""
    nz = [c for c in point.coords if c is not None]
    best = nz[0]
    for c in nz[1:]:
        if (c.log_value() - best.log_value()).sign() > 0:
            best = c
    return HeightValue(exact=_finite_places(nz) + best.log_value())


def _finite_places(nz) -> LogCombination:
    """sum over primes l of log max_i |x_i|_l, i.e. max_i(-e_{l,i}) * log l
    over the nonzero coordinates nz."""
    primes = sorted({p for c in nz for p in c.exponents})
    coeffs: dict[int, Fraction] = {}
    for l in primes:
        c_l = max(-c.exponents.get(l, Fraction(0)) for c in nz)
        if c_l != 0:
            coeffs[l] = c_l
    return LogCombination(coeffs)


def projective_height_l2(point: RadicalPoint, precision_digits: int = DEFAULT_DIGITS) -> HeightValue:
    """Projective height with the L2 archimedean norm: finite places as
    in ``projective_height``, archimedean contribution
    (1/2) log(sum_i x_i^2).  Exceeds the sup-norm height by at most
    (1/2) log(N+1)."""
    nz = [c for c in point.coords if c is not None]
    dps = precision_digits + 12
    with workdps(dps + 3):
        acc = sum((c.log_value().ball(dps) * 2).exp() for c in nz)
        total = acc.log_abs() / 2 + _finite_places(nz).ball(dps)
    return HeightValue(numeric=total)


def weighted_projective_height(
    point: RadicalPoint, gamma, precision_digits: int = DEFAULT_DIGITS
) -> HeightValue:
    """Degree-weighted projective height: [Q(x_1,...,x_N):Q]**gamma
    times the projective height, the point normalized so its first
    nonzero coordinate is 1.  Exact whenever the degree power is
    rational (in particular for integer gamma)."""
    gamma = Fraction(_exact(gamma))
    norm = point.normalized()
    degree = compositum_degree([c for c in norm.coords if c is not None])
    base = projective_height(norm)
    w = rational_power(degree, gamma)
    if w is not None:
        return HeightValue(exact=base.exact.scale(w))
    return HeightValue(numeric=degree_weighted_ball(base.exact, degree, gamma, precision_digits + 12))


# ---------------------------------------------------------------------------
# the chain inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainReport:
    """Outcome of one chain verification."""

    point: RadicalPoint
    gamma: Fraction
    n_coords: int
    index_set: tuple[int, ...]
    lhs: HeightValue
    middle: HeightValue
    rhs: HeightValue
    verdict: str  # "holds" or "degenerate"


class ChainViolationError(AssertionError):
    """The certified comparison found the chain inequality violated."""


def _interval_value(base: int, exponent: Fraction, combinations, dps: int):
    """Ball of base^exponent * (prod of the k combinations' values)^(1/k),
    or None when a combination is not certified positive at dps."""
    k = len(combinations)
    with workdps(dps + 3):
        acc = None
        for c in combinations:
            ball = c.ball(dps)
            if not ball.bounds()[0] > 0:
                return None
            acc = ball if acc is None else acc * ball
        if k > 1:
            acc = (acc.log_abs() / k).exp()
        return degree_weight(base, exponent, dps) * acc


def lemma_chain_check(
    point: RadicalPoint, gamma, precision_digits: int = DEFAULT_DIGITS
) -> ChainReport:
    """Certify the two-step height chain for a radical point and
    negative weight gamma.

    Writing P = [1 : a_1 : ... : a_N] (the point is normalized first),
    K = Q(a_1,...,a_N), and I = {i : weighted height of a_i is nonzero}
    = {i : a_i is neither 0 nor 1}:

      lhs    = [K:Q]^gamma * h(P)
      middle = (prod_{i in I} [Q(a_i):Q]^gamma)
               * (prod_{i in I} h(a_i))^{1/#I}
      rhs    = (prod_{i in I} h_{N*gamma}(a_i))^{1/#I}

    and the chain asserts lhs >= middle >= rhs.  Empty I gives verdict
    "degenerate".  middle >= rhs is proved, not tested: with d_i =
    [Q(a_i):Q] and h_{N*gamma}(a_i) = d_i^(N*gamma) h(a_i),
    log(middle/rhs) = gamma*(1 - N/#I) * sum log d_i, where #I <= N and
    gamma < 0 make the slope gamma*(1 - N/#I) >= 0, and every d_i >= 1.
    lhs >= middle has a complete structural equality criterion
    ([K:Q] = prod d_i, all h(a_i) equal, h(P) equal to them); strict
    cases are separated by escalating certified intervals.  A violation
    raises ChainViolationError."""
    gamma = Fraction(_exact(gamma))
    if gamma >= 0:
        raise ValueError("the chain is stated for negative gamma")
    norm = point.normalized()
    n = norm.dim
    affine = norm.affine_coords()
    index_set = tuple(
        i for i, a in enumerate(affine) if a is not None and not a.is_one()
    )
    if not index_set:
        zero = HeightValue.zero()
        return ChainReport(norm, gamma, n, index_set, zero, zero, zero, "degenerate")

    members = [affine[i] for i in index_set]
    k = len(index_set)
    heights = [radical_height(a).exact for a in members]
    k_degree = compositum_degree([c for c in norm.coords if c is not None])
    d_prod = prod(radical_degree(a) for a in members)
    h_point = projective_height(norm).exact

    # --- lhs >= middle: structural equality, else interval separation --
    all_h_equal = all(h == heights[0] for h in heights[1:])
    structurally_equal = (
        k_degree == d_prod and all_h_equal and h_point == heights[0]
    )
    if not structurally_equal:
        if certify_ball_order(
            lambda dps: _interval_value(k_degree, gamma, [h_point], dps),
            lambda dps: _interval_value(d_prod, gamma, heights, dps),
            precision_digits, "chain comparison",
        ) < 0:
            raise ChainViolationError(f"lhs < middle at point {norm!r}, gamma={gamma}")

    # --- report values --------------------------------------------------
    def report_value(base: int, g: Fraction, combs) -> HeightValue:
        """base^g * (prod of combs)^(1/#combs), exact when that is a
        rational multiple of one combination."""
        w = rational_power(base, g) if all(c == combs[0] for c in combs[1:]) else None
        if w is not None:
            return HeightValue(exact=combs[0].scale(w))
        start = precision_digits + 10
        return HeightValue(numeric=certify(
            lambda dps: _interval_value(base, g, combs, dps),
            start, start << 5, "chain report value",
        ))

    lhs = report_value(k_degree, gamma, [h_point])
    middle = report_value(d_prod, gamma, heights)
    rhs = report_value(d_prod, Fraction(n) * gamma / k, heights)
    return ChainReport(norm, gamma, n, index_set, lhs, middle, rhs, "holds")


# ---------------------------------------------------------------------------
# Northcott census
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CensusEntry:
    signs: tuple[int, ...]  # sign per coordinate (0 for zero coords)
    point: RadicalPoint
    height: HeightValue

    def coord_strings(self) -> list[str]:
        out = []
        for s, c in zip(self.signs, self.point.coords):
            if s == 0:
                out.append("0")
            else:
                out.append(("-" if s < 0 else "") + str(c))
        return out


@dataclass(frozen=True)
class NorthcottCensus:
    entries: tuple[CensusEntry, ...]
    threshold: LogCombination
    gamma: Fraction
    dim: int
    evaluated: int
    budget: int
    shell_bound: int
    truncated: bool


def _census_atoms(generators, bound: int) -> list[RadicalScalar]:
    """Coordinate magnitudes of complexity <= bound: (p/q) * prod g^k
    with coprime 1 <= p, q <= bound and |k_j| <= bound; deduplicated by
    exponent vector, sorted lexicographically by exponent vector."""
    atoms: dict[tuple, RadicalScalar] = {}
    k_ranges = [range(-bound, bound + 1) for _ in generators]
    for p in range(1, bound + 1):
        for q in range(1, bound + 1):
            if gcd(p, q) != 1:
                continue
            base = RadicalScalar.from_rational(Fraction(p, q))
            for ks in itertools.product(*k_ranges):
                a = base
                for g, k in zip(generators, ks):
                    if k:
                        a = a * g.pow(k)
                key = tuple(a.exponents.items())
                atoms.setdefault(key, a)
    return [atoms[k] for k in sorted(atoms)]


def _height_below(h: HeightValue, threshold: LogCombination, precision_digits: int) -> bool:
    """Certified strict comparison h < threshold (exact tie excluded)."""
    if h.is_exact:
        return (h.exact - threshold).sign() < 0
    dps = precision_digits + 10
    return certify_order(
        h.bounds, threshold.interval, dps, dps << 5, "census threshold comparison"
    ) < 0


def projective_northcott_experiment(
    generators,
    dim: int,
    gamma,
    threshold,
    budget: int = 2000,
    precision_digits: int = DEFAULT_DIGITS,
) -> NorthcottCensus:
    """Enumerate points of P^dim whose coordinates are 0 or
    +-(p/q) * (monomials in the generators), in shells of growing
    coordinate complexity, and report every point with weighted
    projective height strictly below the threshold.

    Enumeration is deterministic: chart by chart (position of the
    leading 1), remaining slots in lexicographic order over the atom
    list, signs + before -.  Each shell only evaluates points that use
    at least one atom new to the shell, so no point is seen twice.
    ``budget`` caps the number of evaluated points; exhausting it sets
    ``truncated``."""
    generators = list(generators)
    gamma = Fraction(_exact(gamma))
    if isinstance(threshold, HeightValue):
        if not threshold.is_exact:
            raise ValueError("census thresholds must be exact")
        threshold = threshold.exact
    elif not isinstance(threshold, LogCombination):
        threshold = LogCombination(const=Fraction(_exact(threshold)))

    entries: list[CensusEntry] = []
    evaluated = 0
    truncated = False
    bound = 0
    prev_atoms: set[RadicalScalar] = set()
    while not truncated and bound < 64:
        bound += 1
        atoms = _census_atoms(generators, bound)
        options: list[tuple[int, RadicalScalar | None]] = [(0, None)]
        for a in atoms:
            options.append((1, a))
            options.append((-1, a))
        new = {a for a in atoms if a not in prev_atoms}
        if not new and bound > 1:
            break
        for chart in range(dim + 1):
            slots = dim - chart
            for combo in itertools.product(options, repeat=slots):
                if bound > 1 and not any(
                    c is not None and c in new for _, c in combo
                ):
                    continue
                if evaluated >= budget:
                    truncated = True
                    break
                evaluated += 1
                signs = (0,) * chart + (1,) + tuple(s for s, _ in combo)
                coords = (None,) * chart + (RadicalScalar.one(),) + tuple(
                    c for _, c in combo
                )
                pt = RadicalPoint.__new__(RadicalPoint)
                pt.coords = coords
                h = weighted_projective_height(pt, gamma, precision_digits)
                if _height_below(h, threshold, precision_digits):
                    entries.append(CensusEntry(signs, pt, h))
            if truncated:
                break
        prev_atoms = set(atoms)
    return NorthcottCensus(
        entries=tuple(entries),
        threshold=threshold,
        gamma=gamma,
        dim=dim,
        evaluated=evaluated,
        budget=budget,
        shell_bound=bound,
        truncated=truncated,
    )
