"""Explicit field towers with certified lower bounds on weighted heights.

Each level i of a tower adjoins alpha_i = (p_i/q_i)^(1/d_i) for fresh
primes p_i > q_i, chosen so that every monomial prod alpha_j^(k_j) with
d_i not dividing k_i has weighted height

    [Q(m):Q]^gamma * h(m)  >  C - log(d_i) / (2 * D_i^gamma * (d_i - 1)),

where gamma < 0, D_i = d_1 ... d_i, and C is the construction target.
The p_i are the first fresh primes at least exp(C * d_i * D_i^(-gamma)),
which makes the p_i-adic contribution alone already push every such
monomial's weighted height to C or above.

Certification enumerates monomials deterministically (shells of growing
exponent size) and compares exact heights against the exact bound when
the weight is an integer; failures are recorded in the certificate
rather than raised, so deliberately broken parameter choices can be
inspected."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

from mpmath import iv, mp, mpf, workdps

from .heights import LogCombination, _iv_fraction, _iv_workdps
from .numcore import ConstructionError, certify, is_prime, next_prime
from .radicals import RadicalScalar, _pow_rational, _pow_rational_is_exact, radical_degree


@dataclass(frozen=True)
class TowerLevel:
    p: int
    q: int
    d: int


@dataclass(frozen=True)
class TowerSpec:
    """A validated tower: weight gamma < 0, target C > 0, and per-level
    (p, q, d) with p, q prime, pairwise distinct across the tower, and
    d >= 2."""

    gamma: Fraction
    target_c: Fraction
    levels: tuple[TowerLevel, ...]

    def __post_init__(self):
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        object.__setattr__(self, "target_c", Fraction(self.target_c))
        object.__setattr__(
            self,
            "levels",
            tuple(
                lv if isinstance(lv, TowerLevel) else TowerLevel(*lv)
                for lv in self.levels
            ),
        )
        if self.gamma >= 0:
            raise ValueError("tower weight gamma must be negative")
        if self.target_c <= 0:
            raise ValueError("target constant C must be positive")
        seen: set[int] = set()
        for lv in self.levels:
            if lv.d < 2:
                raise ValueError("level degrees must be at least 2")
            for r in (lv.p, lv.q):
                if not is_prime(r):
                    raise ValueError(f"{r} is not prime")
                if r in seen:
                    raise ValueError(f"prime {r} reused across the tower")
                seen.add(r)

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def field_degree(self, level_index: int) -> int:
        """Degree of the level field over Q (product of the d_j)."""
        deg = 1
        for lv in self.levels[:level_index]:
            deg *= lv.d
        return deg

    def generator(self, level_index: int) -> RadicalScalar:
        """(p_i/q_i)^(1/d_i) for the 1-based level index."""
        lv = self.levels[level_index - 1]
        e = Fraction(1, lv.d)
        return RadicalScalar({lv.p: e, lv.q: -e})

    def to_json(self) -> str:
        """gamma and C as exact rational strings; ``from_json`` also
        reads the floats older specs hold."""
        return json.dumps(
            {
                "gamma": str(self.gamma),
                "C": str(self.target_c),
                "levels": [
                    {"p": str(lv.p), "q": str(lv.q), "d": lv.d}
                    for lv in self.levels
                ],
            }
        )

    @staticmethod
    def from_json(text: str) -> "TowerSpec":
        data = json.loads(text)
        return TowerSpec(
            gamma=Fraction(data["gamma"]),
            target_c=Fraction(data["C"]),
            levels=tuple(
                TowerLevel(int(lv["p"]), int(lv["q"]), int(lv["d"]))
                for lv in data["levels"]
            ),
        )


def _bound_combination(spec: TowerSpec, level_index: int) -> LogCombination | None:
    """Exact form of the level bound when D_i^(-gamma) is rational:
    C - log(d_i) * D_i^(-gamma) / (2 (d_i - 1))."""
    lv = spec.levels[level_index - 1]
    d_i = spec.field_degree(level_index)
    if not _pow_rational_is_exact(d_i, -spec.gamma):
        return None
    factor = _pow_rational(d_i, -spec.gamma) / (2 * (lv.d - 1))
    return LogCombination(const=spec.target_c) - LogCombination.log_of_rational(
        lv.d
    ).scale(factor)


def remark_bound(spec: TowerSpec, level_index: int, precision_digits: int = 30) -> mpf:
    """Numeric value of the level-i lower bound
    C - log(d_i) / (2 * D_i^gamma * (d_i - 1))."""
    if not 1 <= level_index <= spec.num_levels:
        raise IndexError("level index out of range")
    comb = _bound_combination(spec, level_index)
    with workdps(precision_digits + 10):
        if comb is not None:
            lo, hi = comb.interval(precision_digits + 10)
            return (lo + hi) / 2
        lv = spec.levels[level_index - 1]
        d_i = spec.field_degree(level_index)
        g = mpf(spec.gamma.numerator) / spec.gamma.denominator
        c = mpf(spec.target_c.numerator) / spec.target_c.denominator
        return c - mp.log(lv.d) / (2 * mp.power(d_i, g) * (lv.d - 1))


MAX_PRIME_DIGITS = 400


def build_tower(
    degree_schedule,
    gamma=Fraction(-1),
    target_c=Fraction(7, 10),
    seed: int = 0,
    max_prime_digits: int = MAX_PRIME_DIGITS,
) -> TowerSpec:
    """Construct a tower for the given degree schedule.

    Per level, q_i is the smallest prime not yet used and p_i is the
    first fresh prime at least exp(C * d_i * D_i^(-gamma)); the seed
    shifts the level-1 choice to the (seed+1)-th qualifying prime so
    distinct seeds give towers over disjoint prime sets.  Thresholds
    beyond ``max_prime_digits`` digits raise ConstructionError: lower
    the target C or shorten/flatten the degree schedule."""
    gamma = Fraction(gamma)
    target_c = Fraction(target_c)
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    schedule = [int(d) for d in degree_schedule]
    if any(d < 2 for d in schedule):
        raise ValueError("level degrees must be at least 2")
    if gamma >= 0:
        raise ValueError("tower weight gamma must be negative")
    if target_c <= 0:
        raise ValueError("target constant C must be positive")

    used: set[int] = set()
    levels: list[TowerLevel] = []
    d_partial = 1
    for i, d in enumerate(schedule, start=1):
        d_partial *= d
        # exponent of the threshold exp(C * d * D^(-gamma))
        with workdps(60):
            g = mpf(gamma.numerator) / gamma.denominator
            c = mpf(target_c.numerator) / target_c.denominator
            expo = c * d * mp.power(d_partial, -g)
            digits = expo / mp.log(10)
            if digits > max_prime_digits:
                raise ConstructionError(
                    f"level {i} needs a prime with about {mp.nstr(digits, 4)} "
                    f"digits (cap {max_prime_digits}); reduce the target C "
                    "or use a shorter or flatter degree schedule"
                )
        # precision scaled to the digit count keeps the integer
        # threshold within 1 of exp(C * d * D^(-gamma))
        with workdps(int(digits) + 40):
            g = mpf(gamma.numerator) / gamma.denominator
            c = mpf(target_c.numerator) / target_c.denominator
            expo = c * d * mp.power(d_partial, -g)
            threshold = int(mp.ceil(mp.exp(expo)))
        q = 2
        while q in used:
            q = next_prime(q)
        used.add(q)
        p = threshold - 1
        remaining = (seed + 1) if i == 1 else 1
        while remaining:
            p = next_prime(p)
            if p not in used:
                remaining -= 1
        used.add(p)
        levels.append(TowerLevel(p=p, q=q, d=d))
    return TowerSpec(gamma=gamma, target_c=target_c, levels=tuple(levels))


@dataclass(frozen=True)
class LevelCertificate:
    """Result of checking sampled monomials of one level against the
    level bound.  ``passed`` means no sampled monomial fell below the
    bound; ``strict`` additionally means every comparison was strict."""

    level: int
    bound: float
    monomials_checked: int
    failures: tuple[dict, ...]
    passed: bool
    strict: bool


def _monomial(spec: TowerSpec, ks) -> RadicalScalar:
    exps: dict[int, Fraction] = {}
    for lv, k in zip(spec.levels, ks):
        if k:
            e = Fraction(k, lv.d)
            exps[lv.p] = e
            exps[lv.q] = -e
    return RadicalScalar(exps)


def _monomial_shells(spec: TowerSpec, level_index: int, count: int):
    """Deterministic k-vectors (k_1..k_i), d_i not dividing k_i, in
    shells of growing max |k_j|, lexicographic within a shell."""
    i = level_index
    d_i = spec.levels[i - 1].d
    produced = 0
    shell = 0
    while produced < count:
        shell += 1
        rng = range(-shell, shell + 1)
        for ks in iter_product(*([rng] * i)):
            if max(abs(k) for k in ks) != shell:
                continue
            if ks[i - 1] % d_i == 0:
                continue
            yield ks
            produced += 1
            if produced >= count:
                return


def certify_level(
    spec: TowerSpec,
    level_index: int,
    num_monomials: int = 500,
    precision_digits: int = 40,
) -> LevelCertificate:
    """Check sampled level monomials against the level bound.

    For integer weights the comparison is exact (certified sign of an
    exact combination of logs); otherwise escalating interval
    arithmetic separates the sides.  Monomials at or below the bound
    are recorded as failures, never raised."""
    if not 1 <= level_index <= spec.num_levels:
        raise IndexError("level index out of range")
    gamma = spec.gamma
    bound_comb = _bound_combination(spec, level_index)
    bound_val = remark_bound(spec, level_index)
    failures: list[dict] = []
    strict = True
    checked = 0
    for ks in _monomial_shells(spec, level_index, num_monomials):
        m = _monomial(spec, ks)
        deg = radical_degree(m)
        # exact weighted height whenever deg^gamma is rational
        h_comb = _radical_height_comb(m)
        if _pow_rational_is_exact(deg, gamma):
            hg = h_comb.scale(_pow_rational(deg, gamma))
            if bound_comb is not None:
                s = (hg - bound_comb).sign()
            else:
                s = _interval_sign_vs_bound(hg, spec, level_index, precision_digits)
        else:
            hg = None
            s = _interval_sign_weighted(
                h_comb, deg, gamma, spec, level_index, precision_digits
            )
        checked += 1
        if s < 0:
            failures.append(
                {
                    "exponents": tuple(ks),
                    "weighted_height": _comb_float(hg, h_comb, deg, gamma),
                    "bound": float(bound_val),
                }
            )
        elif s == 0:
            strict = False
    return LevelCertificate(
        level=level_index,
        bound=float(bound_val),
        monomials_checked=checked,
        failures=tuple(failures),
        passed=not failures,
        strict=strict and not failures,
    )


def _radical_height_comb(m: RadicalScalar) -> LogCombination:
    from .radicals import radical_height

    return radical_height(m).exact


def _comb_float(hg, h_comb: LogCombination, deg: int, gamma: Fraction) -> float:
    if hg is not None:
        lo, hi = hg.interval(30)
        return float((lo + hi) / 2)
    lo, hi = h_comb.interval(30)
    with workdps(30):
        return float(mp.power(deg, mpf(gamma.numerator) / gamma.denominator) * (lo + hi) / 2)


def _sign_vs_level_bound(enclose, spec: TowerSpec, level_index: int, precision_digits: int) -> int:
    """Certified sign of x - bound, where ``enclose(dps)`` is an iv
    enclosure of x and the bound is C - log(d_i) / (2 D_i^gamma (d_i - 1))."""
    lv = spec.levels[level_index - 1]
    d_i = spec.field_degree(level_index)

    def attempt(dps):
        with _iv_workdps(dps):
            val = enclose(dps)
            b = _iv_fraction(spec.target_c) - iv.log(iv.mpf(lv.d)) / (
                2 * iv.exp(_iv_fraction(spec.gamma) * iv.log(iv.mpf(d_i))) * (lv.d - 1)
            )
            diff_lo = mpf(val.a) - mpf(b.b)
            diff_hi = mpf(val.b) - mpf(b.a)
        return 1 if diff_lo > 0 else -1 if diff_hi < 0 else None

    return certify(attempt, max(40, precision_digits), 1 << 13, "level bound comparison")


def _interval_sign_vs_bound(
    hg: LogCombination, spec: TowerSpec, level_index: int, precision_digits: int
) -> int:
    """Sign of hg - bound when the bound has no exact form."""
    return _sign_vs_level_bound(
        lambda dps: iv.mpf(hg.interval(dps)), spec, level_index, precision_digits
    )


def _interval_sign_weighted(
    h_comb: LogCombination,
    deg: int,
    gamma: Fraction,
    spec: TowerSpec,
    level_index: int,
    precision_digits: int,
) -> int:
    """Sign of deg^gamma * h_comb - bound."""

    def enclose(dps):
        w = iv.exp(_iv_fraction(gamma) * iv.log(iv.mpf(deg)))
        return w * iv.mpf(h_comb.interval(dps))

    return _sign_vs_level_bound(enclose, spec, level_index, precision_digits)


def distinct_fields_check(towers) -> bool:
    """True when the towers' top fields are pairwise distinct.

    Two radical fields coincide exactly when they have equal degree and
    their compositum has that same degree; all three degrees are
    computed exactly from the exponent lattices."""
    from .radicals import compositum_degree

    gens = []
    for spec in towers:
        gens.append([spec.generator(i) for i in range(1, spec.num_levels + 1)])
    for a in range(len(gens)):
        deg_a = compositum_degree(gens[a])
        for b in range(a + 1, len(gens)):
            deg_b = compositum_degree(gens[b])
            if deg_a == deg_b and compositum_degree(gens[a] + gens[b]) == deg_a:
                return False
    return True
