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
inspected.

Tower primes above 2^64 are checked by ``is_prime``: 64 Miller-Rabin
rounds with witnesses seeded by the number, an error below 2^-128 per
prime.  A level certificate is conditional on that test; no primality
proof (Pocklington or other) is produced."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

from mpmath import mp, mpf, workdps

from .heights import LogCombination, degree_weight, degree_weighted_ball, rational_power
from .numcore import BigFloat, ConstructionError, _exact, certify_ball_order, is_prime, next_prime
from .radicals import RadicalScalar, compositum_degree, radical_degree, radical_height


@dataclass(frozen=True)
class TowerLevel:
    p: int
    q: int
    d: int


@dataclass(frozen=True)
class TowerSpec:
    """A validated tower: weight gamma < 0, target C > 0, and per-level
    (p, q, d) with p, q prime, pairwise distinct across the tower, and
    d >= 2.  Primality above 2^64 is probabilistic (see the module
    docstring)."""

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
        """The spec of ``to_json`` text; a missing field or a value of the
        wrong JSON type raises ValueError, naming the field if missing or
        if p, q or d is not an integer."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a tower spec must be a JSON object")
        try:
            gamma, target_c = Fraction(_exact(data["gamma"])), Fraction(_exact(data["C"]))
            levels = tuple(
                TowerLevel(*(_spec_int(lv, f) for f in "pqd")) for lv in data["levels"]
            )
        except KeyError as exc:
            raise ValueError(f"tower spec lacks the field {exc.args[0]!r}") from None
        except TypeError as exc:
            raise ValueError(f"malformed tower spec: {exc}") from None
        return TowerSpec(gamma=gamma, target_c=target_c, levels=levels)


def _spec_int(level: dict, field: str) -> int:
    """A level's p, q or d: a JSON integer or a string of decimal digits,
    never truncated."""
    v = level[field]
    if type(v) is int or (isinstance(v, str) and v.isascii() and v.isdigit()):
        return int(v)
    raise ValueError(f"tower spec field {field!r} must be an integer, not {v!r}")


def _bound_combination(spec: TowerSpec, level_index: int) -> LogCombination | None:
    """Exact form of the level bound when D_i^(-gamma) is rational:
    C - log(d_i) * D_i^(-gamma) / (2 (d_i - 1))."""
    lv = spec.levels[level_index - 1]
    w = rational_power(spec.field_degree(level_index), -spec.gamma)
    if w is None:
        return None
    return LogCombination(const=spec.target_c) - LogCombination.log_of_rational(
        lv.d
    ).scale(w / (2 * (lv.d - 1)))


def _level_bound_ball(spec: TowerSpec, level_index: int, dps: int) -> BigFloat:
    """Ball of the level bound C - log(d_i) / (2 D_i^gamma (d_i - 1)),
    worked at dps + 3 digits."""
    lv = spec.levels[level_index - 1]
    w = degree_weight(spec.field_degree(level_index), spec.gamma, dps)
    with workdps(dps + 3):
        return BigFloat(spec.target_c) - BigFloat(lv.d).log_abs() / (w * (2 * (lv.d - 1)))


def remark_bound(spec: TowerSpec, level_index: int, precision_digits: int = 30) -> mpf:
    """Numeric value of the level-i lower bound
    C - log(d_i) / (2 * D_i^gamma * (d_i - 1)): the midpoint of its
    ball at precision_digits + 10."""
    if not 1 <= level_index <= spec.num_levels:
        raise IndexError("level index out of range")
    return _level_bound_ball(spec, level_index, precision_digits + 10).value


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
        with workdps(63):
            expo = BigFloat(target_c) * d * degree_weight(d_partial, -gamma, 60)
            digits = (expo / BigFloat(10).log_abs()).bounds()[1]
        if digits > max_prime_digits:
            raise ConstructionError(
                f"level {i} needs a prime with about {mp.nstr(digits, 4)} "
                f"digits (cap {max_prime_digits}); reduce the target C "
                "or use a shorter or flatter degree schedule"
            )
        # precision scaled to the digit count keeps the integer
        # threshold within 1 of exp(C * d * D^(-gamma))
        dps = int(digits) + 40
        with workdps(dps + 3):
            expo = BigFloat(target_c) * d * degree_weight(d_partial, -gamma, dps)
            threshold = int(mp.ceil(expo.exp().bounds()[1]))
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
    bound; ``strict`` additionally means every comparison was strict.
    Both hold on the condition that the tower primes above 2^64, which
    are checked by Miller-Rabin only, are prime."""

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
    if num_monomials < 1:
        raise ValueError("num_monomials must be at least 1")
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
        h_comb = radical_height(m).exact
        w = rational_power(deg, gamma)
        if w is not None:
            hg = h_comb.scale(w)
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


def _comb_float(hg, h_comb: LogCombination, deg: int, gamma: Fraction) -> float:
    ball = hg.ball(30) if hg is not None else degree_weighted_ball(h_comb, deg, gamma, 30)
    return float(ball.value)


def _sign_vs_level_bound(enclose, spec: TowerSpec, level_index: int, precision_digits: int) -> int:
    """Certified sign of x minus the level bound, where ``enclose(dps)``
    is a ``BigFloat`` ball of x from enclosures at dps."""
    return certify_ball_order(
        enclose, lambda dps: _level_bound_ball(spec, level_index, dps),
        precision_digits, "level bound comparison",
    )


def _interval_sign_vs_bound(
    hg: LogCombination, spec: TowerSpec, level_index: int, precision_digits: int
) -> int:
    """Sign of hg - bound when the bound has no exact form."""
    return _sign_vs_level_bound(hg.ball, spec, level_index, precision_digits)


def _interval_sign_weighted(
    h_comb: LogCombination,
    deg: int,
    gamma: Fraction,
    spec: TowerSpec,
    level_index: int,
    precision_digits: int,
) -> int:
    """Sign of deg^gamma * h_comb - bound."""
    return _sign_vs_level_bound(
        lambda dps: degree_weighted_ball(h_comb, deg, gamma, dps), spec, level_index, precision_digits
    )


def distinct_fields_check(towers) -> bool:
    """True when the towers' top fields are pairwise distinct.

    Two radical fields coincide exactly when they have equal degree and
    their compositum has that same degree; all three degrees are
    computed exactly from the exponent lattices."""
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
