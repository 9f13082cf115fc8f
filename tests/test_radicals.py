import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from mpmath import mp, mpf, workdps

from heightlab.heights import (
    EQUAL,
    GREATER,
    HeightValue,
    LogCombination,
    height_value_compare,
)
from heightlab.radicals import (
    ChainViolationError,
    RadicalPoint,
    RadicalScalar,
    compositum_degree,
    lemma_chain_check,
    projective_height,
    projective_height_l2,
    projective_northcott_experiment,
    radical_degree,
    radical_height,
    weighted_projective_height,
)


def _scalar(**kw):
    return RadicalScalar({int(k[1:]): Fraction(v) for k, v in kw.items()})


class TestRadicalScalar:
    def test_canonical_form(self):
        a = RadicalScalar({3: Fraction(0), 2: Fraction(1, 2)})
        assert a.exponents == {2: Fraction(1, 2)}
        assert str(a) == "2^(1/2)"

    def test_rejects_composite_base(self):
        with pytest.raises(ValueError):
            RadicalScalar({6: Fraction(1, 2)})

    def test_from_rational(self):
        a = RadicalScalar.from_rational(Fraction(8, 45))
        assert a.exponents == {2: Fraction(3), 3: Fraction(-2), 5: Fraction(-1)}
        with pytest.raises(ValueError):
            RadicalScalar.from_rational(-2)

    def test_mul_div_pow(self):
        a = RadicalScalar({2: Fraction(1, 2)})
        b = RadicalScalar({2: Fraction(1, 3), 3: Fraction(1)})
        assert (a * b).exponents == {2: Fraction(5, 6), 3: Fraction(1)}
        assert (a / a).is_one()
        assert a.pow(4).exponents == {2: Fraction(2)}
        assert (a.pow(-1) * a).is_one()

    def test_log_value(self):
        a = RadicalScalar({5: Fraction(2, 7)})
        assert a.log_value() == LogCombination({5: Fraction(2, 7)})

    def test_equality_and_hash(self):
        a = _scalar(p2="1/2")
        b = RadicalScalar({2: Fraction(1, 2)})
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


class TestRadicalScalarIsItsLog:
    """A radical scalar is a view of its log: products, quotients and
    powers of scalars are sums, differences and multiples of logs."""

    PRIMES = (2, 3, 5, 7, 11, 13, 101)

    @staticmethod
    def _random_exponents(rng):
        primes = rng.sample(TestRadicalScalarIsItsLog.PRIMES, rng.randint(0, 4))
        return {p: Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for p in primes}

    def test_from_rational_is_log_of_rational(self):
        rng = random.Random(11)
        for _ in range(200):
            q = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            a = RadicalScalar.from_rational(q)
            assert a.log_value() == LogCombination.log_of_rational(q)
            assert a.log_value().const == 0
        with pytest.raises(ValueError, match="radical scalars are positive"):
            RadicalScalar.from_rational(0)

    def test_arithmetic_is_log_arithmetic(self):
        rng = random.Random(12)
        for _ in range(300):
            ea, eb = self._random_exponents(rng), self._random_exponents(rng)
            a, b = RadicalScalar(ea), RadicalScalar(eb)
            k = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            assert (a * b).log_value() == a.log_value() + b.log_value()
            assert (a / b).log_value() == a.log_value() - b.log_value()
            assert a.pow(k).log_value() == a.log_value().scale(k)
            merged = {p: ea.get(p, 0) + eb.get(p, 0) for p in sorted(set(ea) | set(eb))}
            assert (a * b).exponents == {p: e for p, e in merged.items() if e}
            assert (a / a).is_one()

    def test_equal_scalars_hash_equally(self):
        rng = random.Random(13)
        for _ in range(200):
            ea, eb = self._random_exponents(rng), self._random_exponents(rng)
            a, b = RadicalScalar(ea), RadicalScalar(eb)
            shuffled = {19: Fraction(0), **dict(reversed(list(ea.items())))}
            for same in ((a * b) / b, RadicalScalar(shuffled), a.pow(2).pow(Fraction(1, 2))):
                assert same == a and hash(same) == hash(a)

    def test_non_prime_key(self):
        for n in (1, 4, 6, 9, 91, 2**61 + 1):
            with pytest.raises(ValueError, match=f"^{n} is not prime$"):
                RadicalScalar({n: Fraction(1, 2)})


class TestDegrees:
    def test_radical_degree(self):
        assert radical_degree(RadicalScalar.one()) == 1
        assert radical_degree(_scalar(p2="1/2")) == 2
        assert radical_degree(_scalar(p2="1/2", p3="1/3")) == 6
        assert radical_degree(_scalar(p2="3/4", p3="-5/6")) == 12

    def test_compositum_single(self):
        assert compositum_degree([_scalar(p2="1/2")]) == 2

    def test_compositum_known(self):
        # Q(sqrt2, sqrt3) has degree 4, Q(sqrt2, sqrt8) = Q(sqrt2) degree 2
        assert compositum_degree([_scalar(p2="1/2"), _scalar(p3="1/2")]) == 4
        assert compositum_degree([_scalar(p2="1/2"), _scalar(p2="3/2")]) == 2
        # sqrt6 lies in Q(sqrt2, sqrt3)
        assert (
            compositum_degree(
                [_scalar(p2="1/2"), _scalar(p3="1/2"), _scalar(p2="1/2", p3="1/2")]
            )
            == 4
        )
        assert compositum_degree([_scalar(p2="1/2"), _scalar(p2="1/3")]) == 6

    def test_compositum_empty_or_rational(self):
        assert compositum_degree([]) == 1
        assert compositum_degree([RadicalScalar.from_rational(6)]) == 1

    def _brute_degree(self, scalars):
        # order of the subgroup generated by the exponent vectors in
        # (Q/Z)^primes, by BFS closure
        primes = sorted({p for s in scalars for p in s.exponents})
        if not primes:
            return 1

        def key(vec):
            return tuple(f % 1 for f in vec)

        gens = [
            tuple(s.exponents.get(p, Fraction(0)) for p in primes) for s in scalars
        ]
        seen = {key([Fraction(0)] * len(primes))}
        frontier = [tuple(Fraction(0) for _ in primes)]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = key([a + b for a, b in zip(cur, g)])
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return len(seen)

    def test_compositum_vs_group_closure(self):
        rng = random.Random(404)
        primes = [2, 3, 5, 7]
        for _ in range(60):
            scalars = []
            for _ in range(rng.randint(1, 3)):
                ex = {}
                for p in rng.sample(primes, rng.randint(1, 3)):
                    num = rng.randint(-4, 4)
                    den = rng.choice([1, 2, 3, 4, 6])
                    if num:
                        ex[p] = Fraction(num, den)
                scalars.append(RadicalScalar(ex))
            assert compositum_degree(scalars) == self._brute_degree(scalars)


class TestRadicalHeight:
    def test_known_values(self):
        h = radical_height(_scalar(p2="1/2"))
        assert h.exact == LogCombination({2: Fraction(1, 2)})
        # value below 1: height counts the inverse
        h = radical_height(_scalar(p2="-1/2"))
        assert h.exact == LogCombination({2: Fraction(1, 2)})
        # h(2/3) = log 3
        h = radical_height(RadicalScalar.from_rational(Fraction(2, 3)))
        assert h.exact == LogCombination({3: Fraction(1)})

    def test_mixed_signs(self):
        # a = 2^(1/2) * 3^(-1/2) = sqrt(2/3) < 1: h = max-exponent side
        h = radical_height(_scalar(p2="1/2", p3="-1/2"))
        assert h.exact == LogCombination({3: Fraction(1, 2)})

    def test_one(self):
        assert radical_height(RadicalScalar.one()).exact.is_zero()

    def test_matches_classical_for_rationals(self):
        for q in (Fraction(3, 7), Fraction(22, 5), Fraction(1, 9), Fraction(10)):
            h = radical_height(RadicalScalar.from_rational(q))
            want = LogCombination.log_of_rational(
                max(abs(q.numerator), abs(q.denominator))
            )
            assert h.exact == want


class TestProjectiveHeight:
    def test_rational_point(self):
        # [1 : 2/3 : 5] -> lcm denominator 3: coords (3, 2, 15), height log 15
        p = RadicalPoint([1, Fraction(2, 3), 5])
        h = projective_height(p)
        assert h.exact == LogCombination.log_of_rational(15)

    def test_one_affine_matches_scalar_height(self):
        rng = random.Random(11)
        for _ in range(25):
            ex = {}
            for p in rng.sample([2, 3, 5, 7, 11], rng.randint(1, 3)):
                num = rng.randint(-5, 5)
                den = rng.randint(1, 4)
                if num:
                    ex[p] = Fraction(num, den)
            a = RadicalScalar(ex)
            hp = projective_height(RadicalPoint([RadicalScalar.one(), a]))
            ha = radical_height(a)
            assert hp.exact == ha.exact

    def test_scale_invariance_exact(self):
        p = RadicalPoint(
            [_scalar(p2="1/2"), _scalar(p3="-2/3"), None, _scalar(p5="1/4", p2="-1")]
        )
        lam = _scalar(p2="-7/2", p3="1/3", p7="5/4")
        q = RadicalPoint(
            [None if c is None else c * lam for c in p.coords]
        )
        assert projective_height(p).exact == projective_height(q).exact

    def test_permutation_invariance(self):
        coords = [_scalar(p2="1/2"), _scalar(p3="-1/2"), _scalar(p5="2")]
        h0 = projective_height(RadicalPoint(coords)).exact
        for perm in itertools.permutations(coords):
            assert projective_height(RadicalPoint(list(perm))).exact == h0

    def test_zero_coords_ignored(self):
        h1 = projective_height(RadicalPoint([1, None, _scalar(p2="1/2")]))
        h2 = projective_height(RadicalPoint([1, _scalar(p2="1/2")]))
        assert h1.exact == h2.exact

    def test_l2_dominates_sup(self):
        rng = random.Random(77)
        for _ in range(15):
            coords = []
            for _ in range(rng.randint(2, 4)):
                ex = {}
                for p in rng.sample([2, 3, 5], rng.randint(1, 2)):
                    num = rng.randint(-4, 4)
                    if num:
                        ex[p] = Fraction(num, rng.randint(1, 3))
                coords.append(RadicalScalar(ex))
            pt = RadicalPoint(coords)
            sup = projective_height(pt)
            l2 = projective_height_l2(pt, 40)
            n = len(coords)
            # sup <= l2 <= sup + (1/2) log n
            assert height_value_compare(sup, l2) in (EQUAL, "less")
            with workdps(60):
                slo, shi = sup.bounds(50)
                llo, lhi = l2.bounds(50)
                assert lhi <= shi + mp.log(n) / 2 + mpf(10) ** -30

    def test_weighted_integer_gamma_exact(self):
        pt = RadicalPoint([1, _scalar(p2="1/2")])
        h = weighted_projective_height(pt, -1)
        assert h.is_exact
        assert h.exact == LogCombination({2: Fraction(1, 4)})

    def test_weighted_fractional_gamma_numeric(self):
        pt = RadicalPoint([1, _scalar(p2="1/2")])
        h = weighted_projective_height(pt, Fraction(-1, 2))
        assert not h.is_exact
        with workdps(60):
            truth = mp.log(2) / 2 / mp.sqrt(2)
            assert abs(h.numeric.value - truth) <= h.numeric.radius + mpf(10) ** -30

    def test_weighted_scale_invariance(self):
        pt = RadicalPoint([_scalar(p2="1/2"), _scalar(p3="1/3")])
        lam = _scalar(p2="2", p3="-1/3")
        pt2 = RadicalPoint([c * lam for c in pt.coords])
        a = weighted_projective_height(pt, -2)
        b = weighted_projective_height(pt2, -2)
        assert a.exact == b.exact


class TestChain:
    def test_frozen_example(self):
        # [1 : (17/2)^(1/2) : 1], gamma = -1: K = Q(sqrt(17/2)) deg 2,
        # I = {index of the radical}, h = (1/2) log 17
        pt = RadicalPoint(
            [RadicalScalar.one(), _scalar(p17="1/2", p2="-1/2"), RadicalScalar.one()]
        )
        rep = lemma_chain_check(pt, -1)
        assert rep.verdict == "holds"
        # indices refer to the affine coordinates [a, 1]
        assert rep.index_set == (0,)
        want = LogCombination({17: Fraction(1, 4)})
        assert rep.lhs.exact == want
        assert rep.middle.exact == want
        # rhs: weight N*gamma = -2 -> 4^-... deg 2 ** -2 = 1/4... h/4?
        # h_{-2}(a) = 2**(-2) * (1/2) log 17 = (1/8) log 17
        assert rep.rhs.exact == LogCombination({17: Fraction(1, 8)})

    def test_numeric_values_contain_120_digit_values(self):
        # [1 : 2^(1/2) : 3^(1/3)], gamma = -1/2: [K:Q] = 6, h(P) = (1/3) log 3,
        # middle = rhs = 6^(-1/2) ((1/2) log 2 * (1/3) log 3)^(1/2); the
        # radii are near 1e-74, far below what a 53-bit midpoint resolves
        pt = RadicalPoint([RadicalScalar.one(), _scalar(p2="1/2"), _scalar(p3="1/3")])
        rep = lemma_chain_check(pt, Fraction(-1, 2))
        assert rep.verdict == "holds"
        with workdps(120):
            w = 1 / mp.sqrt(6)
            geo = mp.sqrt(mp.log(2) / 2 * mp.log(3) / 3)
            want = {"lhs": w * mp.log(3) / 3, "middle": w * geo, "rhs": w * geo}
            for name, truth in want.items():
                ball = getattr(rep, name).numeric
                assert ball is not None, name
                assert ball.radius < mpf(10) ** -60, name
                assert abs(ball.value - truth) <= ball.radius, name

    def test_degenerate(self):
        pt = RadicalPoint([1, 1, None])
        rep = lemma_chain_check(pt, -1)
        assert rep.verdict == "degenerate"
        assert rep.index_set == ()

    def test_gamma_validation(self):
        pt = RadicalPoint([1, _scalar(p2="1/2")])
        with pytest.raises(ValueError):
            lemma_chain_check(pt, 0)
        with pytest.raises(ValueError):
            lemma_chain_check(pt, Fraction(1, 2))

    def test_seeded_battery(self):
        rng = random.Random(2026)
        gammas = [Fraction(-1), Fraction(-2), Fraction(-1, 2)]
        for trial in range(120):
            n = rng.randint(1, 3)
            coords = [RadicalScalar.one()]
            for _ in range(n):
                if rng.random() < 0.15:
                    coords.append(None)
                    continue
                ex = {}
                for p in rng.sample([2, 3, 5, 7], rng.randint(1, 2)):
                    num = rng.randint(-3, 3)
                    den = rng.randint(1, 3)
                    if num:
                        ex[p] = Fraction(num, den)
                coords.append(RadicalScalar(ex))
            if not any(c is not None for c in coords):
                continue
            pt = RadicalPoint(coords)
            rep = lemma_chain_check(pt, rng.choice(gammas))
            assert rep.verdict in ("holds", "degenerate")

    def test_violation_raising_machinery(self):
        # the chain itself is a theorem; check the error type exists and
        # derives from AssertionError so batteries fail loudly
        assert issubclass(ChainViolationError, AssertionError)

    @pytest.mark.parametrize("lhs, raises", [(1, True), (3, False)])
    def test_lhs_below_middle_raises(self, monkeypatch, lhs, raises):
        # lhs enclosed at `lhs`, middle at #I = 2: only lhs < middle raises
        from heightlab import radicals
        from heightlab.numcore import BigFloat

        def fake(base, exponent, combinations, dps):
            return BigFloat(lhs if len(combinations) == 1 else 2)

        monkeypatch.setattr(radicals, "_interval_value", fake)
        pt = RadicalPoint([RadicalScalar.one(), _scalar(p2="1/2"), _scalar(p3="1/3")])
        if raises:
            with pytest.raises(ChainViolationError, match="lhs < middle"):
                lemma_chain_check(pt, Fraction(-1, 2))
        else:
            assert lemma_chain_check(pt, Fraction(-1, 2)).verdict == "holds"


class TestCensus:
    def test_rational_census_frozen(self):
        # dim 1, no generators, gamma -1, threshold log 2: affine
        # rationals p/q with h(x) = log max(p, q) * deg**-1 < log 2
        # i.e. max(p, q) < 2: only 1/1; plus the zero/infinity charts
        census = projective_northcott_experiment(
            [], dim=1, gamma=-1, threshold=LogCombination({2: Fraction(1)})
        )
        got = {tuple(e.coord_strings()) for e in census.entries}
        assert got == {("1", "0"), ("1", "1"), ("1", "-1"), ("0", "1")}
        # rational shells never run out of fresh atoms, so the budget is
        # what stops the enumeration
        assert census.truncated and census.evaluated == census.budget

    def test_census_with_generator(self):
        gen = _scalar(p2="1/2")
        census = projective_northcott_experiment(
            [gen],
            dim=1,
            gamma=-1,
            threshold=LogCombination({2: Fraction(2, 3)}),
            budget=4000,
        )
        strs = {tuple(e.coord_strings()) for e in census.entries}
        # sqrt 2 has weighted height (1/2)(1/2) log 2 = 0.17 < 0.46
        assert ("1", "2^(1/2)") in strs
        assert ("1", "-2^(1/2)") in strs
        assert ("1", "2^(-1/2)") in strs
        # 2 has height log 2 > (2/3) log 2, excluded
        assert ("1", "2") not in strs

    def test_census_heights_all_below_threshold(self):
        thr = LogCombination({2: Fraction(2, 3)})
        census = projective_northcott_experiment(
            [_scalar(p3="1/3")], dim=1, gamma=-1, threshold=thr, budget=3000
        )
        for e in census.entries:
            cmp = height_value_compare(e.height, HeightValue(exact=thr))
            assert cmp == "less"

    def test_numeric_threshold_decisions_match_100_digits(self, monkeypatch):
        # gamma = -1/2 weights the points of degree 2 by the irrational
        # 2^(-1/2), so their heights are balls and _height_below decides
        # them by enclosures; every decision, both ways, and every entry
        # is checked against 100-digit values
        from heightlab import radicals

        seen, wph, below = [], radicals.weighted_projective_height, radicals._height_below

        def height(pt, gamma, digits):
            h = wph(pt, gamma, digits)
            seen.append([pt, h])
            return h

        def decide(h, threshold, digits):
            out = below(h, threshold, digits)
            seen[-1].append(out)
            return out

        monkeypatch.setattr(radicals, "weighted_projective_height", height)
        monkeypatch.setattr(radicals, "_height_below", decide)
        census = projective_northcott_experiment(
            [_scalar(p2="1/2")], dim=1, gamma=Fraction(-1, 2), threshold=Fraction(1, 2), budget=300
        )

        def truth(pt):  # [1 : a] or [0 : 1]: [Q(a):Q]^(-1/2) h(a)
            a = pt.coords[1] if pt.coords[0] is not None else None
            if a is None:
                return mpf(0)
            logs = [mpf(r.numerator) / r.denominator * mp.log(p) for p, r in a.exponents.items()]
            h = max(mp.fsum(v for v in logs if v > 0), -mp.fsum(v for v in logs if v < 0))
            return h / mp.sqrt(lcm(*(r.denominator for r in a.exponents.values())))

        assert len(seen) == census.evaluated
        numeric = [(pt, out) for pt, h, out in seen if not h.is_exact]
        assert {out for _, out in numeric} == {True, False}
        with workdps(100):
            for pt, out in numeric:
                assert out == (truth(pt) < mpf(1) / 2), pt
            for e in census.entries:
                t = truth(e.point)
                assert t < mpf(1) / 2, e.point
                if not e.height.is_exact:
                    assert abs(e.height.numeric.value - t) <= e.height.numeric.radius, e.point

    def test_budget_truncation(self):
        census = projective_northcott_experiment(
            [_scalar(p2="1/2"), _scalar(p3="1/2")],
            dim=2,
            gamma=-1,
            threshold=Fraction(3),
            budget=50,
        )
        assert census.truncated
        assert census.evaluated <= 50

    def test_threshold_forms(self):
        a = projective_northcott_experiment([], 1, -1, Fraction(1, 2), budget=500)
        b = projective_northcott_experiment(
            [], 1, -1, LogCombination(const=Fraction(1, 2)), budget=500
        )
        assert {tuple(e.coord_strings()) for e in a.entries} == {
            tuple(e.coord_strings()) for e in b.entries
        }
