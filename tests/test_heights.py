import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf, workdps
from mpmath.libmp import to_rational

from heightlab import heights
from heightlab.heights import (
    EQUAL,
    GREATER,
    INCONCLUSIVE,
    LESS,
    AlgebraicNumber,
    HeightValue,
    LogCombination,
    degree_weight,
    height_value_compare,
    mahler_height,
    rational_power,
    rational_roots,
    weighted_height,
    weil_height,
)
from heightlab.numcore import BigFloat, IntPoly


# cyclotomic polynomials 1..12, hardcoded (independent of the package)
CYCLOTOMICS = {
    1: [-1, 1],
    2: [1, 1],
    3: [1, 1, 1],
    4: [1, 0, 1],
    5: [1, 1, 1, 1, 1],
    6: [1, -1, 1],
    7: [1, 1, 1, 1, 1, 1, 1],
    8: [1, 0, 0, 0, 1],
    9: [1, 0, 0, 1, 0, 0, 1],
    10: [1, -1, 1, -1, 1],
    11: [1] * 11,
    12: [1, 0, -1, 0, 1],
}


class TestLogCombination:
    def test_sign_exact_zero(self):
        # 2 log 2 + log 3 - log 12 = 0 symbolically
        c = LogCombination({2: Fraction(2), 3: Fraction(1)}) - LogCombination.log_of_rational(12)
        assert c.is_zero()
        assert c.sign() == 0

    def test_sign_nonzero(self):
        assert LogCombination({2: Fraction(1)}).sign() == 1
        assert LogCombination({2: Fraction(-1, 3)}).sign() == -1
        assert LogCombination(const=Fraction(-3, 7)).sign() == -1

    def test_close_call_sign(self):
        # log 2 + log 3 - log 6 = 0; perturb by 1/10^6 of log 2
        c = (
            LogCombination({2: Fraction(1), 3: Fraction(1)})
            - LogCombination.log_of_rational(6)
            + LogCombination({2: Fraction(1, 10**6)})
        )
        assert c.sign() == 1

    def test_compare(self):
        a = LogCombination({2: Fraction(1)})
        b = LogCombination({3: Fraction(1)})
        assert a.compare(b) == LESS
        assert b.compare(a) == GREATER
        assert a.compare(LogCombination({2: Fraction(1)})) == EQUAL

    def test_log_of_rational(self):
        c = LogCombination.log_of_rational(Fraction(8, 9))
        assert c.coeffs == {2: Fraction(3), 3: Fraction(-2)}
        with pytest.raises(ValueError):
            LogCombination.log_of_rational(0)
        with pytest.raises(ValueError):
            LogCombination.log_of_rational(-3)

    def test_interval_contains_truth(self):
        c = LogCombination({2: Fraction(1, 2), 5: Fraction(-2, 3)}, const=Fraction(1, 7))
        lo, hi = c.interval(40)
        with workdps(60):
            truth = mp.log(2) / 2 - 2 * mp.log(5) / 3 + mpf(1) / 7
            assert lo <= truth <= hi
            assert hi - lo < mpf(10) ** -35

    def test_evaluate_radius(self):
        c = LogCombination({7: Fraction(3, 2)})
        b = c.evaluate(50)
        with workdps(70):
            truth = 3 * mp.log(7) / 2
        assert abs(b.value - truth) <= b.radius
        assert b.radius < mpf(10) ** -45

    def test_str(self):
        c = LogCombination({2: Fraction(1, 2), 3: Fraction(-1)}, const=Fraction(1, 4))
        s = str(c)
        assert "log(2)" in s and "log(3)" in s and "1/4" in s

    def test_scale_and_arithmetic(self):
        c = LogCombination({2: Fraction(1), 3: Fraction(2)}, const=Fraction(5))
        d = c.scale(Fraction(-1, 2))
        assert (c + d + d).is_zero()

    def test_validates_primes(self):
        with pytest.raises(ValueError):
            LogCombination({4: Fraction(1)})
        with pytest.raises(ValueError):
            LogCombination({-2: Fraction(1)})

    def test_arithmetic_does_not_revalidate_primes(self, monkeypatch):
        from heightlab import heights

        a = LogCombination({2: Fraction(1, 2), 5: Fraction(-3)}, const=Fraction(1, 3))
        b = LogCombination({2: Fraction(-1, 2), 3: Fraction(2)}, const=Fraction(2))
        want = [
            LogCombination({3: Fraction(2), 5: Fraction(-3)}, const=Fraction(7, 3)),
            LogCombination({2: Fraction(1), 3: Fraction(-2), 5: Fraction(-3)}, const=Fraction(-5, 3)),
            LogCombination({2: Fraction(-1, 2), 5: Fraction(3)}, const=Fraction(-1, 3)),
            LogCombination({2: Fraction(-3, 4), 5: Fraction(9, 2)}, const=Fraction(-1, 2)),
            LogCombination(),
        ]

        def no_primality(p):
            raise AssertionError("is_prime called on an already validated prime")

        monkeypatch.setattr(heights, "is_prime", no_primality)
        got = [a + b, a - b, -a, a.scale(Fraction(-3, 2)), a.scale(0)]
        assert got == want
        assert [list(c.coeffs) for c in got] == [list(c.coeffs) for c in want]
        assert [hash(c) for c in got] == [hash(c) for c in want]
        assert all(isinstance(c.const, Fraction) for c in got)


class TestRationalRoots:
    def test_known(self):
        # (2x - 3)(x + 5)(x^2 + 1)
        p = IntPoly([-3, 2]) * IntPoly([5, 1]) * IntPoly([1, 0, 1])
        assert sorted(rational_roots(p)) == [-5, Fraction(3, 2)]

    def test_no_rational_roots(self):
        assert rational_roots(IntPoly([-2, 0, 1])) == []

    def test_multiplicity_listed_once(self):
        p = IntPoly([-1, 1]) * IntPoly([-1, 1])
        assert rational_roots(p) == [1]


class TestAlgebraicNumber:
    def test_rejects_reducible(self):
        with pytest.raises(ValueError):
            AlgebraicNumber(IntPoly([-6, 5, 1]))  # (x+6)(x-1)
        with pytest.raises(ValueError):
            # x^4 - 4 = (x^2-2)(x^2+2): no rational root, no Eisenstein
            # at 0 (works actually: p=2, 4 div by 4? 2^2 | 4 so Eisenstein
            # fails), degree 4 -> needs trust flag unless filters fire.
            AlgebraicNumber(IntPoly([1, 2, 1]))  # (x+1)^2

    def test_eisenstein_accepted(self):
        # x^4 - 2 is Eisenstein at 2
        a = AlgebraicNumber(IntPoly([-2, 0, 0, 0, 1]))
        assert a.irreducibility_certified

    def test_trust_flag(self):
        # x^4 + 1 certifies through the shifted Eisenstein filter
        a = AlgebraicNumber(IntPoly([1, 0, 0, 0, 1]))
        assert a.degree == 4 and a.irreducibility_certified
        # x^4 - x - 1 is irreducible but evades all the cheap filters
        p = IntPoly([-1, -1, 0, 0, 1])
        with pytest.raises(ValueError):
            AlgebraicNumber(p)
        b = AlgebraicNumber(p, trust_irreducible=True)
        assert not b.irreducibility_certified

    def test_normalizes_sign_and_content(self):
        a = AlgebraicNumber(IntPoly([4, 0, -2]))  # -2x^2 + 4
        assert a.minpoly.coeffs == (-2, 0, 1)

    def test_approx_selects_conjugate(self):
        a = AlgebraicNumber(IntPoly([-2, 0, 1]), approx=-1.4)
        assert a.approx.value.real < 0


class TestWeilHeight:
    def test_golden_ratio(self):
        a = AlgebraicNumber(IntPoly([-1, -1, 1]))
        h = weil_height(a, 40).evaluate(40)
        with workdps(60):
            truth = mp.log((1 + mp.sqrt(5)) / 2) / 2
            assert abs(h.value - truth) <= h.radius + mpf(10) ** -35
            # frozen reference value
            assert abs(h.value - mpf("0.2406059125")) < mpf(10) ** -9

    def test_rational_height(self):
        # h(p/q) = log max(|p|, |q|)
        a = AlgebraicNumber(IntPoly([-3, 7]))  # 3/7
        h = weil_height(a).evaluate(40)
        with workdps(60):
            assert abs(h.value - mp.log(7)) <= h.radius + mpf(10) ** -35
        b = AlgebraicNumber(IntPoly([-7, 3]))  # 7/3
        hb = weil_height(b).evaluate(40)
        assert abs(hb.value - h.value) < mpf(10) ** -30

    def test_roots_of_unity_height_zero(self):
        for n, coeffs in CYCLOTOMICS.items():
            if n == 1:
                continue
            p = IntPoly(coeffs)
            a = AlgebraicNumber(p, trust_irreducible=True)
            h = weil_height(a, 40).evaluate(40)
            assert abs(h.value) <= h.radius + mpf(10) ** -30
            assert h.radius < mpf(10) ** -20

    def test_integer_constant_term_bound(self):
        # |c0| >= 2 and irreducible non-cyclotomic: h >= log 2 / deg
        rng = random.Random(23)
        checked = 0
        while checked < 20:
            c0 = rng.choice([-6, -4, -3, -2, 2, 3, 4, 6])
            coeffs = [c0] + [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1]
            p = IntPoly(coeffs)
            try:
                a = AlgebraicNumber(p, trust_irreducible=True)
            except ValueError:
                continue
            h = weil_height(a, 40).evaluate(40)
            # product of all roots has modulus |c0| >= 2, so the Mahler
            # measure is >= 2 and h >= log(2)/deg
            with workdps(50):
                assert h.value + h.radius >= mp.log(2) / p.degree - mpf(10) ** -30
            checked += 1

    def test_inverse_invariance(self):
        # h(1/a) = h(a): reverse the coefficient list
        rng = random.Random(67)
        for _ in range(10):
            coeffs = [rng.choice([2, 3, -2, -3])] + [
                rng.randint(-5, 5) for _ in range(rng.randint(1, 4))
            ]
            coeffs.append(rng.choice([1, 2, 5]))
            p = IntPoly(coeffs)
            if p.coeffs[0] == 0 or p.degree < 1:
                continue
            h1 = mahler_height(p, 40)
            h2 = mahler_height(IntPoly(list(reversed(p.coeffs))), 40)
            assert abs(h1.value - h2.value) <= h1.radius + h2.radius + mpf(10) ** -35

    def test_undershoot_folded_into_radius_rounded_up(self, monkeypatch):
        # a sum just below 0 at 15 digits: the nearest-rounded radius +
        # undershoot would drop the 2^-200
        fake = BigFloat(-(mpf(2) ** -200), 1)
        monkeypatch.setattr(heights, "log_plus_sum", lambda total, roots: fake)
        h = mahler_height(IntPoly([-2, 1]), 0)
        with workdps(15):
            total = fake * BigFloat(Fraction(1, 1))
        assert h.value == 0
        exact = Fraction(*to_rational(total.radius._mpf_)) - Fraction(*to_rational(total.value._mpf_))
        assert Fraction(*to_rational(h.radius._mpf_)) >= exact

    def test_leading_term_radius_scales_with_its_log(self):
        # 10^30 x + 1: the leading term log(10^30) is about 69, so its
        # rounding allowance is near 1e-53, not near 10^30 * 1e-55
        h = mahler_height(IntPoly([1, 10**30]), 40)
        assert h.radius < mpf(10) ** -45
        with workdps(80):
            assert abs(h.value - 30 * mp.log(10)) <= h.radius

    def test_power_rule(self):
        # h(2^(1/2)) = (1/2) log 2, h(2^(1/3)) = (1/3) log 2
        for d in (2, 3, 4, 5):
            a = AlgebraicNumber(IntPoly([-2] + [0] * (d - 1) + [1]))
            h = weil_height(a, 40).evaluate(40)
            with workdps(60):
                assert abs(h.value - mp.log(2) / d) <= h.radius + mpf(10) ** -35


class TestWeightedHeight:
    def test_integer_gamma(self):
        a = AlgebraicNumber(IntPoly([-2, 0, 1]))  # sqrt 2, deg 2
        h = weighted_height(a, -1).evaluate(40)
        with workdps(60):
            truth = mp.log(2) / 4  # 2^-1 * (1/2) log 2
            assert abs(h.value - truth) <= h.radius

    def test_fractional_gamma(self):
        a = AlgebraicNumber(IntPoly([-2, 0, 1]))
        h = weighted_height(a, Fraction(-1, 2)).evaluate(40)
        with workdps(60):
            truth = mp.log(2) / 2 / mp.sqrt(2)
            assert abs(h.value - truth) <= h.radius

    @pytest.mark.parametrize("d", [1, 2, 6, 30, 2**61 - 1])
    def test_degree_weight_encloses_and_is_kept(self, d):
        for g in TestRationalPower.GAMMAS:
            w = degree_weight(d, g, 30)
            with workdps(80):
                assert abs(w.value - mpf(d) ** (mpf(g.numerator) / g.denominator)) <= w.radius
            assert w.radius < mpf(10) ** -40 * (abs(w.value) + 1)
            assert degree_weight(d, g, 30) is w


class TestRationalPower:
    GAMMAS = [Fraction(g) for g in ("-2", "-1", "-1/2", "-1/3", "-2/3", "-3/4", "-5/6")]

    @staticmethod
    def _integer_root(n: int, k: int):
        """The integer r with r**k == n, or None."""
        r = round(n ** (1 / k))
        return next((c for c in (r - 1, r, r + 1) if c > 0 and c**k == n), None)

    def test_exact_when_a_rational_root_exists(self):
        for d in range(1, 65):
            for g in self.GAMMAS:
                w = rational_power(d, g)
                # a rational q with q**den = d**num is 1/r for an integer
                # r with r**den = d**(-num)
                root = self._integer_root(d ** -g.numerator, g.denominator)
                assert (w is None) == (root is None), (d, g)
                if w is not None:
                    assert w ** g.denominator == Fraction(d) ** g.numerator

    def test_strings_are_read_by_the_one_reader(self):
        # a str gamma is the Fraction it names, and an exponent above
        # MAX_EXPONENT is refused before its power of 10 is built
        assert rational_power(4, "-0.5") == Fraction(1, 2)
        assert degree_weight(4, "-0.5", 24).value == mpf(1) / 2
        with pytest.raises(ValueError, match="MAX_EXPONENT"):
            rational_power(2, "1e-200000")
        with pytest.raises(ValueError, match="MAX_EXPONENT"):
            degree_weight(2, "1e-200000", 24)


class TestHeightValueCompare:
    def test_exact_vs_exact(self):
        x = HeightValue(exact=LogCombination({2: Fraction(1, 2)}))
        y = HeightValue(exact=LogCombination({2: Fraction(1, 3)}))
        assert height_value_compare(x, y) == GREATER
        assert height_value_compare(x, x) == EQUAL

    def test_numeric_vs_exact(self):
        x = HeightValue(numeric=BigFloat(mpf("0.5"), mpf("1e-20")))
        y = HeightValue(exact=LogCombination({2: Fraction(1)}))
        assert height_value_compare(x, y) == LESS

    def test_numeric_disc_finer_than_53_bits(self):
        # (log 2 + 1e-30) +- 1e-45 lies above log 2; its bounds rounded
        # to 53 bits fall below log 2
        with workdps(60):
            x = HeightValue(numeric=BigFloat(mp.log(2) + mpf("1e-30"), mpf("1e-45")))
        y = HeightValue(exact=LogCombination({2: Fraction(1)}))
        assert height_value_compare(x, y) == GREATER
        assert height_value_compare(y, x) == LESS
        lo, hi = x.bounds(40)
        with workdps(200):
            assert lo == x.numeric.value - x.numeric.radius
            assert hi == x.numeric.value + x.numeric.radius

    def test_inconclusive_overlap(self):
        x = HeightValue(numeric=BigFloat(mpf("0.5"), mpf("0.1")))
        y = HeightValue(numeric=BigFloat(mpf("0.55"), mpf("0.1")))
        assert height_value_compare(x, y) == INCONCLUSIVE

    def test_zero(self):
        z = HeightValue.zero()
        assert z.exact is not None and z.exact.is_zero()
        assert height_value_compare(z, HeightValue.zero()) == EQUAL
