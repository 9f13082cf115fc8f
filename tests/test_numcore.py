import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpc, mpf, workdps
from mpmath.libmp import to_rational

from heightlab import numcore
from heightlab.numcore import (
    BigFloat,
    ConstructionError,
    IntMatrix,
    IntPoly,
    PrecisionError,
    certify,
    factorint,
    is_prime,
    next_prime,
    poly_roots,
    primes_below,
    smith_normal_form,
    squarefree_decomposition,
)


class TestPrimes:
    def test_small_values(self):
        assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_sieve_agrees_with_is_prime(self):
        sieve = set(primes_below(500))
        for n in range(500):
            assert is_prime(n) == (n in sieve)

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265):
            assert not is_prime(n)

    def test_known_large_primes(self):
        assert is_prime(2**61 - 1)
        assert is_prime(2**89 - 1)
        assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
        assert not is_prime((2**61 - 1) * (2**89 - 1))

    def test_next_prime(self):
        assert next_prime(1) == 2
        assert next_prime(2) == 3
        assert next_prime(16) == 17
        assert next_prime(2**36) == 68719476767
        p = next_prime(10**40)
        assert p > 10**40 and is_prime(p)

    def test_factorint_round_trip(self):
        rng = random.Random(1201)
        small = primes_below(200)
        for _ in range(60):
            n = 1
            for _ in range(rng.randint(1, 5)):
                n *= rng.choice(small) ** rng.randint(1, 3)
            fac = factorint(n)
            prod = 1
            for p, e in fac.items():
                assert is_prime(p) and e >= 1
                prod *= p**e
            assert prod == n

    def test_factorint_semiprime(self):
        p, q = 1000003, 1000033
        assert factorint(p * q) == {p: 1, q: 1}

    def test_factorint_twelve_digit_factors(self):
        # the largest factors a number below 10**24 can force rho to find
        assert factorint(100000000003 * 1000000000039) == {100000000003: 1, 1000000000039: 1}

    def test_factorint_step_budget(self, monkeypatch):
        # two 20-digit primes need ~1e10 rho steps; a small budget keeps
        # the test fast, the fixed one ends the same way
        n = 300000000000000001940000000000000002091
        monkeypatch.setattr(numcore, "_RHO_STEPS", 1 << 12)
        with pytest.raises(ConstructionError, match="Pollard-rho"):
            factorint(n)
        assert factorint(1009 * 100003 * 10000019) == {1009: 1, 100003: 1, 10000019: 1}

    def test_factorint_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorint(0)


class TestIntPoly:
    def test_basic_properties(self):
        p = IntPoly([-1, -1, 1])  # x^2 - x - 1
        assert p.degree == 2
        assert p.leading == 1
        assert p(2) == 1
        assert p(Fraction(1, 2)) == Fraction(-5, 4)

    def test_trailing_zeros_trimmed(self):
        assert IntPoly([1, 2, 0, 0]).degree == 1

    def test_mul_matches_evaluation(self):
        rng = random.Random(7)
        for _ in range(30):
            a = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [1])
            b = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [1])
            ab = a * b
            for x in (-3, -1, 0, 1, 2, 5):
                assert ab(x) == a(x) * b(x)

    def test_derivative(self):
        p = IntPoly([5, -3, 0, 2])  # 2x^3 - 3x + 5
        assert p.derivative().coeffs == (-3, 0, 6)

    def test_squarefree_decomposition(self):
        # (x-1)^2 (x+2) -> [(x+2, 1), (x-1, 2)] in some order
        p = IntPoly([-1, 1]) * IntPoly([-1, 1]) * IntPoly([2, 1])
        decomp = squarefree_decomposition(p)
        assert sorted(m for _, m in decomp) == [1, 2]
        prod = IntPoly([1])
        for q, m in decomp:
            for _ in range(m):
                prod = prod * q
        assert prod.coeffs == p.coeffs

    def test_squarefree_random_products(self):
        rng = random.Random(42)
        bases = [IntPoly([1, 1]), IntPoly([-2, 1]), IntPoly([1, 0, 1]), IntPoly([3, 1])]
        for _ in range(20):
            mults = [rng.randint(0, 3) for _ in bases]
            if not any(mults):
                continue
            p = IntPoly([rng.choice([1, 2, -3])])
            for q, m in zip(bases, mults):
                for _ in range(m):
                    p = p * q
            decomp = squarefree_decomposition(p)
            rebuilt = IntPoly([1])
            for q, m in decomp:
                for _ in range(m):
                    rebuilt = rebuilt * q
            # decomposition recovers the primitive part up to sign
            got = rebuilt.primitive().coeffs
            want = p.primitive().coeffs
            assert got == want or got == tuple(-c for c in want)


class TestPolyRoots:
    def test_simple_quadratic(self):
        roots = poly_roots(IntPoly([-2, 0, 1]), 40)  # x^2 - 2
        vals = sorted(r.value.real for r in roots)
        with workdps(50):
            assert abs(vals[1] - mp.sqrt(2)) < mpf(10) ** -38
            assert abs(vals[0] + mp.sqrt(2)) < mpf(10) ** -38
        for r in roots:
            assert r.radius <= mpf(10) ** -40

    def test_root_count_with_multiplicity(self):
        p = IntPoly([-1, 1]) * IntPoly([-1, 1]) * IntPoly([3, 1])
        roots = poly_roots(p, 30)
        assert len(roots) == 3
        ones = [r for r in roots if abs(r.value - 1) < mpf(10) ** -25]
        assert len(ones) == 2

    def test_rational_roots_exact(self):
        # 2x - 3 has a dyadic-exact root representation
        roots = poly_roots(IntPoly([-3, 2]), 30)
        assert len(roots) == 1
        assert roots[0].value == mpf(3) / 2

    def test_linear_root_exact_only_when_dyadic(self):
        # 1/(2^200 - 1) rounds to 2^-200, which a double holds exactly;
        # the root is not that double, so its disc needs a radius
        root = poly_roots(IntPoly([-1, 2**200 - 1]), 20)[0]
        assert root.radius > 0
        with workdps(250):
            assert abs(root.value - mpf(1) / (2**200 - 1)) <= root.radius

    def test_roots_satisfy_polynomial(self):
        rng = random.Random(17)
        for _ in range(15):
            coeffs = [rng.randint(-20, 20) for _ in range(rng.randint(2, 7))]
            coeffs.append(rng.randint(1, 20))
            p = IntPoly(coeffs)
            if p.degree < 1:
                continue
            for r in poly_roots(p, 35):
                with workdps(60):
                    val = abs(p(r.value))
                    # |p(center)| <= max|p'| on the disc * radius
                    dbound = sum(
                        i * abs(c) * (1 + abs(r.value)) ** i
                        for i, c in enumerate(p.coeffs)
                    )
                assert val <= 2 * dbound * (r.radius + mpf(10) ** -34)

    def test_coefficients_beyond_a_double(self):
        # x^2 - 10^400 has no float start; the circle start still converges
        roots = poly_roots(IntPoly([-(10**400), 0, 1]), 50)
        assert len(roots) == 2
        with workdps(300):
            for r, sign in zip(roots, (-1, 1)):
                assert r.radius <= mpf(10) ** -50
                assert abs(r.value - sign * mpf(10) ** 200) <= r.radius


def _mignotte(n: int, a: int) -> IntPoly:
    """x^n - 2(a x - 1)^2: two roots near 1/a about a^(-(n+2)/2) apart."""
    return IntPoly([-2, 4 * a, -2 * a * a] + [0] * (n - 3) + [1])


def _random_poly(degree: int) -> IntPoly:
    rng = random.Random(f"root-discs-{degree}")
    return IntPoly([rng.randint(-9, 9) for _ in range(degree)] + [rng.randint(1, 9)])


@pytest.mark.parametrize(
    "poly",
    [_mignotte(7, 10**6), _mignotte(12, 10**4), _mignotte(20, 1000)]
    + [_random_poly(d) for d in (5, 17, 40)],
    ids=["mignotte-7", "mignotte-12", "mignotte-20", "random-5", "random-17", "random-40"],
)
def test_every_root_disc_holds_a_root(poly):
    # the 200-digit reference roots are far closer than the disc radii
    # (1e-78 and smaller) to the true roots, clusters included
    discs = poly_roots(poly, 50)
    assert len(discs) == poly.degree
    with workdps(200):
        ref = mp.polyroots(list(reversed(poly.coeffs)), maxsteps=500, extraprec=200)
        for disc in discs:
            assert disc.radius <= mpf(10) ** -50
            assert min(abs(disc.value - r) for r in ref) <= disc.radius


class TestBigFloat:
    def test_radius_contains_truth(self):
        rng = random.Random(5)
        with workdps(20):
            for _ in range(50):
                a = mpf(rng.uniform(-10, 10))
                b = mpf(rng.uniform(0.1, 10))
                x = BigFloat(a, mpf(10) ** -12)
                y = BigFloat(b, mpf(10) ** -13)
                z = (x * y + x) / y
                with workdps(60):
                    truth = (a * b + a) / b
                assert abs(z.value - truth) <= z.radius

    def test_division_by_zero_disc(self):
        with pytest.raises(PrecisionError):
            BigFloat(1) / BigFloat(mpf(10) ** -30, mpf(10) ** -20)

    def test_log_and_sqrt(self):
        with workdps(30):
            x = BigFloat(mpf(7), mpf(10) ** -20)
            assert abs(x.sqrt_pos().value - mp.sqrt(7)) <= x.sqrt_pos().radius + mpf(10) ** -25
            assert abs(x.log_abs().value - mp.log(7)) <= x.log_abs().radius + mpf(10) ** -25

    def test_log_abs_near_unit_complex(self):
        # |z| rounds to 1 at 30 digits, while log|z| = -1.97e-32
        with workdps(30):
            z = BigFloat(mpc("0.6", "0.8"))
            lg = z.log_abs()
        with workdps(120):
            assert abs(lg.value - mp.log(abs(z.value))) <= lg.radius
        rng = random.Random(5)
        for _ in range(200):
            with workdps(30):
                t = mpf(rng.random()) * 2 * mp.pi
                z = BigFloat(mpc(mp.cos(t), mp.sin(t)) * (1 + mpf(rng.uniform(-1, 1)) * mpf(10) ** -28))
                lg = z.log_abs()
            with workdps(120):
                assert abs(lg.value - mp.log(abs(z.value))) <= lg.radius

    def test_complex_division_by_zero_disc(self):
        with pytest.raises(PrecisionError):
            BigFloat(mpc(1, 1)) / BigFloat(mpc("1e-30", "1e-30"), mpf("1e-20"))

    def test_complex_exp_radius_sound(self):
        with workdps(25):
            x = BigFloat(mpc("0.3", "0.4"), mpf("1e-18"))
            y = x.exp()
        with workdps(60):
            truth = mp.exp(mpc("0.3", "0.4"))
            assert abs(y.value - truth) <= y.radius

    def test_complex_mul_radius_sound(self):
        with workdps(25):
            a = BigFloat(mpc("1.5", "-2"), mpf("1e-15"))
            b = BigFloat(mpc("0.25", "3"), mpf("1e-16"))
            c = a * b
        with workdps(60):
            truth = mpc("1.5", "-2") * mpc("0.25", "3")
            assert abs(c.value - truth) <= c.radius

    def test_pow_int(self):
        x = BigFloat(3, 0)
        assert x.pow_int(5).value == 243

    def test_pow_int_one_is_the_ball_itself(self):
        # starting from BigFloat(1) * z added one allowance to z's radius
        rng = random.Random(11)
        for dps in (15, 39, 250):
            with workdps(dps):
                for complex_value in (False, True):
                    z = _random_ball(rng, complex_value, [mpf(0), mpf(10) ** -(dps // 2)])
                    p = z.pow_int(1)
                    assert p.value == z.value and p.radius == z.radius

    def test_pow_int_midpoints_are_plain_binary_powers(self):
        def plain(v, n):
            out, base = mpf(1), v
            while n:
                if n & 1:
                    out = out * base
                base = base * base
                n >>= 1
            return out

        rng = random.Random(12)
        for dps in (15, 39, 250):
            with workdps(dps):
                for complex_value in (False, True):
                    z = _random_ball(rng, complex_value, [mpf(10) ** -(dps // 2)])
                    for n in range(41):
                        assert z.pow_int(n).value == plain(z.value, n), (dps, n)

    def test_widened_adds_rounded_up(self):
        # at 15 digits the nearest sum 1 + 2^-200 is 1
        with workdps(15):
            b = BigFloat(mpc(1, 2), 1).widened(mpf(2) ** -200)
        assert b.value == mpc(1, 2)
        assert _exact(b.radius) >= 1 + Fraction(1, 2**200)
        with pytest.raises(ValueError):
            b.widened(-1)

    def test_geometric_tail_bounds_the_exact_sum(self):
        rng = random.Random(13)
        for _ in range(300):
            with workdps(rng.choice((15, 39, 250))):
                x = mpf(rng.random()) * mpf("0.9995")
            e, k = rng.randint(1, 400), rng.randint(1, 40)
            tail = numcore._geometric_tail(x, e, k)
            q = _exact(x)
            assert _exact(tail) >= 2 * q**e / (1 - q**k)
        with pytest.raises(ValueError):
            numcore._geometric_tail(1, 3)

    def test_from_bounds_encloses_at_low_ambient_precision(self):
        with workdps(80):
            lo = mp.log(2)
            hi = lo + mpf(10) ** -70
        b = BigFloat.from_bounds(lo, hi)
        with workdps(120):
            assert b.value == (lo + hi) / 2
            assert b.value - b.radius <= lo and hi <= b.value + b.radius
            assert b.radius <= mpf(10) ** -70

    def test_radius_rounded_up_at_ambient_precision(self):
        # 1/3 at 60 digits, stored at 15: rounding to nearest would
        # keep a radius below the one passed in
        with workdps(60):
            r = mpf(1) / 3
        with workdps(15):
            b = BigFloat(0, r)
        assert b.radius >= r

    def test_int_held_exactly(self):
        # 2^200 + 1 needs 201 bits: rounded to 15 digits, a ball of radius
        # 0 would miss it; root discs take integer coefficients this way
        with workdps(15):
            b = BigFloat(2**200 + 1)
            one = b - 2**200
        assert b.radius == 0 and Fraction(*to_rational(b.value._mpf_)) == 2**200 + 1
        assert abs(one.value - 1) <= one.radius

    def test_bounds_exact_at_low_ambient_precision(self):
        # at 53 bits both ends would round to the double nearest 1/3
        with workdps(40):
            b = BigFloat(mpf(1) / 3, mpf(10) ** -30)
        lo, hi = b.bounds()
        assert lo < b.value < hi
        with workdps(120):
            assert lo == b.value - b.radius and hi == b.value + b.radius

    def test_rounded_is_value_with_steps_allowances(self):
        with workdps(30):
            for steps in (1, 2):
                b = BigFloat.rounded(mp.pi, steps)
                assert b.value == mp.pi
                assert b.radius >= steps * numcore._ulp_slop(mp.pi)
            assert BigFloat.rounded(2).radius > 0

    def test_fraction_ball_radius_zero_only_when_exact(self):
        with workdps(30):
            balls = {q: numcore._as_bigfloat(q) for q in (
                Fraction(3, 4), Fraction(-5), Fraction(1, 3), Fraction(1, 2**200 - 1)
            )}
        assert balls[Fraction(3, 4)].radius == 0 and balls[Fraction(-5)].radius == 0
        with workdps(250):
            for q, b in balls.items():
                assert abs(b.value - mpf(q.numerator) / q.denominator) <= b.radius
        assert balls[Fraction(1, 3)].radius > 0
        assert balls[Fraction(1, 2**200 - 1)].radius > 0

    def test_from_bounds_point_and_order(self):
        b = BigFloat.from_bounds(mpf(3), mpf(3))
        assert b.value == 3 and b.radius == 0
        with pytest.raises(ValueError):
            BigFloat.from_bounds(mpf(2), mpf(1))


def _exact(x) -> Fraction:
    return Fraction(*to_rational(x._mpf_))


def _random_ball(rng, complex_value, radii):
    """A ball with a full-precision midpoint of modulus below 4 and a
    radius drawn from radii, built at the current precision."""
    def part():
        return (mpf(rng.getrandbits(mp.prec)) / 2**mp.prec - mpf(0.5)) * 8

    value = mpc(part(), part()) if complex_value else part()
    return BigFloat(value, rng.choice(radii) * mpf(rng.random()))


def _points(ball):
    """The centre of a ball and its extreme points along each axis."""
    v, r = ball.value, ball.radius
    steps = (r, -r, mpc(0, r), mpc(0, -r)) if isinstance(v, mpc) else (r, -r)
    return [v] + [v + s for s in steps]


class TestBallEnclosure:
    """Every operation's ball contains the images of its inputs' centres
    and extreme points, mapped at four times the precision, and its
    radius is at least the rounding allowance ``_ulp_slop(value)``."""

    UNARY = {
        "neg": (lambda x: -x, lambda p: -p),
        "exp": (BigFloat.exp, mp.exp),
        "log_abs": (BigFloat.log_abs, lambda p: mp.log(abs(p))),
        "sqrt_pos": (BigFloat.sqrt_pos, lambda p: mp.sqrt(p)),
        "pow_int_5": (lambda x: x.pow_int(5), lambda p: p**5),
        "pow_int_-3": (lambda x: x.pow_int(-3), lambda p: p**-3),
    }
    BINARY = {
        "+": (lambda x, y: x + y, lambda p, q: p + q),
        "-": (lambda x, y: x - y, lambda p, q: p - q),
        "*": (lambda x, y: x * y, lambda p, q: p * q),
        "/": (lambda x, y: x / y, lambda p, q: p / q),
    }

    def _check(self, dps, out, images, allowance_floor=0):
        with workdps(4 * dps):
            for img in images:
                assert abs(img - out.value) <= out.radius
        if allowance_floor is not None:
            with workdps(dps):
                assert out.radius >= numcore._ulp_slop(out.value, allowance_floor)

    @pytest.mark.parametrize("dps", [15, 39, 250])
    def test_every_op_encloses_images(self, dps):
        rng = random.Random(dps)
        radii = [mpf(0), mpf(10) ** -(dps - 3), mpf(10) ** -(dps // 2), mpf("1e-3"), mpf(1), mpf(3)]
        for _ in range(20):
            for name, (op, f) in self.UNARY.items():
                real = name == "sqrt_pos" or rng.random() < 0.5
                with workdps(dps):
                    x = _random_ball(rng, not real, radii)
                    if name == "sqrt_pos":
                        x = BigFloat(abs(x.value), x.radius)
                    try:
                        out = op(x)
                    except PrecisionError:
                        # only a disc near zero is refused
                        assert name in ("log_abs", "sqrt_pos", "pow_int_-3")
                        assert abs(x.value) <= 4 * x.radius
                        continue
                with workdps(4 * dps):
                    images = [f(p) for p in _points(x)]
                # negation is exact and adds no allowance
                self._check(dps, out, images, None if name == "neg" else 1 if name == "log_abs" else 0)
            for name, (op, f) in self.BINARY.items():
                with workdps(dps):
                    x = _random_ball(rng, rng.random() < 0.5, radii[:4])
                    y = _random_ball(rng, rng.random() < 0.5, radii[:4])
                    try:
                        out = op(x, y)
                    except PrecisionError:
                        assert name == "/" and abs(y.value) <= 2 * y.radius
                        continue
                with workdps(4 * dps):
                    images = [f(p, q) for p in _points(x) for q in _points(y)]
                self._check(dps, out, images)

    def test_exp_of_wide_ball(self):
        # radii above 1 take the bound exp(r) - 1 < 2^(3r/2)
        for v, r in ((mpf("0.5"), mpf(2)), (mpc(-1, 2), mpf("1.5")), (mpf(3), mpf(7))):
            with workdps(30):
                x = BigFloat(v, r)
                out = x.exp()
            with workdps(120):
                images = [mp.exp(p) for p in _points(x)]
            self._check(30, out, images)

    def test_negation_exact_below_midpoint_precision(self):
        # rounded to 53 bits, -x would leave x - x = 1.85e-17 +- 1.5e-31
        with workdps(60):
            x, y = BigFloat(mpf(1) / 3), BigFloat(mpc(1, -1) / 3)
        with workdps(15):
            d, n = x - x, -y
        with workdps(60):
            assert abs(d.value) <= d.radius
            assert n.value == -y.value

    def test_radius_sum_rounded_up(self):
        # at 53 bits the sum 1 + 2^-200 rounds to nearest onto 1
        with workdps(15):
            s = BigFloat(0, 1) + BigFloat(0, mpf(2) ** -200)
        assert _exact(s.radius) >= 1 + Fraction(1, 2**200)

    def test_radius_product_rounded_up(self):
        # r * r rounds to nearest below r^2 at 53 bits
        r = 1 + Fraction(1, 2**52)
        with workdps(15):
            x = BigFloat(0, mpf(r.numerator) / r.denominator)
            p = x * x
        assert _exact(p.radius) >= r * r


class TestCertify:
    def test_doubles_until_decided(self):
        seen = []

        def attempt(dps):
            seen.append(dps)
            return "done" if dps >= 160 else None

        assert certify(attempt, 40, 1000, "probe") == "done"
        assert seen == [40, 80, 160]

    def test_ceiling_is_attempted(self):
        seen = []

        def attempt(dps):
            seen.append(dps)
            return dps if dps == 320 else None

        assert certify(attempt, 40, 320, "probe") == 320
        assert seen == [40, 80, 160, 320]

    def test_first_result_that_is_not_none_wins(self):
        seen = []

        def attempt(dps):
            seen.append(dps)
            return False

        assert certify(attempt, 40, 320, "probe") is False
        assert seen == [40]
        assert certify(lambda dps: 0, 40, 320, "probe") == 0

    def test_error_names_the_decision_and_ceiling(self):
        seen = []

        def attempt(dps):
            seen.append(dps)

        with pytest.raises(PrecisionError, match=r"widget sign .*639 digits"):
            certify(attempt, 40, 639, "widget sign")
        assert seen == [40, 80, 160, 320]


def _det_fraction(rows):
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
    return det


class TestIntMatrix:
    def test_det_known(self):
        assert IntMatrix([[1, 2], [3, 4]]).det() == -2
        assert IntMatrix([[2, 0, 0], [0, 3, 0], [0, 0, 5]]).det() == 30

    def test_det_random_vs_fraction_elimination(self):
        rng = random.Random(99)
        for _ in range(25):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert IntMatrix(rows).det() == _det_fraction(rows)

    def test_identity_and_mul(self):
        a = IntMatrix([[1, 2], [3, 4]])
        assert (a * IntMatrix.identity(2)).rows == a.rows


class TestSmithNormalForm:
    def _check(self, rows):
        m = IntMatrix(rows)
        s, u, v = smith_normal_form(m)
        assert (u * m * v).rows == s.rows
        assert abs(u.det()) == 1
        assert abs(v.det()) == 1
        diag = [s[i, i] for i in range(min(s.shape))]
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        for i in range(s.shape[0]):
            for j in range(s.shape[1]):
                if i != j:
                    assert s[i, j] == 0
        assert all(d >= 0 for d in diag)
        return diag

    def test_known_form(self):
        # invariant factors 2 | 6 | 12; |det| = 144
        diag = self._check([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
        assert diag == [2, 6, 12]

    def test_random_matrices(self):
        rng = random.Random(31)
        for _ in range(40):
            r = rng.randint(1, 4)
            c = rng.randint(1, 4)
            rows = [[rng.randint(-8, 8) for _ in range(c)] for _ in range(r)]
            self._check(rows)

    def test_rectangular(self):
        self._check([[6, 10, 15]])
        self._check([[6], [10], [15]])


def test_ulp_slop_called_only_in_numcore():
    # rounding allowances are numcore's alone: every other module gets
    # its balls from BigFloat.rounded, from_bounds or ball arithmetic,
    # the ball operations build theirs from 53-bit magnitude bounds, and
    # root discs are built by ball arithmetic
    callers = set()
    for path in sorted(Path(numcore.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.ClassDef):
                scopes = [(f"{top.name}.{fn.name}", fn) for fn in top.body if isinstance(fn, ast.FunctionDef)]
            else:
                scopes = [(getattr(top, "name", None), top)]
            for name, scope in scopes:
                for node in ast.walk(scope):
                    if isinstance(node, ast.Call):
                        f = node.func
                        called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                        if called == "_ulp_slop":
                            callers.add((path.name, name))
    assert callers == {("numcore.py", "BigFloat.rounded")}
