import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpc, mpf, workdps
from mpmath.libmp import from_man_exp, to_rational

from heightlab import numcore
from heightlab.numcore import (
    BigFloat,
    ConstructionError,
    IntMatrix,
    IntPoly,
    PrecisionError,
    certify,
    certify_order,
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


    def test_squarefree_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(2027)

        def rand(deg, bound):
            return IntPoly([rng.randint(-bound, bound) for _ in range(deg)] + [rng.randint(1, bound)])

        polys = [rand(deg, 10**6) for deg in (1, 5, 12, 30)]
        for _ in range(6):
            g, h, k = rand(rng.randint(1, 3), 9), rand(rng.randint(1, 2), 9), rand(rng.randint(0, 4), 99)
            polys.append(g * g * h * h * h * k)
        for p in polys:
            mine = {m: q.coeffs for q, m in squarefree_decomposition(p)}
            _, factors = sympy.sqf_list(sympy.Poly(list(reversed(p.coeffs)), x))
            theirs = {}
            for f, m in factors:
                f = IntPoly(reversed(f.all_coeffs())).primitive_positive()
                theirs[m] = (theirs[m] * f if m in theirs else f)
            assert mine == {m: f.coeffs for m, f in theirs.items()}, p


    def test_modular_test_falls_back_when_the_first_prime_fails(self):
        # x (x - q) is squarefree, but its discriminant q^2 vanishes mod
        # the first prime q; the next prime proves it squarefree
        q, second = numcore._SQUAREFREE_PRIMES[:2]
        p = IntPoly([0, -q, 1])
        assert not numcore._squarefree_mod(p.coeffs, q)
        assert numcore._squarefree_mod(p.coeffs, second)
        assert squarefree_decomposition(p) == [(p, 1)]

    def test_yun_when_every_prime_fails(self):
        # every prime divides the discriminant, or the leading coefficient
        prod = 1
        for q in numcore._SQUAREFREE_PRIMES:
            prod *= q
        for p in (IntPoly([0, -prod, 1]), IntPoly([-1, 0, prod])):
            assert not any(numcore._squarefree_mod(p.coeffs, q) for q in numcore._SQUAREFREE_PRIMES)
            assert squarefree_decomposition(p) == [(p, 1)]

    def test_modular_test_never_passes_a_square_factor(self):
        # the docstring's proof: g^2 h reduces to a polynomial sharing g~ with its derivative
        rng = random.Random(61)
        for _ in range(30):
            g = IntPoly([rng.randint(-50, 50) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 9)])
            h = IntPoly([rng.randint(-50, 50) for _ in range(rng.randint(0, 5))] + [rng.randint(1, 9)])
            if g.degree < 1:
                continue
            p = g * g * h
            assert not any(numcore._squarefree_mod(p.coeffs, q) for q in numcore._SQUAREFREE_PRIMES)

    def test_yun_over_z_on_a_class_polynomial(self):
        # H_-599^2 (x - 1)^3, degree 53: neither factor survives the
        # modular test, and both come back primitive, by multiplicity
        from heightlab.cmlab import hilbert_class_poly

        h, x1 = hilbert_class_poly(-599), IntPoly([-1, 1])
        p = IntPoly([-6]) * h * h * x1 * x1 * x1
        assert squarefree_decomposition(p) == [(h, 2), (x1, 3)]

    def test_yun_over_z_matches_sympy_to_degree_55(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(18)
        for _ in range(8):
            p = IntPoly([rng.choice([1, -2, 6])])
            for m in range(1, 5):
                g = IntPoly([rng.randint(-10**9, 10**9) for _ in range(rng.randint(0, 5))] + [rng.randint(1, 99)])
                for _ in range(m):
                    p = p * g
            assert p.degree <= 55
            mine = {m: q.coeffs for q, m in squarefree_decomposition(p)}
            _, factors = sympy.sqf_list(sympy.Poly(list(reversed(p.coeffs)), x))
            theirs = {m: IntPoly(reversed(f.all_coeffs())).primitive_positive().coeffs for f, m in factors}
            assert mine == {m: c for m, c in theirs.items() if len(c) > 1}, p


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

    def test_bini_start_follows_the_newton_polygon(self):
        # roots 2^-20, 1 and 2^20 give one circle each; x^3 - x starts its
        # root 0 at 0 (log2 -inf) and the others on the unit circle
        p = IntPoly([-1, 2**20 + 1]) * IntPoly([-(2**20), 1]) * IntPoly([-1, 1]) * IntPoly([0, 1])
        logs = sorted(l for l, _ in numcore._start(p.coeffs))
        assert logs[0] == float("-inf")
        assert [round(l) for l in logs[1:]] == [-20, 0, 20]
        assert sorted(l for l, _ in numcore._start((0, -1, 0, 1))) == [float("-inf"), 0.0, 0.0]

    def test_coefficients_beyond_a_double(self):
        # x^2 - 10^400 has no float stage; Bini's start still converges
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


def _assert_discs_hold_roots(poly: IntPoly, digits: int) -> None:
    """Every disc of poly_roots(poly, digits) holds a root of mpmath's
    polyroots taken to 3 * digits digits past the largest coefficient's,
    so that a root of modulus up to that coefficient keeps 3 * digits
    digits after the point."""
    discs = poly_roots(poly, digits)
    assert len(discs) == poly.degree
    big = max(abs(c) for c in poly.coeffs)
    with workdps(3 * digits + len(str(big))):
        ref = mp.polyroots(list(reversed(poly.coeffs)), maxsteps=1000, extraprec=big.bit_length() + 100)
        for disc in discs:
            assert disc.radius <= mpf(10) ** -digits
            assert min(abs(disc.value - r) for r in ref) <= disc.radius, (poly, disc)


def test_discs_hold_roots_of_class_polynomials():
    # H_d has roots up to e^(pi sqrt|d|), so its moduli span many orders
    # of magnitude: the inputs the reversed evaluation and Bini's start serve
    from heightlab.cmlab import class_number, hilbert_class_poly

    for n in range(3, 301):
        if -n % 4 in (0, 1) and class_number(-n) >= 2:
            _assert_discs_hold_roots(hilbert_class_poly(-n), 30)


@pytest.mark.parametrize(
    "poly",
    [
        IntPoly([0, -1, 0, 1]),
        IntPoly([0] + [random.Random("zero-constant-term").randint(-9, 9) for _ in range(11)] + [7]),
        IntPoly([-(10**400), 0, 1]),
    ],
    ids=["x^3-x", "seeded-c0-zero", "x^2-10^400"],
)
def test_discs_hold_roots_of_special_inputs(poly):
    # a zero constant term gives the root 0 a start of its own
    _assert_discs_hold_roots(poly, 30)


def _ball_certificate_radii(coeffs: tuple, z: list, s: int) -> list:
    """The radii 2n |w_i| as the ball certificate formed them before the
    Gaussian-integer one, at the ambient precision: a BigFloat Horner
    for p(z_i) and BigFloat products of the z_i - z_j."""
    n = len(z)
    balls = [BigFloat(mp.make_mpc((from_man_exp(a, -s), from_man_exp(b, -s)))) for a, b in z]
    cs = [BigFloat(c) for c in coeffs]
    dens = [cs[-1]] * n
    for i in range(n):
        for j in range(i + 1, n):
            d = balls[i] - balls[j]
            dens[i], dens[j] = dens[i] * d, dens[j] * -d
    radii = []
    for x, den in zip(balls, dens):
        p = cs[-1]
        for c in cs[-2::-1]:
            p = p * x + c
        w = p / den
        radii.append(numcore._mul_up(numcore._up(2 * n, 0), numcore._add_up(w._mag, w._r)))
    return radii


def _certified_calls(monkeypatch) -> list:
    """Every call of ``_weierstrass_discs`` from now on, as (coeffs, z, s,
    dps, discs): the exact iterates it certified and its precision."""
    calls, inner = [], numcore._weierstrass_discs

    def recorded(coeffs, z, s, target):
        discs = inner(coeffs, z, s, target)
        calls.append((coeffs, list(z), s, mp.dps, discs))
        return discs

    monkeypatch.setattr(numcore, "_weierstrass_discs", recorded)
    return calls


def _assert_no_wider_than_balls(calls: list) -> None:
    """Each certified disc is no wider than the ball certificate's disc
    about the same midpoint at the same precision."""
    certified = [call for call in calls if call[-1] is not None]
    assert certified
    for coeffs, z, s, dps, discs in certified:
        with workdps(dps):
            old = _ball_certificate_radii(coeffs, z, s)
        for disc, r in zip(discs, old):
            assert disc.radius <= mp.make_mpf(from_man_exp(*r)), (coeffs, disc)


@pytest.mark.parametrize(
    "poly",
    [_random_poly(d) for d in (2, 3, 7, 12, 20, 30, 40)]
    + [
        IntPoly([-(10**400), 0, 1]),
        IntPoly([0] + [random.Random("zero-constant-term").randint(-9, 9) for _ in range(11)] + [7]),
    ],
    ids=[f"random-{d}" for d in (2, 3, 7, 12, 20, 30, 40)] + ["x^2-10^400", "seeded-c0-zero"],
)
def test_discs_no_wider_than_the_ball_certificate(poly, monkeypatch):
    calls = _certified_calls(monkeypatch)
    _assert_discs_hold_roots(poly, 30)
    _assert_no_wider_than_balls(calls)


def test_class_polynomial_discs_no_wider_than_the_ball_certificate(monkeypatch):
    from heightlab.cmlab import class_number, hilbert_class_poly

    calls = _certified_calls(monkeypatch)
    for n in range(3, 301):
        if -n % 4 in (0, 1) and class_number(-n) >= 2:
            poly_roots(hilbert_class_poly(-n), 30)
    _assert_no_wider_than_balls(calls)


def test_exact_root_gets_radius_zero(monkeypatch):
    # Bini's start places the root 0 of x^3 - x at 0, where every Horner
    # cut is exact and p vanishes
    calls = _certified_calls(monkeypatch)
    discs = poly_roots(IntPoly([0, -1, 0, 1]), 30)
    assert [d.radius for d in discs if d.value == 0] == [0]
    _assert_no_wider_than_balls(calls)


def _residual_cases(rng):
    """(coeffs, a, b, s) for points z = (a + bi) / 2**s near simple roots
    of random polynomials, near the fourfold root 1/2 of (2x - 1)^4 (x + 3),
    where Horner's cuts cancel all of p but its rounding, and near the
    root 2^70 + 3, where the Horner exponent turns positive."""
    for i in range(240):
        s = rng.choice((20, 53, 100))
        if i % 3 == 0:
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 12))] + [rng.randint(1, 9)]
            with workdps(30):
                root = rng.choice(mp.polyroots(coeffs[::-1], maxsteps=200, extraprec=60))
                a, b = int(mp.floor(root.real * 2**s)), int(mp.floor(root.imag * 2**s))
        elif i % 3 == 1:
            half = IntPoly([-1, 2])
            coeffs = (half * half * half * half * IntPoly([3, 1])).coeffs
            a, b = 1 << (s - 1), 0
        else:
            coeffs = (IntPoly([-(2**70) - 3, 1]) * IntPoly([1, 1, 1])).coeffs
            a, b = (2**70 + 3) << s, 0
        yield coeffs, a + rng.randint(-3, 3), b + rng.randint(-3, 3), s


def test_residual_bounds_the_exact_value():
    # the running error carries the bound where the cut Horner value,
    # even 0, is below |p(z)|; p(z) is evaluated exactly in fractions
    rng = random.Random(2500)
    for coeffs, a, b, s in _residual_cases(rng):
        x, y = Fraction(a, 2**s), Fraction(b, 2**s)
        pr, pi = Fraction(0), Fraction(0)
        for c in reversed(coeffs):
            pr, pi = pr * x - pi * y + c, pr * y + pi * x
        m, e = numcore._residual(tuple(reversed(coeffs)), a, b, s)
        bound = Fraction(m) * Fraction(2) ** e
        assert pr * pr + pi * pi <= bound * bound, (coeffs, a, b, s)


def test_class_polynomial_certifies_at_the_first_precision(monkeypatch):
    # the roots of H_-1832 reach 10^58; a residual at relative precision
    # s bits cannot give them discs of 10^-40 at 80 digits, one whose
    # Horner keeps the bits of the midpoints can
    from heightlab.cmlab import hilbert_class_poly

    calls = _certified_calls(monkeypatch)
    assert len(poly_roots(hilbert_class_poly(-1832), 40)) == 26
    assert [dps for *_, dps, _ in calls] == [80]


def test_huge_roots_certify_at_the_first_precision(monkeypatch):
    # the Aberth sum at |x| > 1 keeps the fractional bits of y = 1/x; at
    # scale 2**s its terms 1 / (x - z_j), about 10^-200, rounded to 0 or
    # -1 unit and x^2 - 10^400 needed three precisions
    calls = _certified_calls(monkeypatch)
    assert len(poly_roots(IntPoly([-(10**400), 0, 1]), 40)) == 2
    assert len(calls) == 1


def test_iterates_carry_across_precisions(monkeypatch):
    # the roots of x^7 - 2 (10^6 x - 1)^2 near 10^-6 sit about 10^-9
    # apart: their discs at 30 digits fail, and the iterates, rescaled
    # from 2**103 to 2**203, certify at 60
    poly = IntPoly([-2, 4 * 10**6, -2 * 10**12, 0, 0, 0, 0, 1])
    calls = _certified_calls(monkeypatch)
    discs = poly_roots(poly, 5)
    assert [(dps, found is not None) for *_, dps, found in calls] == [(30, False), (60, True)]
    assert len(discs) == 7
    for a, b in itertools.combinations(discs, 2):
        assert abs(a.value - b.value) > a.radius + b.radius
    # disjoint discs each holding a root of the 180-digit reference
    with workdps(180):
        ref = mp.polyroots(list(reversed(poly.coeffs)), maxsteps=1000, extraprec=600)
        for disc in discs:
            assert disc.radius <= mpf(10) ** -5
            assert min(abs(disc.value - r) for r in ref) <= disc.radius, disc


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

    def test_fraction_ball_holds_the_fraction(self):
        # 1/3 is rounded to a binary midpoint, and the ball carries the
        # rounding; 5/8 and 3 are binary, and exact
        for dps in (15, 30, 60):
            with workdps(dps):
                third = BigFloat(Fraction(1, 3))
                widened = BigFloat(Fraction(1, 3), mpf(10) ** -dps)
                assert BigFloat(Fraction(5, 8)).radius == BigFloat(Fraction(3)).radius == 0
            assert 0 < third.radius < widened.radius
            with workdps(3 * dps):
                assert abs(third.value - mpf(1) / 3) <= third.radius

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
            tail = numcore._geometric_tail(numcore._pair(x._mpf_), e, k)
            q = _exact(x)
            assert _worth(tail) >= 2 * q**e / (1 - q**k)
        with pytest.raises(ValueError):
            numcore._geometric_tail(numcore._ONE, 3)

    def test_tail_below_skips_only_tails_at_or_above_tol(self):
        rng = random.Random(14)
        cases = [(mpf("1e-320"), 1, 1, mpf("1e-300")), (mpf("1e-320"), 1, 1, mpf("1e-400")),
                 (mpf("1e-320"), 3, 2, mpf("1e-959")), (mpf("1e-320"), 3, 2, mpf("1e-961"))]
        for _ in range(400):
            with workdps(rng.choice((15, 39, 259))):
                x = mpf(rng.random()) ** rng.choice((1, 4, 40)) * mpf("0.9995")
                tol = mpf(10) ** -mp.dps * mpf(rng.random())
            # exponents around the first one whose tail falls below tol
            edge = max(1, int(mp.log(tol) / mp.log(x)))
            cases.append((x, max(1, edge + rng.randint(-3, 3)), rng.randint(1, 40), tol))
        skipped = 0
        for x, e, k, tol in cases:
            exact = numcore._geometric_tail(numcore._pair(x._mpf_), e, k)
            got = numcore._tail_below(numcore._pair(x._mpf_), e, k, numcore._pair(tol._mpf_))
            assert got == (exact if _worth(exact) < _exact(tol) else None), (x, e, k, tol)
            skipped += got is None
        assert 0 < skipped < len(cases)

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

    def test_non_finite_ball_refused(self):
        # a nan or inf midpoint or radius used to make a ball that
        # carried it into every later operation
        nan, inf = mpf("nan"), mpf("inf")
        for args in ((nan,), (inf,), (-inf,), (mpc(1, nan),), (mpc(inf, 0),), (1, nan), (1, inf)):
            with pytest.raises(ValueError):
                BigFloat(*args)
        with pytest.raises(ValueError):
            BigFloat(1).widened(inf)
        for lo, hi in ((0, inf), (-inf, 0), (nan, 1)):
            with pytest.raises(ValueError):
                BigFloat.from_bounds(lo, hi)
        with pytest.raises(ValueError):
            BigFloat(1, -1)


def _exact(x) -> Fraction:
    return Fraction(*to_rational(x._mpf_))


def _worth(pair) -> Fraction:
    """The exact value m 2**e of a pair (m, e)."""
    return Fraction(pair[0]) * Fraction(2) ** pair[1]


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


class TestComplexMagnitude:
    """``_mag`` of a complex value from integer mantissas: a 53-bit
    bound of |z| in the direction asked for, never looser than rounding
    the parts to 53 bits and the sum of squares and its square root."""

    @staticmethod
    def _by_mpf_sqrt(z, rnd):
        """The libmpf formula of the bound before the integer root."""
        from mpmath.libmp import mpf_abs, mpf_add, mpf_mul, mpf_sqrt

        re, im = (mpf_abs(p, 53, rnd) for p in z._mpc_)
        return mp.make_mpf(mpf_sqrt(mpf_add(mpf_mul(re, re), mpf_mul(im, im), 53, rnd), 53, rnd))

    @staticmethod
    def _values(rng, dps):
        def part():
            return (mpf(rng.getrandbits(mp.prec)) / 2**mp.prec - mpf(0.5)) * mpf(2) ** rng.randint(-40, 40)

        for i in range(300):
            a, b = part(), part()
            yield {
                0: mpc(a, b),
                1: mpc(a, 0),
                2: mpc(0, b),
                3: mpc(mpf(2) ** rng.randint(-60, 60), -mpf(2) ** rng.randint(-60, 60)),
                4: mpc(mpf(2) ** rng.randint(-3, 3), b),
                5: mpc(a, a * mpf(10) ** rng.choice([-300, 300])),
                6: mpc(a, a * mpf(2) ** rng.choice([-115, -114, -113, 113, 114, 115])),
                7: mpc(b * mpf(2) ** -200, -mpf(2) ** rng.randint(-60, 60)),
            }[i % 8]

    @pytest.mark.parametrize("dps", [15, 39, 250, 1000])
    def test_encloses_and_never_loosens(self, dps):
        from mpmath.libmp import from_man_exp, round_ceiling, round_floor

        rng = random.Random(1000 + dps)
        with workdps(dps):
            values = list(self._values(rng, dps))
        for z in values:
            with workdps(3 * dps):
                modulus = abs(z)
            up = mp.make_mpf(from_man_exp(*numcore._mag(z, round_ceiling)))
            down = mp.make_mpf(from_man_exp(*numcore._mag(z, round_floor)))
            assert down <= modulus <= up, z
            # exactly, where |z| and its larger part agree past 3 * dps digits
            square = _exact(z.real) ** 2 + _exact(z.imag) ** 2
            assert _exact(down) ** 2 <= square <= _exact(up) ** 2, z
            assert up <= self._by_mpf_sqrt(z, round_ceiling), z
            assert down >= self._by_mpf_sqrt(z, round_floor), z

    def test_gaussian_integer_encloses_and_never_loosens(self):
        # (a, b, e) worth (a + bi) 2**e, whose parts need not be odd, gets
        # a bound at least as tight as the mpc of the same value
        from mpmath.libmp import round_ceiling, round_floor

        def worth(pair):
            return Fraction(pair[0]) * Fraction(2) ** pair[1]

        rng = random.Random(1100)
        for i in range(600):
            bits = rng.choice((1, 30, 64, 65, 120, 400))
            a, b = (rng.getrandbits(bits) * rng.choice((-1, 1)) for _ in range(2))
            a, b = (a << rng.randint(0, 70), b) if i % 2 else (a, b << 200 * (i % 3))
            if i % 5 == 0:
                a, b = (0, b) if i % 10 else (a, 0)
            e = rng.randint(-300, 300)
            v = mp.make_mpc((from_man_exp(a, e), from_man_exp(b, e)))
            up, down = (worth(numcore._mag((a, b, e), rnd)) for rnd in (round_ceiling, round_floor))
            assert down**2 <= Fraction(a * a + b * b) * Fraction(4) ** e <= up**2, (a, b, e)
            assert up <= worth(numcore._mag(v, round_ceiling)), (a, b, e)
            assert down >= worth(numcore._mag(v, round_floor)), (a, b, e)


def _mag_before(v, rnd) -> tuple:
    """``numcore._mag`` as it was written before its body was reordered
    for speed; it must give the same pair for every input."""
    from math import isqrt

    from mpmath.libmp import round_ceiling

    up = rnd == round_ceiling
    to = numcore._up if up else numcore._down
    if isinstance(v, mpc):
        (_, ma, ea, ba), (_, mb, eb, bb) = v._mpc_
    elif isinstance(v, tuple):
        ma, mb, ea = abs(v[0]), abs(v[1]), v[2]
        ba, bb, eb = ma.bit_length(), mb.bit_length(), ea
    else:
        return to(v._mpf_[1], v._mpf_[2])
    if not (ma and mb):
        return to(ma, ea) if ma else to(mb, eb)
    if abs(ea + ba - eb - bb) > 2 * 53 + 8:
        big = to(ma, ea) if ea + ba > eb + bb else to(mb, eb)
        return numcore._up(big[0] + 1, big[1]) if up else big
    if ba > 64:
        top = ma >> (ba - 64)
        ma, ea = top + (up and top << (ba - 64) != ma), ea + ba - 64
    if bb > 64:
        top = mb >> (bb - 64)
        mb, eb = top + (up and top << (bb - 64) != mb), eb + bb - 64
    e = min(ea, eb)
    n = (ma << (ea - e)) ** 2 + (mb << (eb - e)) ** 2
    k = max(0, 110 - n.bit_length()) // 2
    n <<= 2 * k
    root = isqrt(n)
    return to(root + (up and root * root != n), e - k)


def test_mag_gives_the_pairs_of_its_former_body():
    # seeded mpf, mpc and Gaussian-integer inputs: zero parts, exponent
    # gaps from 0 to 300 between the parts' leading bits, mantissas of
    # 1 to 1000 bits, both roundings
    from mpmath.libmp import round_ceiling, round_floor

    rng = random.Random(2401)
    seen = 0
    for i in range(30000):
        bits = rng.choice((1, 2, 53, 63, 64, 65, 130, 1000))

        def part():
            return 0 if rng.random() < 0.1 else rng.getrandbits(bits) * rng.choice((-1, 1)) | 1

        a, b = part(), part()
        ea = rng.randint(-400, 100)
        eb = ea + rng.choice((1, -1)) * rng.randint(0, 300)
        v = (
            mp.make_mpc((from_man_exp(a, ea), from_man_exp(b, eb))),
            (a, b << rng.randint(0, 3), ea),
            mp.make_mpf(from_man_exp(a, ea)),
        )[i % 3]
        for rnd in (round_ceiling, round_floor):
            assert numcore._mag(v, rnd) == _mag_before(v, rnd), (v, rnd)
            seen += 1
    assert seen == 60000


def _libmpf_radius_formulas():
    """The radius of each ball operation as libmpf computed it before
    radii became integer pairs: every step at 53 bits, round_ceiling."""
    from mpmath.libmp import (
        fone, from_man_exp, from_rational, mpf_abs, mpf_add, mpf_div, mpf_gt, mpf_le, mpf_mul,
        mpf_shift, mpf_sqrt, mpf_sub, round_ceiling, round_floor, to_int,
    )

    def add(a, b):
        return mpf_add(a, b, 53, round_ceiling)

    def mul(a, b):
        return mpf_mul(a, b, 53, round_ceiling)

    def div(a, b):
        return mpf_div(a, b, 53, round_ceiling)

    def mag(v, rnd=round_ceiling):
        if isinstance(v, mpc):  # the integer-root modulus, tested above
            return from_man_exp(*numcore._mag(v, rnd))
        return mpf_abs(v._mpf_, 53, rnd)

    def op(v, spread, scale=None):
        allowance = from_rational(8, 10**mp.dps, 53, round_ceiling)
        return add(spread, mul(mag(v) if scale is None else scale, allowance))

    def min_abs(x):
        return mpf_sub(mag(x.value, round_floor), x.radius._mpf_, 53, round_floor)

    def radius(x):
        return x.radius._mpf_

    def mul_radius(x, y):
        rx, ry = radius(x), radius(y)
        return op(x.value * y.value, add(add(mul(mag(x.value), ry), mul(mag(y.value), rx)), mul(rx, ry)))

    def div_radius(x, y):
        v = x.value / y.value
        return op(v, div(add(radius(x), mul(mag(v), radius(y))), min_abs(y)))

    def exp_radius(x):
        v, r = mp.exp(x.value), radius(x)
        if mpf_le(r, fone):
            grow = add(r, mul(r, r))
        else:
            grow = mpf_shift(fone, to_int(mpf_mul(r, from_man_exp(3, -1)), round_ceiling))
        return op(v, mul(mag(v), grow))

    def log_radius(x):
        v = mp.log(abs(x.value))
        scale = mag(v) if mpf_gt(mag(v), fone) else fone
        return op(v, div(radius(x), min_abs(x)), scale)

    def sqrt_radius(x):
        v = mp.sqrt(abs(x.value))
        return op(v, div(radius(x), mpf_shift(mpf_sqrt(min_abs(x), 53, round_floor), 1)))

    return {
        "+": lambda x, y: op(x.value + y.value, add(radius(x), radius(y))),
        "*": mul_radius,
        "/": div_radius,
        "exp": exp_radius,
        "log_abs": log_radius,
        "sqrt_pos": sqrt_radius,
        "widened": lambda x, extra: add(radius(x), extra._mpf_),
    }


class TestRadiusPairs:
    """Radii and magnitude bounds are integer pairs (m, e) worth m 2**e;
    each step rounds up (or down) exactly as libmpf at 53 bits."""

    @staticmethod
    def _pairs(rng):
        mantissas = (1 << 52, (1 << 53) - 1, (1 << 53) - 2, (1 << 52) + 1)
        for i in range(600):
            m = rng.choice(mantissas) if i % 3 == 0 else rng.randrange(1 << 52, 1 << 53)
            e = rng.choice((0, 100_000, -100_000)) + rng.randint(-60, 60)
            gap = rng.choice((0, 1, 2, 51, 52, 53, 54, 55, 56, 1000, 1001, 5000))
            n = rng.choice(mantissas) if i % 5 == 0 else rng.randrange(1 << 52, 1 << 53)
            yield (m, e), (n, e - gap if i % 2 else e + gap)
        zero = numcore._ZERO
        yield zero, zero
        yield zero, (1 << 52, 7)
        yield (1 << 52, 7), zero
        yield ((1 << 53) - 1, 0), (1 << 52, -60)  # the sum carries to 2**53
        yield ((1 << 52) + 1, 0), ((1 << 53) - 2, 0)  # the product 2**105 - 2 carries

    def test_pair_arithmetic_is_libmpf_at_53_bits(self):
        from mpmath.libmp import (
            from_man_exp, fzero, mpf_add, mpf_div, mpf_mul, mpf_sub, round_ceiling, round_floor,
        )

        def mpf_of(p):
            got = from_man_exp(*p)
            assert p == numcore._ZERO or (1 << 52) <= p[0] < (1 << 53), p
            return got

        for a, b in self._pairs(random.Random(21)):
            x, y = from_man_exp(*a), from_man_exp(*b)
            assert mpf_of(numcore._add_up(a, b)) == mpf_add(x, y, 53, round_ceiling), (a, b)
            assert mpf_of(numcore._mul_up(a, b)) == mpf_mul(x, y, 53, round_ceiling), (a, b)
            if b[0]:
                assert mpf_of(numcore._div_up(a, b)) == mpf_div(x, y, 53, round_ceiling), (a, b)
            diff = mpf_sub(x, y, 53, round_floor)
            assert mpf_of(numcore._sub_down(a, b)) == (diff if diff[0] == 0 else fzero), (a, b)

    @pytest.mark.parametrize("dps", [15, 39, 259])
    def test_ball_radii_are_the_libmpf_formulas(self, dps):
        formulas = _libmpf_radius_formulas()
        rng = random.Random(2100 + dps)
        radii = [mpf(0), mpf(10) ** -(dps - 3), mpf(10) ** -(dps // 2), mpf("1e-3"), mpf(1), mpf(3)]
        for _ in range(40):
            with workdps(dps):
                x = _random_ball(rng, rng.random() < 0.5, radii)
                y = _random_ball(rng, rng.random() < 0.5, radii[:4])
                positive = BigFloat(abs(x.value), x.radius)
                extra = mpf(rng.random()) * rng.choice(radii)
                outs = {"+": (x + y, x, y), "*": (x * y, x, y), "exp": (x.exp(), x),
                        "widened": (x.widened(extra), x, extra)}
                for name, op in (("/", lambda: (x / y, x, y)), ("log_abs", lambda: (x.log_abs(), x)),
                                 ("sqrt_pos", lambda: (positive.sqrt_pos(), positive))):
                    try:
                        outs[name] = op()
                    except PrecisionError:
                        pass
                for name, (out, *args) in outs.items():
                    assert out.radius._mpf_ == formulas[name](*args), (name, args)
                # pow_int is a chain of ball products
                n = rng.randint(1, 12)
                steps = []
                numcore._binary_power(x, n, lambda a, b: steps.append(formulas["*"](a, b)) or a * b)
                assert x.pow_int(n).radius._mpf_ == (steps[-1] if steps else x.radius._mpf_), n
                # a new midpoint keeps the radius bit for bit
                moved = x.with_value(abs(x.value))
                same = BigFloat(abs(x.value), x.radius)
                assert (moved.value, moved._r, moved._mag) == (same.value, same._r, same._mag)

    @pytest.mark.parametrize("dps", [15, 39, 259])
    def test_abs_bounds_is_the_mpf_formula(self, dps):
        rng = random.Random(2200 + dps)
        radii = [mpf(0), mpf(10) ** -(dps - 3), mpf(10) ** -(dps // 2), mpf(1), mpf(5)]
        for _ in range(100):
            with workdps(dps):
                ball = _random_ball(rng, rng.random() < 0.5, radii)
                a = abs(ball.value)
                guard = 4 * (a + ball.radius) * mpf(2) ** (-mp.prec)
                lo = a - ball.radius - guard
                want = (lo if lo > 0 else mpf(0), a + ball.radius + guard)
                got = ball.abs_bounds()
            assert [t._mpf_ for t in got] == [t._mpf_ for t in want]

    @pytest.mark.parametrize("dps", [15, 39, 259])
    def test_ulp_slop_is_the_mpf_formula(self, dps):
        # 10**-dps is cached per working precision, bit for bit
        rng = random.Random(2300 + dps)
        for _ in range(20):
            with workdps(dps):
                v = _random_ball(rng, rng.random() < 0.5, [mpf(0)]).value
                assert numcore._ulp_slop(v)._mpf_ == (8 * abs(v) * mpf(10) ** (-mp.dps))._mpf_

    @pytest.mark.parametrize("dps", [15, 39, 100])
    def test_log_plus_sum_takes_the_abs_bounds_branch(self, dps):
        # the 53-bit pairs decide as the full-precision abs_bounds rule
        # did, on balls within 10**-1 .. 10**-(dps - 1) of the unit circle;
        # a straddling ball adds [0, ((|v| + r)^2 - 1) / 2], from the exact
        # |v|^2 and (2 |v|_up + r) r at 53 bits, rounded up once
        from mpmath.libmp import fone, from_man_exp, fzero, mpf_add, mpf_mul, mpf_shift, mpf_sub, round_ceiling

        def rule(z):
            lo, hi = z.abs_bounds()
            if hi <= 1:
                return "skip", BigFloat(0, 0)
            if lo >= 1:
                return "log", z.log_abs()
            v, r = z.value, z.radius._mpf_
            norm = fzero
            for t in v._mpc_ if isinstance(v, mpc) else (v._mpf_,):
                norm = mpf_add(norm, mpf_mul(t, t), 0)
            two_v = mpf_shift(from_man_exp(*numcore._mag(v)), 1)
            spread = mpf_mul(mpf_add(two_v, r, 53, round_ceiling), r, 53, round_ceiling)
            u = mpf_add(mpf_sub(norm, fone, 0), spread, 53, round_ceiling)
            return "straddle", BigFloat.from_bounds(0, mp.make_mpf(mpf_shift(u, -1)) if u[0] == 0 else 0)

        rng = random.Random(2400 + dps)
        radii = [mpf(0), mpf(10) ** -(dps - 3), mpf(10) ** -(dps // 2)]
        seen = set()
        for i in range(600):
            with workdps(dps):
                offset = rng.choice((-1, 1)) * mpf(rng.uniform(1, 10)) * mpf(10) ** -rng.randint(2, dps)
                value = (1 + offset) * (mp.expjpi(mpf(rng.random()) * 2) if i % 2 else rng.choice((-1, 1)))
                z = BigFloat(value, radii[i % 3])
                branch, term = rule(z)
                want = BigFloat(0, 0) + term
                got = numcore.log_plus_sum(BigFloat(0, 0), [z])
            seen.add((branch, i % 3))
            assert (got.value, got._r) == (want.value, want._r), (z, branch)
            if branch == "straddle":
                # the term holds log max(1, |x|) for every x in the ball
                with workdps(3 * dps):
                    top = mp.log(max(1, abs(z.value) + z.radius))
                lo, hi = term.bounds()
                assert lo <= 0 and top <= hi, (z, term)
        assert {b for b, _ in seen} == {"skip", "log", "straddle"}
        assert {("skip", k) for k in range(3)} | {("log", k) for k in range(3)} <= seen


def test_log_plus_sum_adds_nothing_for_a_ball_inside_the_circle():
    # |v| + r = 1 - 2**-57 < 1 for a midpoint of 57 bits, though |v|
    # rounded to 53 bits and abs_bounds' guard at 15 digits (about
    # 2**-51) leave the ball across the circle
    with workdps(30):
        z = BigFloat(1 - mpf(2) ** -56, mpf(2) ** -57)
    with workdps(15):
        lo, hi = z.abs_bounds()
        assert lo < 1 < hi
        got = numcore.log_plus_sum(BigFloat(0, 0), [z])
    assert (got.value, got.radius) == (0, 0)


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


class TestCertifyOrder:
    def test_sign_of_the_first_separated_pair(self):
        seen = []

        def x(dps):  # 1 +- 1/dps, not formed at 40
            seen.append(dps)
            return None if dps == 40 else (1 - Fraction(1, dps), 1 + Fraction(1, dps))

        def y(dps):
            return (Fraction(101, 100), Fraction(2))

        # 1 + 1/80 > 1.01 overlaps; 1 + 1/160 < 1.01 does not
        assert certify_order(x, y, 40, 1000, "probe") == -1
        assert certify_order(y, x, 40, 1000, "probe") == 1
        assert seen == [40, 80, 160] * 2

    def test_both_enclosures_are_formed_at_every_precision(self):
        formed = []

        def enclosure(name, at):
            def enclose(dps):
                formed.append((name, dps))
                return None if dps < at else (0, 1) if name == "x" else (2, 2)
            return enclose

        assert certify_order(enclosure("x", 160), enclosure("y", 40), 40, 1000, "probe") == -1
        assert formed == [(n, dps) for dps in (40, 80, 160) for n in "xy"]

    def test_overlap_to_the_ceiling_names_the_decision(self):
        with pytest.raises(PrecisionError, match=r"widget order .*320 digits"):
            certify_order(lambda dps: (0, 2), lambda dps: (1, 1), 40, 320, "widget order")
        with pytest.raises(PrecisionError):
            certify_order(lambda dps: (1, 1), lambda dps: (1, 1), 40, 320, "a tie")


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


SOURCES = sorted(Path(numcore.__file__).parent.glob("*.py"))


def _top_scopes(path):
    """(name, node) of each top-level statement of a module; a class
    gives one scope per method, named Class.method."""
    for top in ast.parse(path.read_text()).body:
        if isinstance(top, ast.ClassDef):
            for fn in top.body:
                if isinstance(fn, ast.FunctionDef):
                    yield f"{top.name}.{fn.name}", fn
        else:
            yield getattr(top, "name", None), top


def test_ulp_slop_called_only_in_numcore():
    # rounding allowances are numcore's alone: every other module gets
    # its balls from BigFloat.rounded, from_bounds or ball arithmetic,
    # the ball operations build theirs from 53-bit magnitude bounds, and
    # root discs are built by ball arithmetic
    callers = set()
    for path in SOURCES:
        for name, scope in _top_scopes(path):
            for node in ast.walk(scope):
                if isinstance(node, ast.Call):
                    f = node.func
                    called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if called == "_ulp_slop":
                        callers.add((path.name, name))
    assert callers == {("numcore.py", "BigFloat.rounded")}


def _callers(path, called):
    """The innermost enclosing function of every call of ``called`` in a
    module, named as ``_top_scopes`` names its scopes."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == called:
                    found.add((path.name, where))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else where)

    for name, scope in _top_scopes(path):
        visit(scope, name)
    return found


def test_certify_called_only_by_certify_order_and_searches():
    # a comparison of two enclosures goes through certify_order; certify
    # is called directly only by it and by the first-success searches
    callers = set()
    for path in SOURCES:
        callers |= _callers(path, "certify")
    assert callers == {
        ("numcore.py", "certify_order"),
        ("numcore.py", "_dk_roots"),
        ("cmlab.py", "hilbert_class_poly"),
        ("cmlab.py", "finiteness_demo"),
        ("radicals.py", "report_value"),
    }


def test_iv_only_inside_log_combination_interval():
    # every enclosure is a BigFloat ball but LogCombination.interval's,
    # which alone works in mpmath iv, through its two helpers
    def is_iv(named):
        return named == "iv" or named.startswith("_iv")

    importers, users = set(), set()
    for path in SOURCES:
        for name, scope in _top_scopes(path):
            for node in ast.walk(scope):
                if isinstance(node, ast.alias) and is_iv(node.asname or node.name):
                    importers.add(path.name)
                elif isinstance(node, ast.Name) and is_iv(node.id) or isinstance(node, ast.Attribute) and is_iv(node.attr):
                    users.add((path.name, name))
    assert importers == {"heights.py"}
    assert users == {
        ("heights.py", "_iv_workdps"), ("heights.py", "_iv_fraction"), ("heights.py", "LogCombination.interval"),
    }


def test_no_source_uses_the_pentagonal_series():
    # the theta nulls are the one series behind every CM quantity;
    # _eta_product stays only for the benchmark's counter and the tests
    users = set()
    for path in SOURCES:
        for name, scope in _top_scopes(path):
            for node in ast.walk(scope):
                if isinstance(node, ast.Name) and node.id == "_eta_product" or isinstance(node, ast.Attribute) and node.attr == "_eta_product":
                    users.add((path.name, name))
    assert users == set()


def test_module_level_imports_are_used():
    # _ulp_slop stays bound in cmlab and heights, unused, for the
    # benchmark's check that those names are numcore's function
    unused = set()
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = {
            (alias.asname or alias.name).split(".")[0]
            for top in tree.body
            if isinstance(top, (ast.Import, ast.ImportFrom)) and getattr(top, "module", None) != "__future__"
            for alias in top.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.name, name) for name in bound - used}
    assert unused == {("cmlab.py", "_ulp_slop"), ("heights.py", "_ulp_slop")}


def test_squarefree_layer_uses_no_fractions():
    # Yun's algorithm runs on integer coefficient lists: every gcd is
    # primitive and every quotient an exact integer long division
    layer = {
        "_strip", "_prem_primitive", "_gcd_primitive", "_div_exact", "_squarefree_mod", "squarefree_decomposition",
    }
    tree = ast.parse(Path(numcore.__file__).read_text())
    found = [top for top in tree.body if isinstance(top, ast.FunctionDef) and top.name in layer]
    assert {fn.name for fn in found} == layer
    for fn in found:
        names = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
        assert "Fraction" not in names, fn.name
    for gone in ("_divmod_q", "_poly_gcd_q", "_intpoly_of"):
        assert not hasattr(numcore, gone)


def test_root_sweeps_use_no_mpmath_numbers():
    # the sweeps run in Python complex and on Gaussian integers, and the
    # certificate's residuals and products on Gaussian integers and
    # 53-bit pairs; only _weierstrass_discs' construction of the output
    # discs touches mpmath
    sweeps = {
        "_start", "_aberth", "_horner", "_float_step", "_horner_fixed", "_divide_fixed", "_fixed_step", "_float_roots",
        "_residual", "_weierstrass_radii",
    }
    tree = ast.parse(Path(numcore.__file__).read_text())
    found = [top for top in tree.body if isinstance(top, ast.FunctionDef) and top.name in sweeps]
    assert {fn.name for fn in found} == sweeps
    for fn in found:
        names = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
        assert not names & {"mpc", "mpf", "mp", "mpmath", "workdps", "BigFloat"}, fn.name


def test_class_poly_product_uses_no_mpmath_numbers():
    # the class polynomial's product runs on integers and 53-bit pairs;
    # of the j balls it reads only the midpoint's libmpf parts, the
    # radius pair and the magnitude pair
    product = {"_fixed_part", "_gaussian_part", "_class_poly_factor", "_class_poly_product"}
    tree = ast.parse((Path(numcore.__file__).parent / "cmlab.py").read_text())
    found = [top for top in tree.body if isinstance(top, ast.FunctionDef) and top.name in product]
    assert {fn.name for fn in found} == product
    attributes = set()
    for fn in found:
        names = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
        assert not names & {"mpc", "mpf", "mp", "mpmath", "workdps", "BigFloat"}, fn.name
        attributes |= {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)}
    assert attributes == {"value", "_mpc_", "_r", "_mag"}


def test_fixed_point_j_kernel_uses_no_mpmath_numbers():
    # the eighth powers, E4 and Delta run on Gaussian integers with
    # integer error counts, and so do the theta term, s(tau) (which reads
    # the libmpf parts and radius pair of the tau ball) and the column
    # sums of the class averages; balls are made only by _ball_of, for
    # j's division and the public buckets, and by _class_averages.  The
    # three log terms hand integers to _log_bounds, which holds the one
    # libmpf log, and form no libmpf number themselves
    tree = ast.parse((Path(numcore.__file__).parent / "cmlab.py").read_text())
    found = {top.name: top for top in tree.body if isinstance(top, (ast.FunctionDef, ast.ClassDef))}
    assert "of" not in {node.name for node in ast.walk(found["_GaussBall"]) if isinstance(node, ast.FunctionDef)}
    terms = ("_log_plus_term", "_theta_term", "_s_term")
    for name in ("_modulus_up", "_GaussBall", "_units_up", "_ceil_sqrt", *terms, "_fold_columns"):
        names = {node.id for node in ast.walk(found[name]) if isinstance(node, ast.Name)}
        assert not names & {"mpc", "mpf", "mp", "mpmath", "workdps", "BigFloat", "_mag"}, name
        attributes = {node.attr for node in ast.walk(found[name]) if isinstance(node, ast.Attribute)}
        assert not attributes & {"radius", "_mag", "abs_bounds", "_min_abs", "_op", "_made", "pow_int", "widened"}, name
        if name in terms:
            assert not {n for n in names if n.startswith("mpf_") or n in ("from_man_exp", "from_int")}, name
    logs = [fn.name for fn in found.values() if "mpf_log" in {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}]
    assert logs == ["_log_bounds"]


def test_tail_helpers_run_on_pairs():
    # the geometric tail, the tail test and their log2 take and return
    # 53-bit pairs and floats: no mpmath number is formed or read
    tree = ast.parse(Path(numcore.__file__).read_text())
    found = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    for name in ("_geometric_tail", "_tail_below", "_log2"):
        names = {node.id for node in ast.walk(found[name]) if isinstance(node, ast.Name)}
        assert not names & {"mpf", "mp", "mpmath"}, name
        assert "_mpf_" not in {node.attr for node in ast.walk(found[name]) if isinstance(node, ast.Attribute)}, name
