import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache, reduce
from math import floor, gcd, isqrt, log10
from pathlib import Path

import pytest
from mpmath import iv, mp, mpc, mpf, workdps
from mpmath.libmp import from_man_exp, mpf_neg, to_rational

from heightlab.cmlab import (
    CMRecord,
    Discriminant,
    ReducedForm,
    Q_MODULUS_CAP,
    class_number,
    cm_record,
    cm_scan,
    faltings_height_cm,
    finiteness_demo,
    fundamental_discriminants,
    hilbert_class_poly,
    j_height,
    j_invariant,
    modular_discriminant,
    records_to_csv,
    records_to_json,
    reduced_forms,
    s_invariant,
    theta_height_estimate,
    theta_null_point,
    verify_decay,
    verify_theta_faltings,
)
from heightlab import cmlab
from heightlab.heights import LogCombination, _iv_workdps, mahler_height
from heightlab.numcore import BigFloat, PrecisionError, _pair, _tail_below, factorint


def _exact(x) -> Fraction:
    return Fraction(*to_rational(x._mpf_))


def _encloses(pair, ball: BigFloat) -> bool:
    """Whether the written (value, radius) doubles enclose the ball."""
    value, radius = pair
    return abs(Fraction(value) - _exact(ball.value)) + _exact(ball.radius) <= Fraction(radius)


def brute_class_number(d: int) -> int:
    """Independent count of reduced primitive forms: |b| <= a <= c,
    b >= 0 when |b| = a or a = c, b^2 - 4ac = d, gcd(a,b,c) = 1."""
    count = 0
    a = 1
    while a * a <= -d // 3 + 1:
        for b in range(-a, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == -b or a == c):
                continue
            if gcd(gcd(a, abs(b)), c) != 1:
                continue
            count += 1
        a += 1
    return count


def brute_reduced_forms(d: int) -> list:
    """Independent enumeration of the reduced forms (a, b, c), sorted by
    (a, b): every b with |b| <= a, the conditions of brute_class_number."""
    out = []
    for a in range(1, isqrt(-d // 3) + 2):
        for b in range(-a, a + 1):
            num = b * b - d
            if num % (4 * a) or num // (4 * a) < a:
                continue
            c = num // (4 * a)
            if b < 0 and (a == -b or a == c):
                continue
            if gcd(gcd(a, abs(b)), c) == 1:
                out.append((a, b, c))
    return sorted(out)


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for n > 0, hand-rolled."""
    assert n > 0
    result = 1
    while n % 2 == 0:
        if a % 2 == 0:
            return 0
        n //= 2
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


class TestDiscriminant:
    def test_validation(self):
        with pytest.raises(ValueError):
            Discriminant(4)
        with pytest.raises(ValueError):
            Discriminant(-2)  # 2 mod 4
        with pytest.raises(ValueError):
            Discriminant(-9)  # 3 mod 4
        assert Discriminant(-3).value == -3
        assert Discriminant(-4).value == -4

    def test_fundamental(self):
        fund = {-3, -4, -7, -8, -11, -15, -19, -20, -23, -24}
        not_fund = {-12, -16, -27, -28, -32, -36, -44, -48}
        for d in fund:
            assert Discriminant(d).is_fundamental, d
        for d in not_fund:
            assert not Discriminant(d).is_fundamental, d

    def test_fundamental_discriminants_list(self):
        got = fundamental_discriminants(50)
        want = [
            d
            for d in range(-3, -51, -1)
            if d % 4 in (0, 1) and Discriminant(d).is_fundamental
        ]
        assert got == sorted(want, key=lambda x: -x)


class TestReducedForms:
    def test_known_small(self):
        assert [(f.a, f.b, f.c) for f in reduced_forms(-3)] == [(1, 1, 1)]
        assert [(f.a, f.b, f.c) for f in reduced_forms(-4)] == [(1, 0, 1)]
        forms23 = {(f.a, f.b, f.c) for f in reduced_forms(-23)}
        assert forms23 == {(1, 1, 6), (2, -1, 3), (2, 1, 3)}

    def test_tau_in_fundamental_domain(self):
        for d in (-3, -4, -23, -47, -71):
            for f in reduced_forms(d):
                t = f.tau()
                assert t.imag > 0
                assert -0.5 - 1e-12 < t.real <= 0.5 + 1e-12
                assert abs(t) >= 1 - 1e-12

    def test_class_number_vs_brute(self):
        for d in range(-3, -400, -1):
            if d % 4 not in (0, 1):
                continue
            assert class_number(d) == brute_class_number(d), d

    def test_forms_match_brute_force_enumeration(self):
        # b runs over b = d (mod 2) only; every discriminant, fundamental
        # or not, from -3 to -5000
        for d in range(-3, -5001, -1):
            if d % 4 in (0, 1):
                got = [(f.a, f.b, f.c) for f in cmlab._reduced_forms_cached(d)]
                assert got == brute_reduced_forms(d), d

    def test_forms_from_square_roots_match_the_parity_enumeration(self):
        # the forms as they were enumerated before the square roots: every
        # b = d (mod 2) with -a < b <= a for each a <= sqrt(|d| / 3);
        # every discriminant from -3 to -20000
        def enumerated(d):
            out = []
            for a in range(1, isqrt(-d // 3) + 1):
                four_a, lo = 4 * a, -a + 1
                for b in range(lo + (lo - d) % 2, a + 1, 2):
                    c, rest = divmod(b * b - d, four_a)
                    if not rest and c >= a and not (a == c and b < 0) and gcd(gcd(a, b), c) == 1:
                        out.append((a, b, c))
            return out

        for d in range(-3, -20001, -1):
            if d % 4 in (0, 1):
                assert [(f.a, f.b, f.c) for f in cmlab._reduced_forms_cached(d)] == enumerated(d), d

    def test_class_number_of_a_large_discriminant(self):
        assert class_number(-99999999) == 6976

    def test_class_number_dirichlet(self):
        # h = |sum a*chi_d(a)| / |d| for fundamental d < -4
        for d in (-7, -11, -15, -19, -20, -23, -31, -43, -47, -67, -163):
            s = sum(a * kronecker(d, a) for a in range(1, -d))
            assert class_number(d) == abs(s) // (-d), d

    def test_discriminant_round_trip(self):
        for d in (-3, -4, -15, -23, -47):
            for f in reduced_forms(d):
                assert f.discriminant == d


class TestJInvariant:
    def test_j_at_i(self):
        j = j_invariant(mpc(0, 1), 40)
        assert abs(j.value - 1728) <= j.radius + mpf(10) ** -35

    def test_j_at_omega_is_zero(self):
        with workdps(60):
            omega = mpc(-1, mp.sqrt(3)) / 2
        j = j_invariant(omega, 40)
        assert abs(j.value) <= j.radius + mpf(10) ** -30

    def test_j_at_sqrt_minus_2(self):
        with workdps(60):
            j = j_invariant(mpc(0, mp.sqrt(2)), 40)
        assert abs(j.value - 8000) <= j.radius + mpf(10) ** -30

    def test_modular_invariance(self):
        with workdps(60):
            tau = mpc("0.31", "0.87")
            j0 = j_invariant(tau, 30)
            j1 = j_invariant(tau + 1, 30)
            j2 = j_invariant(-1 / tau, 30)
        for other in (j1, j2):
            assert abs(j0.value - other.value) <= j0.radius + other.radius + mpf(10) ** -25


def _forms_to_500_and_599():
    forms = [f for n in range(3, 501) if -n % 4 in (0, 1) for f in reduced_forms(-n)]
    return forms + reduced_forms(-599)


@lru_cache(maxsize=None)
def _j_balls(dps: int) -> tuple:
    """(form, _j_at ball of its nome's buckets) for every reduced form
    with |d| <= 500 and d = -599, at dps digits."""
    with workdps(dps):
        return tuple((f, cmlab._j_at(cmlab._theta_nulls(cmlab._cm_nome(f)))) for f in _forms_to_500_and_599())


def _cm_tau_ball(f: ReducedForm) -> BigFloat:
    """The CM point of a form as a tau ball at the working precision: two
    roundings (sqrt, then division), each within an ulp of Im tau <= |tau|."""
    return BigFloat.rounded(mpc(-f.b, mp.sqrt(-f.discriminant)) / (2 * f.a), 2)


def _sigma3_e4(tau, dps: int):
    """E4 = 1 + 240 sum sigma_3(n) q^n in plain mpmath at dps digits,
    summed until n^4 |q|^n is below 10^-dps."""
    with workdps(dps):
        q = mp.exp(2j * mp.pi * tau)
        total, n, q_n = mpf(1), 0, mpf(1)
        while True:
            n += 1
            q_n *= q
            total += 240 * sum(t**3 for t in range(1, n + 1) if n % t == 0) * q_n
            if n**4 * abs(q_n) < mpf(10) ** -dps:
                return total


def _q_ball(tau: BigFloat) -> BigFloat:
    """The nome q = exp(2 pi i tau) of a tau ball, 2 pi i rounded once."""
    return (BigFloat.rounded(mpc(0, 2) * mp.pi) * tau).exp()


def _pentagonal_s(tau: BigFloat) -> BigFloat:
    """s(tau) = pi Im(tau) / 6 - 2 log|f(q)| - (1/2) log Im(tau) in ball
    arithmetic, with f(q) = prod (1 - q^n) from the pentagonal series: a
    route to s(tau) that shares nothing with the theta nulls."""
    y = cmlab._im_tau(tau)
    return BigFloat.rounded(mp.pi) * y / 6 - cmlab._eta_product(_q_ball(tau)).log_abs() * 2 - y.log_abs() / 2


class TestThetaKernel:
    """j, E4 and Delta read off the Jacobi theta nulls."""

    @pytest.mark.parametrize("dps", [39, 250])
    def test_j_contains_kleinj(self, dps):
        with workdps(dps + 20):
            for f, j in _j_balls(dps):
                assert abs(1728 * mp.kleinj(f.tau(dps + 20)) - j.value) <= j.radius, f

    def test_j_relative_radius_at_39_digits(self):
        for f, j in _j_balls(39):
            if f.discriminant >= -500 and abs(j.value) > 1:
                assert j.radius <= mpf("1e-34") * abs(j.value), f

    def test_discriminant_is_theta_product(self):
        taus = [f.tau(30) for d in (-23, -56, -163) for f in reduced_forms(d)]
        for tau in taus + [mpc("0.31", "0.87"), mpc("-0.5", "2.5")]:
            delta = modular_discriminant(tau, 30)
            b0, b1, b2, b3 = theta_null_point(tau, 30)
            with workdps(45):
                theta = ((b1 + b3) * (b0 + b2) * (b0 - b2)).pow_int(8) / 256
                assert abs(delta.value - theta.value) <= delta.radius + theta.radius

    @pytest.mark.parametrize("dps", [39, 100])
    def test_e4_overlaps_sigma3_series(self, dps):
        for f in reduced_forms(-23) + reduced_forms(-47) + reduced_forms(-163):
            with workdps(dps):
                b0, b1, b2, b3 = cmlab._nulls_at(cmlab._cm_nome(f))
                e4 = cmlab._eisenstein_e4([(b1 + b3).pow_int(8), (b0 + b2).pow_int(8), (b0 - b2).pow_int(8)])
            ref = _sigma3_e4(f.tau(2 * dps), 2 * dps)
            with workdps(2 * dps):
                assert abs(e4.value - ref) <= e4.radius + mpf(10) ** (5 - 2 * dps)

    def test_tails_join_radii_rounded_up(self, monkeypatch):
        # at 15 digits a nearest-rounded radius + tail falls below the
        # exact sum about half of the time; the theta series instead adds
        # the tail that stopped it to each bucket's integer count
        widened, seen = BigFloat.widened, []

        def spy(ball, extra):
            out = widened(ball, extra)
            seen.append((ball.radius, extra, out))
            return out

        monkeypatch.setattr(BigFloat, "widened", spy)
        rng = random.Random(15)
        returned = []
        with workdps(15):
            for i in range(375):
                tau = BigFloat.rounded(mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 3 if i < 300 else 40)))
                if i < 300:
                    returned.append(cmlab._eta_product(_q_ball(tau)))
                    continue
                for bucket, slope, tail, stop in _bucket_parts(cmlab._theta_w(tau)):
                    assert _worth(tail) == _worth(stop)
                    assert bucket.err * Fraction(2) ** bucket.exp >= _worth(slope) + _worth(tail)
        assert len(returned) == len(seen) == 300
        for ball, (radius, tail, out) in zip(returned, seen):
            assert ball is out
            assert _exact(ball.radius) >= _exact(radius) + _exact(tail)


class TestConstantBalls:
    @pytest.mark.parametrize("dps", [15, 39, 250])
    def test_pi_constants_enclose_their_values(self, dps):
        with workdps(dps):
            pi = BigFloat.rounded(mp.pi)
            two_pi_i = BigFloat.rounded(mpc(0, 2) * mp.pi)
            pi_i_4 = BigFloat.rounded(mpc(0, 1) * mp.pi / 4)
        # no wider than the hand-picked allowance they replace
        assert two_pi_i.radius <= 64 * mp.pi * mpf(10) ** -dps
        with workdps(dps + 120):
            for ball, exact in ((pi, mp.pi), (two_pi_i, 2j * mp.pi), (pi_i_4, 1j * mp.pi / 4)):
                assert abs(ball.value - exact) <= ball.radius

    def test_nomes_enclose_their_values(self):
        for f in reduced_forms(-56) + reduced_forms(-163):
            with workdps(30):
                tau = _cm_tau_ball(f)
                q, w = _q_ball(tau), cmlab._ball_of(cmlab._theta_w(tau))
            with workdps(120):
                exact = mpc(-f.b, mp.sqrt(-f.discriminant)) / (2 * f.a)
                assert abs(q.value - mp.exp(2j * mp.pi * exact)) <= q.radius
                assert abs(w.value - mp.exp(1j * mp.pi * exact / 4)) <= w.radius


    @pytest.mark.parametrize("dps", [15, 39, 250])
    def test_cm_nome_encloses_three_times_the_precision(self, dps):
        # a seeded sample of the forms of |d| <= 2000 with b = 0, b = a,
        # dyadic and non-dyadic b / (8a), and the a = 1 forms of
        # -99999999, where |w| is about 2**-5666: each nome holds the
        # exact one, within 2**-(prec + 8) |w|
        forms = [f for n in range(3, 2001) if -n % 4 in (0, 1) for f in reduced_forms(-n)]
        kinds = {
            "b = 0": [f for f in forms if f.b == 0],
            "b = a": [f for f in forms if f.b == f.a],
            "dyadic": [f for f in forms if 0 < f.b < f.a and (t := 8 * f.a // gcd(f.b, 8 * f.a)) & (t - 1) == 0],
            "non-dyadic": [f for f in forms if 0 < abs(f.b) < f.a and (t := 8 * f.a // gcd(f.b, 8 * f.a)) & (t - 1)],
        }
        rng = random.Random(26)
        sample = [f for group in kinds.values() for f in rng.sample(group, 40)]
        sample += [f for f in reduced_forms(-99999999) if f.a == 1]
        assert all(len(group) >= 40 for group in kinds.values()) and sample[-1].a == 1
        for f in sample:
            with workdps(dps):
                w, prec = cmlab._ball_of(cmlab._cm_nome(f)), mp.prec
            with workdps(3 * dps):
                exact = mp.exp(1j * mp.pi * f.tau(3 * dps) / 4)
                assert abs(w.value - exact) <= w.radius, (f, dps)
                assert w.radius <= mpf(2) ** -(prec + 8) * abs(exact), (f, dps)

    def test_angle_cache_keeps_precisions_apart(self):
        # the cos and sin ends are cached by fraction and precision: a
        # nome made with a warm cache is bit for bit the one made cold,
        # whatever precision filled the cache before
        forms = [ReducedForm(3, 1, 7), ReducedForm(5, 3, 7), ReducedForm(2, 1, 3)]

        def nomes(dps):
            with workdps(dps):
                return [(w.re, w.im, w.exp, w.err) for w in map(cmlab._cm_nome, forms)]

        cold = {}
        for dps in (15, 39, 100):
            cmlab._cos_sin_pi_ends.cache_clear()
            cold[dps] = nomes(dps)
        cmlab._cos_sin_pi_ends.cache_clear()
        for dps in (100, 15, 39, 15, 100):
            assert nomes(dps) == cold[dps], dps
        assert cmlab._cos_sin_pi_ends.cache_info().currsize == 3 * len(forms)

    @pytest.mark.parametrize("dps", [15, 39, 250])
    def test_cached_constants_are_the_rounded_balls(self, dps):
        # one build per working precision, bit for bit what
        # BigFloat.rounded makes on each call
        for _ in range(2):
            with workdps(dps):
                got = cmlab._minus_half_log_2(mp.prec, mp.dps)
                want = BigFloat.rounded(-mp.log(2) / 2)
            assert (got.value, got._r) == (want.value, want._r)


class TestHilbertClassPoly:
    def test_h1_discs(self):
        assert hilbert_class_poly(-3).coeffs == (0, 1)
        assert hilbert_class_poly(-4).coeffs == (-1728, 1)
        assert hilbert_class_poly(-8).coeffs == (-8000, 1)
        assert hilbert_class_poly(-7).coeffs == (3375, 1)  # j = -3375

    def test_h23_frozen(self):
        p = hilbert_class_poly(-23)
        assert p.coeffs == (12771880859375, -5151296875, 3491750, 1)

    def test_degree_is_class_number(self):
        for d in (-15, -20, -24, -47, -71):
            assert hilbert_class_poly(d).degree == class_number(d)

    def test_coefficients_frozen(self):
        # SHA-256 of the coefficients as the product of BigFloat linear
        # factors computed them: the 362 fundamental |d| <= 2000 with
        # h <= 12, and the two discriminants of the classpoly benchmark
        small = [d for d in fundamental_discriminants(2000) if class_number(d) <= 12]
        assert len(small) == 362
        for ds, digest in (
            (small, "e3430b1043e5070a825ab8ff04a612950f9e212fe8f0ca3528c000ad56010779"),
            ([-599, -1832], "397e8d41545e94739c29d12aae67a0138dc74c5f63e52f2012eeae9484427e2b"),
        ):
            coeffs = [(d, hilbert_class_poly(d).coeffs) for d in ds]
            assert hashlib.sha256(repr(coeffs).encode()).hexdigest() == digest, ds[-1]


def _dyadic(x: Fraction):
    """The mpf of a fraction whose denominator is a power of two, exactly."""
    return mp.make_mpf(from_man_exp(x.numerator, 1 - x.denominator.bit_length()))


def _root_ball(x: Fraction, y: Fraction, r: Fraction, rng) -> BigFloat:
    """A ball of radius r whose midpoint is x + yi moved by a dyadic offset
    of modulus below r."""
    if r:
        u, v = (Fraction(rng.randint(-1024, 1024), 2048) * r for _ in range(2))
        x, y = x + u, y + v
    return BigFloat(mp.make_mpc((_dyadic(x)._mpf_, _dyadic(y)._mpf_)), _dyadic(r))


def _exact_product(roots) -> list:
    """The coefficients, lowest first, of the product of x - t over the
    real roots (t, 0) and of x^2 - 2t x + t^2 + u^2 over the pairs t +- ui."""
    poly = [Fraction(1)]
    for t, u in roots:
        factor = [-t, Fraction(1)] if u == 0 else [t * t + u * u, -2 * t, Fraction(1)]
        out = [Fraction(0)] * (len(poly) + len(factor) - 1)
        for i, p in enumerate(poly):
            for k, q in enumerate(factor):
                out[i + k] += p * q
        poly = out
    return poly


def _root_sets(rng, count: int, dyadic: bool):
    """Seeded conjugation-closed root sets as (roots, ball groups, s): real
    roots and pairs t +- ui of modulus up to about 57, integers or, when
    dyadic, with denominators up to 2**(s + 3), given as balls of one
    radius (0 or a power of two) about midpoints moved inside it, the two
    balls of a pair moved independently."""
    for _ in range(count):
        s = rng.choice((4, 5, 6, 8, 20, 53))
        r = rng.choice((Fraction(0), Fraction(1, 2 ** rng.randint(2, 14))))
        roots, groups = [], []
        for _ in range(rng.randint(1, 6)):
            den = 2 ** rng.randint(0, s + 3) if dyadic else 1
            t, u = (Fraction(rng.randint(-40 * den, 40 * den), den) for _ in range(2))
            if rng.random() < 0.4:
                u = Fraction(0)
            roots.append((t, abs(u)))
            if u:
                groups.append((_root_ball(t, u, r, rng), _root_ball(t, -u, r, rng)))
            else:
                groups.append((_root_ball(t, Fraction(0), r, rng),))
        yield roots, groups, s


class TestClassPolyProduct:
    def test_integral_product_is_exact_or_none(self):
        rng, certified = random.Random(1901), 0
        for roots, groups, s in _root_sets(rng, 400, False):
            out = cmlab._class_poly_product(groups, s)
            if out is not None:
                certified += 1
                assert list(out.coeffs) == _exact_product(roots), (roots, s)
        assert certified > 150

    def test_every_coefficient_within_a_quarter(self):
        # for dyadic roots the exact product need not be integral, but a
        # returned coefficient is within 1/4 of the exact one
        rng, certified = random.Random(1902), 0
        for roots, groups, s in _root_sets(rng, 3000, True):
            out = cmlab._class_poly_product(groups, s)
            if out is not None:
                certified += 1
                exact = _exact_product(roots)
                assert len(out.coeffs) == len(exact)
                assert all(abs(c - e) <= Fraction(1, 4) for c, e in zip(out.coeffs, exact)), (roots, s)
        assert certified > 40

    def test_cuts_of_the_running_product_are_counted(self):
        # exact real roots at scale 2**s: no factor has an error, so the
        # bound is the cuts of the running product alone
        rng, certified = random.Random(1904), 0
        for _ in range(500):
            s = rng.choice((4, 5, 6))
            roots = [(Fraction(rng.randint(-40 << s, 40 << s), 1 << s), Fraction(0)) for _ in range(rng.randint(2, 4))]
            out = cmlab._class_poly_product([(_root_ball(t, u, Fraction(0), rng),) for t, u in roots], s)
            if out is not None:
                certified += 1
                assert all(abs(c - e) <= Fraction(1, 4) for c, e in zip(out.coeffs, _exact_product(roots))), roots
        assert certified > 20

    def test_radius_past_the_margin_returns_none(self):
        rng = random.Random(1903)
        for roots, _, s in _root_sets(rng, 100, False):
            # radius 0 about the exact roots: every cut is exact
            groups = [
                tuple(_root_ball(t, v, Fraction(0), rng) for v in ((u, -u) if u else (u,))) for t, u in roots
            ]
            assert list(cmlab._class_poly_product(groups, s).coeffs) == _exact_product(roots)
            i = rng.randrange(len(groups))
            wide = list(groups)
            wide[i] = tuple(b.widened(mpf(1) / 4 + mpf(2) ** -20) for b in wide[i])
            assert cmlab._class_poly_product(wide, s) is None

    def test_j_once_per_form_in_order(self, monkeypatch):
        # the i-th _j_at ball is the i-th reduced form's, all at one
        # precision, from the buckets of the form's own nome bit for bit,
        # also where a mirror takes its pair's conjugated buckets
        seen, j_at = [], cmlab._j_at

        def recording(nulls):
            seen.append((nulls, mp.dps))
            return j_at(nulls)

        monkeypatch.setattr(cmlab, "_j_at", recording)
        for d in (-47, -599, -1832):
            seen.clear()
            hilbert_class_poly(d)
            forms = reduced_forms(d)
            assert len(seen) == len(forms) and len({dps for _, dps in seen}) == 1
            for f, (nulls, dps) in zip(forms, seen):
                with workdps(dps):
                    want = cmlab._theta_nulls(cmlab._cm_nome(f))
                assert _bucket_fields(nulls) == _bucket_fields(want), (d, f)

    @pytest.mark.parametrize("d, series, js", [(-599, 13, 25), (-1832, 14, 26)])
    def test_one_theta_series_per_conjugate_pair(self, monkeypatch, d, series, js):
        # 24 of the 25 forms of -599 and 24 of the 26 of -1832 lie in
        # conjugate pairs: one series per pair and per real form, and
        # still one j ball per form
        counts = Counter()
        monkeypatch.setattr(cmlab, "_theta_nulls", _counted(cmlab._theta_nulls, "_theta_nulls", counts))
        monkeypatch.setattr(cmlab, "_j_at", _counted(cmlab._j_at, "_j_at", counts))
        hilbert_class_poly(d)
        assert counts == {"_theta_nulls": series, "_j_at": js}


class TestJHeight:
    def test_frozen_values(self):
        assert abs(j_height(-4, 30).value - mpf("7.454720")) < mpf("1e-4")
        assert abs(j_height(-23, 30).value - mpf("10.059470")) < mpf("1e-4")
        assert abs(j_height(-47, 30).value - mpf("11.607510")) < mpf("1e-4")

    def test_dual_route_vs_class_poly_mahler(self):
        # class poly is monic with the j's as roots, so its Mahler
        # measure divided by the degree is the same height
        for d in (-4, -15, -23, -47):
            direct = j_height(d, 30)
            via_poly = mahler_height(hilbert_class_poly(d), 30)
            assert (
                abs(direct.value - via_poly.value)
                <= direct.radius + via_poly.radius + mpf(10) ** -20
            )


    def test_mahler_route_overlaps_for_small_fundamental_discriminants(self):
        # the Mahler height of H_d is a second certified route to h(j_d):
        # every fundamental |d| <= 500 with h >= 2, and two H_d whose
        # roots reach 10^33 and 10^58
        ds = [d for d in fundamental_discriminants(500) if class_number(d) >= 2]
        for d in ds + [-599, -1832]:
            direct, via_poly = j_height(d, 30), mahler_height(hilbert_class_poly(d), 30)
            assert abs(direct.value - via_poly.value) <= direct.radius + via_poly.radius, d

    def test_mahler_route_overlaps_up_to_2000(self):
        # every fundamental 500 < |d| <= 2000 with 2 <= h <= 12: the class
        # polynomial's Mahler height, from root discs alone, is an
        # independent route to the j balls
        ds = [d for d in fundamental_discriminants(2000) if d < -500 and 2 <= class_number(d) <= 12]
        assert len(ds) == 228
        for d in ds:
            direct, via_poly = j_height(d, 30), mahler_height(hilbert_class_poly(d), 30)
            assert abs(direct.value - via_poly.value) <= direct.radius + via_poly.radius, d


class TestSInvariant:
    def test_sl2_invariance(self):
        mats = [(1, 1, 0, 1), (0, -1, 1, 0), (2, 1, 1, 1), (1, 0, 1, 1), (3, 2, 1, 1)]
        rng = random.Random(8)
        with workdps(80):
            for _ in range(6):
                tau = mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 1.8))
                s0 = s_invariant(tau, 50)
                for a, b, c, dd in mats:
                    tt = (a * tau + b) / (c * tau + dd)
                    s1 = s_invariant(tt, 50)
                    assert abs(s0.value - s1.value) <= s0.radius + s1.radius + mpf(
                        10
                    ) ** -40

    def test_radius_certified(self):
        s = s_invariant(mpc(0, 1), 50)
        assert s.radius < mpf(10) ** -45


class TestChowlaSelberg:
    def test_delta_at_i(self):
        # |Delta(i)| = Gamma(1/4)^24 / (2^24 pi^18)
        delta = modular_discriminant(mpc(0, 1), 45)
        with workdps(80):
            lo, hi = delta.abs_bounds()
            truth = mp.gamma(mpf(1) / 4) ** 24 / (2**24 * mp.pi**18)
            assert lo <= truth <= hi
            assert abs(abs(delta.value) - truth) < mpf(10) ** -30


def _kronecker_at_prime(d: int, p: int) -> int:
    """The Kronecker symbol (d / p) at a prime p."""
    if p == 2:
        return 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
    r = pow(d, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


class TestOrders:
    @pytest.mark.parametrize("big_d, f", [
        (-4, 2), (-3, 2), (-3, 3), (-4, 3), (-7, 2), (-3, 6), (-15, 2), (-20, 3), (-7, 3), (-4, 5),
    ])
    def test_conductor_formula(self, big_d, f):
        # Nakkajima-Taguchi (J. reine angew. Math. 419, 1991): for the
        # order of conductor f in O_K, h(O_f) - h(O_K) = (1/2) log f -
        # (1/2) sum over p^k || f of e_p log p, e_p = (1 - chi(p))(1 -
        # p^-k) / ((p - chi(p))(1 - 1/p)), chi = (D / .); the first test of
        # the CM kernel on non-maximal orders
        coeffs = {}
        for p, k in factorint(f).items():
            chi = _kronecker_at_prime(big_d, p)
            e_p = (1 - chi) * (1 - Fraction(1, p**k)) / ((p - chi) * (1 - Fraction(1, p)))
            coeffs[p] = Fraction(k, 2) - e_p / 2
        lo, hi = LogCombination(coeffs).interval(60)
        with workdps(45):
            diff = faltings_height_cm(big_d * f * f, 30) - faltings_height_cm(big_d, 30)
        d_lo, d_hi = diff.bounds()
        assert d_lo <= lo <= hi <= d_hi, (big_d, f)
        assert diff.radius < mpf(10) ** -30


def _reduced_exactly(tau: mpc) -> tuple:
    """(x, y, c, d): the point g tau = x + y i of the fundamental domain
    and the bottom row (c, d) of g, by T and S moves on the exact
    Fractions of tau's parts."""
    x, y = (Fraction(*to_rational(t)) for t in tau._mpc_)
    a, b, c, d = 1, 0, 0, 1
    while True:
        n = floor(x + Fraction(1, 2))
        x, a, b = x - n, a - n * c, b - n * d
        norm = x * x + y * y
        if norm >= 1:
            return x, y, c, d
        x, y, a, b, c, d = -x / norm, y / norm, -c, -d, a, b


def _reduced_references(tau: mpc) -> tuple:
    """1728 kleinj, s = -(1/12) log(|eta|^24 (Im)^6) and eta^24 at the
    exactly reduced point g tau, the last as Delta(tau) = Delta(g tau) /
    (c tau + d)^12, at 150 digits."""
    x, y, c, d = _reduced_exactly(tau)
    with workdps(150):
        point = mpc(mpf(x.numerator) / x.denominator, mpf(y.numerator) / y.denominator)
        eta = mp.eta(point)
        return 1728 * mp.kleinj(point), -2 * mp.log(abs(eta)) - mp.log(point.imag) / 2, eta**24 / (c * tau + d) ** 12


class TestReduction:
    """j, s and Delta at seeded tau near the real axis, 10^-6 <= Im tau
    <= 10^-1, against mpmath at 150 digits at the point reduced exactly:
    a reduction that rounds its moves and then treats the result as
    exact misses these references by up to hundreds of radii."""

    @pytest.fixture(scope="class")
    def cases(self):
        rng = random.Random(25)
        taus = [mpc(rng.uniform(-2, 2), 10 ** rng.uniform(-6, -1)) for _ in range(200)]
        return [(tau, _reduced_references(tau)) for tau in taus]

    @pytest.mark.parametrize("index, fn", [(0, j_invariant), (1, s_invariant), (2, modular_discriminant)])
    def test_balls_enclose_the_exactly_reduced_references(self, cases, index, fn):
        for tau, refs in cases:
            ball = fn(tau, 20)
            with workdps(150):
                assert abs(ball.value - refs[index]) <= ball.radius, tau

    def test_s_near_the_real_axis(self):
        tau = mpc("0.1", "1e-4")
        s = s_invariant(tau, 24)
        assert s.radius < mpf(10) ** -30
        with workdps(150):
            assert abs(s.value - _reduced_references(tau)[1]) <= s.radius


class TestFaltings:
    def test_frozen_values(self):
        assert abs(faltings_height_cm(-3, 30).value - mpf("0.1701860477")) < mpf("1e-9")
        assert abs(faltings_height_cm(-4, 30).value - mpf("0.1807705502")) < mpf("1e-9")

    def test_ordering(self):
        h3 = faltings_height_cm(-3, 30)
        h4 = faltings_height_cm(-4, 30)
        assert h3.value + h3.radius < h4.value - h4.radius

    def test_growth(self):
        # larger |d| with h = 1 has larger Faltings height
        vals = [faltings_height_cm(d, 24).value for d in (-7, -43, -163)]
        assert vals[0] < vals[1] < vals[2]

    def test_offset_parameter(self):
        base = faltings_height_cm(-4, 30)
        shifted = faltings_height_cm(-4, 30, normalization_offset=0)
        with workdps(50):
            diff = shifted.value - base.value
            assert abs(diff - mp.log(2) / 2) < mpf(10) ** -20

    def test_fraction_offset(self):
        base = faltings_height_cm(-4, 30, normalization_offset=0)
        third = faltings_height_cm(-4, 30, normalization_offset=Fraction(1, 3))
        assert third.radius > base.radius  # 1/3 carries its rounding radius
        with workdps(80):
            gap = abs(third.value - base.value - mpf(1) / 3)
            assert gap <= third.radius + base.radius

    def test_string_offset_is_the_fraction_offset(self):
        # "0.1" names 1/10 exactly: it used to be rounded with no radius
        for offset in ("0.1", Decimal("0.1")):
            got = faltings_height_cm(-3, 24, normalization_offset=offset)
            want = faltings_height_cm(-3, 24, normalization_offset=Fraction(1, 10))
            assert (got.value, got._r) == (want.value, want._r), offset

    def test_dyadic_fraction_offset_is_exact(self):
        half = faltings_height_cm(-4, 24, Fraction(1, 2))
        point_five = faltings_height_cm(-4, 24, 0.5)
        assert (half.value, half.radius) == (point_five.value, point_five.radius)
        third = faltings_height_cm(-4, 24, Fraction(1, 3))
        assert third.radius > half.radius

    @pytest.mark.parametrize("d", [-3, -4, -7, -8, -23, -163, -15, -84])
    def test_deligne_normalization_plus_half_log_2pi(self, d):
        # Chowla-Selberg through Lerch's formula: in Deligne's
        # normalization the stable Faltings height is
        #   -(w / 4h) * sum_{a=1}^{|d|} chi_d(a) log Gamma(a/|d|) + (1/4) log|d|,
        # with w roots of unity, h the class number and chi_d the
        # Kronecker symbol (d/.); mpmath's loggamma is the oracle
        n = -d
        w = {3: 6, 4: 4}.get(n, 2)
        h = brute_class_number(d)
        f = faltings_height_cm(d, 40)
        with workdps(70):
            s = mp.fsum(kronecker(d, a) * mp.loggamma(mpf(a) / n) for a in range(1, n + 1))
            deligne = -w * s / (4 * h) + mp.log(n) / 4
            if d == -3:
                assert abs(deligne - mpf("-0.74875248550333782792")) < mpf(10) ** -20
            assert abs(f.value - deligne - mp.log(2 * mp.pi) / 2) <= f.radius + mpf(10) ** -60


class TestThetaNulls:
    def test_bitwise_equal_odd_buckets(self):
        for tau in (mpc(0, 1), mpc("0.3", "1.2"), mpc("-0.45", "0.9")):
            t0, t1, t2, t3 = theta_null_point(tau, 30)
            assert t1.value == t3.value
            assert t1.radius == t3.radius

    def test_positive_at_i(self):
        t0, t1, t2, t3 = theta_null_point(mpc(0, 1), 30)
        for t in (t0, t1, t2):
            assert t.value.real - t.radius > 0
            assert abs(t.value.imag) <= t.radius + mpf(10) ** -25

    def test_translation_phases(self):
        # theta_j(tau + 2) = i^(j^2) theta_j(tau); dyadic tau keeps the
        # shift exact at every precision
        tau = mpc(mpf("0.25"), mpf("0.9375"))
        a = theta_null_point(tau, 35)
        b = theta_null_point(tau + 2, 35)
        with workdps(55):
            phases = [mpc(1), mpc(0, 1), mpc(1), mpc(0, 1)]
            for j in range(4):
                want = phases[j] * a[j].value
                assert abs(b[j].value - want) <= a[j].radius + b[j].radius + mpf(
                    10
                ) ** -28

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            theta_null_point(mpc(0, -1), 30)

    def test_modulus_cap(self):
        assert Q_MODULUS_CAP < 1
        with pytest.raises(PrecisionError):
            theta_null_point(mpc(0, mpf("1e-6")), 30)

    def test_nome_ball_around_zero_refused(self):
        # the tolerance 10^-dps |w| would be 0, and the series endless
        with pytest.raises(PrecisionError):
            theta_null_point(BigFloat(mpc(0, 10), 5), 30)

    def test_height_estimate_nonnegative(self):
        for d in (-3, -4, -23, -47):
            est = theta_height_estimate(d, 24)
            assert est.value >= 0

    def test_height_estimate_encloses_higher_precision(self):
        for d in (-3, -23, -47, -71):
            lo, hi = theta_height_estimate(d, 20), theta_height_estimate(d, 60)
            with workdps(100):
                assert abs(hi.value - lo.value) + hi.radius <= lo.radius


def _iv_theta_term(nulls) -> BigFloat:
    """The theta term as mpmath iv enclosed it from the full-precision
    ``abs_bounds`` of the four buckets, before the exact norms."""
    bounds = [th.abs_bounds() for th in nulls]
    mx_lo = max(lo for lo, _ in bounds)
    with _iv_workdps(mp.dps):
        l2 = iv.sqrt(iv.fsum(iv.mpf(b) ** 2 for b in bounds))
        term = iv.log(l2 / iv.mpf([mx_lo, max(hi for _, hi in bounds)]))
        return BigFloat.from_bounds(max(mpf(term.a), mpf(0)), mpf(term.b))


@lru_cache(maxsize=None)
def _theta_term_reference(f: ReducedForm) -> mpf:
    """log(||v||_2 / max_j |theta_j|) at tau of f, from the series
    theta_j = sum over m = j (mod 4) of w^(m^2) summed in mpc at 170
    digits: good to 150 digits."""
    with workdps(170):
        tau = mpc(-f.b, mp.sqrt(-f.discriminant)) / (2 * f.a)
        w = mp.exp(1j * mp.pi * tau / 4)
        buckets = [mpc(1), mpc(0), mpc(0), mpc(0)]
        for m in range(1, 100):
            term = w ** (m * m)
            buckets[m % 4] += term
            buckets[-m % 4] += term
        norms = [abs(b) for b in buckets]
        return mp.log(mp.sqrt(mp.fsum(n * n for n in norms)) / max(norms))


def _forms_up_to(bound: int):
    """The reduced forms with b >= 0 of the fundamental d, |d| <= bound."""
    return [f for d in fundamental_discriminants(bound) for f in reduced_forms(d) if f.b >= 0]


def _interval_ball(interval, scale: int) -> BigFloat:
    """The ball of an integer interval (lo, hi) at scale 2**-scale."""
    return BigFloat.from_bounds(*(mp.make_mpf(from_man_exp(v, -scale)) for v in interval))


def _gauss(value, radius, bits: int = 60):
    """A _GaussBall of exponent -bits about value, rounded to nearest,
    whose count is the radius rounded up."""
    with workdps(40):
        v, r = mpc(value), mpf(radius)
        re, im = (int(mp.nint(t * 2**bits)) for t in (v.real, v.imag))
        return cmlab._GaussBall(re, im, -bits, int(mp.ceil(r * 2**bits)), 100)


class TestThetaTerm:
    """The theta term from the exact integer norms of the bucket midpoints."""

    @staticmethod
    def _terms(dps: int, forms):
        for f in forms:
            with workdps(dps):
                buckets, scale = cmlab._theta_nulls(cmlab._theta_w(_cm_tau_ball(f))), mp.prec + 64
                yield f, [cmlab._ball_of(b) for b in buckets], _interval_ball(cmlab._theta_term(buckets, scale), scale)

    @pytest.mark.parametrize("dps", [15, 39, 100])
    def test_encloses_150_digit_reference(self, dps):
        forms = _forms_up_to(400)
        assert len(forms) > 400
        for f, _, term in self._terms(dps, forms):
            with workdps(170):
                assert abs(term.value - _theta_term_reference(f)) <= term.radius, (f, dps)

    @pytest.mark.parametrize("dps", [15, 39, 100])
    def test_radius_at_most_the_iv_formula(self, dps):
        for f, nulls, term in self._terms(dps, _forms_up_to(400)):
            with workdps(dps):
                old = _iv_theta_term(nulls)
            assert term.radius <= old.radius, (f, dps)
            lo, hi = old.bounds()
            assert lo <= term.value <= hi, (f, dps)

    def test_radii_hiding_the_maximum_raise(self):
        small, zero = _gauss(mpc("0.2", "0.1"), 0), _gauss(0, 0)
        for nulls in (
            # theta_0's own disc reaches 0
            (_gauss(1, "1.5"), small, zero, small),
            # theta_1's disc reaches past theta_0 - r_0 with r_1 > |theta_0|
            (_gauss(1, "0.1"), _gauss(mpc("0.5"), "1.2"), zero, small),
            # M - r > 0, but S - E = 1.13 - 0.9 (2 + 0.9) < 0
            (_gauss(1, "0.9"), small, zero, small),
        ):
            with pytest.raises(PrecisionError):
                cmlab._theta_term(nulls, 100)
        # a wide disc that cannot reach |theta_0| - r_0 does not count
        with workdps(30):
            term = _interval_ball(cmlab._theta_term((_gauss(1, "0.1"), _gauss(mpc("0.2"), "0.5"), zero, small), 100), 100)
            exact = mp.log(mp.sqrt(1 + mpf("0.04") + mpf("0.05")))
            assert abs(term.value - exact) <= term.radius
            assert term.radius < 1


def _bigfloat_theta_nulls(w: BigFloat) -> tuple:
    """The four theta buckets as a BigFloat loop sums them: every power
    and every partial sum a ball operation, the stop rule and the tail
    those of ``cmlab._theta_nulls`` before it ran on Gaussian integers."""
    w_lo, w_hi = w.abs_bounds()
    x, tol = _pair(w_hi._mpf_), _pair((mpf(10) ** -mp.dps * w_lo)._mpf_)
    buckets = [BigFloat(1), BigFloat(0), BigFloat(0)]
    w2, w_odd, w_m2 = w * w, w, w
    for m in range(1, 1 << 20):
        if m % 2:
            buckets[1] = buckets[1] + w_m2
        else:
            buckets[m % 4] = buckets[m % 4] + w_m2 + w_m2
        tail = _tail_below(x, (m + 1) * (m + 1), 2 * m + 3, tol)
        if tail is not None:
            return tuple(b.widened(mp.make_mpf(from_man_exp(*tail))) for b in (*buckets, buckets[1]))
        w_odd = w_odd * w2
        w_m2 = w_m2 * w_odd


def _worth(pair) -> Fraction:
    """The exact value m 2**e of a pair (m, e)."""
    return Fraction(pair[0]) * Fraction(2) ** pair[1]


def _bucket_parts(w) -> list:
    """(bucket, slope pair, tail pair, stopping tail) for each of the four
    buckets of _theta_nulls(w): the pairs it brings to the unit of the
    bucket's count (slope, then tail, for b0, b1 and b2; b3 is b1), and
    the last tail _tail_below returned, which stopped the series."""
    pairs, tails = [], []
    units, tail_below = cmlab._units_up, cmlab._tail_below
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cmlab, "_units_up", lambda pair, exp: pairs.append(pair) or units(pair, exp))
        patch.setattr(cmlab, "_tail_below", lambda *args: tails.append(tail_below(*args)) or tails[-1])
        buckets = cmlab._theta_nulls(w)
    return [(b, pairs[2 * i], pairs[2 * i + 1], tails[-1]) for b, i in zip(buckets, (0, 1, 2, 1))]


def _bucket_fields(buckets) -> list:
    """The fields (re, im, exp, err, bits) of each of four buckets."""
    return [(b.re, b.im, b.exp, b.err, b.bits) for b in buckets]


def _public(buckets) -> list:
    return [cmlab._ball_of(b) for b in buckets]


def _kernel_points() -> list:
    """The exact points tau of the kernel tests: the CM points of the
    forms with b >= 0 of the fundamental |d| <= 400, of -599 and of
    -1832, and seeded tau with |Re tau| <= 1/2 and Im tau from 0.3
    (|w| ~ 0.79) to 30 (|w| ~ 6e-11), doubles and so exact."""
    forms = _forms_up_to(400) + [f for d in (-599, -1832) for f in reduced_forms(d) if f.b >= 0]
    rng = random.Random(22)
    ims = [0.3, 30.0] + [10 ** rng.uniform(log10(0.3), log10(30)) for _ in range(38)]
    return forms + [(rng.uniform(-0.5, 0.5), y) for y in ims]


def _tau_ball_of(point) -> BigFloat:
    """The tau ball of a point at the working precision."""
    if isinstance(point, ReducedForm):
        return _cm_tau_ball(point)
    return BigFloat(mpc(*point))


@lru_cache(maxsize=None)
def _jtheta_buckets(point) -> tuple:
    """b0..b3 at the point from mpmath jtheta at the nome q = w^4 =
    exp(pi i tau), at 750 digits, three times the largest precision
    tested: theta_2 = b1 + b3 with b1 = b3, theta_3,4 = b0 +- b2."""
    with workdps(750):
        tau = point.tau(750) if isinstance(point, ReducedForm) else mpc(*point)
        q = mp.exp(1j * mp.pi * tau)
        t2, t3, t4 = (mp.jtheta(k, 0, q) for k in (2, 3, 4))
        return (t3 + t4) / 2, t2 / 2, (t3 - t4) / 2, t2 / 2


def _counted(fn, name: str, counts: Counter):
    def counting(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counting


class TestFixedPointThetaKernel:
    """``_theta_nulls`` on Gaussian integers under one integer error count."""

    @pytest.mark.parametrize("dps", [15, 39, 250])
    def test_buckets_enclose_jtheta(self, dps):
        # and keep dps - 4 digits of max(|w|, |b_j|): the bits
        # 4 log2(1 / |w|) over the working precision keep the error count
        # below 10^-dps |w| as w shrinks to 6e-11
        for point in _kernel_points():
            with workdps(dps):
                w = cmlab._theta_w(_tau_ball_of(point))
                buckets = _public(cmlab._theta_nulls(w))
            with workdps(750):
                for j, (ball, want) in enumerate(zip(buckets, _jtheta_buckets(point))):
                    assert abs(ball.value - want) <= ball.radius, (point, dps, j)
                    assert ball.radius <= mpf(10) ** (4 - dps) * max(abs(cmlab._ball_of(w).value), abs(want)), (point, dps, j)

    @pytest.mark.parametrize("dps", [15, 39, 250])
    def test_radius_of_tau_carried_over(self, dps):
        # a tau ball of radius r whose midpoint sits 0.9 r from tau holds
        # the buckets at tau: the radius of w enters each bucket
        rng = random.Random(dps)
        points = [f for d in (-23, -71, -1832) for f in reduced_forms(d) if f.b >= 0] + [(0.25, 0.3), (-0.4, 12.0)]
        for point, r in ((p, mpf(10) ** -k) for p in points for k in (dps // 3, dps - 5)):
            with workdps(dps + 20):
                tau = point.tau(dps + 20) if isinstance(point, ReducedForm) else mpc(*point)
                mid = tau + 9 * r / 10 * mp.expjpi(rng.uniform(-1, 1))
            with workdps(dps):
                buckets = _public(cmlab._theta_nulls(cmlab._theta_w(BigFloat(mid, r))))
            with workdps(750):
                for j, (ball, want) in enumerate(zip(buckets, _jtheta_buckets(point))):
                    assert abs(ball.value - want) <= ball.radius, (point, dps, j)

    @pytest.mark.parametrize("dps", [15, 39, 250])
    def test_no_wider_than_the_ball_loop(self, dps):
        for point in _kernel_points():
            with workdps(dps):
                w = cmlab._theta_w(_tau_ball_of(point))
                new, old = _public(cmlab._theta_nulls(w)), _bigfloat_theta_nulls(cmlab._ball_of(w))
            for j, (a, b) in enumerate(zip(new, old)):
                assert a.radius <= b.radius, (point, dps, j)

    @pytest.mark.parametrize("dps", [15, 39])
    def test_reads_the_whole_midpoint(self, dps):
        # a nome of radius 0 whose midpoint carries 3 dps digits, past the
        # working precision: the buckets hold those of that midpoint, which
        # the kernel cuts to its own scale and never rounds to mp.prec
        from heightlab.numcore import _ZERO, _mag

        for f in [f for d in (-3, -4, -23, -1832) for f in reduced_forms(d)]:
            with workdps(3 * dps):
                v = mp.exp(1j * mp.pi * f.tau(3 * dps) / 4)
            with workdps(dps):
                w = _gauss_ball_of_bucket(BigFloat._made(v, _ZERO, _mag(v)), mp.prec + 8)
                buckets = _public(cmlab._theta_nulls(w))
            with workdps(3 * dps + 20):
                powers = {m: v ** (m * m) for m in range(1, 120)}
                want = (
                    1 + 2 * mp.fsum(powers[m] for m in range(4, 120, 4)),
                    mp.fsum(powers[m] for m in range(1, 120, 2)),
                    2 * mp.fsum(powers[m] for m in range(2, 120, 4)),
                )
                for j, (ball, ref) in enumerate(zip(buckets, want)):
                    assert abs(ball.value - ref) <= ball.radius, (f, dps, j)

    def test_no_ball_per_term(self, monkeypatch):
        # no BigFloat call inside the kernel, whose nome is a Gaussian
        # ball, at 39 digits and at 250 for the same form; tails and
        # slopes join the buckets' integer counts
        counts = Counter()
        for name, attr in list(vars(BigFloat).items()):
            if isinstance(attr, classmethod):
                monkeypatch.setattr(BigFloat, name, classmethod(_counted(attr.__func__, name, counts)))
            elif callable(attr):
                monkeypatch.setattr(BigFloat, name, _counted(attr, name, counts))
        seen = []
        for dps in (39, 250):
            with workdps(dps):
                w = cmlab._theta_w(_cm_tau_ball(ReducedForm(1, 1, 1)))
                counts.clear()
                cmlab._theta_nulls(w)
            seen.append(sum(counts.values()))
        assert seen[0] == seen[1] == 0, seen


def _bigfloat_j_and_delta(nulls) -> tuple:
    """(j, Delta) as the ball formula made them before the kernel
    ran on Gaussian integers: every sum, power, product and quotient a
    BigFloat operation."""
    b0, b1, b2, b3 = nulls
    eighths = [(b1 + b3).pow_int(8), (b0 + b2).pow_int(8), (b0 - b2).pow_int(8)]
    delta = eighths[0] * eighths[1] * eighths[2] / 256
    return cmlab._eisenstein_e4(eighths).pow_int(3) / delta, delta


def _im_tau_of(f: ReducedForm) -> float:
    return (-f.discriminant) ** 0.5 / (2 * f.a)


def _gauss_ball_of_bucket(ball: BigFloat, bits: int):
    """A BigFloat bucket as a _GaussBall, its midpoint and radius pair
    read exactly at the lowest exponent of the three, as the j kernel
    read the buckets before they came as Gaussian balls."""
    parts = getattr(ball.value, "_mpc_", None) or (ball.value._mpf_, (0, 0, 0, 0))
    m, e = ball._r
    exp = min([e] + [t[2] for t in parts if t[1]])
    re, im = ((-t[1] if t[0] else t[1]) << (t[2] - exp) if t[1] else 0 for t in parts)
    return cmlab._GaussBall(re, im, exp, m << (e - exp), bits)


def _j_and_delta_of_buckets(nulls) -> tuple:
    """(j, Delta) from BigFloat buckets as the Gaussian-integer kernel
    made them before the buckets came as Gaussian balls."""
    b0, b1, b2, b3 = (_gauss_ball_of_bucket(ball, mp.prec + 8) for ball in nulls)
    eighths = [cmlab._binary_power(t, 8, lambda x, y: x * y) for t in (b1 + b3, b0 + b2, b0 - b2)]
    delta = eighths[0] * eighths[1] * eighths[2] / 256
    e4 = (eighths[0] + eighths[1] + eighths[2]) / 2
    den = cmlab._ball_of(delta)
    return cmlab._ball_of(e4 * (e4 * e4)) / den, den


def _theta_term_of_buckets(nulls) -> BigFloat:
    """The theta term as it was made from BigFloat buckets: the same
    outward log of the exact norms' quotient, widened by E / (2 (S - E))
    + r / (M - r) in 53-bit pairs from the radius and magnitude pairs."""
    from mpmath.libmp import mpf_add, mpf_div, mpf_log, mpf_lt, mpf_shift, mpf_sub, round_ceiling, round_floor
    from heightlab.numcore import _add_up, _div_up, _down, _mag, _mul_up, _norm, _sub_down

    norms = [_norm(th.value) for th in nulls]
    k = 0
    for i in (1, 2, 3):
        if mpf_lt(norms[k], norms[i]):
            k = i
    m_lo, r = _mag(nulls[k].value, round_floor), nulls[k]._r
    reach = _sub_down(m_lo, r)
    for th in nulls:
        if _sub_down(th._r, r)[0] and not _sub_down(reach, _add_up(th._mag, th._r))[0]:
            r = th._r
    m_gap, total = _sub_down(m_lo, r), reduce(mpf_add, norms)
    err = reduce(_add_up, [_mul_up(th._r, _add_up((th._mag[0], th._mag[1] + 1), th._r)) for th in nulls])
    s_gap = _sub_down(_down(total[1], total[2]), err)
    spread = from_man_exp(*_add_up(_div_up(err, (s_gap[0], s_gap[1] + 1)), _div_up(r, m_gap)))
    lo, hi = (
        mpf_shift(mpf_log(mpf_div(total, norms[k], mp.prec, rnd), mp.prec, rnd), -1)
        for rnd in (round_floor, round_ceiling)
    )
    lo, hi = mpf_sub(lo, spread), mpf_add(hi, spread)
    return BigFloat.from_bounds(mp.make_mpf((0, 0, 0, 0) if lo[0] else lo), mp.make_mpf(hi))


@lru_cache(maxsize=None)
def _kernel_cases() -> tuple:
    """The kernel's balls and intervals, those of the kernel whose buckets
    were BigFloats joined to their tails by ``widened`` (restated), and
    the ball formula's (j, Delta), for a seeded 200 of the
    cm_scan(2000, 24) forms with b >= 0 and every such form with Im tau
    < 1.05 (near rho and i), at 39 digits, and for every form of -599
    and -1832 at the precision hilbert_class_poly works at for them (206
    and 259 digits), all from the nome ``_cm_nome`` makes, as cm_record
    does.  Each case is a dict; a BigFloat bucket's radius was count u +
    slope, then + tail, each sum rounded up; the ball formula's s(tau)
    takes Im tau from the tau ball."""
    from heightlab.numcore import _add_up, _up

    forms = _forms_up_to(2000)
    picked = set(random.Random(23).sample(forms, 200)) | {f for f in forms if _im_tau_of(f) < 1.05}
    cases = [(f, 39) for f in forms if f in picked]
    cases += [(f, dps) for d, dps in ((-599, 206), (-1832, 259)) for f in reduced_forms(d)]
    out = []
    for f, dps in cases:
        with workdps(dps):
            tau, scale = _cm_tau_ball(f), mp.prec + 64
            parts = _bucket_parts(cmlab._cm_nome(f))
            buckets = [b for b, _, _, _ in parts]
            nulls = _public(buckets)
            num, delta = cmlab._e4_cubed_and_delta(buckets)
            j = cmlab._ball_of(num) / cmlab._ball_of(delta)
            ball_j, ball_delta = _j_and_delta_of_buckets(nulls)
            out.append({
                "form": f, "dps": dps, "scale": scale, "buckets": buckets, "nulls": nulls,
                "j": j, "delta": cmlab._ball_of(delta),
                "s": cmlab._s_term(delta, cmlab._im_tau_12(f), 0, scale), "theta": cmlab._theta_term(buckets, scale),
                "ball_radii": [
                    _worth(_add_up(_add_up(_up(b.err - cmlab._units_up(sl, b.exp) - cmlab._units_up(tl, b.exp), b.exp), sl), tl))
                    for b, sl, tl, _ in parts
                ],
                "ball_j": ball_j, "ball_delta": ball_delta,
                "ball_s": -(ball_delta.log_abs() / 12) - cmlab._im_tau(tau).log_abs() / 2,
                "ball_theta": _theta_term_of_buckets(nulls),
                "formula": _bigfloat_j_and_delta(nulls),
            })
    return tuple(out)


def _random_gauss_ball(rng, exact: bool):
    """A _GaussBall and an exact point (as Fractions) at distance at most
    its radius: on a positive real midpoint with the point at +radius,
    where the product bounds are attained, or anywhere on a grid inside
    the disc."""
    bits, exp = rng.choice((8, 20, 64)), rng.randint(-80, 20)
    err = rng.choice((0, 1, 3, rng.getrandbits(rng.randint(1, 12)), rng.getrandbits(30)))
    if exact:
        x = rng.getrandbits(rng.randint(1, 70))
        return cmlab._GaussBall(x, 0, exp, err, bits), (Fraction(x + err) * Fraction(2) ** exp, Fraction(0))
    x, y = (rng.randint(-(1 << 70), 1 << 70) >> rng.randint(0, 70) for _ in range(2))
    u, v = (Fraction(rng.randint(-1000, 1000), 1415) * err for _ in range(2))  # |u + vi| < err
    scale = Fraction(2) ** exp
    return cmlab._GaussBall(x, y, exp, err, bits), ((x + u) * scale, (y + v) * scale)


def _within(ball, point) -> bool:
    re, im = (t - c * Fraction(2) ** ball.exp for t, c in zip(point, (ball.re, ball.im)))
    return re * re + im * im <= (ball.err * Fraction(2) ** ball.exp) ** 2


class TestFixedPointJKernel:
    """``_e4_cubed_and_delta``: eighth powers, E4 and Delta on Gaussian
    integers, and j by one ball division."""

    def test_j_and_delta_enclose_mpmath_at_three_times_the_precision(self):
        short = 0
        for case in _kernel_cases():
            f, dps, j, delta, b0 = case["form"], case["dps"], case["j"], case["delta"], case["buckets"][0]
            with workdps(3 * dps):
                tau = f.tau(3 * dps)
                assert abs(j.value - 1728 * mp.kleinj(tau)) <= j.radius, (f, dps)
                assert abs(delta.value - mp.eta(tau) ** 24) <= delta.radius, (f, dps)
            short += b0.im == 0 and b0.re == 1 << -b0.exp
        # series too short to reach theta_0 (b0 = 1 exactly, Im tau >= 7.7 at 39 digits) are among them
        assert short > 10

    def test_no_wider_than_the_ball_formula(self):
        for case in _kernel_cases():
            for a, b in zip((case["j"], case["delta"]), case["formula"]):
                assert a.radius <= b.radius, (case["form"], case["dps"])
                assert abs(a.value - b.value) <= a.radius + b.radius, (case["form"], case["dps"])

    def test_gauss_ball_arithmetic_holds_its_points(self):
        # sums, squares, products and quotients by 2**k keep every point
        # of the operands' discs, also where the product bounds are met
        rng = random.Random(2301)
        for i in range(3000):
            exact = i % 2 == 0
            (x, p), (y, q) = _random_gauss_ball(rng, exact), _random_gauss_ball(rng, exact)
            (pr, pi), (qr, qi) = p, q
            assert _within(x + y, (pr + qr, pi + qi)) and _within(x - y, (pr - qr, pi - qi))
            assert _within(x * y, (pr * qr - pi * qi, pr * qi + pi * qr)), (x.re, x.im, x.err, y.re, y.im, y.err)
            assert _within(x * x, (pr * pr - pi * pi, 2 * pr * pi)), (x.re, x.im, x.err)
            assert _within(x / 256, (pr / 256, pi / 256))

    def test_one_ball_division(self, monkeypatch):
        # BigFloat calls in one _cm_terms: none, as the nome from exact
        # data is a Gaussian ball, and none per bucket, for j, s(tau) or
        # the theta term, or for the fold.  _j_at, given the nome's
        # buckets, makes E4^3 and Delta as balls (2 _made) and divides
        # them once (its _op, _made and the divisor's _min_abs): 6.  The
        # same at 39 digits and at 250
        counts = Counter()
        for name, attr in list(vars(BigFloat).items()):
            if isinstance(attr, classmethod):
                monkeypatch.setattr(BigFloat, name, classmethod(_counted(attr.__func__, name, counts)))
            elif callable(attr):
                monkeypatch.setattr(BigFloat, name, _counted(attr, name, counts))
        seen = []
        for dps in (39, 250):
            with workdps(dps):
                form = ReducedForm(1, 1, 6)
                w = cmlab._cm_nome(form)
                kernels = (lambda: cmlab._cm_terms(form, mp.prec + 64), lambda: cmlab._j_at(cmlab._theta_nulls(w)))
                for kernel in kernels:
                    counts.clear()
                    kernel()
                    seen.append(dict(counts))
        j = {"_op": 1, "_made": 3, "_min_abs": 1, "__truediv__": 1}
        assert seen == [{}, j, {}, j], seen


def _within_interval(interval, scale: int, x) -> bool:
    lo, hi = (Fraction(v, 2**scale) for v in interval)
    return lo <= _exact(x) <= hi


def _half_width(interval, scale: int) -> Fraction:
    return Fraction(interval[1] - interval[0], 2 ** (scale + 1))


def _reference_terms(tau) -> tuple:
    """The buckets b0..b3 from mpmath jtheta, s(tau) from eta and the
    theta term from those buckets, at the ambient precision."""
    q = mp.exp(1j * mp.pi * tau)
    t2, t3, t4 = (mp.jtheta(k, 0, q) for k in (2, 3, 4))
    buckets = ((t3 + t4) / 2, t2 / 2, (t3 - t4) / 2, t2 / 2)
    mags = [abs(b) for b in buckets]
    s = -2 * mp.log(abs(mp.eta(tau))) - mp.log(tau.imag) / 2
    return buckets, s, mp.log(mp.sqrt(mp.fsum(m * m for m in mags)) / max(mags))


class TestIntegerTerms:
    """The theta buckets as Gaussian balls, and s(tau), the theta term and
    log max(1, |j|) as integer intervals from them."""

    def test_buckets_and_terms_frozen(self):
        # SHA-256 of the bucket fields of every reduced form of the
        # fundamental |d| <= 400 at 39 digits and of the b >= 0 forms of
        # -599 and -1832 at 206 and 259 digits, and of the term intervals
        # of the 39-digit forms, as the kernel computed them when its log
        # bounds and series tail still passed through libmpf numbers
        nulls, terms = hashlib.sha256(), hashlib.sha256()
        with workdps(39):
            for f in (f for d in fundamental_discriminants(400) for f in reduced_forms(d)):
                nulls.update(repr(_bucket_fields(cmlab._theta_nulls(cmlab._cm_nome(f)))).encode())
                terms.update(repr(cmlab._cm_terms(f, mp.prec + 64)).encode())
        for d, dps in ((-599, 206), (-1832, 259)):
            with workdps(dps):
                for f in reduced_forms(d):
                    if f.b >= 0:
                        nulls.update(repr(_bucket_fields(cmlab._theta_nulls(cmlab._cm_nome(f)))).encode())
        assert nulls.hexdigest() == "fe43ebb08b912300d03383466a80cc084b53210e9db3af8d6801b1c497584bef"
        assert terms.hexdigest() == "b1076dc1aadedef4944ff0ec8b0867c5751d4ccb972ffd9219e214b8f8ef47ac"

    def test_terms_enclose_mpmath_at_three_times_the_precision(self):
        for case in _kernel_cases():
            f, dps, scale = case["form"], case["dps"], case["scale"]
            with workdps(3 * dps):
                buckets, s, theta = _reference_terms(f.tau(3 * dps))
                for ball, want in zip(case["nulls"], buckets):
                    assert abs(ball.value - want) <= ball.radius, (f, dps)
            assert _within_interval(case["s"], scale, s), (f, dps)
            assert _within_interval(case["theta"], scale, theta), (f, dps)

    def test_no_wider_than_the_kernel_of_ball_buckets(self):
        # buckets, j, Delta, s(tau) and theta term against the kernel
        # whose buckets were BigFloats joined to their tails by widened
        for case in _kernel_cases():
            where = (case["form"], case["dps"])
            for ball, radius in zip(case["nulls"], case["ball_radii"]):
                assert _exact(ball.radius) <= radius, where
            for new, old in ((case["j"], case["ball_j"]), (case["delta"], case["ball_delta"])):
                assert new.radius <= old.radius and abs(new.value - old.value) <= new.radius + old.radius, where
            for name in ("s", "theta"):
                old = case["ball_" + name]
                assert _half_width(case[name], case["scale"]) <= _exact(old.radius), (name, where)
                lo, hi = (Fraction(v, 2 ** case["scale"]) for v in case[name])
                assert lo <= _exact(old.bounds()[1]) and _exact(old.bounds()[0]) <= hi, (name, where)

    @pytest.mark.parametrize("dps", [39, 206])
    def test_terms_hold_a_displaced_cm_point(self, dps):
        # a tau ball of radius r whose midpoint sits 0.9 r from the CM
        # point, straight up or down or at a seeded angle, on the tau
        # route (the buckets at _theta_w, s_invariant): the counts of the
        # buckets and of Delta, and the radius of Im tau, carry the
        # displacement into each term
        rng = random.Random(dps)
        forms = [f for d in (-3, -4, -23, -71, -163, -1832) for f in reduced_forms(d) if f.b >= 0]
        for f in forms:
            for k, turn in ((dps // 3, 0.5), (dps // 3, -0.5), (dps - 5, rng.uniform(-1, 1))):
                with workdps(dps + 20):
                    r = mpf(10) ** -k
                    mid = f.tau(dps + 20) + 9 * r / 10 * mp.expjpi(turn)
                with workdps(dps):
                    tau, scale = BigFloat(mid, r), mp.prec + 64
                    nulls = cmlab._theta_nulls(cmlab._theta_w(tau))
                    log_j = cmlab._log_plus_term(*cmlab._e4_cubed_and_delta(nulls), scale)
                    theta = cmlab._theta_term(nulls, scale)
                s = s_invariant(tau, dps - 15)
                with workdps(3 * dps):
                    point = f.tau(3 * dps)
                    _, s_ref, theta_ref = _reference_terms(point)
                    log_j_ref = mp.log(max(1, abs(1728 * mp.kleinj(point))))
                    assert s.bounds()[0] <= s_ref <= s.bounds()[1], (f, k, turn)
                for interval, want in ((log_j, log_j_ref), (theta, theta_ref)):
                    assert _within_interval(interval, scale, want), (f, k, turn)


def _libmpf_log_bounds(num: int, shift: int, den: int, scale: int) -> tuple:
    """_log_bounds as libmpf computed it: the quotient and then its log
    rounded outward at mp.prec, and the ends taken out to the unit
    2**-scale."""
    from mpmath.libmp import from_int, mpf_div, mpf_log, mpf_shift, round_ceiling, round_floor, to_int

    n, d = from_man_exp(num, shift), from_int(den)
    return tuple(
        to_int(mpf_shift(mpf_log(mpf_div(n, d, mp.prec, rnd), mp.prec, rnd), scale), rnd)
        for rnd in (round_floor, round_ceiling)
    )


@lru_cache(maxsize=64)
def _rounded_logs(num: int, shift: int, den: int, p: int) -> tuple:
    """RD(log RD(q)) and RU(log RU(q)) for q = num 2**shift / den and the
    roundings to p bits, from mpmath at 3p + 64 bits (libmpf's division
    rounds correctly)."""
    from mpmath.libmp import from_int, mpf_div, mpf_log, mpf_pos, round_ceiling, round_floor, round_nearest

    n, d = from_man_exp(num, shift), from_int(den)
    return tuple(
        mpf_pos(mpf_log(mpf_div(n, d, p, rnd), 3 * p + 64, round_nearest), p, rnd) for rnd in (round_floor, round_ceiling)
    )


def _rounded_log_bounds(num: int, shift: int, den: int, scale: int) -> tuple:
    """The ends _log_bounds promises at p = mp.prec: ``_rounded_logs``
    taken out to the unit 2**-scale."""
    from mpmath.libmp import mpf_shift, round_ceiling, round_floor, to_int

    logs = _rounded_logs(num, shift, den, mp.prec)
    return tuple(to_int(mpf_shift(v, scale), rnd) for v, rnd in zip(logs, (round_floor, round_ceiling)))


def _seeded_quotients(rng: random.Random, p: int, count: int):
    """(num, shift, den) at p bits: free quotients, quotients within a
    few ulps or many of 1, and quotients near a power of two."""
    for i in range(count):
        den = rng.getrandbits(2 * p) | 1 << (2 * p - 1)
        if i % 3 == 0:
            yield rng.getrandbits(rng.randrange(1, 3 * p)) | 1, rng.randrange(-p, p), rng.getrandbits(rng.randrange(1, 3 * p)) | 1
        elif i % 3 == 1:
            yield den + rng.choice((-1, 1)) * rng.getrandbits(rng.randrange(1, 2 * p)), 0, den
        else:
            yield den + rng.choice((-1, 1)) * rng.getrandbits(rng.randrange(1, p)), rng.randrange(-300, 300), den


def _next_to_boundaries(rng: random.Random, p: int, above: bool, count: int) -> list:
    """(m, e) for p-bit numbers q = m 2**e, each the nearest above (or
    below) exp(B) for one of count consecutive p-bit numbers B from a
    seeded log between 177 and 355: log q lies above (below) B by less
    than log(1 + 2**(1-p)), about 2**-8 of a unit in B's last place."""
    from mpmath.libmp import mpf_pos, round_ceiling, round_floor

    out = []
    with workdps(1):
        mp.prec = 3 * p + 64
        x = rng.randrange(256, 512) * mp.log(2) + mp.log(rng.randrange(1 << (p - 1), 1 << p))
        edge = mp.make_mpf(mpf_pos(x._mpf_, p, round_floor if above else round_ceiling))
        step = mp.exp(mp.ldexp(1, int(mp.floor(mp.log(edge, 2))) + 1 - p))
        edge = mp.exp(edge)
        e = int(mp.floor(mp.log(edge, 2))) - p + 1
        for _ in range(count):
            m = int((mp.ceil if above else mp.floor)(mp.ldexp(edge, -e)))
            if m >> (p - 1) == 1:
                out.append((m, e))
            edge *= step
    return out


class TestLogBounds:
    """The CM terms' one log: the outward-rounded ends that libmpf
    computed where it rounds correctly, from numcore's integer enclosure
    by Ziv's strategy."""

    def test_equal_to_libmpf_on_the_scan_quotients(self, monkeypatch):
        calls, real = [], cmlab._log_bounds

        def spy(*args):
            calls.append((args, mp.prec))
            return real(*args)

        monkeypatch.setattr(cmlab, "_log_bounds", spy)
        cm_scan(200, 24)
        assert len(calls) == 557
        for args, prec in calls:
            with workdps(1):
                mp.prec = prec
                assert real(*args) == _libmpf_log_bounds(*args), args

    @pytest.mark.parametrize("dps, count", [(6, 150), (39, 300), (206, 150), (259, 150), (1015, 24)])
    def test_equal_to_libmpf_on_seeded_quotients(self, dps, count):
        # equal to the correctly rounded ends everywhere, and to libmpf's
        # but for quotients between 1/2 and 2, where libmpf's log now and
        # then misses the correct rounding by a unit in the last place
        # (and at 1 + 2**(1-p) rounds up below the log: test_log_just_above_one)
        misses = 0
        with workdps(dps):
            for num, shift, den in _seeded_quotients(random.Random(dps), mp.prec, count):
                q = Fraction(num, den) * Fraction(2) ** shift
                for scale in (mp.prec + 64, mp.prec + 63, 2 * mp.prec, 0, -5):
                    got = cmlab._log_bounds(num, shift, den, scale)
                    assert got == _rounded_log_bounds(num, shift, den, scale), (num, shift, den)
                    if got != _libmpf_log_bounds(num, shift, den, scale):
                        assert Fraction(1, 2) <= q < 2, (num, shift, den)
                        misses += 1
        assert misses < count // 2

    def test_one_and_its_neighbours(self):
        with workdps(39):
            p = mp.prec
            assert cmlab._log_bounds(5, 0, 5, p + 64) == (0, 0)
            assert cmlab._log_bounds(1, 10, 1 << 10, p + 64) == (0, 0)
            for num, shift, den in (
                ((1 << 3 * p) + 1, -3 * p, 1),  # rounds down to 1, up to 1 + 2**(1-p)
                ((1 << 3 * p) - 1, -3 * p, 1),  # rounds down to 1 - 2**-p, up to 1
                ((1 << p) + 1, 1 - p, 2),  # 1 + 2**-p
                ((1 << p) - 1, -p, 1),  # 1 - 2**-p, a p-bit number
            ):
                for scale in (p + 64, 3 * p):
                    assert cmlab._log_bounds(num, shift, den, scale) == _rounded_log_bounds(num, shift, den, scale), (num, scale)

    def test_log_just_above_one(self):
        # q = 1 + 2**(1-p) - 2**(-3p-2) rounds up to 1 + x, x = 2**(1-p),
        # and log q > x - x^2/2, the p-bit number below x.  libmpf's mpf_log
        # rounds log(1 + x) up to x - x^2/2, so the upper end of the
        # former libmpf log lay below log q
        with workdps(39):
            p = mp.prec
            num, shift = (1 << 3 * p + 2) + (1 << 2 * p + 3) - 1, -(3 * p + 2)
            lo, hi = cmlab._log_bounds(num, shift, 1, 2 * p)
            assert _libmpf_log_bounds(num, shift, 1, 2 * p)[1] == hi - 2
        with workdps(1):
            mp.prec = 4 * p
            assert lo == 0 and mp.ldexp(hi, -2 * p) >= mp.log(mp.ldexp(num, shift)) > mp.ldexp(hi - 2, -2 * p)

    @pytest.mark.parametrize("end", ["lo", "hi"])
    def test_ziv_widens_a_straddling_enclosure(self, monkeypatch, end):
        # a seeded search among quotients whose log RD(q) lies just above a
        # p-bit number B (for lo), or whose log RU(q) lies just below one
        # (for hi), for three whose first enclosure reaches across B, so
        # that its lower end rounds down below B (its upper end up above
        # B): the widening must run, and the ends be the correctly rounded
        # ones.  Taking the first enclosure's end unchecked fails here.
        enclosures, real = [], cmlab._log_fixed

        def spy(*args):
            enclosures.append((real(*args), args[3]))
            return enclosures[-1][0]

        monkeypatch.setattr(cmlab, "_log_fixed", spy)
        hits = 0
        with workdps(39):
            p, scale = mp.prec, mp.prec + 64
            for m, e in _next_to_boundaries(random.Random(2031), p, end == "lo", 8000):
                num = 2 * m + 1 if end == "lo" else 2 * m - 1  # RD(q) = m 2**e, or RU(q) = m 2**e
                enclosures.clear()
                ends = cmlab._log_bounds(num, e - 1, 1, scale)
                (a, b), w = enclosures[0]
                decided = cmlab._decided(a, b, p, scale - w)
                if cmlab._decided(a, a, p, scale - w) != ends[0] if end == "lo" else len(enclosures) > 1 and decided is not None:
                    assert len(enclosures) > 1
                    assert ends == _rounded_log_bounds(num, e - 1, 1, scale), (num, e)
                    hits += 1
                    if hits == 3:
                        break
        assert hits == 3

    def test_ziv_loop_is_capped(self, monkeypatch):
        # an enclosure that never narrows ends in PrecisionError, not a hang
        monkeypatch.setattr(cmlab, "_log_fixed", lambda num, den, shift, w: (-(1 << w), 1 << w))
        with workdps(39):
            with pytest.raises(PrecisionError, match="rounding boundary"):
                cmlab._log_bounds(3, 0, 7, mp.prec + 64)


class TestCMRecord:
    def test_record_consistency(self):
        rec = cm_record(-23, 24)
        assert rec.d == -23
        assert rec.class_number == 3
        with workdps(40):
            # ratio = faltings / class number
            assert abs(rec.ratio.value - rec.faltings_height.value / 3) < mpf(10) ** -15
        assert rec.error_radius < mpf(10) ** -10
        assert isinstance(rec, CMRecord)

    def test_residual_definition(self):
        rec = cm_record(-4, 24)
        with workdps(40):
            t = max(mpf(1), rec.theta_height_est.value)
            f = max(mpf(1), rec.faltings_height.value)
            assert abs(rec.residual.value - abs(t - f / 2)) < mpf(10) ** -12

    @staticmethod
    def _faltings_reference(d) -> mpf:
        """The class average of -(1/12) log(|q qp(q)^24| y^6), minus
        (1/2) log 2, straight from mpmath at 60 digits."""
        forms = reduced_forms(d)
        with workdps(60):
            total = mpf(0)
            for f in forms:
                tau = f.tau(60)
                q = mp.exp(2j * mp.pi * tau)
                total -= mp.log(abs(q * mp.qp(q) ** 24) * tau.imag**6) / 12
            return total / len(forms) - mp.log(2) / 2

    def test_one_series_agrees_with_the_standalone_heights(self):
        # cm_record reads all three terms off one theta series per form
        for d in fundamental_discriminants(300):
            rec = cm_record(d, 24)
            for mine, alone in ((rec.j_height, j_height(d, 24)), (rec.theta_height_est, theta_height_estimate(d, 24))):
                assert (mine.value._mpf_, mine.radius._mpf_) == (alone.value._mpf_, alone.radius._mpf_), d
            fh, alone = rec.faltings_height, faltings_height_cm(d, 24)
            assert (fh.value._mpf_, fh.radius._mpf_) == (alone.value._mpf_, alone.radius._mpf_), d
            lo, hi = fh.bounds()
            with workdps(60):
                assert lo <= self._faltings_reference(d) <= hi, d

    def test_mirror_forms_give_the_same_terms(self):
        # (a, -b, c) has the CM point -conj(tau) of (a, b, c): its terms
        # are the same intervals bit for bit, its buckets the conjugate
        # ones field by field and its j the conjugate ball, so the class
        # averages fold each pair once and hilbert_class_poly sums one
        # series per pair; at 39 digits, and for -599 and -1832 at the
        # precision hilbert_class_poly works at for them
        cases = [(f, 39) for d in fundamental_discriminants(300) for f in reduced_forms(d)]
        cases += [(f, dps) for d, dps in ((-599, 206), (-1832, 259)) for f in reduced_forms(d)]
        pairs = 0
        for f, dps in cases:
            if f.b <= 0 or f.b == f.a or f.a == f.c:
                continue  # no mirror among the reduced forms
            mirror = ReducedForm(f.a, -f.b, f.c)
            assert mirror in reduced_forms(f.discriminant)
            with workdps(dps):
                if dps == 39:
                    assert cmlab._cm_terms(f, mp.prec + 64) == cmlab._cm_terms(mirror, mp.prec + 64), f
                w, wm = cmlab._cm_nome(f), cmlab._cm_nome(mirror)
                nulls, mirror_nulls = cmlab._theta_nulls(w), cmlab._theta_nulls(wm)
                j, jm = cmlab._j_at(nulls), cmlab._j_at(mirror_nulls)
            conjugates = [(re, -im, *rest) for re, im, *rest in _bucket_fields(nulls)]
            assert _bucket_fields(mirror_nulls) == conjugates, f
            # the nome and j of the mirror are the conjugate balls
            assert (wm.re, wm.im, wm.exp, wm.err) == (w.re, -w.im, w.exp, w.err), f
            re, im = j.value._mpc_
            assert jm.value._mpc_ == (re, mpf_neg(im)) and jm._r == j._r, f
            pairs += 1
        assert pairs > 100

    def test_record_is_the_per_form_average(self):
        # every form evaluates its own terms here, each with weight 1;
        # cm_record folds each conjugate pair once with weight 2 and must
        # give the same balls
        for d in (-23, -47, -71, -84, -95, -119, -260, -299):
            rec, forms = cm_record(d, 24), reduced_forms(d)
            with workdps(39):
                scale, h = mp.prec + 64, len(forms)
                columns = zip(*(cmlab._cm_terms(f, scale) for f in forms))
                jh, sh, th = (
                    BigFloat.from_bounds(*(mp.make_mpf(from_man_exp(v, -scale)) for v in (lo // h, -(-hi // h))))
                    for lo, hi in ((sum(t[0] for t in col), sum(t[1] for t in col)) for col in columns)
                )
                fh = sh + BigFloat.rounded(-mp.log(2) / 2)
            for mine, want in ((rec.j_height, jh), (rec.faltings_height, fh), (rec.theta_height_est, th)):
                assert (mine.value._mpf_, mine.radius._mpf_) == (want.value._mpf_, want.radius._mpf_), d

    def test_faltings_overlaps_the_pentagonal_series_to_500(self):
        # faltings_height_cm is cm_record's s(tau) column bit for bit, and
        # overlaps the class average of s(tau) restated here from prod
        # (1 - q^n), which shares nothing with the theta nulls
        for d in fundamental_discriminants(500):
            fh, alone = cm_record(d, 24).faltings_height, faltings_height_cm(d, 24)
            assert (fh.value._mpf_, fh.radius._mpf_) == (alone.value._mpf_, alone.radius._mpf_), d
            forms = reduced_forms(d)
            with workdps(39):
                total = sum((_pentagonal_s(_cm_tau_ball(f)) for f in forms), BigFloat(0))
                pentagonal = total / len(forms) + BigFloat.rounded(-mp.log(2) / 2)
            assert abs(fh.value - pentagonal.value) <= fh.radius + pentagonal.radius, d


# error_radius of each cm_scan(400, 24) row before the fixed-point theta
# kernel, as the CSV prints it
_SCAN_400_RADII = (
    "2.03e-37 3.64e-36 3.42e-36 3.22e-36 3.16e-36 3.41e-36 2.59e-36 3.44e-36 "
    "3.31e-36 3.03e-36 3.21e-36 3.38e-36 3.7e-36 3.06e-36 2.89e-36 3.49e-36 "
    "3.46e-36 3.17e-36 3.71e-36 3.33e-36 3.4e-36 3.17e-36 3.32e-36 3.75e-36 "
    "3.41e-36 3.39e-36 4.22e-36 3.59e-36 3.12e-36 4.16e-36 4.01e-36 3.47e-36 "
    "4.06e-36 3.45e-36 3.84e-36 4.19e-36 3.72e-36 4.29e-36 3.53e-36 3.21e-36 "
    "3.5e-36 3.57e-36 4.48e-36 3.69e-36 3.74e-36 4.18e-36 3.46e-36 3.78e-36 "
    "3.86e-36 3.45e-36 3.98e-36 3.91e-36 3.84e-36 4.13e-36 3.58e-36 3.54e-36 "
    "3.92e-36 3.78e-36 4.21e-36 4.2e-36 3.78e-36 4.28e-36 4.07e-36 3.81e-36 "
    "3.74e-36 4.24e-36 3.65e-36 3.85e-36 4.01e-36 3.8e-36 4.3e-36 3.89e-36 "
    "3.96e-36 4.62e-36 4.1e-36 3.77e-36 3.95e-36 3.77e-36 4.22e-36 3.88e-36 "
    "4.76e-36 4.33e-36 4.01e-36 3.5e-36 4.43e-36 3.99e-36 3.85e-36 4.03e-36 "
    "4.36e-36 3.68e-36 4.0e-36 4.15e-36 4.82e-36 4.06e-36 4.3e-36 3.89e-36 "
    "4.09e-36 4.87e-36 3.81e-36 4.99e-36 3.8e-36 4.37e-36 4.08e-36 3.84e-36 "
    "4.75e-36 3.73e-36 5.84e-36 4.17e-36 4.37e-36 3.78e-36 4.28e-36 5.17e-36 "
    "4.34e-36 4.05e-36 3.98e-36 4.6e-36 3.52e-36 4.79e-36 4.1e-36 4.69e-36 "
    "4.07e-36 4.92e-36"
).split()


class TestScan:
    def test_sorted_and_complete(self):
        recs = cm_scan(60, 20)
        ds = [r.d for r in recs]
        assert ds == fundamental_discriminants(60)

    def test_workers_byte_identical(self):
        one, two = cm_scan(80, 20, workers=1), cm_scan(80, 20, workers=2)
        assert records_to_csv(one, "cfg") == records_to_csv(two, "cfg")

        def bits(rec):
            balls = (rec.j_height, rec.faltings_height, rec.theta_height_est, rec.residual, rec.ratio)
            return [rec.d, rec.class_number] + [(b.value._mpf_, b.radius._mpf_) for b in balls]

        assert [bits(r) for r in one] == [bits(r) for r in two]

    def test_import_leaves_multiprocessing_out(self):
        # the pool module and what it pulls in load only for workers > 1
        code = "import sys, heightlab; print(sorted({'multiprocessing', 'socket', 'selectors', 'pickle'} & set(sys.modules)))"
        env = dict(os.environ, PYTHONPATH=str(Path(cmlab.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_csv_digest_frozen(self):
        # SHA-256 of the CSV's value columns (all but error_radius) as
        # computed before the fixed-point theta kernel, which left them
        # alone; its radii may only shrink, row by row, from the ones it
        # replaced (_SCAN_400_RADII)
        text = records_to_csv(cm_scan(400, 24))
        rows = [line.split(",") for line in text.strip().split("\n")[2:]]
        values = "\n".join(",".join(row[:-1]) for row in rows)
        assert hashlib.sha256(values.encode()).hexdigest() == (
            "46fbfa46bed3d0d4319be4b7478439f3e362e258fa2d8b60b21c10aba871f58f"
        )
        assert len(rows) == len(_SCAN_400_RADII)
        for row, before in zip(rows, _SCAN_400_RADII):
            assert float(row[-1]) <= float(before), row[0]

    def test_cdisc_is_the_one_ball_type(self):
        assert cmlab.CDisc is BigFloat

    def test_rerun_byte_identical(self):
        a = records_to_csv(cm_scan(60, 20), "cfg")
        b = records_to_csv(cm_scan(60, 20), "cfg")
        assert a == b

    def test_csv_shape(self):
        text = records_to_csv(cm_scan(30, 20), "abc123")
        lines = text.strip().split("\n")
        assert lines[0].startswith("#")
        assert "abc123" in lines[0]
        assert lines[1] == (
            "D,class_number,j_height,faltings_height,theta_height_est,"
            "residual,ratio,error_radius"
        )
        assert len(lines) == 2 + len(fundamental_discriminants(30))
        for row in lines[2:]:
            parts = row.split(",")
            assert len(parts) == 8
            assert int(parts[0]) < 0

    def test_json_valid(self):
        records = cm_scan(30, 20)
        data = json.loads(records_to_json(records, {"precision": 20}))
        assert data["config"]["precision"] == 20
        assert len(data["records"]) == len(fundamental_discriminants(30))
        # each JSON record holds the cells of its CSV row, D and h as ints
        lines = records_to_csv(records).strip().split("\n")
        header = lines[1].split(",")
        for rec, row in zip(data["records"], lines[2:]):
            assert sorted(rec) == sorted(header)
            assert isinstance(rec["D"], int) and isinstance(rec["class_number"], int)
            assert [str(rec[k]) for k in header] == row.split(",")


class TestVerifyDecay:
    def test_small_run(self):
        out = verify_decay(d_max=400, checkpoints=[20, 100, 400], precision_digits=18)
        assert [c["X"] for c in out["checkpoints"]] == [20, 100, 400]
        envs = [c["envelope"] for c in out["checkpoints"]]
        # suffix maxima are nonincreasing by construction
        assert all(envs[i] >= envs[i + 1] for i in range(len(envs) - 1))

    def test_requires_discs(self):
        with pytest.raises(ValueError):
            verify_decay(d_max=2, checkpoints=[1])

    def test_empty_checkpoints_refused_before_the_scan(self, monkeypatch):
        monkeypatch.setattr(cmlab, "_per_discriminant", lambda *args, **kw: pytest.fail("the scan started"))
        with pytest.raises(ValueError, match="no checkpoints"):
            verify_decay(d_max=400, checkpoints=[])

    def test_passed_read_from_exact_ends(self, monkeypatch):
        # 40-digit ratios 1e-20 apart with radius 1e-30: certified
        # decay, though both envelopes round to the same double
        def ratio_row(d, precision_digits):
            with workdps(40):
                ratio = BigFloat(mpf("0.5") + (mpf("1e-20") if d == -3 else 0), mpf("1e-30"))
            return d, 1, ratio, ratio

        monkeypatch.setattr(cmlab, "_ratio_row", ratio_row)
        out = verify_decay(d_max=8, checkpoints=[3, 8], precision_digits=20)
        assert out["passed"] is True

    def test_json_radii_not_understated(self, monkeypatch):
        # each written double and radius enclose the ball: the ball's own
        # radius beside the double misses, as at X = 100 the midpoint lies
        # 7.1e-17 from its double, against a radius of 2.5e-29
        rows = []

        def ratio_row(d, precision_digits):
            rows.append(ratio_row.orig(d, precision_digits))
            return rows[-1]

        ratio_row.orig = cmlab._ratio_row
        monkeypatch.setattr(cmlab, "_ratio_row", ratio_row)
        out = verify_decay(400, precision_digits=18)
        assert len(rows) == len(out["ratios"]) == len(fundamental_discriminants(400))
        for row, pair in zip(rows, out["ratios"]):
            assert pair[0] == row[0] and _encloses(pair[1:], row[3])
        for c in out["checkpoints"]:
            # the envelope ball: the largest midpoint with the largest radius
            tail = [row[3] for row in rows if -row[0] >= c["X_effective"]]
            env = BigFloat(max(b.value for b in tail), max(b.radius for b in tail))
            assert _encloses((c["envelope"], c["radius"]), env)

    def test_workers_identical(self):
        kw = dict(d_max=200, checkpoints=[20, 100, 200], precision_digits=18)
        assert verify_decay(workers=2, **kw) == verify_decay(workers=1, **kw)


class TestVerifyThetaFaltings:
    def test_small_run(self):
        out = verify_theta_faltings(d_max=300, precision_digits=20)
        assert "passed" not in out and "finite" not in out  # no verdict to fail
        c = out["fitted_constant"]
        assert c == c and abs(c) < 1e6  # finite
        assert out["argmax_d"] < 0
        assert len(out["quotients"]) == len(fundamental_discriminants(300))

    def test_json_radii_not_understated(self, monkeypatch):
        balls = []

        def tf_quotient(r):
            balls.append(tf_quotient.orig(r))
            return balls[-1]

        tf_quotient.orig = cmlab._tf_quotient
        monkeypatch.setattr(cmlab, "_tf_quotient", tf_quotient)
        out = verify_theta_faltings(d_max=200, precision_digits=20)
        assert len(balls) == len(out["quotients"]) == len(fundamental_discriminants(200))
        for ball, (_, value, radius) in zip(balls, out["quotients"]):
            assert _encloses((value, radius), ball)
        fitted = BigFloat(max(b.value for b in balls), max(b.radius for b in balls))
        assert _encloses((out["fitted_constant"], out["fitted_radius"]), fitted)


class TestFinitenessDemo:
    def test_zero_bound_empty(self):
        out = finiteness_demo(100, 0.0, 18)
        assert out["qualifying"] == []
        assert out["count"] == 0

    def test_class_number_one_sublist(self):
        out = finiteness_demo(50, 1.0, 20)
        assert out["class_number_one"] == [-3, -4, -7, -8, -11, -19, -43]

    def test_qualifying_have_bounded_ratio(self):
        out = finiteness_demo(60, 0.5, 20)
        for q in out["qualifying"]:
            assert q["ratio"] <= 0.5 + 1e-12

    def test_bound_just_below_ratio_excludes_it(self):
        # the double nearest the ratio of d = -3 lies 8.9e-20 below it;
        # read at 53 bits, the ball's upper end rounds onto that double
        ratio = cmlab._ratio_row(-3, 20)[3]
        c_prime = float(ratio.value)
        with workdps(60):
            assert mpf(c_prime) < ratio.value - ratio.radius
        out = finiteness_demo(3, c_prime, 20)
        assert out["qualifying"] == []

    def test_rational_bound_taken_exactly(self, monkeypatch):
        # a ratio between float(1/3) and 1/3 is below the Fraction and
        # above the float
        def faltings(d, precision_digits):
            with workdps(40):
                return BigFloat(mpf("0.33333333333333332"), mpf("1e-30"))

        monkeypatch.setattr(cmlab, "faltings_height_cm", faltings)
        assert [q["D"] for q in finiteness_demo(3, Fraction(1, 3), 20)["qualifying"]] == [-3]
        assert finiteness_demo(3, 1 / 3, 20)["qualifying"] == []

    def test_separates_at_sixteen_times_precision(self, monkeypatch):
        # a Faltings height whose disc straddles the bound 0.55 below
        # 16 * 20 digits and falls below it at 320 digits
        calls = []

        def faltings(d, precision_digits):
            calls.append(precision_digits)
            radius = mpf("0.01") if precision_digits >= 320 else mpf(1)
            return BigFloat(mpf("0.5"), radius)

        monkeypatch.setattr(cmlab, "faltings_height_cm", faltings)
        out = finiteness_demo(4, 0.55, 20)
        assert [q["D"] for q in out["qualifying"]] == [-3, -4]
        assert sorted(set(calls)) == [20, 40, 80, 160, 320]

    def test_written_pairs_enclose_their_balls(self, monkeypatch):
        # each Faltings height and ratio is written with a radius that
        # covers the ball and its rounding to a double
        rows = {}

        def ratio_row(d, precision_digits):
            rows[d] = ratio_row.orig(d, precision_digits)
            return rows[d]

        ratio_row.orig = cmlab._ratio_row
        monkeypatch.setattr(cmlab, "_ratio_row", ratio_row)
        out = finiteness_demo(60, 0.5, 20)
        assert out["count"] > 5
        for q in out["qualifying"]:
            _, _, fh, ratio = rows[q["D"]]
            assert _encloses((q["faltings_height"], q["faltings_radius"]), fh)
            assert _encloses((q["ratio"], q["ratio_radius"]), ratio)

    def test_bound_past_the_doubles_refused_before_any_series(self, monkeypatch):
        # 10^400 is finite as a Fraction but not as a double, which the
        # report writes; it is refused before the first discriminant
        monkeypatch.setattr(cmlab, "_ratio_row", lambda *args: pytest.fail("a series ran"))
        for c_prime in (Fraction(10) ** 400, -Fraction(10) ** 400):
            with pytest.raises(OverflowError):
                finiteness_demo(20, c_prime, 20)

    def test_string_bound_read_by_the_one_reader(self, monkeypatch):
        # a str bound is the Fraction it names; an exponent above
        # MAX_EXPONENT is refused before 10**200000 is built
        assert finiteness_demo(60, "0.5", 20) == finiteness_demo(60, Fraction(1, 2), 20)
        monkeypatch.setattr(cmlab, "_ratio_row", lambda *args: pytest.fail("a series ran"))
        with pytest.raises(ValueError, match="MAX_EXPONENT"):
            finiteness_demo(20, "1e200000", 20)

    def test_unseparated_ratio_raises(self, monkeypatch):
        monkeypatch.setattr(
            cmlab, "faltings_height_cm", lambda d, dps: BigFloat(mpf("0.5"), mpf(1))
        )
        with pytest.raises(PrecisionError, match="discriminant -3"):
            finiteness_demo(3, 0.55, 20)
