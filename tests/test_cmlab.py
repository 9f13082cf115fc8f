import json
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import pytest
from mpmath import mp, mpc, mpf, workdps
from mpmath.libmp import to_rational

from heightlab.cmlab import (
    CMRecord,
    Discriminant,
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
from heightlab.heights import mahler_height
from heightlab.numcore import BigFloat, PrecisionError, _ulp_slop


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
    """(form, _j_at ball) for every reduced form with |d| <= 500 and
    d = -599, at dps digits."""
    with workdps(dps):
        return tuple((f, cmlab._j_at(cmlab._tau_ball(f))) for f in _forms_to_500_and_599())


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
                b0, b1, b2, b3 = cmlab._theta_nulls(cmlab._theta_w(cmlab._tau_ball(f)))
                e4 = cmlab._eisenstein_e4([(b1 + b3).pow_int(8), (b0 + b2).pow_int(8), (b0 - b2).pow_int(8)])
            ref = _sigma3_e4(f.tau(2 * dps), 2 * dps)
            with workdps(2 * dps):
                assert abs(e4.value - ref) <= e4.radius + mpf(10) ** (5 - 2 * dps)

    def test_tails_join_radii_rounded_up(self, monkeypatch):
        # at 15 digits a nearest-rounded radius + tail falls below the
        # exact sum about half of the time
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
                tau = BigFloat.rounded(mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 3)))
                if i < 300:
                    returned.append(cmlab._eta_product(cmlab._q_from_tau(tau)))
                else:
                    returned.extend(cmlab._theta_nulls(cmlab._theta_w(tau)))
        assert len(returned) == len(seen) == 600
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

    @pytest.mark.parametrize("dps", [24, 40])
    def test_tau_balls_enclose_cm_points(self, dps):
        for d in range(-3, -501, -1):
            if d % 4 not in (0, 1):
                continue
            for f in reduced_forms(d):
                with workdps(dps):
                    tau = cmlab._tau_ball(f)
                    assert tau.radius <= 4 * _ulp_slop(tau.value)
                with workdps(120):
                    exact = mpc(-f.b, mp.sqrt(-d)) / (2 * f.a)
                    assert abs(tau.value - exact) <= tau.radius

    def test_nomes_enclose_their_values(self):
        for f in reduced_forms(-56) + reduced_forms(-163):
            with workdps(30):
                tau = cmlab._tau_ball(f)
                q, w = cmlab._q_from_tau(tau), cmlab._theta_w(tau)
            with workdps(120):
                exact = mpc(-f.b, mp.sqrt(-f.discriminant)) / (2 * f.a)
                assert abs(q.value - mp.exp(2j * mp.pi * exact)) <= q.radius
                assert abs(w.value - mp.exp(1j * mp.pi * exact / 4)) <= w.radius


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
            assert abs(fh.value - alone.value) <= fh.radius + alone.radius, d
            assert mp.nstr(fh.value, 15) == mp.nstr(alone.value, 15), d
            lo, hi = fh.bounds()
            with workdps(60):
                assert lo <= self._faltings_reference(d) <= hi, d


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
        assert out["passed"] and out["finite"]
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

    def test_unseparated_ratio_raises(self, monkeypatch):
        monkeypatch.setattr(
            cmlab, "faltings_height_cm", lambda d, dps: BigFloat(mpf("0.5"), mpf(1))
        )
        with pytest.raises(PrecisionError, match="discriminant -3"):
            finiteness_demo(3, 0.55, 20)
