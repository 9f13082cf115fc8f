import json
import random
from math import gcd, isqrt

import pytest
from mpmath import mp, mpc, mpf, workdps

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
from heightlab.numcore import BigFloat, PrecisionError


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

    def test_height_estimate_nonnegative(self):
        for d in (-3, -4, -23, -47):
            est = theta_height_estimate(d, 24)
            assert est.value >= 0


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
        text = records_to_json(cm_scan(30, 20), {"precision": 20})
        data = json.loads(text)
        assert data["config"]["precision"] == 20
        assert len(data["records"]) == len(fundamental_discriminants(30))


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
