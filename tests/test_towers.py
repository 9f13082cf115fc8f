import json
from fractions import Fraction

import pytest
from mpmath import mp, mpf, workdps

from heightlab.numcore import ConstructionError, is_prime, next_prime
from heightlab.radicals import RadicalScalar, compositum_degree
from heightlab.towers import (
    MAX_PRIME_DIGITS,
    TowerLevel,
    TowerSpec,
    build_tower,
    certify_level,
    distinct_fields_check,
    remark_bound,
)

# 37 decimal digits of log 2, rounded down
C_LOG2 = Fraction("0.69314718055994530941723212145817656807")


class TestTowerSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TowerSpec(gamma=Fraction(1), target_c=Fraction(1), levels=((3, 2, 2),))
        with pytest.raises(ValueError):
            TowerSpec(gamma=Fraction(-1), target_c=Fraction(0), levels=((3, 2, 2),))
        with pytest.raises(ValueError):
            TowerSpec(gamma=Fraction(-1), target_c=Fraction(1), levels=((4, 2, 2),))
        with pytest.raises(ValueError):
            # prime reuse across levels
            TowerSpec(
                gamma=Fraction(-1),
                target_c=Fraction(1),
                levels=((3, 2, 2), (5, 3, 2), (7, 3, 2)),
            )
        with pytest.raises(ValueError):
            TowerSpec(gamma=Fraction(-1), target_c=Fraction(1), levels=((3, 2, 1),))

    def test_field_degree_and_generator(self):
        spec = TowerSpec(
            gamma=Fraction(-1), target_c=Fraction(1), levels=((3, 2, 2), (7, 5, 3))
        )
        assert spec.field_degree(0) == 1
        assert spec.field_degree(1) == 2
        assert spec.field_degree(2) == 6
        g = spec.generator(2)
        assert g == RadicalScalar({7: Fraction(1, 3), 5: Fraction(-1, 3)})

    def test_json_round_trip(self):
        spec = TowerSpec(
            gamma=Fraction(-2),
            target_c=Fraction(3, 4),
            levels=((17, 2, 2), (257, 3, 2)),
        )
        again = TowerSpec.from_json(spec.to_json())
        assert again == spec

    def test_json_keeps_rational_gamma_and_c(self):
        spec = TowerSpec(
            gamma=Fraction(-1, 3), target_c=Fraction(7, 10), levels=((17, 2, 2),)
        )
        again = TowerSpec.from_json(spec.to_json())
        assert again.gamma == Fraction(-1, 3)
        assert again.target_c == Fraction(7, 10)
        assert again == spec

    def test_json_reads_float_specs(self):
        spec = TowerSpec.from_json(
            '{"gamma": -1.0, "C": 0.5, "levels": [{"p": "3", "q": "2", "d": 2}]}'
        )
        assert spec.gamma == -1
        assert spec.target_c == Fraction(1, 2)

    @pytest.mark.parametrize(
        "level, field",
        [
            ({"p": 3.9, "q": "2", "d": 2}, "p"),
            ({"p": "3", "q": "2", "d": 2.7}, "d"),
            ({"p": "3", "q": True, "d": 2}, "q"),
            ({"p": "3", "q": "2", "d": "2.0"}, "d"),
        ],
    )
    def test_json_refuses_non_integers(self, level, field):
        # int() would read 3.9 as 3, 2.7 as 2 and true as 1
        text = json.dumps({"gamma": "-1", "C": "1/2", "levels": [level]})
        with pytest.raises(ValueError, match=f"field '{field}' must be an integer"):
            TowerSpec.from_json(text)

    def test_json_refuses_a_huge_decimal_exponent(self):
        # Fraction would build 10**200000 before any check
        text = json.dumps({"gamma": "-1", "C": "1e200000", "levels": [{"p": "3", "q": "2", "d": 2}]})
        with pytest.raises(ValueError, match="MAX_EXPONENT"):
            TowerSpec.from_json(text)

    def test_json_big_primes_survive(self):
        spec = build_tower([2, 2, 3, 3, 5], gamma=-1, target_c=C_LOG2)
        again = TowerSpec.from_json(spec.to_json())
        assert again.levels == spec.levels


class TestBuildTower:
    def test_frozen_profile(self):
        spec = build_tower([2, 2, 3, 3, 5], gamma=-1, target_c=C_LOG2)
        ps = [lv.p for lv in spec.levels]
        qs = [lv.q for lv in spec.levels]
        assert qs == [2, 3, 5, 7, 11]
        assert ps[0] == 17
        assert ps[1] == 257
        assert ps[2] == 68719476767  # first prime at or above 2^36
        assert ps[3] == 2**108 + 33  # first prime at or above 2^108
        assert len(str(ps[4])) == 271
        assert all(is_prime(p) for p in ps)
        # deterministic rebuild
        assert build_tower([2, 2, 3, 3, 5], gamma=-1, target_c=C_LOG2) == spec

    def test_seed_shifts_first_level(self):
        p1 = [
            build_tower([2, 2], gamma=-1, target_c=C_LOG2, seed=s).levels[0].p
            for s in range(3)
        ]
        assert p1 == [17, 19, 23]

    def test_prime_thresholds_monotone_in_c(self):
        # larger C never gives a smaller p1
        last = 0
        for c in (Fraction(1, 2), Fraction(7, 10), Fraction(1), Fraction(3, 2)):
            p = build_tower([2, 2], gamma=-1, target_c=c).levels[0].p
            assert p >= last
            last = p

    def test_digit_cap(self):
        with pytest.raises(ConstructionError):
            build_tower([2, 2, 3, 3, 5], gamma=-1, target_c=Fraction(1000))
        # explicit smaller cap trips earlier
        with pytest.raises(ConstructionError):
            build_tower([2, 2, 3], gamma=-1, target_c=C_LOG2, max_prime_digits=10)

    def test_empty_schedule(self):
        spec = build_tower([], gamma=-1, target_c=Fraction(1))
        assert spec.num_levels == 0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            build_tower([2], gamma=0)
        with pytest.raises(ValueError):
            build_tower([2], target_c=0)
        with pytest.raises(ValueError):
            build_tower([1])
        with pytest.raises(ValueError):
            build_tower([2], seed=-1)

    def test_strings_are_read_by_the_one_reader(self):
        # gamma and C given as str are the Fractions they name; an
        # exponent above MAX_EXPONENT is refused before 10**200000 is built
        assert build_tower([2, 2], "-1", "0.69") == build_tower([2, 2], -1, Fraction(69, 100))
        for gamma, c in (("-1e-200000", "69/100"), (-1, "1e200000")):
            with pytest.raises(ValueError, match="MAX_EXPONENT"):
                build_tower([2, 3], gamma, c)


class TestRemarkBound:
    def test_values(self):
        spec = build_tower([2, 2], gamma=-1, target_c=Fraction(7, 10))
        with workdps(30):
            b1 = remark_bound(spec, 1)
            b2 = remark_bound(spec, 2)
            # C - D_i * log(d_i) / (2 (d_i - 1)) for gamma = -1
            assert abs(b1 - (mpf(7) / 10 - mp.log(2))) < mpf(10) ** -25
            assert abs(b2 - (mpf(7) / 10 - 2 * mp.log(2))) < mpf(10) ** -25

    def test_values_without_exact_form(self):
        # D_i^(1/3) is irrational at every level of [2, 8, 3]
        spec = build_tower([2, 8, 3], Fraction(-1, 3), Fraction(69, 100))
        assert [float(remark_bound(spec, i)) for i in (1, 2, 3)] == [
            0.25334463826862125, 0.3157239756588182, -0.3081555066386346,
        ]

    def test_index_range(self):
        spec = build_tower([2], gamma=-1, target_c=Fraction(1))
        with pytest.raises(IndexError):
            remark_bound(spec, 0)
        with pytest.raises(IndexError):
            remark_bound(spec, 2)


class TestCertifyLevel:
    def test_tower_passes_at_log2(self):
        spec = build_tower([2, 2], gamma=-1, target_c=C_LOG2)
        for i in (1, 2):
            cert = certify_level(spec, i, num_monomials=200)
            assert cert.passed
            assert cert.monomials_checked >= 200
            assert cert.failures == ()

    def test_negative_control_records_failures(self):
        # C = 1 with the level-1 prime forced to 3: h_{-1}(3^(1/2)/2^(1/2))
        # = (1/2) log 3 / 2 = 0.27 < bound 1 - log 2 = 0.31
        spec = TowerSpec(gamma=Fraction(-1), target_c=Fraction(1), levels=((3, 2, 2),))
        cert = certify_level(spec, 1, num_monomials=50)
        assert not cert.passed
        assert cert.failures
        f = cert.failures[0]
        assert f["weighted_height"] < f["bound"]

    def test_fractional_gamma_path(self):
        spec = build_tower([2, 2], gamma=Fraction(-1, 2), target_c=Fraction(1, 4))
        cert = certify_level(spec, 1, num_monomials=40)
        assert cert.monomials_checked >= 40
        assert cert.passed

    def test_monomials_exclude_trivial(self):
        # exponent multiples of d give rationals, which belong to lower
        # levels; the sampler must skip them
        spec = build_tower([2], gamma=-1, target_c=C_LOG2)
        cert = certify_level(spec, 1, num_monomials=100)
        assert cert.passed

    def test_no_monomials_is_an_error(self):
        # a certificate over no monomials would pass vacuously
        spec = TowerSpec(gamma=Fraction(-1), target_c=Fraction(1), levels=((3, 2, 2),))
        with pytest.raises(ValueError, match="num_monomials"):
            certify_level(spec, 1, num_monomials=0)
        with pytest.raises(IndexError):
            certify_level(spec, 2)


class TestLevelBoundWithoutExactForm:
    # gamma = -1/3 and degrees (2, 8): D_2 = 16 and 16^(1/3) is
    # irrational, so the level-2 bound has no exact form, while the
    # degree-8 monomials have the rational weight 8^(-1/3) = 1/2; their
    # signs go through _interval_sign_vs_bound
    @pytest.mark.parametrize(
        "spec, signs",
        [
            (build_tower([2, 8], gamma=Fraction(-1, 3), target_c=Fraction(1, 2)), {1}),
            # p_2 = 3: (1/2) h(3^(1/8) / 2^(1/8)) = 0.069 < bound 0.126
            (TowerSpec(gamma=Fraction(-1, 3), target_c=Fraction(1, 2), levels=((5, 7, 2), (3, 2, 8))), {1, -1}),
        ],
        ids=["built", "broken"],
    )
    def test_signs_match_100_digit_values(self, monkeypatch, spec, signs):
        from heightlab import towers

        seen, inner = [], towers._interval_sign_vs_bound

        def recorded(hg, spec, level_index, precision_digits):
            s = inner(hg, spec, level_index, precision_digits)
            seen.append((hg, s))
            return s

        monkeypatch.setattr(towers, "_interval_sign_vs_bound", recorded)
        cert = certify_level(spec, 2, num_monomials=60)
        assert {s for _, s in seen} == signs
        assert cert.passed == (signs == {1})
        with workdps(100):
            bound = mpf(1) / 2 - mp.log(8) * mp.cbrt(16) / 14
            for hg, s in seen:
                value = mp.fsum(mpf(r.numerator) / r.denominator * mp.log(p) for p, r in hg.coeffs.items())
                assert hg.const == 0 and s == (1 if value > bound else -1), hg


class TestDistinctFields:
    def test_distinct_across_seeds(self):
        towers = [
            build_tower([2, 2], gamma=-1, target_c=C_LOG2, seed=s) for s in range(4)
        ]
        assert distinct_fields_check(towers)

    def test_same_tower_not_distinct(self):
        spec = build_tower([2, 2], gamma=-1, target_c=C_LOG2)
        assert not distinct_fields_check([spec, spec])

    def test_subfield_is_still_distinct(self):
        # Q(sqrt2) inside Q(2^(1/4)): unequal degrees -> distinct fields
        a = TowerSpec(gamma=Fraction(-1), target_c=Fraction(1, 2), levels=((2, 3, 2),))
        b = TowerSpec(gamma=Fraction(-1), target_c=Fraction(1, 2), levels=((2, 3, 4),))
        assert distinct_fields_check([a, b])

    def test_same_field_different_presentation(self):
        # generators (2/3)^(1/2) and (3/2)^(1/2) span the same field
        a = TowerSpec(gamma=Fraction(-1), target_c=Fraction(1, 2), levels=((2, 3, 2),))
        b = TowerSpec(gamma=Fraction(-1), target_c=Fraction(1, 2), levels=((3, 2, 2),))
        assert not distinct_fields_check([a, b])


class TestTowerFieldDegrees:
    def test_generators_multiply_degrees(self):
        spec = build_tower([2, 2, 3], gamma=-1, target_c=Fraction(7, 10))
        gens = [spec.generator(i) for i in range(1, 4)]
        assert compositum_degree(gens) == 12
        assert spec.field_degree(3) == 12

    def test_max_digits_constant_sane(self):
        assert MAX_PRIME_DIGITS >= 300


class TestTowerLevelRecord:
    def test_level_tuple_coercion(self):
        spec = TowerSpec(
            gamma=Fraction(-1), target_c=Fraction(1), levels=[(3, 2, 2)]
        )
        assert isinstance(spec.levels[0], TowerLevel)
        assert next_prime(spec.levels[0].p) == 5
