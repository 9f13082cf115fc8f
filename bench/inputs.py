"""Seeded workload inputs, as plain Python data.

The process under test and the checking process both build the inputs
from (workload, seed, quick) with this module, so only those three
values cross the process boundary.  Nothing here imports heightlab:
the discriminant and reduced-form enumeration below is the benchmark's
own, so the process under test starts with every library cache cold,
and the checker's class numbers do not come from the code it checks.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, log, pi, sqrt

WORKLOADS = ("cm-scan", "classpoly", "exact", "roots")


def _squarefree(n: int) -> bool:
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        if n % p == 0:
            n //= p
        p += 1
    return True


def fundamental_discriminants(bound: int) -> list[int]:
    """Fundamental d < 0 with |d| <= bound, by increasing |d|."""
    out = []
    for n in range(3, bound + 1):
        d = -n
        if d % 4 == 1 and _squarefree(n):
            out.append(d)
        elif d % 4 == 0 and (d // 4) % 4 in (2, 3) and _squarefree(n // 4):
            out.append(d)
    return out


def reduced_forms(d: int) -> list[tuple[int, int, int]]:
    """Reduced primitive forms (a, b, c) of discriminant d, by (a, b)."""
    out = []
    for a in range(1, isqrt(-d // 3) + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (a == c and b < 0) or gcd(gcd(a, b), c) != 1:
                continue
            out.append((a, b, c))
    return sorted(out)


def class_poly_digits(d: int) -> float:
    """Digits of the largest class-polynomial coefficient, estimated as
    pi sqrt|d| sum 1/a / log 10 (Enge, Math. Comp. 78, 2009)."""
    return pi * sqrt(-d) * sum(1 / a for a, _, _ in reduced_forms(d)) / log(10)


# hilbert_class_poly inputs: two of the 66 fundamental d with |d| <= 2000
# and class number 25..40, at 206 and 259 working digits (h = 25, 26).
# Fixed, like cm-scan's input: discriminants drawn by the seed made the
# run time vary by up to 25% between seeds, more than the run-time bound.
# Two cheap members, rather than three spread over the range, keep one
# repetition near two seconds, so that a run holds about ten.
CLASSPOLY_DISCS = (-599, -1832)


def _random_poly(rng: random.Random, degree: int) -> list[int]:
    coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice((1, 2, 3))]
    if coeffs[0] == 0:
        coeffs[0] = rng.choice((-1, 1))
    return coeffs


def mignotte(n: int, a: int) -> list[int]:
    """x^n - 2 (a x - 1)^2, lowest coefficient first: two roots within
    about a^(-(n+2)/2) of 1/a."""
    coeffs = [0] * (n + 1)
    coeffs[n] += 1
    coeffs[0] -= 2
    coeffs[1] += 4 * a
    coeffs[2] -= 2 * a * a
    return coeffs


def _chain_point(rng: random.Random):
    """Coordinates [1 : a_1 : ... : a_n], n = 1..3; each a_i is zero
    (None) or a radical prod p^(num/den) over p in {2, 3, 5, 7}."""
    coords = [{}]
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.15:
            coords.append(None)
            continue
        ex = {}
        for p in rng.sample((2, 3, 5, 7), rng.randint(1, 2)):
            num, den = rng.randint(-3, 3), rng.randint(1, 3)
            if num:
                ex[p] = Fraction(num, den)
        coords.append(ex)
    return coords


def _chain_points(rng: random.Random, count: int) -> list:
    """``count`` chain points with a seed-independent mix of k, the number
    of coordinates other than 0 and 1.  k sets the cost of a check: k = 0
    is degenerate, k = 1 is settled exactly, k >= 2 needs interval
    separation.  Free draws let the mix, and with it the median check
    latency, vary by 30% between seeds; the quotas are the mix of the
    first ``count`` points of a fixed stream."""
    fixed = random.Random("heightlab-bench-chain-mix")
    quota = Counter(_nontrivial(_chain_point(fixed)) for _ in range(count))
    points = []
    while len(points) < count:
        coords = _chain_point(rng)
        k = _nontrivial(coords)
        if quota[k]:
            quota[k] -= 1
            points.append(coords)
    return points


def _nontrivial(coords) -> int:
    return sum(1 for c in coords[1:] if c)


def workload_inputs(name: str, seed: int, quick: bool = False) -> dict:
    """Inputs of one workload.  Equal arguments give equal inputs; only
    the exact workload's chain points depend on the seed."""
    rng = random.Random(f"heightlab-bench-{name}-{seed}")
    if name == "cm-scan":
        return {"d_max": 60 if quick else 200, "precision": 24}
    if name == "classpoly":
        if quick:
            return {"discs": [d for d in fundamental_discriminants(200) if len(reduced_forms(d)) == 4][:1]}
        return {"discs": list(CLASSPOLY_DISCS)}
    if name == "exact":
        gammas = (Fraction(-1), Fraction(-2), Fraction(-1, 2))
        chain = [
            {"coords": coords, "gamma": gammas[i % 3]}
            for i, coords in enumerate(_chain_points(rng, 30 if quick else 400))
        ]
        return {
            "census": {
                "generator": {2: Fraction(1, 2)},
                "dim": 1,
                "gamma": Fraction(-1),
                "threshold": {2: Fraction(2, 3)},
                "budget": 200 if quick else 1500,
            },
            "towers": [
                {
                    "schedule": [2, 2] if quick else [2, 2, 3, 3, 5],
                    "gamma": Fraction(-1),
                    "target_c": Fraction(69, 100),
                    "monomials": 40 if quick else 150,
                },
                {
                    "schedule": [2, 2] if quick else [2, 8, 3],
                    "gamma": Fraction(-1, 3),
                    "target_c": Fraction(69, 100),
                    "monomials": 40 if quick else 150,
                },
            ],
            "chain": chain,
        }
    if name == "roots":
        # Fixed like cm-scan's input: the cost of a random polynomial varies
        # twofold between draws, which moved the median item between seeds
        # by more than the latency bound.  Mignotte (20, 1000) is left out:
        # alone it takes longer than the other three items together.
        fixed = random.Random("heightlab-bench-roots")
        polys = [{"name": "random-0", "coeffs": _random_poly(fixed, 10 if quick else 30)}]
        for n, a in ((7, 10**6),) if quick else ((7, 10**6), (12, 10**4)):
            polys.append({"name": f"mignotte-{n}", "coeffs": mignotte(n, a)})
        return {"polys": polys, "precision": 40}
    raise ValueError(f"unknown workload {name!r}")
