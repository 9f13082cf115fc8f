"""Exact JSON encoding of mpmath numbers between the benchmark's
processes: an mpf travels as its (sign, mantissa, exponent, bitcount)
tuple, an mpc as the pair of its parts."""

from __future__ import annotations

from mpmath import mp, mpc, mpf


def encode(x) -> list:
    if isinstance(x, mpc):
        return [encode(x.real), encode(x.imag)]
    if not isinstance(x, mpf):
        raise TypeError(f"cannot encode {type(x).__name__} exactly")
    return [int(v) for v in x._mpf_]


def decode(t):
    if len(t) == 2:
        return mp.make_mpc((tuple(t[0]), tuple(t[1])))
    return mp.make_mpf(tuple(t))


def encode_ball(b) -> list:
    """A BigFloat or CDisc as [value, radius]."""
    return [encode(b.value), encode(b.radius)]


def decode_ball(t):
    return decode(t[0]), decode(t[1])
