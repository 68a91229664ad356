"""Exact integer noise samplers.

Both samplers work entirely in integer arithmetic on top of a PRNG's
uniform integers, so the sampled distributions are exactly the stated ones
and draws are reproducible bit for bit on any platform.  The construction
is the ladder of Canonne, Kamath and Steinke (2020): exact
Bernoulli(exp(-x)) coin flips build a geometric sampler, two mirrored
geometrics build the two-sided geometric, and the discrete Gaussian comes
from rejection against a two-sided geometric envelope.

Inside the ladder a rational x is an integer pair (n, d) in lowest terms,
reduced by gcd at every step where a Fraction would normalise.  Each
uniform below m is drawn inline by the rejection loop that
random.Random.randrange(m) runs on the generator's getrandbits: draw
getrandbits(m.bit_length()) until the result is below m.  The stream is
therefore defined by getrandbits alone.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction


def _bernoulli_exp_unit(n: int, d: int, getrandbits) -> bool:
    # Exact coin with P(True) = exp(-x), for x = n/d in [0, 1] in lowest
    # terms: the successes of Bernoulli(x / k), k = 1, 2, ..., before the
    # first failure are even in number with probability exp(-x).  x / k
    # reduces by gcd(n, d k), which is gcd(n, k) since gcd(n, d) = 1; the
    # k-th coin succeeds when a uniform below d k / g is below n / g.
    k, m, below = 1, d, n
    while True:
        bits = m.bit_length()
        r = getrandbits(bits)
        while r >= m:
            r = getrandbits(bits)
        if r >= below:
            return k % 2 == 1
        k += 1
        g = math.gcd(n, k)
        m, below = d * (k // g), n // g


def _bernoulli_exp_one(getrandbits) -> bool:
    # _bernoulli_exp_unit(1, 1), the unit-rate coin of every geometric's
    # coarse part, without its gcds: the k-th coin is a uniform below k
    # that succeeds at 0.  The first, below 1, always succeeds but still
    # spends its getrandbits(1) draws.
    while getrandbits(1):
        pass
    k = 2
    while True:
        bits = k.bit_length()
        r = getrandbits(bits)
        while r >= k:
            r = getrandbits(bits)
        if r:
            return k % 2 == 1
        k += 1


def _bernoulli_exp(n: int, d: int, getrandbits) -> bool:
    # Exact coin with P(True) = exp(-n/d), for any n/d >= 0 in lowest terms.
    while n > d:
        if not _bernoulli_exp_one(getrandbits):
            return False
        n -= d
    return _bernoulli_exp_unit(n, d, getrandbits)


def _geometric_exp(n: int, d: int, getrandbits) -> int:
    # G >= 0 with P(G = k) = (1 - exp(-n/d)) exp(-k n/d), for n/d > 0 in
    # lowest terms: a uniform remainder below d accepted with
    # Bernoulli(exp(-shift/d)), plus d times a unit-rate geometric, then
    # divided by n.
    bits = d.bit_length()
    while True:
        shift = getrandbits(bits)
        while shift >= d:
            shift = getrandbits(bits)
        g = math.gcd(shift, d)
        if _bernoulli_exp_unit(shift // g, d // g, getrandbits):
            break
    coarse = 0
    while _bernoulli_exp_one(getrandbits):
        coarse += 1
    return (coarse * d + shift) // n


def _two_sided_geometric(n: int, d: int, getrandbits) -> int:
    # Sign and magnitude are drawn independently and the double-counted
    # (negative, zero) outcome is rejected.  The sign is a uniform below
    # 2, getrandbits(2) redrawn while it is 2 or 3, and 0 means negative.
    while True:
        sign = getrandbits(2)
        while sign >= 2:
            sign = getrandbits(2)
        magnitude = _geometric_exp(n, d, getrandbits)
        if sign == 0:
            if magnitude:
                return -magnitude
        else:
            return magnitude


def _rate_parts(rate: Fraction) -> tuple[int, int]:
    n, d = rate.as_integer_ratio()
    if n < 0:
        raise ValueError("rate must be non-negative")
    if n == 0:
        raise ValueError("rate 0 has no normalizable geometric")
    return n, d


def sample_geometric_exp(rate: Fraction, rng: random.Random) -> int:
    """A draw of G with P(G = k) = (1 - exp(-rate)) exp(-k rate), k >= 0."""
    return _geometric_exp(*_rate_parts(rate), rng.getrandbits)


def sample_two_sided_geometric(rate: Fraction, rng: random.Random) -> int:
    """A draw of Z with P(Z = k) proportional to exp(-|k| * rate)."""
    return _two_sided_geometric(*_rate_parts(rate), rng.getrandbits)


def sample_discrete_gaussian(sigma_squared: Fraction, rng: random.Random) -> int:
    """A draw of Z with P(Z = k) proportional to exp(-k^2 / (2 sigma^2)).

    Candidates come from a two-sided geometric envelope with scale
    s = floor(sigma) + 1; a candidate c is accepted with the exact residual
    bias exp(-(|c| - sigma^2 / s)^2 / (2 sigma^2)), so the output law is
    exactly the discrete Gaussian.
    """
    if sigma_squared <= 0:
        raise ValueError("sigma_squared must be positive")
    p, q = sigma_squared.numerator, sigma_squared.denominator
    scale = math.isqrt(p // q) + 1
    # With sigma^2 = p/q the bias is (|c| q s - p)^2 / (2 p q s^2).
    qs = q * scale
    bias_denominator = 2 * p * qs * scale
    getrandbits = rng.getrandbits
    while True:
        candidate = _two_sided_geometric(1, scale, getrandbits)
        offset = abs(candidate) * qs - p
        numerator = offset * offset
        g = math.gcd(numerator, bias_denominator)
        if _bernoulli_exp(numerator // g, bias_denominator // g, getrandbits):
            return candidate
