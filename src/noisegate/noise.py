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
getrandbits(m.bit_length()) until the result is below m.

The coins are written out where they are flipped, not called: the
geometric's remainder coin and unit-rate coin inside _geometric_exp, which
every noisy value runs, and the same two coins inside _bernoulli_exp, which
the discrete Gaussian's acceptance runs.  The two-sided geometric's sign
loop is in _two_sided_geometric alone, which sample_two_sided_geometric
and the discrete Gaussian's envelope both call.  The stream is therefore
defined by the sequence of getrandbits(k) calls alone, each k and its
order, and the tests pin that sequence against a ladder that draws every
uniform with randrange.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction


def _bernoulli_exp(n: int, d: int, getrandbits) -> bool:
    # Exact coin with P(True) = exp(-n/d), for any n/d >= 0 in lowest terms:
    # one unit-rate coin per whole unit while n/d > 1, then the coin for the
    # rest, n/d in [0, 1].
    while n > d:
        # exp(-1): the k-th uniform is below k and succeeds at 0, and the
        # coin is True when the first failure comes at an odd k.  The first,
        # below 1, always succeeds but still spends its getrandbits(1) draws.
        while getrandbits(1):
            pass
        r = getrandbits(2)
        while r >= 2:
            r = getrandbits(2)
        if r:
            return False
        k = 3
        while True:
            bits = k.bit_length()
            r = getrandbits(bits)
            while r >= k:
                r = getrandbits(bits)
            if r:
                break
            k += 1
        if not k % 2:
            return False
        n -= d
    # exp(-x) for x = n/d in [0, 1]: the successes of Bernoulli(x / k),
    # k = 1, 2, ..., before the first failure are even in number with
    # probability exp(-x).  x / k reduces by gcd(n, d k), which is gcd(n, k)
    # since gcd(n, d) = 1; the k-th coin succeeds when a uniform below
    # d k / g is below n / g.
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


def _geometric_exp(n: int, d: int, getrandbits) -> int:
    # G >= 0 with P(G = k) = (1 - exp(-n/d)) exp(-k n/d), for n/d > 0 in
    # lowest terms: a uniform remainder below d accepted with
    # Bernoulli(exp(-shift/d)), plus d times a unit-rate geometric, then
    # divided by n.  Both coins are _bernoulli_exp's, written out.
    bits = d.bit_length()
    while True:
        shift = getrandbits(bits)
        while shift >= d:
            shift = getrandbits(bits)
        if not shift:
            # exp(-0/1): the first uniform, below 1, is 0 and not below
            # n = 0, so the coin is True at k = 1.
            while getrandbits(1):
                pass
            break
        g = math.gcd(shift, d)
        top, unit = shift // g, d // g
        k, m, below = 1, unit, top
        while True:
            m_bits = m.bit_length()
            r = getrandbits(m_bits)
            while r >= m:
                r = getrandbits(m_bits)
            if r >= below:
                break
            k += 1
            g = math.gcd(top, k)
            m, below = unit * (k // g), top // g
        if k % 2:
            break
    # The unit-rate geometric counts exp(-1) coins until one fails.
    coarse = 0
    while True:
        while getrandbits(1):
            pass
        r = getrandbits(2)
        while r >= 2:
            r = getrandbits(2)
        if r:
            break
        k = 3
        while True:
            k_bits = k.bit_length()
            r = getrandbits(k_bits)
            while r >= k:
                r = getrandbits(k_bits)
            if r:
                break
            k += 1
        if not k % 2:
            break
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


def _rate_error(n: int) -> ValueError:
    if n < 0:
        return ValueError("rate must be non-negative")
    return ValueError("rate 0 has no normalizable geometric")


def sample_geometric_exp(rate: Fraction, rng: random.Random) -> int:
    """A draw of G with P(G = k) = (1 - exp(-rate)) exp(-k rate), k >= 0."""
    n, d = rate.as_integer_ratio()
    if n <= 0:
        raise _rate_error(n)
    return _geometric_exp(n, d, rng.getrandbits)


def sample_two_sided_geometric(rate: Fraction, rng: random.Random) -> int:
    """A draw of Z with P(Z = k) proportional to exp(-|k| * rate)."""
    n, d = rate.as_integer_ratio()
    if n <= 0:
        raise _rate_error(n)
    return _two_sided_geometric(n, d, rng.getrandbits)


def sample_discrete_gaussian(sigma_squared: Fraction, rng: random.Random) -> int:
    """A draw of Z with P(Z = k) proportional to exp(-k^2 / (2 sigma^2)).

    Candidates come from a two-sided geometric envelope with scale
    s = floor(sigma) + 1; a candidate c is accepted with the exact residual
    bias exp(-(|c| - sigma^2 / s)^2 / (2 sigma^2)), so the output law is
    exactly the discrete Gaussian.
    """
    if isinstance(sigma_squared, float):
        raise TypeError("sigma_squared must be an exact number, not a float")
    # One read of the ratio: Fraction's comparisons and its numerator and
    # denominator properties are Python-level calls.
    p, q = sigma_squared.as_integer_ratio()
    if p <= 0:
        raise ValueError("sigma_squared must be positive")
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
