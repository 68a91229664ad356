"""Sampler distribution checks.

Fixed seeds make these deterministic: if a check passes once it passes
always, so tolerances can be tight without flakes.
"""

import random
from fractions import Fraction

import pytest

from helpers import (
    empirical_pmf,
    gaussian_pmf,
    geometric_pmf,
    LoggingRandom,
    randrange_discrete_gaussian,
    randrange_geometric_exp,
    randrange_two_sided_geometric,
    tv_distance,
)
from noisegate.noise import (
    sample_discrete_gaussian,
    sample_geometric_exp,
    sample_two_sided_geometric,
)
from noisegate.rng import RngStream


def _stream(label: str):
    return RngStream(20240809).child(label).generator()


def test_geometric_exp_matches_closed_form():
    rate = Fraction(1, 2)
    rng = _stream("geo")
    samples = [sample_geometric_exp(rate, rng) for _ in range(40000)]
    assert all(s >= 0 for s in samples)
    # One-sided geometric: P(k) = (1 - e^-r) e^-rk.  Reuse the two-sided
    # helper's closed form restricted to k >= 0 by centering at 0 on [0, hi].
    pmf = geometric_pmf(rate, 0, 0, 80)
    assert tv_distance(empirical_pmf(samples), pmf) < 0.01


def test_two_sided_geometric_matches_closed_form():
    rate = Fraction(1, 1)
    rng = _stream("two")
    samples = [sample_two_sided_geometric(rate, rng) for _ in range(40000)]
    pmf = geometric_pmf(rate, 0, -60, 60)
    assert tv_distance(empirical_pmf(samples), pmf) < 0.01


def test_two_sided_geometric_fractional_rate():
    rate = Fraction(1, 3)
    rng = _stream("frac")
    samples = [sample_two_sided_geometric(rate, rng) for _ in range(40000)]
    pmf = geometric_pmf(rate, 0, -120, 120)
    assert tv_distance(empirical_pmf(samples), pmf) < 0.01


def test_discrete_gaussian_matches_closed_form():
    sigma_squared = Fraction(2)
    rng = _stream("gauss")
    samples = [sample_discrete_gaussian(sigma_squared, rng) for _ in range(40000)]
    pmf = gaussian_pmf(sigma_squared, 0, -60, 60)
    assert tv_distance(empirical_pmf(samples), pmf) < 0.01


def test_discrete_gaussian_non_integer_sigma():
    sigma_squared = Fraction(5, 2)
    rng = _stream("gauss2")
    samples = [sample_discrete_gaussian(sigma_squared, rng) for _ in range(20000)]
    pmf = gaussian_pmf(sigma_squared, 0, -60, 60)
    assert tv_distance(empirical_pmf(samples), pmf) < 0.015


def test_samplers_are_deterministic_given_stream():
    for sampler, arg in [
        (sample_geometric_exp, Fraction(2, 3)),
        (sample_two_sided_geometric, Fraction(2, 3)),
        (sample_discrete_gaussian, Fraction(3)),
    ]:
        a = [sampler(arg, _stream("d")) for _ in range(50)]
        b = [sampler(arg, _stream("d")) for _ in range(50)]
        assert a == b
        # A fresh generator restarts the sequence; 50 draws from one
        # generator must not all coincide with 50 restarts.
        gen = _stream("d")
        c = [sampler(arg, gen) for _ in range(50)]
        assert c != a or len(set(a)) <= 1


def test_huge_rate_concentrates_at_zero():
    rng = _stream("huge")
    assert all(sample_two_sided_geometric(Fraction(200), rng) == 0 for _ in range(100))


def test_rng_stream_paths_are_independent_and_stable():
    root = RngStream(7)
    a = root.child("a").generator().random()
    b = root.child("b").generator().random()
    assert a != b
    assert root.child("a").generator().random() == a
    # Different label types never collide.
    assert root.child(1).generator().random() != root.child("1").generator().random()


# Rates and variances whose uniforms span one bit to well past 64: tiny
# and huge rates, a non-unit numerator, sigma^2 below 1 and near 10^17.
# Among the rates, 6/35 draws remainders that share a factor with 35 under
# a numerator above 1, 3/64 has a power-of-two denominator, 1/(2^40 + 15)
# draws uniforms of several 32-bit words, and 10^40 draws only the
# remainder 0.
LADDER_RATES = (
    Fraction(1, 5),
    Fraction(1, 10),
    Fraction(7, 2),
    Fraction(1, 125_000_000),
    Fraction(1, 250_000_000),
    Fraction(10**40),
    Fraction(6, 35),
    Fraction(3, 64),
    Fraction(1, 2**40 + 15),
)
LADDER_GRID = [
    (sample_two_sided_geometric, randrange_two_sided_geometric, rate, 300)
    for rate in LADDER_RATES
] + [
    (sample_geometric_exp, randrange_geometric_exp, rate, 300)
    for rate in LADDER_RATES
] + [
    (sample_discrete_gaussian, randrange_discrete_gaussian, sigma_squared, 200)
    for sigma_squared in (
        Fraction(1, 3),
        Fraction(45, 7),
        Fraction(625 * 10**14),
        Fraction(1, 10**40),
    )
]


@pytest.mark.parametrize(
    "sampler, oracle, parameter, draws",
    LADDER_GRID,
    ids=[f"{s.__name__}-{p}" for s, _, p, _ in LADDER_GRID],
)
def test_samplers_match_the_randrange_ladder_bit_for_bit(sampler, oracle, parameter, draws):
    for seed in range(8):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert [sampler(parameter, ours) for _ in range(draws)] == [
            oracle(parameter, theirs) for _ in range(draws)
        ]
        # Same draws and the same generator state after them.
        assert ours.getrandbits(64) == theirs.getrandbits(64)


@pytest.mark.parametrize(
    "sampler, oracle, parameter, draws",
    LADDER_GRID,
    ids=[f"{s.__name__}-{p}" for s, _, p, _ in LADDER_GRID],
)
def test_samplers_make_the_randrange_ladders_getrandbits_calls(sampler, oracle, parameter, draws):
    # Equal draws could still come from different calls; the stream is
    # defined by the calls, so pin the k of each one, in order.
    for seed in range(3):
        ours, theirs = LoggingRandom(seed), LoggingRandom(seed)
        for _ in range(draws):
            assert sampler(parameter, ours) == oracle(parameter, theirs)
        assert ours.calls == theirs.calls
        assert len(ours.calls) >= draws


def test_geometric_rates_are_positive():
    for sampler in (sample_geometric_exp, sample_two_sided_geometric):
        with pytest.raises(ValueError, match="rate 0 has no normalizable geometric"):
            sampler(Fraction(0), random.Random(0))
        with pytest.raises(ValueError, match="rate must be non-negative"):
            sampler(Fraction(-1, 3), random.Random(0))


def test_gaussian_variance_is_positive_and_exact():
    for sigma_squared in (Fraction(0), Fraction(-3, 2), 0, -1):
        with pytest.raises(ValueError, match="sigma_squared must be positive"):
            sample_discrete_gaussian(sigma_squared, random.Random(0))
    for sigma_squared in (0.5, 2.0, -1.0):
        with pytest.raises(TypeError, match="not a float"):
            sample_discrete_gaussian(sigma_squared, random.Random(0))
    # An int variance is exact, and draws as its Fraction does.
    ints, fractions = random.Random(4), random.Random(4)
    assert [sample_discrete_gaussian(3, ints) for _ in range(20)] == [
        sample_discrete_gaussian(Fraction(3), fractions) for _ in range(20)
    ]


class _GetrandbitsOnly(random.Random):
    """A generator that can only answer getrandbits."""

    def randrange(self, *args, **kwargs):
        raise AssertionError("randrange called")

    def random(self):
        raise AssertionError("random called")

    def _randbelow(self, n):
        raise AssertionError("_randbelow called")


def test_samplers_draw_from_getrandbits_alone():
    for sampler, oracle, parameter in [
        (sample_two_sided_geometric, randrange_two_sided_geometric, Fraction(1, 7)),
        (sample_discrete_gaussian, randrange_discrete_gaussian, Fraction(45, 7)),
    ]:
        only, plain = _GetrandbitsOnly(11), random.Random(11)
        assert [sampler(parameter, only) for _ in range(200)] == [
            oracle(parameter, plain) for _ in range(200)
        ]
    assert sample_geometric_exp(Fraction(1, 3), _GetrandbitsOnly(5)) >= 0
