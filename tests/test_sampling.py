"""The one random source: every sample and every suite draw is random() of
the generator ``rng_for`` builds, whose stream for a seed the Python docs
promise across versions."""

import math
import random

import pytest

import wickstar.suites as suites
from wickstar.errors import DomainError
from wickstar.sampling import (rng_for, sample_annulus, sample_disk, sample_gpoints,
                               sample_half_plane, sample_omega_points, sample_punctured)
from wickstar.suites import SUITES, run_suites


class RandomOnly:
    """A generator with random() alone."""

    def __init__(self, seed):
        self.random = random.Random(seed).random


def test_every_sampler_and_suite_draws_with_random_alone():
    rng = RandomOnly(0)
    assert all(abs(z) <= 0.5 for z in sample_disk(rng, 50, rmax=0.5))
    lo, hi = math.exp(-0.9 * math.log(2.0)), math.exp(0.9 * math.log(2.0))
    assert all(lo <= abs(z) <= hi for z in sample_annulus(rng, 50, 2.0))
    assert all(1e-3 <= abs(z) <= 0.9 for z in sample_punctured(rng, 50))
    assert all(z.imag > 0 for z in sample_half_plane(rng, 50))
    assert all(abs(p.z.value() - p.w.value()) >= 0.05 for p in sample_gpoints(rng, 50))
    assert all(abs(p.z.value()) <= 0.85 and abs(p.w.value()) <= 0.85
               for p in sample_omega_points(rng, 50))
    for name, suite in SUITES.items():
        assert all(c.status == "pass" for c in suite(RandomOnly(0))), name


def test_samples_are_python_complex():
    rng = rng_for(3)
    for zs in (sample_disk(rng, 3), sample_annulus(rng, 3, 2.0), sample_punctured(rng, 3),
               sample_half_plane(rng, 3)):
        assert all(type(z) is complex for z in zs)
    p = sample_gpoints(rng, 1)[0]
    assert type(p.z.value()) is complex and type(p.w.value()) is complex


def test_suite_draws_are_pinned(monkeypatch):
    # ints built from random() alone at a fixed seed: the same on every
    # Python version, so the report of a seed is too
    drawn = []
    real = suites._rand_polyfn

    def spy(rng, deg, exact=False):
        g = real(rng, deg, exact)
        drawn.append([int(c) for c in g.coeffs])
        return g

    monkeypatch.setattr(suites, "_rand_polyfn", spy)
    run_suites(["commutativity"], seed=42)
    assert drawn[:3] == [[1, 0, 0, 0, -2], [-3, -2, -3, -3, 3], [1, -1, -1, 0, 2]]


@pytest.mark.parametrize("seed", [-1, -5, 1.5, True, "3", None])
def test_a_seed_is_an_int_at_least_zero(seed):
    # random.Random(-5) repeats the stream of random.Random(5)
    with pytest.raises(DomainError, match="seed"):
        rng_for(seed)
    with pytest.raises(DomainError, match="seed"):
        run_suites(["cn"], seed=seed)
