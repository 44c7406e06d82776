"""The ten verification criteria, one test each, and the generator they
draw from.

These call the same check functions that back `flp verify-paper`, so a
green suite here and a green CLI table are the same statement.  The
randomized checks run at the default seed unless FLP_SEED is set; their
PCG64 port must give numpy's `default_rng` draws bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from filippov import acceptance
from filippov.acceptance import _Generator, _random_system, _seed_words
from filippov.core import AffineField

# seeds of every size class, and the offsets checks 6 and 9 add to theirs
_PORT_SEEDS = sorted({s + k for s in (0, 1, 2**32, 2**64 + 3, 4001, 20260823) for k in (0, 6, 9)})
_RANGES = ((-3.0, 3.0), (0.05, 1.5), (math.log(1e-3), math.log(2.0)), (-10.0, 10.0))


def _helper_draws(rng, n):
    """n uniform draws cycling through _RANGES, as hex so bits compare."""
    ranges = itertools.islice(itertools.cycle(_RANGES), n)
    return [float(rng.uniform(lo, hi)).hex() for lo, hi in ranges]


@pytest.mark.parametrize("seed", _PORT_SEEDS)
def test_seed_words_are_seed_sequence_state(seed):
    assert _seed_words(seed) == np.random.SeedSequence(seed).generate_state(8, np.uint32).tolist()


@pytest.mark.parametrize("seed", _PORT_SEEDS)
def test_generator_draws_are_default_rng_bit_for_bit(seed):
    assert _helper_draws(_Generator(seed), 4_000) == _helper_draws(np.random.default_rng(seed), 4_000)


@pytest.mark.parametrize("seed", [20260823, 4001])
def test_random_system_reads_check_ones_block_order(seed):
    # check 1 drew one (2, 2, 3) block per system, C order, left field first
    rng, gen = np.random.default_rng(seed), _Generator(seed)
    for _ in range(500):
        M = rng.uniform(-3.0, 3.0, size=(2, 2, 3))
        sys = _random_system(gen)
        assert sys.left.entries == AffineField(M[0][:, :2], M[0][:, 2]).entries
        assert sys.right.entries == AffineField(M[1][:, :2], M[1][:, 2]).entries


@settings(max_examples=200, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**128 - 1))
def test_generator_matches_default_rng_on_any_seed(seed):
    assert _seed_words(seed) == np.random.SeedSequence(seed).generate_state(8, np.uint32).tolist()
    assert _helper_draws(_Generator(seed), 40) == _helper_draws(np.random.default_rng(seed), 40)


def test_criterion_01_random_sweep():
    ok, detail = acceptance.check_sliding_count_sweep()
    assert ok, detail


def test_criterion_02_example_configurations():
    ok, detail = acceptance.check_example_configurations()
    assert ok, detail


def test_criterion_03_crossing_exclusions():
    ok, detail = acceptance.check_crossing_exclusions()
    assert ok, detail


def test_criterion_04_rho_scenario():
    ok, detail = acceptance.check_rho_scenario()
    assert ok, detail


def test_criterion_05_eta_scenario():
    ok, detail = acceptance.check_eta_scenario()
    assert ok, detail


def test_criterion_06_halfmap_oracle():
    ok, detail = acceptance.check_halfmap_oracle()
    assert ok, detail


def test_criterion_07_asymptotic_slopes():
    ok, detail = acceptance.check_asymptotic_slopes()
    assert ok, detail


def test_criterion_08_half_turn_constants():
    ok, detail = acceptance.check_half_turn_constants()
    assert ok, detail


def test_criterion_09_filippov_identity():
    ok, detail = acceptance.check_filippov_identity()
    assert ok, detail


def test_criterion_10_coexistence_witnesses():
    ok, detail = acceptance.check_coexistence_witnesses()
    assert ok, detail
