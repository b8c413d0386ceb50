"""Property-based coverage of the fabric's retry backoff.

``ShardFabric._backoff`` is the only consumer of the fabric's RNG
(``coordinator.SEED`` is documented as backoff-jitter-only), so its
contract is easy to state exactly:

* deterministic — two fabrics built with the same seed draw the same
  jittered delays, in the same order,
* monotone-capped — the un-jittered exponential ``base * 2**(n-1)`` is
  non-decreasing in the crash count and clamped to ``BACKOFF_CAP``,
* bounded jitter — every delay lies in ``[d, d * (1 + jitter)]`` where
  ``d`` is the clamped exponential for that crash count.

Base, cap and jitter are module constants; each example patches them
for its own draws.
"""

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.fabric import ShardFabric, coordinator


def _fabric(seed):
    """A fabric shell: _backoff touches only ._rng and the constants."""
    fabric = ShardFabric.__new__(ShardFabric)
    fabric._rng = random.Random(seed)
    return fabric


def _schedule(base, cap, jitter):
    return mock.patch.multiple(
        coordinator, BACKOFF_BASE=base, BACKOFF_CAP=cap,
        BACKOFF_JITTER=jitter,
    )


seeds = st.integers(min_value=0, max_value=2**32 - 1)
bases = st.floats(
    min_value=1e-3, max_value=5.0, allow_nan=False, allow_infinity=False
)
caps = st.floats(
    min_value=1e-3, max_value=60.0, allow_nan=False, allow_infinity=False
)
jitters = st.floats(
    min_value=0.0, max_value=2.0, allow_nan=False, allow_infinity=False
)


@settings(max_examples=200, deadline=None)
@given(seed=seeds, base=bases, cap=caps, jitter=jitters,
       crashes=st.lists(
           st.integers(min_value=1, max_value=24), min_size=1, max_size=16
       ))
def test_backoff_deterministic_under_fixed_seed(seed, base, cap, jitter,
                                                crashes):
    first = _fabric(seed)
    second = _fabric(seed)
    with _schedule(base, cap, jitter):
        for count in crashes:
            assert first._backoff(count) == second._backoff(count)


@settings(max_examples=200, deadline=None)
@given(seed=seeds, base=bases, cap=caps, jitter=jitters,
       crashes=st.integers(min_value=1, max_value=64))
def test_backoff_jitter_stays_within_bound(seed, base, cap, jitter,
                                           crashes):
    fabric = _fabric(seed)
    clamped = min(cap, base * (2 ** (crashes - 1)))
    with _schedule(base, cap, jitter):
        delay = fabric._backoff(crashes)
    assert clamped <= delay <= clamped * (1.0 + jitter)


@settings(max_examples=100, deadline=None)
@given(seed=seeds, base=bases, cap=caps)
def test_backoff_base_is_monotone_and_capped(seed, base, cap):
    """The un-jittered schedule never shrinks and never exceeds the cap.

    The jittered draws themselves need not be monotone (jitter is
    random), so the property is on the deterministic part: draw with
    the jitter patched to zero.
    """
    fabric = _fabric(seed)
    with _schedule(base, cap, 0.0):
        delays = [fabric._backoff(count) for count in range(1, 32)]
    assert all(a <= b for a, b in zip(delays, delays[1:]))
    assert all(d <= cap for d in delays)
    assert delays[-1] == cap or base * (2**30) <= cap
