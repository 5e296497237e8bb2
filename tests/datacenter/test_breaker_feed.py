"""The fleet's breaker feed against an ``observe``-every-rack oracle.

:func:`repro.datacenter.fleet.feed_breakers` skips every rack where
:meth:`CircuitBreaker.observe` would change nothing. Driven through
random load sequences — loads at exactly the rating and at the instant
trip ratio, varied ``dt``, forced trips and resets in between — its
breakers must stay bit-equal to breakers fed every rack every step.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.datacenter.breaker import CircuitBreaker
from repro.datacenter.fleet import feed_breakers
from repro.errors import SimulationError

RATINGS = (1000.0, 600.0, 4000.0 / 3.0)

#: load / rating: idle, cool, exactly at the rating, thermal overloads,
#: exactly at the instant-trip ratio and beyond it
RATIOS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.0 + 2**-52, 1.05, 1.5, 2.0, 3.0]),
    st.floats(min_value=0.0, max_value=2.5),
)

DTS = st.one_of(
    st.sampled_from([1.0, 59.0, 0.25, 3600.0]),
    st.floats(min_value=1e-6, max_value=600.0),
)

FEED = st.tuples(st.just("feed"), st.lists(RATIOS, min_size=3, max_size=3), DTS)
FORCE = st.tuples(st.just("force_trip"), st.integers(0, 2), st.just(0.0))
RESET = st.tuples(st.just("reset"), st.integers(0, 2), st.just(0.0))
STEPS = st.lists(st.one_of(FEED, FEED, FEED, FORCE, RESET), max_size=60)


def breakers():
    return [CircuitBreaker(name=f"b{i}", rated_watts=r) for i, r in enumerate(RATINGS)]


def every_rack(breakers, loads, dt, now):
    """The oracle: ``observe`` on every rack, in rack order."""
    for breaker, watts in zip(breakers, loads):
        breaker.observe(watts, dt, now)


def bits(breakers):
    """Each breaker's state, with its floats as raw IEEE-754 bits."""
    return [
        (b.state, struct.pack("<dd", b.thermal_accumulator, b.tripped_at), b.trip_count)
        for b in breakers
    ]


@settings(max_examples=300, deadline=None)
@given(steps=STEPS)
def test_feed_matches_observe_on_every_rack(steps):
    fed, oracle = breakers(), breakers()
    now = 0.0
    for kind, arg, dt in steps:
        if kind == "feed":
            loads = [ratio * r for ratio, r in zip(arg, RATINGS)]
            now += dt
            before = [b.state for b in oracle]
            tripped = feed_breakers(fed, loads, dt, now)
            every_rack(oracle, loads, dt, now)
            assert tripped == ([b.state for b in oracle] != before)
        elif kind == "force_trip":
            for b in (fed[arg], oracle[arg]):
                b.force_trip(now)
        elif oracle[arg].tripped:
            for b in (fed[arg], oracle[arg]):
                b.reset()
        assert bits(fed) == bits(oracle)


def raised(feed, breakers, loads, dt):
    with pytest.raises(SimulationError) as info:
        feed(breakers, loads, dt, 1.0)
    return str(info.value), bits(breakers)


@pytest.mark.parametrize("dt", [0.0, -1.0])
def test_nonpositive_dt_raises_before_any_skip(dt):
    # every rack is cool and under its rating: all would be skipped
    loads = [0.5 * r for r in RATINGS]
    assert raised(feed_breakers, breakers(), loads, dt) == raised(
        every_rack, breakers(), loads, dt
    )


@pytest.mark.parametrize("at", [0, 1, 2])
def test_negative_load_raises_where_the_loop_raises(at):
    # the racks before the negative one are fed first, a hot one included
    loads = [1.5 * r for r in RATINGS]
    loads[at] = -1.0
    message, state = raised(feed_breakers, breakers(), loads, 1.0)
    assert (message, state) == raised(every_rack, breakers(), loads, 1.0)
    assert message == "negative load: -1.0"
