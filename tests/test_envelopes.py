import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardyseq.envelopes import EnvelopeKind, envelope, reduce_weight_monotone
from hardyseq.hardyops import ANTIGOP_SUP, RatioProblem
from hardyseq.oracle import OracleConfig, brute_force_constant
from hardyseq.seqcore import Window

windows = st.builds(
    lambda start, vals: Window(start, tuple(vals)),
    st.integers(min_value=-5, max_value=5),
    st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=12),
)


def test_decreasing_upper_example():
    assert tuple(envelope(Window(0, (3, 1, 2)), EnvelopeKind.DECREASING_UPPER).values) == (3, 2, 2)


def test_increasing_upper_example():
    assert tuple(envelope(Window(0, (3, 1, 2)), EnvelopeKind.INCREASING_UPPER).values) == (3, 3, 3)


def test_constant_fixed_by_all_kinds():
    w = Window(2, (4.0, 4.0, 4.0))
    for kind in EnvelopeKind:
        assert envelope(w, kind) == w


def test_reduce_right_sum_example():
    assert tuple(reduce_weight_monotone(Window(0, (4, 1, 9)), "right-sum").values) == (1, 1, 9)


def test_reduce_left_sum_example():
    assert tuple(reduce_weight_monotone(Window(0, (4, 1, 9)), "left-sum").values) == (4, 1, 1)


def test_reduce_monotone_increasing_unchanged():
    v = Window(0, (1, 2, 5))
    assert reduce_weight_monotone(v, "right-sum") == v


def test_reduce_bad_side():
    with pytest.raises(ValueError):
        reduce_weight_monotone(Window(0, (1,)), "middle")


@given(windows, st.sampled_from(list(EnvelopeKind)))
def test_idempotent(u, kind):
    once = envelope(u, kind)
    assert envelope(once, kind) == once


@given(windows, st.sampled_from(list(EnvelopeKind)))
def test_envelope_ordering(u, kind):
    env = np.asarray(envelope(u, kind).values)
    vals = np.asarray(u.values)
    if kind.bound == "upper":
        assert (env >= vals).all()
    else:
        assert (env <= vals).all()


@given(windows, st.sampled_from(list(EnvelopeKind)))
def test_envelope_monotone_direction(u, kind):
    env = envelope(u, kind).values
    diffs = [b - a for a, b in zip(env, env[1:])]
    if kind.direction == "increasing":
        assert all(d >= 0 for d in diffs)
    else:
        assert all(d <= 0 for d in diffs)


@pytest.mark.parametrize("seed", range(6))
def test_ratio_invariance_under_reduction(seed):
    """Replacing v by its tail lower envelope leaves the best ratio unchanged.

    The functional here is the weighted l^q norm of the tail sups, which is
    monotone under tail rearrangement, with a linear denominator (p = 1); in
    that range single spikes are exact optimizers, so the brute-force values
    on both sides are exact and must agree.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    u = Window(0, tuple(2.0 ** rng.uniform(-3, 3, n)))
    v = Window(0, tuple(2.0 ** rng.uniform(-3, 3, n)))
    w = Window(0, tuple(2.0 ** rng.uniform(-3, 3, n)))
    q = float(rng.choice([1.0, 2.0]))
    cfg = OracleConfig(restarts=2, iterations=30, seed=seed)
    before = brute_force_constant(RatioProblem(u, v, w, 1.0, q, ANTIGOP_SUP), cfg)
    v_red = reduce_weight_monotone(v, "right-sum")
    after = brute_force_constant(RatioProblem(u, v_red, w, 1.0, q, ANTIGOP_SUP), cfg)
    assert after.constant == pytest.approx(before.constant, rel=1e-6)
