import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardyseq.seqcore import (
    INF,
    RegimeCase,
    Window,
    classify_regime,
    ext_div,
    ext_mul,
    ext_mul_array,
    ext_pow,
    ext_pow_array,
)


class TestExtArithmetic:
    def test_zero_to_negative_power_is_inf(self):
        assert ext_pow(0.0, -0.5) == INF

    def test_inf_to_negative_power_is_zero(self):
        assert ext_pow(INF, -2.0) == 0.0

    def test_identity_exponent(self):
        assert ext_pow(3.0, 1.0) == 3.0

    def test_zero_exponent_is_one_everywhere(self):
        assert ext_pow(0.0, 0.0) == 1.0
        assert ext_pow(INF, 0.0) == 1.0
        assert ext_pow(2.5, 0.0) == 1.0

    def test_zero_times_inf_is_zero(self):
        assert ext_mul(0.0, INF) == 0.0
        assert ext_mul(INF, 0.0) == 0.0

    def test_div_conventions(self):
        assert ext_div(1.0, 0.0) == INF
        assert ext_div(1.0, INF) == 0.0
        assert ext_div(0.0, 0.0) == 0.0
        assert ext_div(3.0, 3.0) == 1.0

    def test_negative_base_rejected(self):
        with pytest.raises(ValueError):
            ext_pow(-1.0, 2.0)

    @given(
        st.floats(min_value=1e-150, max_value=1e150),
        st.floats(min_value=-40, max_value=40).filter(lambda a: abs(a) > 1e-3),
    )
    def test_pow_round_trip(self, x, alpha):
        # stay clear of overflow/underflow, where the extended semantics
        # saturate at 0 and inf and the round trip cannot return
        if abs(alpha * math.log10(x)) > 290:
            return
        y = ext_pow(ext_pow(x, alpha), 1.0 / alpha)
        assert y == pytest.approx(x, rel=1e-12)

    def test_pow_saturates_instead_of_overflowing(self):
        assert ext_pow(1e200, 3.0) == INF
        assert ext_pow(1e200, -3.0) == 0.0

    def test_mul_array_matches_zero_test_definition(self):
        """The fused product gives the bits of ``where(x == 0 or y == 0, 0,
        x * y)``: ``+0.0`` for every zero factor, ``-0.0`` included."""
        specials = np.array([0.0, -0.0, INF, 1.0, 2.5, 1e-300, 1e300, 5e-324])
        rng = np.random.default_rng(29)
        for shape in [(8,), (16, 8), (64, 33)]:
            x = rng.choice(specials, size=shape)
            y = rng.choice(specials, size=shape[-1:])
            with np.errstate(invalid="ignore", over="ignore"):
                want = np.where((x == 0) | (y == 0), 0.0, x * y)
                got = ext_mul_array(x, y)
            assert got.tobytes() == want.tobytes()
        assert np.signbit(ext_mul_array(np.array([-0.0, -0.0]), np.array([2.0, INF]))).sum() == 0

    def test_array_pow_saturates_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ext_pow_array(np.array([1e200, 1e-200, 2.0]), 3.0)
        assert tuple(out) == (INF, 0.0, 8.0)

    def test_array_conventions_match_scalar(self):
        xs = np.array([0.0, 1.0, 2.0, INF])
        for alpha in (-1.5, -1.0, 0.0, 0.5, 2.0):
            out = ext_pow_array(xs, alpha)
            for x, y in zip(xs, out):
                assert y == ext_pow(float(x), alpha)


class TestRegime:
    @pytest.mark.parametrize(
        "p,q,case",
        [
            (2, 3, RegimeCase.I),
            (2, 2, RegimeCase.I),
            (3, 2, RegimeCase.II),
            (1, 1, RegimeCase.III),
            (0.5, 1, RegimeCase.III),
            (0.5, 0.5, RegimeCase.III),
            (1, 0.5, RegimeCase.IV),
            (0.5, 0.25, RegimeCase.IV),
        ],
    )
    def test_examples(self, p, q, case):
        assert classify_regime(p, q).case_id is case

    @pytest.mark.parametrize("p,q", [(0, 1), (1, 0), (-1, 2), (float("nan"), 1)])
    def test_invalid_parameters(self, p, q):
        with pytest.raises(ValueError):
            classify_regime(p, q)

    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_total_and_disjoint(self, p, q):
        case = classify_regime(p, q).case_id
        memberships = [
            1 < p <= q,
            p > 1 and q < p,
            p <= 1 and p <= q,
            q < p <= 1,
        ]
        assert sum(memberships) == 1
        expected = [RegimeCase.I, RegimeCase.II, RegimeCase.III, RegimeCase.IV][
            memberships.index(True)
        ]
        assert case is expected


class TestWindow:
    def test_negative_entry_rejected(self):
        for bad in (-0.5, math.nan):
            with pytest.raises(ValueError):
                Window(0, (1.0, bad))

    def test_values_are_one_read_only_copy(self):
        src = np.array([1.0, 2.0, 3.0])
        w = Window(0, src)
        assert w.as_array() is w.values
        assert w.values.dtype == np.float64
        with pytest.raises(ValueError):
            w.values[0] = 5.0
        src[0] = 7.0
        assert tuple(w.values) == (1.0, 2.0, 3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Window(0, ())

    def test_equality_is_index_aware(self):
        assert Window(0, (1, 2)) != Window(1, (1, 2))
        assert Window(0, (1, 2)) == Window(0, (1.0, 2.0))

    def test_reversed(self):
        w = Window(2, (1, 2, 3))
        r = w.reversed()
        assert r.start == -4 and tuple(r.values) == (3.0, 2.0, 1.0)
        assert r.reversed() == w

    def test_json_round_trip(self):
        w = Window(-2, (0.5, 0.0, 3.0))
        assert Window.from_json(json.loads(json.dumps(w.to_json()))) == w

    @pytest.mark.parametrize("start", [2.5, True, "2", None])
    def test_json_rejects_a_non_integer_start(self, start):
        """``int`` would read 2.5 as 2 and True as 1; an integral float is
        an integer."""
        with pytest.raises(ValueError, match="window start must be an integer"):
            Window.from_json({"start": start, "values": [1.0]})
        assert Window.from_json({"start": 2.0, "values": [1.0]}).start == 2

    @pytest.mark.parametrize("entry", [True, False, None, [1.0]])
    def test_json_rejects_non_number_entries(self, entry):
        """A boolean entry would read as 1.0 or 0.0."""
        with pytest.raises(ValueError, match="unrecognized window entry"):
            Window.from_json({"start": 0, "values": [1, entry]})

    def test_json_rejects_inf(self):
        for entry in ("inf", "Infinity", INF):
            with pytest.raises(ValueError):
                Window.from_json({"start": 0, "values": [1, entry]})

    def test_contains(self):
        w = Window(-1, (4, 5))
        assert -1 in w and 0 in w and 1 not in w

    def test_infinite_entry_rejected(self):
        for values in ((1.0, INF), (INF,)):
            with pytest.raises(ValueError, match="finite"):
                Window(0, values)

    def test_overflowing_scale_rejected(self):
        w = Window(0, (2.0**600, 1.0))
        assert w.scaled(2.0**400).values[1] == 2.0**400
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            w.scaled(2.0**600)
