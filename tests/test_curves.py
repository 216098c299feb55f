import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderdown.curves import (
    CurveError,
    ExpRampDipole,
    MorsePotential,
    TabulatedCurve,
    krb_standin_potential,
    load_tabulated,
)


class TestMorse:
    def test_minimum_is_exactly_minus_de(self):
        m = MorsePotential(de=0.1, re=2.0, a=1.5)
        assert m.value(2.0) == -0.1

    def test_asymptotic_limit(self):
        m = MorsePotential(de=0.1, re=2.0, a=1.5)
        assert abs(m.value(200.0)) < 0.1 * 1e-8

    def test_hand_evaluated_point(self):
        # de*(1 - exp(-0.5))^2 - de at r = 8, one width past re = 7
        m = MorsePotential(de=0.001, re=7.0, a=0.5)
        expected = 0.001 * (1.0 - math.exp(-0.5)) ** 2 - 0.001
        assert m.value(8.0) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("bad", [
        dict(de=-0.1, re=2.0, a=1.0),
        dict(de=0.1, re=0.0, a=1.0),
        dict(de=0.1, re=2.0, a=-1.0),
    ])
    def test_parameter_validation(self, bad):
        with pytest.raises(ValueError):
            MorsePotential(**bad)

    @given(r=st.floats(0.1, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_evaluation_is_pure(self, r):
        m = MorsePotential(de=0.01, re=5.0, a=0.7)
        assert m.value(r) == m.value(r)

    def test_vectorized_matches_scalar(self):
        m = krb_standin_potential()
        rs = np.linspace(5.0, 40.0, 17)
        vec = m.value(rs)
        assert vec == pytest.approx([m.value(r) for r in rs])


class TestDipole:
    def test_zero_at_origin(self):
        d = ExpRampDipole(d0=1.0, rd=8.0, p=4.0)
        assert d.value(0.0) == 0.0

    def test_decays_at_large_r(self):
        d = ExpRampDipole(d0=1.0, rd=8.0, p=4.0)
        assert abs(d.value(200.0)) < 1e-100

    def test_value_at_scale_radius(self):
        # linear prefactor 1, exponential exp(-1)
        d = ExpRampDipole(d0=1.0, rd=8.0, p=4.0)
        assert d.value(8.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_single_interior_maximum(self):
        d = ExpRampDipole(d0=0.5, rd=28.0, p=2.0)
        r = np.linspace(0.0, 200.0, 20001)
        v = d.value(r)
        grad_sign = np.sign(np.diff(v))
        flips = np.nonzero(np.diff(grad_sign) != 0)[0]
        assert len(flips) == 1
        assert np.all(np.isfinite(v))


class TestTabulated:
    """load_tabulated parses a table's text; TabulatedCurve checks its samples."""

    @staticmethod
    def _load(rows):
        return load_tabulated("".join(f"{row}\n" for row in rows))

    def test_nodes_reproduced_bit_exactly(self):
        curve = self._load(["1 -1", "2 -2", "3 -3", "4 -4"])
        for r, v in [(1, -1.0), (2, -2.0), (3, -3.0), (4, -4.0)]:
            assert float(curve.value(float(r))) == v

    def test_linear_data_interpolates_linearly(self):
        curve = self._load(["1 -1", "2 -2", "3 -3", "4 -4"])
        assert curve.value(2.5) == pytest.approx(-2.5, abs=1e-12)

    def test_out_of_order_rows_rejected(self):
        with pytest.raises(CurveError, match="^r must be strictly increasing$"):
            self._load(["1 -1", "3 -3", "2 -2", "4 -4"])

    def test_duplicate_abscissa_rejected(self):
        with pytest.raises(CurveError, match="^r must be strictly increasing$"):
            self._load(["1 -1", "2 -2", "2 -2.5", "4 -4"])

    def test_too_few_rows_rejected(self):
        with pytest.raises(CurveError, match="^need at least 4 samples .*, got 3$"):
            self._load(["1 -1", "2 -2", "3 -3"])

    def test_parse_error_reports_line_number(self):
        with pytest.raises(CurveError) as err:
            self._load(["1 -1", "2 -2", "3 oops", "4 -4"])
        assert str(err.value) == "line 3: cannot parse 'oops' as a finite number"

    @pytest.mark.parametrize("rows, line_no, token", [
        (["1 -1", "2 nan", "3 -3", "4 -4"], 2, "nan"),
        (["1 -1", "2 -2", "3 -3", "inf -4"], 4, "inf"),
    ])
    def test_non_finite_sample_reports_line_number(self, rows, line_no, token):
        with pytest.raises(CurveError) as err:
            self._load(rows)
        assert str(err.value) == f"line {line_no}: cannot parse {token!r} as a finite number"

    @pytest.mark.parametrize("row", ["3", "3 -3 0", "3, -3, 0"])
    def test_row_of_other_than_two_numbers_reports_line_number(self, row):
        with pytest.raises(CurveError) as err:
            self._load(["# r, value", "1 -1", "2 -2", row, "4 -4"])
        assert str(err.value) == f"line 4: need two numbers, r and value, got {row!r}"

    def test_comments_and_commas_accepted(self):
        curve = self._load(["# a comment", "1, -1", "2 -2  # inline", "3,-3", "4 -4"])
        assert float(curve.value(3.0)) == -3.0

    def test_extrapolation_refused(self):
        curve = self._load(["1 -1", "2 -2", "3 -3", "4 -4"])
        with pytest.raises(CurveError, match="outside tabulated range"):
            curve.value(4.5)
        with pytest.raises(CurveError, match="outside tabulated range"):
            curve.value(np.array([1.5, 0.5]))

    def test_arrays_are_checked_as_the_text_is(self):
        # the sample checks live in TabulatedCurve, which the parser builds
        with pytest.raises(CurveError, match="at least 4"):
            TabulatedCurve(r=np.array([1.0, 2.0, 3.0]), values=np.zeros(3))
        with pytest.raises(CurveError, match="strictly increasing"):
            TabulatedCurve(r=np.array([1.0, 3.0, 2.0, 4.0]), values=np.zeros(4))
        with pytest.raises(CurveError, match="matching 1-D"):
            TabulatedCurve(r=np.arange(4.0), values=np.zeros(5))

    @pytest.mark.parametrize("coeffs", [
        (0.3, 0.0, 0.0, 0.0),
        (1.0, -2.0, 0.0, 0.0),
        (0.5, 1.5, -0.25, 0.0),
        (2.0, -1.0, 0.5, 0.125),
    ])
    def test_polynomials_up_to_cubic_reproduced(self, coeffs):
        # spline order is 3, so cubics must come back exactly
        r = np.linspace(1.0, 9.0, 15)
        poly = np.polynomial.Polynomial(coeffs)
        curve = TabulatedCurve(r=r, values=poly(r))
        q = np.linspace(1.0, 9.0, 301)
        expected = poly(q)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(curve.value(q) - expected)) < 1e-12 * scale
