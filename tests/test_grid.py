"""Grid geometry and the flat-index codec."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qags.errors import InvalidInputError, OffGridError
from qags.grid import (
    DEFAULT_QUBIT_CAP,
    GridSpec,
    SearchBox,
    coordinate,
    decode,
    decode_many,
    encode,
)


def box2(lo=-5.12, hi=5.12):
    return SearchBox.cube(2, lo, hi)


class TestSearchBox:
    def test_cube(self):
        b = SearchBox.cube(3, -1.0, 2.0)
        assert b.dimension == 3
        assert np.array_equal(b.lower, [-1.0, -1.0, -1.0])
        assert np.array_equal(b.upper, [2.0, 2.0, 2.0])
        assert np.array_equal(b.width, [3.0, 3.0, 3.0])

    def test_from_pairs(self):
        b = SearchBox.from_pairs([(-1.0, 1.0), (0.0, 4.0)])
        assert b.dimension == 2
        assert b.as_pairs() == [[-1.0, 1.0], [0.0, 4.0]]

    def test_degenerate_dimension_allowed(self):
        b = SearchBox(np.array([1.0, -2.0]), np.array([1.0, 2.0]))
        assert b.width[0] == 0.0

    def test_rejects_crossed_bounds(self):
        with pytest.raises(InvalidInputError):
            SearchBox(np.array([1.0]), np.array([0.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            SearchBox(np.array([-np.inf]), np.array([0.0]))
        with pytest.raises(InvalidInputError):
            SearchBox(np.array([0.0]), np.array([np.nan]))

    def test_rejects_overflowing_width(self):
        # finite bounds whose difference overflows: every lattice step on
        # such an axis would be inf, its points inf or NaN
        with pytest.raises(InvalidInputError, match="width"):
            SearchBox(np.array([-1e308]), np.array([1e308]))
        with pytest.raises(InvalidInputError, match="width"):
            SearchBox(np.array([0.0, -1.7e308]), np.array([1.0, 1.7e308]))
        widest = SearchBox(np.array([-8e307, 0.0]), np.array([8e307, np.finfo(float).max]))
        assert np.all(np.isfinite(widest.width))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            SearchBox(np.array([0.0, 1.0]), np.array([1.0]))

    def test_arrays_read_only(self):
        b = box2()
        with pytest.raises(ValueError):
            b.lower[0] = 0.0

    def test_contains_and_clip(self):
        b = box2(-1.0, 1.0)
        assert b.contains(np.array([0.5, -1.0]))
        assert not b.contains(np.array([1.5, 0.0]))
        assert np.array_equal(b.clip(np.array([2.0, -3.0])), [1.0, -1.0])

    def test_contains_box(self):
        outer = box2(-2.0, 2.0)
        assert outer.contains_box(box2(-1.0, 1.0))
        assert outer.contains_box(outer)
        assert not box2(-1.0, 1.0).contains_box(outer)

    def test_equality(self):
        assert box2() == box2()
        assert box2() != box2(-5.0, 5.0)


class TestGridSpec:
    def test_basic_quantities(self):
        spec = GridSpec(2, 5, box2())
        assert spec.points_per_dim == 32
        assert spec.total_points == 1024
        assert np.allclose(spec.step, 10.24 / 31)

    def test_qubit_cap(self):
        with pytest.raises(InvalidInputError):
            GridSpec(16, 2, SearchBox.cube(16, -1.0, 1.0))
        # cap override admits the same register
        spec = GridSpec(16, 2, SearchBox.cube(16, -1.0, 1.0), qubit_cap=32)
        assert spec.total_points == 2**32
        assert DEFAULT_QUBIT_CAP == 30

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            GridSpec(3, 2, box2())

    def test_invalid_qubits(self):
        with pytest.raises(InvalidInputError):
            GridSpec(2, 0, box2())

    @pytest.mark.parametrize("dimension,qubits", [(2.0, 2), (2, 2.5), (2, 2.0), (2, "2")])
    def test_non_integral_sizes_are_rejected(self, dimension, qubits):
        # rejected at construction, not by a TypeError from total_points
        with pytest.raises(InvalidInputError, match="must be an integer"):
            GridSpec(dimension, qubits, box2())

    @pytest.mark.parametrize("dimension,qubits", [(2, 3), (np.int64(2), 3), (2, np.int32(3))])
    def test_integral_sizes_are_accepted(self, dimension, qubits):
        spec = GridSpec(dimension, qubits, box2())
        assert spec.total_points == 1 << (2 * int(qubits))

    def test_axis_coordinates_endpoints_exact(self):
        spec = GridSpec(2, 3, box2(-5.12, 5.12))
        xs = spec.axis_coordinates(0)
        assert xs[0] == -5.12
        assert xs[-1] == 5.12
        assert len(xs) == 8


class TestCoordinate:
    def test_endpoints(self):
        spec = GridSpec(1, 3, SearchBox.cube(1, -5.12, 5.12))
        assert coordinate(spec, 0, 0) == -5.12
        assert coordinate(spec, 0, 7) == 5.12

    def test_interior_value(self):
        # j=3 of 8 points on [-5.12, 5.12]: -5.12 + 3 * 10.24/7
        spec = GridSpec(1, 3, SearchBox.cube(1, -5.12, 5.12))
        assert coordinate(spec, 0, 3) == -0.7314285714285713

    def test_uniform_spacing(self):
        spec = GridSpec(1, 4, SearchBox.cube(1, 0.0, 1.0))
        xs = [coordinate(spec, 0, j) for j in range(16)]
        steps = np.diff(xs)
        assert np.allclose(steps, 1.0 / 15)

    def test_degenerate_axis(self):
        spec = GridSpec(2, 2, SearchBox(np.array([1.0, 0.0]), np.array([1.0, 4.0])))
        assert coordinate(spec, 0, 0) == 1.0
        assert coordinate(spec, 0, 3) == 1.0

    def test_out_of_range(self):
        spec = GridSpec(1, 2, SearchBox.cube(1, 0.0, 1.0))
        with pytest.raises(IndexError):
            coordinate(spec, 0, 4)
        with pytest.raises(IndexError):
            coordinate(spec, 1, 0)

    @pytest.mark.parametrize("j", [2.5, 0.5, np.float64(1.25), np.nan])
    def test_non_integral_index(self, j):
        # was truncated to index 2's (or 0's, or 1's) coordinate
        spec = GridSpec(1, 2, SearchBox.cube(1, 0.0, 1.0))
        with pytest.raises(IndexError):
            coordinate(spec, 0, j)

    def test_integral_floats_and_numpy_ints_are_indices(self):
        spec = GridSpec(1, 2, SearchBox.cube(1, 0.0, 3.0))
        assert [coordinate(spec, 0, j) for j in (2.0, np.int64(2), np.uint8(2))] == [2.0] * 3


class TestCodec:
    def test_decode_bit_layout(self):
        # dimension 0 occupies the most significant qubit group
        spec = GridSpec(2, 3, box2(0.0, 7.0))
        flat = 0b101_011  # j0=5, j1=3
        assert np.array_equal(decode(spec, flat), [5.0, 3.0])

    def test_decode_extremes(self):
        spec = GridSpec(2, 5, box2())
        assert np.array_equal(decode(spec, 0), [-5.12, -5.12])
        assert np.array_equal(decode(spec, spec.total_points - 1), [5.12, 5.12])

    def test_decode_range_check(self):
        spec = GridSpec(2, 2, box2())
        with pytest.raises(IndexError):
            decode(spec, 16)
        with pytest.raises(IndexError):
            decode(spec, -1)

    @pytest.mark.parametrize("flat", [3.5, 0.25, np.float64(15.5), np.nan, np.inf, 1e30])
    def test_decode_rejects_a_non_integral_index(self, flat):
        # 3.5 decoded to point 3, and 0.25 to point 0
        spec = GridSpec(2, 2, box2())
        with pytest.raises(IndexError):
            decode(spec, flat)
        with pytest.raises(IndexError):
            decode_many(spec, [flat])

    @pytest.mark.parametrize("flats", [[2.7], [0.0, 2.7, 3.0], np.array([1.0, 2.5]), 5.5,
                                       [np.nan], [-np.inf]])
    def test_decode_many_rejects_non_integral_indices(self, flats):
        spec = GridSpec(2, 2, box2())
        with pytest.raises(IndexError):
            decode_many(spec, flats)

    def test_integral_floats_decode_as_their_index(self):
        spec = GridSpec(2, 2, box2(0.0, 3.0))
        ref = decode_many(spec, [0, 7, 15])
        assert decode_many(spec, [0.0, 7.0, 15.0]).tobytes() == ref.tobytes()
        assert decode_many(spec, np.array([0, 7, 15], dtype=np.uint16)).tobytes() == ref.tobytes()
        assert decode(spec, 7.0).tobytes() == ref[1].tobytes()
        assert decode_many(spec, []).shape == (0, 2)

    def test_decode_many_matches_decode(self):
        spec = GridSpec(3, 2, SearchBox.cube(3, -2.0, 3.0))
        flats = np.arange(spec.total_points)
        pts = decode_many(spec, flats)
        assert pts.shape == (64, 3)
        for flat in (0, 1, 17, 63):
            assert np.array_equal(pts[flat], decode(spec, flat))

    def test_decoding_a_point_builds_no_axis_table(self):
        # a table of all 2^24 coordinates of the axis would take 128 MB
        spec = GridSpec(1, 24, SearchBox.cube(1, -5.0, 7.0))
        last = spec.total_points - 1
        tracemalloc.start()
        try:
            point = decode(spec, 12345)
            corners = decode_many(spec, [0, last])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64_000
        assert point[0] == -5.0 + 12345 * (12.0 / last)
        assert corners.tolist() == [[-5.0], [7.0]]

    @pytest.mark.parametrize("d,n", [(1, 1), (1, 6), (2, 3), (3, 2), (4, 2)])
    def test_decode_many_equals_scalar_coordinate(self, d, n):
        # awkward widths, a zero-width axis and a negative-zero bound
        rng = np.random.default_rng(10 * d + n)
        lower = rng.uniform(-1e3, 1e3, d)
        upper = lower + rng.uniform(0.0, 7.3, d)
        upper[0] = lower[0]
        lower[-1], upper[-1] = -0.0, 1.9
        spec = GridSpec(d, n, SearchBox(lower, upper))
        flats = np.arange(spec.total_points)
        digits = [
            [(flat >> (n * (d - 1 - i))) % 2**n for i in range(d)] for flat in range(2 ** (n * d))
        ]
        ref = np.array([[coordinate(spec, i, j) for i, j in enumerate(js)] for js in digits])
        got = decode_many(spec, flats)
        assert got.flags.c_contiguous
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
        shuffled = rng.permutation(flats)
        assert np.array_equal(decode_many(spec, shuffled), ref[shuffled])

    def test_encode_inverse(self):
        spec = GridSpec(2, 4, box2())
        for flat in (0, 1, 100, 255):
            assert encode(spec, decode(spec, flat)) == flat

    def test_encode_off_grid(self):
        spec = GridSpec(1, 2, SearchBox.cube(1, 0.0, 3.0))
        with pytest.raises(OffGridError):
            encode(spec, np.array([0.4]))

    def test_encode_outside_box(self):
        spec = GridSpec(1, 2, SearchBox.cube(1, 0.0, 3.0))
        with pytest.raises(OffGridError):
            encode(spec, np.array([5.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("lower,upper", [([0.0, 0.0], [3.0, 3.0]), ([0.0, 1.0], [3.0, 1.0])])
    def test_encode_rejects_a_non_finite_coordinate(self, lower, upper, bad):
        # int(round(nan)) raised ValueError, int(round(inf)) OverflowError,
        # and a zero-width axis OffGridError
        spec = GridSpec(2, 2, SearchBox(np.array(lower), np.array(upper)))
        for point in ([0.0, bad], [bad, 1.0]):
            with pytest.raises(InvalidInputError, match="point must be finite"):
                encode(spec, np.array(point))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_codec_round_trip_property(data):
    d = data.draw(st.integers(1, 4), label="dimension")
    n = data.draw(st.integers(1, max(1, 12 // d)), label="qubits")
    lo = data.draw(st.floats(-1e6, 1e6), label="lo")
    width = data.draw(st.floats(1e-3, 1e6), label="width")
    spec = GridSpec(d, n, SearchBox.cube(d, lo, lo + width))
    flat = data.draw(st.integers(0, spec.total_points - 1), label="flat")
    point = decode(spec, flat)
    assert encode(spec, point) == flat
    assert spec.bounds.contains(point)
