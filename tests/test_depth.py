"""Tests for sub-slice peak fitting and depth-map recovery."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from depth_reference import batch_recover_depth

from fracfocus.depth import PeakFit, PeakSearch, parabolic_peak, recover_depth
from fracfocus.focus import focus_volume
from fracfocus.grids import FocalStack, FocusVolume


def _column_volume(columns, z_min=0.0, z_max=1.0, q=1, alpha=None, zeta=None):
    """Volume whose (0, i) pixel carries the i-th of the given focus columns."""
    data = np.array(columns, dtype=float).T[:, None, :]
    return FocusVolume(data, q=q, z_min=z_min, z_max=z_max, h=1.0,
                       alpha=alpha, zeta=zeta)


class TestParabolicPeak:
    def test_symmetric_triple_centres(self):
        fit = parabolic_peak(1.0, 3.0, 1.0)
        assert fit == PeakFit(0.0, False)

    def test_right_leaning_triple_hits_half(self):
        fit = parabolic_peak(1.0, 2.0, 2.0)
        assert fit.offset == 0.5
        assert not fit.degenerate

    def test_left_leaning_triple_hits_minus_half(self):
        fit = parabolic_peak(2.0, 2.0, 1.0)
        assert fit.offset == -0.5
        assert not fit.degenerate

    def test_exact_on_sampled_parabolas(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            vertex = rng.uniform(-0.5, 0.5)
            curvature = rng.uniform(0.1, 3.0)
            height = rng.uniform(1.0, 5.0)
            rho = [height - curvature * (k - vertex) ** 2 for k in (-1.0, 0.0, 1.0)]
            fit = parabolic_peak(*rho)
            assert not fit.degenerate
            assert abs(fit.offset - vertex) <= 1e-12

    def test_vertex_outside_bracket_is_clamped(self):
        rho = [-((k - 0.8) ** 2) for k in (-1.0, 0.0, 1.0)]
        assert parabolic_peak(*rho).offset == 0.5
        rho = [-((k + 1.3) ** 2) for k in (-1.0, 0.0, 1.0)]
        assert parabolic_peak(*rho).offset == -0.5

    @pytest.mark.parametrize("triple", [(2.0, 2.0, 2.0), (0.0, 0.0, 0.0),
                                        (1.0, 2.0, 3.0)])
    def test_flat_or_linear_triples_are_degenerate(self, triple):
        fit = parabolic_peak(*triple)
        assert fit.degenerate
        assert fit.offset == 0.0

    def test_degeneracy_threshold_is_relative(self):
        # Curvature at 4e-13 of the sample magnitude is below the 1e-12
        # relative guard; at 1e-6 it is a genuine (zero-offset) parabola.
        assert parabolic_peak(1.0, 1.0 + 4e-13, 1.0).degenerate
        fit = parabolic_peak(1.0, 1.0 + 1e-6, 1.0)
        assert not fit.degenerate
        assert fit.offset == 0.0

    @pytest.mark.parametrize("triple", [(1.0, 3.0, 2.0), (14.0, 15.0, 3.0),
                                        (0.5, 15.0, 15.0), (-7.0, 1.0, 9.0),
                                        (15.0, 15.0, 15.0), (2.0, 9.0, 1.0)])
    def test_huge_triples_fit_like_their_scaled_down_copies(self, triple):
        # Up to 15 * 2**1020, where 2 rho_0 and the denominator would
        # overflow: the fit is that of the same triple at magnitude 1.
        big = [value * 2.0 ** 1020 for value in triple]
        with np.errstate(all="raise"):
            assert parabolic_peak(*big) == parabolic_peak(*triple)


class TestRecoverDepth:
    def test_symmetric_three_slide_column_lands_mid_range(self):
        volume = _column_volume([[0.1, 0.9, 0.1]])
        depth = recover_depth(volume)
        assert depth.valid[0, 0]
        assert depth.values[0, 0] == 0.5

    def test_boundary_peaks_snap_to_range_ends(self):
        volume = _column_volume([[3.0, 2.0, 1.0], [1.0, 2.0, 5.0]])
        depth = recover_depth(volume)
        assert depth.valid.all()
        assert depth.values[0, 0] == 0.0
        assert depth.values[0, 1] == 1.0

    def test_all_zero_column_is_invalid_not_fatal(self):
        volume = _column_volume([[0.0, 0.0, 0.0], [0.1, 0.9, 0.1]])
        depth = recover_depth(volume)
        assert not depth.valid[0, 0]
        assert np.isnan(depth.values[0, 0])
        assert depth.valid[0, 1]

    def test_tie_breaks_to_first_maximum(self):
        volume = _column_volume([[1.0, 5.0, 5.0, 1.0]], z_max=3.0)
        depth = recover_depth(volume)
        # argmax picks k = 1; the flat-topped triple leans right by half.
        assert depth.values[0, 0] == 1.5

    def test_nearly_flat_interior_peak_stays_valid(self):
        volume = _column_volume([[1.0 - 1e-13, 1.0, 1.0 - 1e-13]])
        depth = recover_depth(volume)
        assert depth.valid[0, 0]
        assert depth.values[0, 0] == 0.5

    def test_recovers_parabolic_columns_to_machine_precision(self):
        rng = np.random.default_rng(33)
        n, width = 7, 400
        vertices = rng.uniform(2.5, 3.5, width)
        k = np.arange(n)[:, None]
        data = (50.0 - (k - vertices[None, :]) ** 2)[:, None, :]
        volume = FocusVolume(data, q=1, z_min=0.0, z_max=3.0, h=1.0)
        depth = recover_depth(volume)
        expected = vertices * (3.0 / (n - 1))
        assert depth.valid.all()
        assert np.max(np.abs(depth.values[0] - expected)) <= 1e-12

    def test_values_stay_inside_z_range(self):
        rng = np.random.default_rng(34)
        data = rng.random((6, 10, 10))
        volume = FocusVolume(data, q=1, z_min=0.2, z_max=0.8, h=1.0)
        depth = recover_depth(volume)
        assert np.all(depth.values[depth.valid] >= 0.2)
        assert np.all(depth.values[depth.valid] <= 0.8)

    def test_invariant_under_power_of_two_rescale(self):
        rng = np.random.default_rng(35)
        data = rng.random((8, 12, 12))
        base = FocusVolume(data, q=2, z_min=0.0, z_max=1.0, h=1.0)
        scaled = FocusVolume(data * 4.0, q=2, z_min=0.0, z_max=1.0, h=1.0)
        a = recover_depth(base)
        b = recover_depth(scaled)
        assert np.array_equal(a.values, b.values, equal_nan=True)
        assert np.array_equal(a.valid, b.valid)

    def test_invariant_under_rescale_to_the_top_of_the_range(self):
        # Focus values in [1, 2) * 2**1023, the largest finite binade.
        rng = np.random.default_rng(37)
        data = rng.uniform(1.0, 2.0, (8, 12, 12))
        base = FocusVolume(data, q=2, z_min=0.0, z_max=1.0, h=1.0)
        scaled = FocusVolume(data * 2.0 ** 1023, q=2, z_min=0.0, z_max=1.0,
                             h=1.0)
        a = recover_depth(base)
        with np.errstate(all="raise"):
            b = recover_depth(scaled)
        assert a.values.tobytes() == b.values.tobytes()
        assert np.array_equal(a.valid, b.valid)

    def test_stable_under_arbitrary_positive_rescale(self):
        rng = np.random.default_rng(36)
        data = rng.random((8, 12, 12))
        base = FocusVolume(data, q=2, z_min=0.0, z_max=1.0, h=1.0)
        scaled = FocusVolume(data * np.pi, q=2, z_min=0.0, z_max=1.0, h=1.0)
        a = recover_depth(base)
        b = recover_depth(scaled)
        assert np.array_equal(a.valid, b.valid)
        assert np.allclose(a.values, b.values, rtol=0, atol=1e-12, equal_nan=True)

    def test_metadata_propagates_from_volume(self):
        volume = _column_volume([[0.1, 0.9, 0.1]], z_min=0.5, z_max=2.0,
                                q=3, alpha=1.5, zeta=4)
        depth = recover_depth(volume)
        assert (depth.q, depth.alpha, depth.zeta) == (3, 1.5, 4)
        assert (depth.z_min, depth.z_max, depth.h) == (0.5, 2.0, 1.0)
        assert depth.method == "nonlocal"

    def test_local_volume_yields_local_method(self):
        volume = _column_volume([[0.1, 0.9, 0.1]])
        assert recover_depth(volume).method == "local"

    def test_masked_frame_comes_out_invalid(self):
        rng = np.random.default_rng(37)
        stack = FocalStack(rng.random((4, 16, 16)), z_min=0.0, z_max=1.0, h=1.0)
        q = 2
        depth = recover_depth(focus_volume(stack, q))
        assert not depth.valid[:q, :].any()
        assert not depth.valid[-q:, :].any()
        assert not depth.valid[:, :q].any()
        assert not depth.valid[:, -q:].any()
        assert depth.valid[q:-q, q:-q].all()

    def test_deterministic(self):
        rng = np.random.default_rng(38)
        data = rng.random((5, 9, 9))
        volume = FocusVolume(data, q=1, z_min=0.0, z_max=1.0, h=1.0)
        a = recover_depth(volume)
        b = recover_depth(volume)
        assert np.array_equal(a.values, b.values, equal_nan=True)
        assert np.array_equal(a.valid, b.valid)


_FOCUS = st.one_of(st.sampled_from([0.0, 5e-324, 1.0, 1e300]),
                   st.floats(0.0, 1e300))


@st.composite
def _middle_peak_triples(draw):
    """(rho_minus, rho_0, rho_plus) whose first maximum is rho_0.  Half of
    them are nearly flat, to reach the degeneracy threshold."""
    if draw(st.booleans()):
        triple = draw(st.tuples(_FOCUS, _FOCUS, _FOCUS))
    else:
        base = draw(st.floats(1e-300, 1e300))
        triple = [base * (1.0 + 10.0 ** -draw(st.floats(6.0, 17.0)))
                  for _ in range(3)]
    assume(max(triple) > min(triple))
    lo, mid, hi = sorted(triple)
    if hi > mid and draw(st.booleans()):
        return mid, hi, lo
    return lo, hi, mid


@settings(max_examples=200, deadline=None)
@given(st.lists(_middle_peak_triples(), min_size=1, max_size=8),
       st.floats(-10.0, 10.0), st.floats(1e-3, 10.0))
def test_middle_peak_depth_is_the_parabolic_vertex(columns, z_min, span):
    # recover_depth and parabolic_peak share one vertex formula, so the
    # depth of a middle-slide peak is the vertex bit for bit.
    volume = _column_volume(columns, z_min=z_min, z_max=z_min + span)
    depth = recover_depth(volume)
    assert (np.argmax(volume.data, axis=0) == 1).all()
    assert depth.valid.all()
    for i, triple in enumerate(columns):
        offset = parabolic_peak(*triple).offset
        delta_z = (volume.z_max - volume.z_min) / (len(volume.data) - 1)
        expected = z_min + (1 + offset) * delta_z
        assert depth.values[0, i].tobytes() == np.float64(expected).tobytes()


# A few values, so that exact ties between slides are common; 0 gives
# all-zero columns, and the tiny and huge ones reach the degeneracy guard.
_TIED = st.sampled_from([0.0, 0.0, 5e-324, 0.5, 1.0, 1.0, 2.0, 1e300])


@st.composite
def _tied_volumes(draw):
    n = draw(st.integers(3, 9))
    # fill=nothing: every element drawn on its own, not a repeated
    # background value, so interior peaks are common too.
    data = draw(arrays(np.float64, (n, draw(st.integers(1, 4)),
                                    draw(st.integers(1, 4))),
                       elements=_TIED, fill=st.nothing()))
    # Columns whose single peak sits on the first or the last slide, and
    # all-zero columns.
    data[:, 0, 0] = np.linspace(2.0, 1.0, n)
    if data.shape[2] > 1:
        data[:, 0, -1] = np.linspace(1.0, 2.0, n)
    if data.shape[1] > 1:
        data[:, -1, 0] = 0.0
    return data


@settings(max_examples=300, deadline=None)
@given(_tied_volumes(), st.sampled_from([None, 0.0, 1.5]),
       st.floats(-10.0, 10.0), st.floats(1e-3, 10.0))
def test_running_search_matches_batch_argmax(data, alpha, z_min, span):
    volume = FocusVolume(data, q=1, z_min=z_min, z_max=z_min + span, h=0.5,
                         alpha=alpha, zeta=None if alpha is None else 2)
    got = recover_depth(volume)
    want = batch_recover_depth(volume)
    assert got.values.tobytes() == want.values.tobytes()
    assert np.array_equal(got.valid, want.valid)
    assert (got.q, got.alpha, got.zeta, got.z_min, got.z_max, got.h) == (
        want.q, want.alpha, want.zeta, want.z_min, want.z_max, want.h)


@pytest.mark.parametrize("n", [255, 256, 257])
@pytest.mark.parametrize("before_last", [0, 1])
def test_running_search_outgrows_its_index_type(n, before_last):
    # k_hat starts as one byte a pixel and is widened when slide 256 is
    # pushed; the peak is on the last slide or on the one before it.
    peak = n - 1 - before_last
    column = np.arange(1.0, n + 1.0)
    column[peak + 1:] = peak + 0.25
    search = PeakSearch()
    for value in column:
        search.push(np.full((1, 1), value))
    assert search._k_hat[0, 0] == peak
    assert search._k_hat.dtype == np.min_scalar_type(n - 1)
    got = search.depth_map(q=1, z_min=0.0, z_max=n - 1.0)
    if not before_last:
        assert got.values[0, 0] == n - 1.0
    want = batch_recover_depth(_column_volume([column], z_max=n - 1.0))
    assert got.values.tobytes() == want.values.tobytes()
    assert np.array_equal(got.valid, want.valid)


def test_running_search_copies_each_layer():
    """The caller may reuse a layer's buffer once it has been pushed."""
    columns = np.array([[0.1, 0.9, 0.1, 0.3], [0.1, 0.2, 0.8, 0.4]]).T
    buffer = np.empty((1, 2))
    search = PeakSearch()
    for layer in columns:
        buffer[0] = layer
        search.push(buffer)
        buffer[0] = -1.0
    got = search.depth_map(q=1, z_min=0.0, z_max=3.0)
    want = recover_depth(_column_volume(columns.T.tolist(), z_max=3.0))
    assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("shape", [(5,), (1, 5)])
def test_running_search_rejects_a_layer_of_another_shape(shape):
    # Either would broadcast against the (4, 5) state without a check.
    search = PeakSearch()
    search.push(np.ones((4, 5)))
    with pytest.raises(ValueError, match=r"shape \(.*\) does not match"):
        search.push(np.ones(shape))


@pytest.mark.parametrize("slides", [0, 1])
def test_running_search_needs_two_slides(slides):
    search = PeakSearch()
    for _ in range(slides):
        search.push(np.ones((2, 2)))
    with pytest.raises(ValueError, match="at least 2 slides"):
        search.depth_map(q=1, z_min=0.0, z_max=1.0)
