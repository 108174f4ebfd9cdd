"""Tests for depth-map error metrics and the comparison grid."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fracfocus import depth, evaluate, focus, kernel2d
from fracfocus.depth import recover_depth
from fracfocus.evaluate import (EmptyMaskError, ComparisonTable, ErrorReport,
                                axis_profile, comparison_table,
                                rms_error_percent)
from fracfocus.focus import focus_volume
from fracfocus.grids import DepthMap, FocalStack
from fracfocus.io import (StackHeader, read_stack_dir, read_stack_header,
                          write_stack_dir)
from fracfocus.kernel2d import build_kernel
from fracfocus.synth import SceneSpec, ground_truth
from table_reference import reference_table


def _map(values, valid=None, **meta):
    values = np.asarray(values, dtype=float)
    if valid is None:
        valid = np.ones(values.shape, dtype=bool)
    return DepthMap(values=values, valid=valid, **meta)


def _report(rms_percent):
    """Bare ErrorReport carrying only an error figure, for table tests."""
    return ErrorReport(rms_percent=rms_percent,
                       rms_absolute=rms_percent / 100.0,
                       n_valid=1, n_total=1, z_range=1.0)


class TestRmsErrorPercent:

    def test_identical_maps_have_zero_error(self):
        rng = np.random.default_rng(3)
        m = _map(rng.uniform(0.0, 1.0, size=(6, 6)))
        report = rms_error_percent(m, m, z_range=1.0)
        assert report.rms_percent == 0.0
        assert report.rms_absolute == 0.0
        assert (report.n_valid, report.n_total) == (36, 36)

    def test_uniform_offset_is_percent_of_range(self):
        """A constant 0.01 error over a unit range reads as 1.0 percent."""
        truth = _map(np.full((4, 4), 0.5))
        recovered = _map(np.full((4, 4), 0.51))
        report = rms_error_percent(recovered, truth, z_range=1.0)
        assert report.rms_percent == pytest.approx(1.0, rel=1e-12)
        assert report.rms_absolute == pytest.approx(0.01, rel=1e-12)

    def test_matches_hand_loop_over_joint_mask(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(8, 8))
        b = rng.normal(size=(8, 8))
        va = rng.random((8, 8)) < 0.7
        vb = rng.random((8, 8)) < 0.7
        va[0, 0] = vb[0, 0] = True  # guarantee an overlap
        total, count = 0.0, 0
        for i in range(8):
            for j in range(8):
                if va[i, j] and vb[i, j]:
                    d = a[i, j] - b[i, j]
                    total += d * d
                    count += 1
        expected = 100.0 * math.sqrt(total / count) / 2.5
        report = rms_error_percent(_map(a, va), _map(b, vb), z_range=2.5)
        assert report.rms_percent == pytest.approx(expected, rel=1e-12)
        assert report.n_valid == count
        assert report.n_total == 64

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            rms_error_percent(_map(np.zeros((4, 4))),
                              _map(np.zeros((4, 5))), z_range=1.0)

    def test_disjoint_masks_raise(self):
        left = np.zeros((3, 3), dtype=bool)
        left[:, 0] = True
        right = np.zeros((3, 3), dtype=bool)
        right[:, 2] = True
        with pytest.raises(EmptyMaskError):
            rms_error_percent(_map(np.zeros((3, 3)), left),
                              _map(np.zeros((3, 3)), right), z_range=1.0)
        assert issubclass(EmptyMaskError, ValueError)

    def test_range_defaults_to_recovered_metadata(self):
        truth = _map(np.full((4, 4), 0.2))
        recovered = _map(np.full((4, 4), 0.3), z_min=0.0, z_max=2.0)
        implicit = rms_error_percent(recovered, truth)
        explicit = rms_error_percent(recovered, truth, z_range=2.0)
        assert implicit.rms_percent == explicit.rms_percent
        assert implicit.z_range == explicit.z_range == 2.0

    def test_missing_metadata_requires_explicit_range(self):
        bare = _map(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="z_range"):
            rms_error_percent(bare, bare)

    # An infinite range would read every error as 0%.
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf])
    def test_non_positive_range_rejected(self, bad):
        m = _map(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="finite and positive"):
            rms_error_percent(m, m, z_range=bad)

    def test_symmetric_in_argument_order(self):
        rng = np.random.default_rng(9)
        a = _map(rng.normal(size=(5, 5)))
        b = _map(rng.normal(size=(5, 5)))
        fwd = rms_error_percent(a, b, z_range=1.0)
        rev = rms_error_percent(b, a, z_range=1.0)
        assert fwd.rms_percent == rev.rms_percent

    def test_error_scales_linearly(self):
        rng = np.random.default_rng(21)
        base = rng.uniform(size=(6, 6))
        err = rng.normal(size=(6, 6))
        truth = _map(base)
        one = rms_error_percent(_map(base + err), truth, z_range=1.0)
        two = rms_error_percent(_map(base + 2.0 * err), truth, z_range=1.0)
        assert two.rms_percent == pytest.approx(2.0 * one.rms_percent,
                                                rel=1e-12)

    def test_values_at_invalid_pixels_are_ignored(self):
        valid = np.ones((5, 5), dtype=bool)
        valid[2, 2] = False
        values = np.linspace(0.0, 1.0, 25).reshape(5, 5)
        truth = _map(np.full((5, 5), 0.5))
        tame = values.copy()
        wild = values.copy()
        wild[2, 2] = 1e9
        a = rms_error_percent(_map(tame, valid), truth, z_range=1.0)
        b = rms_error_percent(_map(wild, valid), truth, z_range=1.0)
        assert a.rms_percent == b.rms_percent
        assert a.n_valid == 24

    def test_metadata_passthrough(self):
        recovered = _map(np.zeros((3, 3)), q=2, alpha=1.5, zeta=4,
                         z_min=0.0, z_max=1.0)
        report = rms_error_percent(recovered, _map(np.zeros((3, 3))))
        assert report.method == "nonlocal"
        assert (report.q, report.alpha, report.zeta) == (2, 1.5, 4)

    def test_coverage_fraction(self):
        valid = np.zeros((3, 4), dtype=bool)
        valid.flat[:5] = True
        m = _map(np.zeros((3, 4)), valid)
        report = rms_error_percent(m, _map(np.zeros((3, 4))), z_range=1.0)
        assert (report.n_valid, report.n_total) == (5, 12)


@pytest.fixture(scope="module")
def table(small_plane):
    return comparison_table(small_plane.stack, small_plane.truth, q=2,
                            alphas=(0.0, 1.5), zetas=(1, 3))


class TestComparisonTable:
    """Grid sweep over (zeta, alpha) against the plain local pipeline."""

    def test_grid_holds_all_requested_cells(self, table):
        assert set(table.grid) == {(1, 0.0), (1, 1.5), (3, 0.0), (3, 1.5)}
        assert table.q == 2
        assert table.alphas == (0.0, 1.5)
        assert table.zetas == (1, 3)

    def test_alpha_zero_column_equals_local_at_base_stride(self, table,
                                                           small_plane):
        """The alpha = 0 kernel is a delta, so every alpha = 0 cell must
        reproduce the plain local result at the table's stride exactly."""
        stack, truth = small_plane.stack, small_plane.truth
        direct = rms_error_percent(recover_depth(focus_volume(stack, 2)),
                                   truth, z_range=stack.z_max - stack.z_min)
        for zeta in table.zetas:
            assert table.rms(zeta, 0.0) == direct.rms_percent

    def test_single_cell_matches_direct_pipeline(self, small_plane):
        stack, truth = small_plane.stack, small_plane.truth
        z_range = stack.z_max - stack.z_min
        table = comparison_table(stack, truth, q=2, alphas=(1.5,), zetas=(3,),
                                 local_strides=(2,))
        cell = rms_error_percent(
            recover_depth(focus_volume(stack, 2, build_kernel(1.5, 3))),
            truth, z_range)
        assert table.rms(3, 1.5) == cell.rms_percent
        loc = rms_error_percent(recover_depth(focus_volume(stack, 2)), truth,
                                z_range)
        assert table.local[2].rms_percent == loc.rms_percent

    def test_local_column_defaults_to_zetas(self, table, small_plane):
        assert set(table.local) == {1, 3}
        stack, truth = small_plane.stack, small_plane.truth
        direct = rms_error_percent(recover_depth(focus_volume(stack, 1)),
                                   truth, z_range=stack.z_max - stack.z_min)
        assert table.local[1].rms_percent == direct.rms_percent

    def test_each_search_is_scored_once(self, monkeypatch, small_plane):
        """The default grid at q = 4 has 20 cells and 4 local entries, and
        20 peak searches answer them: the base (the four alpha = 0 cells
        and q' = 4), 16 kernel passes and the local measure at q' = 1, 2,
        3.  Each search builds one depth map and scores it once."""
        calls = []  # appended to from the pool's threads
        depth_map = depth.PeakSearch.depth_map
        score = evaluate.rms_error_percent

        def counted_map(self, **params):
            calls.append("depth_map")
            return depth_map(self, **params)

        def counted_score(*args):
            calls.append("rms_error_percent")
            return score(*args)

        monkeypatch.setattr(depth.PeakSearch, "depth_map", counted_map)
        monkeypatch.setattr(evaluate, "rms_error_percent", counted_score)
        table = comparison_table(small_plane.stack, small_plane.truth, q=4)
        assert len(table.grid) + len(table.local) == 24
        assert calls.count("depth_map") == 20
        assert calls.count("rms_error_percent") == 20

    def test_cells_carry_method_metadata(self, table):
        cell = table.grid[(3, 1.5)]
        assert cell.method == "nonlocal"
        assert (cell.q, cell.alpha, cell.zeta) == (2, 1.5, 3)
        assert table.local[1].method == "local"
        assert table.local[1].q == 1

    def test_format_layout(self, table):
        text = table.format()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert len(lines) == 1 + len(table.zetas)
        header = lines[0].split(",")
        assert header[0] == "zeta"
        assert header[1:-1] == [f"alpha={a:g}" for a in table.alphas]
        assert header[-1] == "local_at_q_prime_eq_zeta"
        for zeta, line in zip(table.zetas, lines[1:]):
            cells = line.split(",")
            assert len(cells) == len(header)
            assert cells[0] == str(zeta)
            assert cells[1:-1] == [format(table.rms(zeta, a), ".9g")
                                   for a in table.alphas]
            assert cells[-1] == format(table.local[zeta].rms_percent, ".9g")

    def test_format_pins_csv_bytes(self):
        table = ComparisonTable(q=1, alphas=(0.0, 1.5), zetas=(1, 2),
                                grid={(1, 0.0): _report(2.0),
                                      (1, 1.5): _report(1.0 / 3.0),
                                      (2, 0.0): _report(2.0),
                                      (2, 1.5): _report(0.25)},
                                local={1: _report(2.0)})
        assert table.format() == (
            "zeta,alpha=0,alpha=1.5,local_at_q_prime_eq_zeta\n"
            "1,2,0.333333333,2\n"
            "2,2,0.25,\n")

    def test_empty_parameter_lists_rejected(self, small_plane):
        stack, truth = small_plane.stack, small_plane.truth
        with pytest.raises(ValueError):
            comparison_table(stack, truth, q=1, alphas=())
        with pytest.raises(ValueError):
            comparison_table(stack, truth, q=1, zetas=())

    def test_spread_ignores_alpha_zero_cells(self):
        table = ComparisonTable(q=1, alphas=(0.0, 0.5, 1.0), zetas=(1,),
                                grid={(1, 0.0): _report(50.0),
                                      (1, 0.5): _report(2.0),
                                      (1, 1.0): _report(3.0)})
        assert table.spread() == pytest.approx(1.5)

    def test_spread_with_a_perfect_cell(self):
        table = ComparisonTable(q=1, alphas=(0.5, 1.0), zetas=(1,),
                                grid={(1, 0.5): _report(0.0),
                                      (1, 1.0): _report(1.0)})
        assert table.spread() == float("inf")

    def test_spread_requires_positive_alpha(self):
        table = ComparisonTable(q=1, alphas=(0.0,), zetas=(1,),
                                grid={(1, 0.0): _report(1.0)})
        with pytest.raises(ValueError):
            table.spread()


# A few slide values, so that exact ties between focus layers are common.
_FEW = st.sampled_from([0.0, 0.25, 1.0, 1.0, 3.0])


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(3, 6), st.integers(7, 9),
                                    st.integers(7, 9)),
              elements=_FEW, fill=st.nothing()),
       st.integers(1, 3),
       st.lists(st.sampled_from([0.0, 0.5, 1.5, 2.0]), min_size=1,
                max_size=4),
       st.lists(st.integers(1, 3), min_size=1, max_size=3),
       st.none() | st.lists(st.integers(1, 3), min_size=1, max_size=3),
       st.integers(0, 2**32 - 1))
# Repeated zetas, alpha 0 and 2, and strides without q.
@example(np.multiply.outer([0.25, 1.0, 3.0, 3.0, 1.0],
                           np.indices((8, 8)).sum(axis=0) % 2),
         2, [0.0, 2.0, 0.5], [3, 1, 3], [1, 3], 0)
# The claims grid: unsorted cutoffs, alpha 0 and 1.9, and default strides
# of which 12 leaves no pixel inside its frame.
@example(np.multiply.outer([0.25, 1.0, 3.0, 3.0, 1.0, 0.25],
                           np.indices((20, 20)).sum(axis=0) % 3),
         1, [0.0, 0.5, 1.0, 1.5, 1.9, 2.0], [12, 2, 8, 4], None, 0)
def test_table_matches_one_volume_per_cell(data, q, alphas, zetas,
                                           local_strides, seed):
    rng = np.random.default_rng(seed)
    stack = FocalStack(data, z_min=0.0, z_max=1.0, h=0.5)
    truth = _map(rng.random(data.shape[1:]), rng.random(data.shape[1:]) < 0.9)
    args = (stack, truth, q, tuple(alphas), tuple(zetas),
            None if local_strides is None else tuple(local_strides))
    try:
        want = reference_table(*args)
    except EmptyMaskError:
        want = None
    for cpus in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel2d, "_usable_cpus", lambda: cpus)
            if want is None:
                with pytest.raises(EmptyMaskError):
                    comparison_table(*args)
                continue
            got = comparison_table(*args)
        # Every report, its method, q, alpha and zeta included, in order.
        assert list(got.grid.items()) == list(want.grid.items())
        assert list(got.local.items()) == list(want.local.items())
        assert (got.q, got.alphas, got.zetas) == (want.q, want.alphas,
                                                   want.zetas)
        assert got.format() == want.format()


def test_table_cells_under_thread_stress(monkeypatch, small_plane):
    """Eight workers and a short switch interval: a layer that came from
    another's ring slot or workspace would not match the reference."""
    args = (small_plane.stack, small_plane.truth, 2, (0.0, 0.5, 2.0), (1, 3),
            (1, 2, 4))
    want = reference_table(*args)
    monkeypatch.setattr(kernel2d, "_usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = comparison_table(*args)
    finally:
        sys.setswitchinterval(interval)
    assert got == want


@pytest.mark.parametrize("lossless", [False, True], ids=["pgm", "npy"])
def test_table_from_stack_directory_matches_loaded_stack(tmp_path,
                                                         small_plane,
                                                         lossless):
    """A stack directory's header as the slide source gives the table of
    the stack loaded whole, report for report, for any CPU count."""
    write_stack_dir(tmp_path, small_plane.stack, lossless=lossless)
    header, stack = read_stack_header(tmp_path), read_stack_dir(tmp_path)
    params = (small_plane.truth, 2, (0.0, 1.5, 2.0), (3, 1), (1, 2, 4))
    want = reference_table(stack, *params)
    for cpus in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel2d, "_usable_cpus", lambda: cpus)
            for source in (header, stack):
                got = comparison_table(source, *params)
                assert list(got.grid.items()) == list(want.grid.items())
                assert list(got.local.items()) == list(want.local.items())
                assert got == want


def test_table_holds_no_volume_per_cell(monkeypatch):
    """The table streams every cell from the stack and holds no volume:
    the traced peak of a 4 x 5 grid on 64 slides is within 1 MiB of its
    peak on 8 slides of the same size (the 56 more slides are 1.75 MiB
    of focus measure)."""
    monkeypatch.setattr(kernel2d, "_usable_cpus", lambda: 1)
    rng = np.random.default_rng(21)
    stack = FocalStack(rng.random((64, 64, 64)), z_min=0.0, z_max=1.0)
    truth = _map(rng.random((64, 64)))

    def peak(n: int) -> int:
        part = FocalStack(stack.data[:n], z_min=0.0, z_max=1.0)
        tracemalloc.start()
        try:
            comparison_table(part, truth, q=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # A first table makes the imports that the kernel build needs, whose
    # objects would otherwise count towards the peak.
    peak(3)
    small, large = peak(8), peak(64)
    assert large <= small + 2 ** 20, (small, large)


@pytest.mark.parametrize("bad", [{"local_strides": (1, 24)},
                                 {"alphas": (1.5, 3.0)},
                                 {"zetas": (2, 0)},
                                 {"truth": _map(np.zeros((5, 7)))}])
def test_bad_parameters_fail_before_the_first_pass(monkeypatch, small_plane,
                                                    bad):
    # Every layer of the table goes through kernel2d._pass_into, the local
    # measure's identity pass included: the good grid makes 27 passes (the
    # 9 slides of three streams), a bad one none.
    passes = []
    for module in (kernel2d, focus):
        def counted(*args, _original=module._pass_into):
            passes.append(1)
            return _original(*args)
        monkeypatch.setattr(module, "_pass_into", counted)
    args = {"truth": small_plane.truth, "q": 2, "alphas": (1.5,),
            "zetas": (1, 2)}
    comparison_table(small_plane.stack, **args)
    assert len(passes) == 27
    passes.clear()
    with pytest.raises(ValueError):
        comparison_table(small_plane.stack, **{**args, **bad})
    assert not passes


# 1/(q h)^2 is finite at q = 2 and overflows at q = 1.
@pytest.mark.parametrize("q, local_strides", [(2, (1,)), (1, (2,))])
def test_spacing_is_checked_before_any_slide(tmp_path, q, local_strides):
    # No slide file exists: a read would fail with another message.
    header = StackHeader(directory=tmp_path, n_slides=3, height=12, width=12,
                         z_min=0.0, z_max=1.0, h=7e-155, lossless=True)
    with pytest.raises(ValueError, match="spacing"):
        comparison_table(header, _map(np.zeros((12, 12))), q=q,
                         alphas=(1.5,), zetas=(1,),
                         local_strides=local_strides)


def _overflow_case(name):
    """A 12 x 12 stack of three equal slides and the table arguments under
    which one source of layers overflows, named by ``name``."""
    ii = np.arange(12.0)
    if name == "base":
        data = np.zeros((12, 12))
        data[5, 5] = 1e308
        return FocalStack(np.broadcast_to(data, (3, 12, 12)), 0.0, 1.0), {
            "q": 1}
    if name == "pass":
        # The local measure at q = 1 is 2e300 / h^2 = 8e306; the alpha = 2
        # kernel's weights sum to 81 at zeta = 4.
        data = np.broadcast_to(1e300 * ii ** 2, (3, 12, 12))
        return FocalStack(data, 0.0, 1.0, h=5e-4), {
            "q": 1, "alphas": (2.0,), "zetas": (4,), "local_strides": (1,)}
    # "stride": a checkerboard adds 8e300 / h^2 to the measure at q' = 1,
    # which overflows, and nothing at the base stride q = 2.
    checker = np.where((ii[:, None] + ii) % 2 == 0, 1e300, -1e300)
    data = np.broadcast_to(checker + 1e299 * ii ** 2, (3, 12, 12))
    return FocalStack(data, 0.0, 1.0, h=1e-4), {
        "q": 2, "alphas": (0.0,), "zetas": (1,), "local_strides": (1,)}


@pytest.mark.parametrize("name", ["base", "pass", "stride"])
def test_overflowing_layers_are_refused(name):
    # The suite turns any numpy warning into an error, so this also shows
    # that the overflow warns of nothing.
    stack, args = _overflow_case(name)
    truth = _map(np.zeros((12, 12)))
    with pytest.raises(ValueError, match="finite"):
        comparison_table(stack, truth, **args)


class TestAxisProfile:

    def _sphere_truth(self):
        scene = SceneSpec(kind="sphere", radius=1.0)
        return ground_truth(scene, width=21, height=21, h=0.12)

    def test_perfect_recovery_pairs_equal(self):
        truth = self._sphere_truth()
        profile = axis_profile(truth, truth, axis="y")
        assert profile
        for _, recovered_z, true_z in profile:
            assert recovered_z == true_z

    def test_sphere_center_column_is_circle_arc(self):
        """Down the middle of the sphere the depth is sqrt(1 - y^2)."""
        truth = self._sphere_truth()
        profile = axis_profile(truth, truth, axis="y")
        coords = [c for c, _, _ in profile]
        assert coords == pytest.approx([(i - 10) * 0.12 for i in range(2, 19)])
        for y, _, true_z in profile:
            assert true_z == pytest.approx(math.sqrt(1.0 - y * y), abs=1e-12)

    def test_skips_jointly_invalid_pixels(self):
        values = np.zeros((9, 9))
        holes = np.ones((9, 9), dtype=bool)
        holes[2:5, 4] = False
        profile = axis_profile(_map(values, holes), _map(values), axis="y")
        assert len(profile) == 6
        coords = {c for c, _, _ in profile}
        assert all((i - 4.0) not in coords for i in (2, 3, 4))

    def test_x_axis_walks_middle_row(self):
        values = np.arange(35, dtype=float).reshape(5, 7)
        profile = axis_profile(_map(values), _map(values), axis="x")
        assert [r for _, r, _ in profile] == list(values[2, :])
        assert [c for c, _, _ in profile] == [float(j - 3) for j in range(7)]

    def test_spacing_scales_coordinates(self):
        values = np.zeros((3, 5))
        profile = axis_profile(_map(values, h=0.5), _map(values), axis="x")
        assert [c for c, _, _ in profile] == [-1.0, -0.5, 0.0, 0.5, 1.0]

    def test_axis_validation(self):
        m = _map(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="axis"):
            axis_profile(m, m, axis="z")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            axis_profile(_map(np.zeros((3, 3))), _map(np.zeros((4, 3))))
