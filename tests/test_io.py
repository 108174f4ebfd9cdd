"""Tests for PGM, CSV and stack-directory serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csv_reference import reference_depth_csv

from fracfocus.grids import DepthMap, FocalStack
from fracfocus.io import (StackFormatError, read_depth_csv, read_field_csv,
                          read_pgm, read_stack_dir, write_depth_csv,
                          write_field_csv, write_pgm, write_stack_dir)
from fracfocus.synth import BlurSpec, SceneSpec

QUANTUM = 1.0 / 255.0


def _depth_map(rng, shape=(6, 5), **meta):
    values = rng.uniform(0.0, 1.0, size=shape)
    valid = rng.random(shape) < 0.8
    values = np.where(valid, values, np.nan)
    return DepthMap(values=values, valid=valid, **meta)


def _stack(rng, n=4, height=6, width=5):
    data = rng.uniform(0.0, 1.0, size=(n, height, width))
    return FocalStack(data, z_min=0.0, z_max=1.0, h=0.1)


class TestPgm:

    def test_roundtrip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(0)
        field = rng.uniform(0.0, 1.0, size=(9, 7))
        target = tmp_path / "field.pgm"
        write_pgm(target, field)
        back = read_pgm(target)
        assert back.shape == field.shape
        assert np.max(np.abs(back - field)) <= 0.5 * QUANTUM + 1e-12

    def test_exact_for_byte_multiples(self, tmp_path):
        field = (np.arange(256, dtype=float) / 255.0).reshape(16, 16)
        target = tmp_path / "ramp.pgm"
        write_pgm(target, field)
        np.testing.assert_array_equal(read_pgm(target), field)

    def test_clips_out_of_range_values(self, tmp_path):
        field = np.array([[-0.5, 0.5], [1.7, 1.0]])
        target = tmp_path / "clip.pgm"
        write_pgm(target, field)
        back = read_pgm(target)
        assert back[0, 0] == 0.0
        assert back[1, 0] == 1.0

    def test_header_comments_skipped(self, tmp_path):
        raw = b"P5\n# made by hand\n4 3\n# maxval next\n255\n" + bytes(range(12))
        target = tmp_path / "commented.pgm"
        target.write_bytes(raw)
        back = read_pgm(target)
        assert back.shape == (3, 4)
        np.testing.assert_allclose(back.ravel(), np.arange(12) / 255.0)

    def test_space_separated_header(self, tmp_path):
        target = tmp_path / "spaces.pgm"
        target.write_bytes(b"P5 4 3 255\n" + bytes(range(12)))
        assert read_pgm(target).shape == (3, 4)

    def test_scales_by_maxval(self, tmp_path):
        target = tmp_path / "coarse.pgm"
        target.write_bytes(b"P5\n2 1\n100\n" + bytes([0, 50]))
        np.testing.assert_allclose(read_pgm(target), [[0.0, 0.5]])

    def test_rejects_wrong_magic(self, tmp_path):
        target = tmp_path / "color.ppm"
        target.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(ValueError, match="binary PGM"):
            read_pgm(target)

    def test_rejects_truncated_header(self, tmp_path):
        target = tmp_path / "short.pgm"
        target.write_bytes(b"P5\n4")
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(target)

    def test_rejects_truncated_raster(self, tmp_path):
        target = tmp_path / "cut.pgm"
        target.write_bytes(b"P5\n4 3\n255\n" + bytes(7))
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(target)

    def test_rejects_non_2d_input(self, tmp_path):
        with pytest.raises(ValueError, match="2D"):
            write_pgm(tmp_path / "bad.pgm", np.zeros(5))


class TestFieldCsv:

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        field = rng.normal(size=(5, 8)) * 10.0 ** rng.integers(-8, 9, (5, 8))
        target = tmp_path / "field.csv"
        write_field_csv(target, field)
        np.testing.assert_array_equal(read_field_csv(target), field)

    def test_single_row_and_column_stay_2d(self, tmp_path):
        for shape in [(1, 4), (4, 1)]:
            target = tmp_path / f"thin_{shape[0]}x{shape[1]}.csv"
            field = np.arange(4, dtype=float).reshape(shape)
            write_field_csv(target, field)
            back = read_field_csv(target)
            assert back.shape == shape
            np.testing.assert_array_equal(back, field)

    def test_rejects_non_2d_input(self, tmp_path):
        with pytest.raises(ValueError, match="2D"):
            write_field_csv(tmp_path / "bad.csv", np.zeros((2, 2, 2)))

    def test_nan_goes_out_as_literal_token(self, tmp_path):
        target = tmp_path / "field.csv"
        write_field_csv(target, np.array([[0.5, np.nan]]))
        assert target.read_text() == "0.5,NaN\n"

    @pytest.mark.parametrize("text", ["", "\n\n", "  \n\t\n"])
    def test_empty_or_blank_file_rejected_by_name(self, tmp_path, text):
        target = tmp_path / "blank.csv"
        target.write_text(text)
        with pytest.raises(ValueError, match="blank.csv: empty"):
            read_field_csv(target)

    def test_ragged_row_rejected_by_name(self, tmp_path):
        target = tmp_path / "ragged.csv"
        target.write_text("1,2\n3,4,5\n")
        with pytest.raises(ValueError, match="ragged.csv: ragged"):
            read_field_csv(target)

    def test_unparseable_token_rejected_by_name(self, tmp_path):
        target = tmp_path / "words.csv"
        target.write_text("1,two\n")
        with pytest.raises(ValueError, match="words.csv"):
            read_field_csv(target)

    def test_whitespace_only_lines_skipped(self, tmp_path):
        target = tmp_path / "gaps.csv"
        target.write_text("1,2\n   \n3,4\n")
        np.testing.assert_array_equal(read_field_csv(target),
                                      [[1.0, 2.0], [3.0, 4.0]])


class TestDepthCsv:

    def test_roundtrip_values_mask_and_metadata(self, tmp_path):
        rng = np.random.default_rng(2)
        original = _depth_map(rng, q=2, alpha=1.5, zeta=4,
                              z_min=0.0, z_max=1.0, h=0.01)
        target = tmp_path / "depth.csv"
        write_depth_csv(target, original)
        back = read_depth_csv(target)
        np.testing.assert_array_equal(back.valid, original.valid)
        np.testing.assert_array_equal(back.values[back.valid],
                                      original.values[original.valid])
        assert np.all(np.isnan(back.values[~back.valid]))
        assert back.method == "nonlocal"
        assert (back.q, back.alpha, back.zeta) == (2, 1.5, 4)
        assert (back.z_min, back.z_max, back.h) == (0.0, 1.0, 0.01)

    def test_invalid_pixels_use_literal_nan_token(self, tmp_path):
        rng = np.random.default_rng(4)
        original = _depth_map(rng)
        target = tmp_path / "depth.csv"
        write_depth_csv(target, original)
        tokens = [tok for line in target.read_text().splitlines()
                  for tok in line.split(",")]
        assert tokens.count("NaN") == int(np.count_nonzero(~original.valid))

    def test_nan_token_is_case_insensitive(self, tmp_path):
        target = tmp_path / "depth.csv"
        target.write_text("0.5,nan\nNAN,0.25\n")
        back = read_depth_csv(target)
        np.testing.assert_array_equal(back.valid,
                                      [[True, False], [False, True]])

    def test_sidecar_records_method_and_parameters(self, tmp_path):
        rng = np.random.default_rng(5)
        target = tmp_path / "depth.csv"
        write_depth_csv(target, _depth_map(rng, q=3, z_min=0.0, z_max=2.0))
        meta = json.loads((tmp_path / "depth.json").read_text())
        assert meta["method"] == "local"
        assert meta["q"] == 3
        assert meta["alpha"] is None
        assert meta["z_max"] == 2.0

    def test_bare_csv_loads_without_sidecar(self, tmp_path):
        rng = np.random.default_rng(6)
        target = tmp_path / "depth.csv"
        write_depth_csv(target, _depth_map(rng, q=1))
        (tmp_path / "depth.json").unlink()
        back = read_depth_csv(target)
        assert back.q is None
        assert back.method == "truth"

    def test_clamped_heights_at_invalid_pixels_are_dropped(self, tmp_path):
        """Ground-truth maps can hold finite heights outside the valid
        region; the CSV keeps only the mask, not those heights."""
        values = np.array([[0.5, 0.0], [0.0, 0.0]])
        valid = np.array([[True, False], [False, False]])
        target = tmp_path / "truth.csv"
        write_depth_csv(target, DepthMap(values=values, valid=valid))
        back = read_depth_csv(target)
        np.testing.assert_array_equal(back.valid, valid)
        assert np.all(np.isnan(back.values[~valid]))

    def test_ragged_rows_rejected(self, tmp_path):
        target = tmp_path / "ragged.csv"
        target.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            read_depth_csv(target)

    def test_empty_file_rejected(self, tmp_path):
        target = tmp_path / "empty.csv"
        target.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_depth_csv(target)

    def test_blank_lines_skipped(self, tmp_path):
        target = tmp_path / "gaps.csv"
        target.write_text("1,2\n\n3,4\n")
        assert read_depth_csv(target).values.shape == (2, 2)


# Every float64 bit pattern that can sit at a valid pixel, with the edge
# cases drawn often: signed zeros, subnormals and values near the range ends.
_EDGE_VALUES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324,
                                2.2250738585072009e-308, 1e300, -1e300,
                                1.7976931348623157e308])
_FINITE = st.one_of(_EDGE_VALUES, st.floats(allow_nan=False,
                                            allow_infinity=False))


@st.composite
def _depth_maps(draw):
    """Finite values under a random mask with some all-invalid rows and
    columns; invalid pixels hold finite heights that must not be written."""
    height = draw(st.integers(1, 12))
    width = draw(st.integers(1, 12))
    values = draw(arrays(np.float64, (height, width), elements=_FINITE))
    valid = draw(arrays(bool, (height, width)))
    valid[draw(arrays(bool, height)), :] = False
    valid[:, draw(arrays(bool, width))] = False
    return DepthMap(values=values, valid=valid)


def _bits(values):
    return values.view(np.uint64)


@settings(max_examples=80, deadline=None)
@given(_depth_maps())
def test_depth_csv_matches_reference_writer_and_roundtrips(tmp_path_factory,
                                                           depth_map):
    target = tmp_path_factory.mktemp("depth") / "depth.csv"
    write_depth_csv(target, depth_map)
    assert target.read_text(encoding="ascii") == reference_depth_csv(
        depth_map.values, depth_map.valid)
    back = read_depth_csv(target)
    np.testing.assert_array_equal(back.valid, depth_map.valid)
    assert np.array_equal(_bits(back.values[back.valid]),
                          _bits(depth_map.values[depth_map.valid]))
    assert np.all(np.isnan(back.values[~back.valid]))


@settings(max_examples=20, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(3, 4), st.integers(1, 6),
                                    st.integers(1, 6)), elements=_FINITE))
def test_lossless_stack_dir_roundtrips_every_bit(tmp_path_factory, data):
    stack_dir = tmp_path_factory.mktemp("stack")
    stack = FocalStack(data, z_min=0.0, z_max=1.0, h=0.1)
    write_stack_dir(stack_dir, stack, lossless=True)
    back = read_stack_dir(stack_dir)
    assert np.array_equal(_bits(back.data), _bits(data))


class TestStackDir:

    def _write(self, tmp_path, rng, lossless, with_truth=True):
        stack = _stack(rng)
        truth = _depth_map(rng, shape=(6, 5)) if with_truth else None
        scene = SceneSpec(kind="plane", height=0.5, seed=7)
        write_stack_dir(tmp_path, stack, truth=truth, scene=scene,
                        blur=BlurSpec(sigma0=2.0), lossless=lossless)
        return stack, truth

    def test_lossless_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        stack, truth = self._write(tmp_path, rng, lossless=True)
        back = read_stack_dir(tmp_path)
        back_truth = read_depth_csv(tmp_path / "truth.csv")
        np.testing.assert_array_equal(back.data, stack.data)
        assert (back.z_min, back.z_max, back.h) == (0.0, 1.0, 0.1)
        np.testing.assert_array_equal(back_truth.valid, truth.valid)
        np.testing.assert_array_equal(back_truth.values[back_truth.valid],
                                      truth.values[truth.valid])

    def test_metadata_records_scene_and_seed(self, tmp_path):
        rng = np.random.default_rng(9)
        self._write(tmp_path, rng, lossless=True)
        meta = json.loads((tmp_path / "stack.json").read_text())
        assert meta["seed"] == 7
        assert meta["scene"]["kind"] == "plane"
        assert meta["blur"]["sigma0"] == 2.0
        assert meta["lossless"] is True
        assert (meta["n_slides"], meta["height"], meta["width"]) == (4, 6, 5)

    def test_pgm_mode_quantizes(self, tmp_path):
        rng = np.random.default_rng(10)
        stack, truth = self._write(tmp_path, rng, lossless=False)
        assert (tmp_path / "slide_000.pgm").exists()
        back = read_stack_dir(tmp_path)
        assert np.max(np.abs(back.data - stack.data)) <= 0.5 * QUANTUM + 1e-12
        back_truth = read_depth_csv(tmp_path / "truth.csv")
        np.testing.assert_array_equal(back_truth.valid, truth.valid)

    def test_stack_without_truth(self, tmp_path):
        rng = np.random.default_rng(11)
        stack, _ = self._write(tmp_path, rng, lossless=True, with_truth=False)
        assert not (tmp_path / "truth.csv").exists()
        np.testing.assert_array_equal(read_stack_dir(tmp_path).data,
                                      stack.data)

    def test_truth_csv_is_not_read(self, tmp_path):
        rng = np.random.default_rng(16)
        stack, _ = self._write(tmp_path, rng, lossless=True)
        (tmp_path / "truth.csv").write_text("not a depth map\n")
        np.testing.assert_array_equal(read_stack_dir(tmp_path).data,
                                      stack.data)

    def test_missing_stack_json(self, tmp_path):
        with pytest.raises(StackFormatError, match="stack.json"):
            read_stack_dir(tmp_path)

    def test_missing_slide_is_named(self, tmp_path):
        rng = np.random.default_rng(12)
        self._write(tmp_path, rng, lossless=True)
        (tmp_path / "slide_002.csv").unlink()
        with pytest.raises(StackFormatError, match="slide_002"):
            read_stack_dir(tmp_path)

    def test_corrupt_slide_is_named(self, tmp_path):
        rng = np.random.default_rng(13)
        self._write(tmp_path, rng, lossless=True)
        (tmp_path / "slide_001.csv").write_text("not,numbers\n")
        with pytest.raises(StackFormatError, match="slide_001"):
            read_stack_dir(tmp_path)

    def test_wrong_shape_slide_rejected(self, tmp_path):
        rng = np.random.default_rng(14)
        self._write(tmp_path, rng, lossless=True)
        write_field_csv(tmp_path / "slide_000.csv", np.zeros((2, 2)))
        with pytest.raises(StackFormatError, match="shape"):
            read_stack_dir(tmp_path)

    def test_missing_metadata_field_rejected(self, tmp_path):
        rng = np.random.default_rng(15)
        self._write(tmp_path, rng, lossless=True)
        meta = json.loads((tmp_path / "stack.json").read_text())
        del meta["h"]
        (tmp_path / "stack.json").write_text(json.dumps(meta))
        with pytest.raises(StackFormatError, match="missing field"):
            read_stack_dir(tmp_path)

    def test_unparseable_metadata_rejected(self, tmp_path):
        (tmp_path / "stack.json").write_text("{not json")
        with pytest.raises(StackFormatError, match="JSON"):
            read_stack_dir(tmp_path)

    def test_too_few_slides_rejected(self, tmp_path):
        meta = {"z_min": 0.0, "z_max": 1.0, "n_slides": 2, "h": 0.1,
                "width": 3, "height": 3, "lossless": True}
        (tmp_path / "stack.json").write_text(json.dumps(meta))
        for k in range(2):
            write_field_csv(tmp_path / f"slide_{k:03d}.csv", np.zeros((3, 3)))
        with pytest.raises(StackFormatError):
            read_stack_dir(tmp_path)

    @pytest.mark.parametrize("field, value", [("n_slides", -1),
                                              ("height", -2),
                                              ("n_slides", 10 ** 15)])
    def test_unusable_dimensions_rejected(self, tmp_path, field, value):
        meta = {"z_min": 0.0, "z_max": 1.0, "n_slides": 3, "h": 0.1,
                "width": 3, "height": 3, "lossless": True}
        meta[field] = value
        (tmp_path / "stack.json").write_text(json.dumps(meta))
        with pytest.raises(StackFormatError, match="stack.json"):
            read_stack_dir(tmp_path)

    def test_error_type_is_value_error(self):
        assert issubclass(StackFormatError, ValueError)
