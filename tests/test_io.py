"""Tests for PGM, depth CSV and stack-directory serialization."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csv_reference import reference_depth_csv

from fracfocus.grids import DepthMap, FocalStack
from fracfocus.io import (StackFormatError, StackHeader, _pgm_tokens,
                          read_depth_csv, read_pgm, read_stack_dir,
                          read_stack_header, write_depth_csv, write_pgm,
                          write_stack, write_stack_dir)
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

    def test_bytes_are_the_rounded_scaled_clip(self, tmp_path):
        # Ties at half a byte, values out of range, and a transposed view,
        # which is written in row order like its copy.
        field = np.array([[0.5 / 255, 1.5 / 255, -1.0, 2.0, 0.25],
                          [254.5 / 255, 0.0, 1.0, 0.5, 0.75]]).T
        target = tmp_path / "bytes.pgm"
        write_pgm(target, field)
        pixels = np.rint(np.clip(field, 0.0, 1.0) * 255.0).astype(np.uint8)
        assert target.read_bytes() == b"P5\n2 5\n255\n" + pixels.tobytes()

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

    def test_rejects_sample_above_maxval(self, tmp_path):
        # 200 / 100 would read back as 2.0, outside [0, 1].
        target = tmp_path / "over.pgm"
        target.write_bytes(b"P5\n2 1\n100\n" + bytes([0, 200]))
        with pytest.raises(ValueError, match=re.escape(
                f"{target}: PGM sample 200 above maxval 100")):
            read_pgm(target)

    @pytest.mark.parametrize("header", [b"P5\n4x 4\n255\n",
                                        b"P5\n+4 4\n255\n",
                                        b"P5\n4 4\n2_55\n",
                                        b"P5\n4 -4\n255\n"])
    def test_rejects_header_number_that_is_not_decimal(self, tmp_path,
                                                       header):
        target = tmp_path / "garbled.pgm"
        target.write_bytes(header + bytes(16))
        with pytest.raises(ValueError,
                           match=re.escape(f"{target}: bad PGM header")):
            read_pgm(target)

    @pytest.mark.parametrize("maxval", [0, 256, 65535])
    def test_rejects_maxval_outside_one_byte(self, tmp_path, maxval):
        target = tmp_path / "deep.pgm"
        target.write_bytes(f"P5\n2 1\n{maxval}\n".encode() + bytes(4))
        with pytest.raises(ValueError, match=re.escape(
                f"{target}: PGM maxval {maxval} outside 1..255")):
            read_pgm(target)

    def test_rejects_non_2d_input(self, tmp_path):
        with pytest.raises(ValueError, match="2D"):
            write_pgm(tmp_path / "bad.pgm", np.zeros(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input_and_writes_nothing(self, tmp_path,
                                                          bad):
        # The cast to bytes would turn a NaN into 0 with a numpy warning.
        target = tmp_path / "bad.pgm"
        with pytest.raises(ValueError, match="finite"):
            write_pgm(target, [[0.25, 0.5], [bad, 1.0]])
        assert not target.exists()


def _reference_pgm_tokens(raw):
    """Byte-at-a-time PGM header scanner: tokens end at whitespace, and a #
    where a token would start skips to the end of its line."""
    pos = 0
    while pos < len(raw):
        c = raw[pos:pos + 1]
        if c == b"#":
            pos = raw.find(b"\n", pos)
            if pos < 0:
                return
            pos += 1
        elif c.isspace():
            pos += 1
        else:
            end = pos
            while end < len(raw) and not raw[end:end + 1].isspace():
                end += 1
            yield raw[pos:end], end
            pos = end


_HEADER_PIECES = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"#", b"P5",
                  b"12", b"\x00", b"\xff"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=40),
                 st.lists(st.sampled_from(_HEADER_PIECES), max_size=30)
                 .map(b"".join)))
def test_pgm_tokens_match_reference_scanner(raw):
    assert list(_pgm_tokens(raw)) == list(_reference_pgm_tokens(raw))


class TestFieldCsv:
    """The float CSV format of depth maps, one value per pixel."""

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        field = rng.normal(size=(5, 8)) * 10.0 ** rng.integers(-8, 9, (5, 8))
        target = tmp_path / "field.csv"
        write_depth_csv(target, DepthMap(field, np.ones(field.shape, bool)))
        np.testing.assert_array_equal(read_depth_csv(target).values, field)

    def test_single_row_and_column_stay_2d(self, tmp_path):
        for shape in [(1, 4), (4, 1)]:
            target = tmp_path / f"thin_{shape[0]}x{shape[1]}.csv"
            field = np.arange(4, dtype=float).reshape(shape)
            write_depth_csv(target, DepthMap(field, np.ones(shape, bool)))
            back = read_depth_csv(target).values
            assert back.shape == shape
            np.testing.assert_array_equal(back, field)

    def test_rejects_non_2d_input(self, tmp_path):
        with pytest.raises(ValueError, match="2D"):
            write_depth_csv(tmp_path / "bad.csv",
                            DepthMap(np.zeros((2, 2, 2)),
                                     np.ones((2, 2, 2), bool)))

    def test_nan_goes_out_as_literal_token(self, tmp_path):
        target = tmp_path / "field.csv"
        write_depth_csv(target, DepthMap(np.array([[0.5, np.nan]]),
                                         np.array([[True, False]])))
        assert target.read_text() == "0.5,NaN\n"

    @pytest.mark.parametrize("text", ["", "\n\n", "  \n\t\n"])
    def test_empty_or_blank_file_rejected_by_name(self, tmp_path, text):
        target = tmp_path / "blank.csv"
        target.write_text(text)
        with pytest.raises(ValueError, match="blank.csv: empty"):
            read_depth_csv(target)

    def test_ragged_row_rejected_by_name(self, tmp_path):
        target = tmp_path / "ragged.csv"
        target.write_text("1,2\n3,4,5\n")
        with pytest.raises(ValueError, match="ragged.csv: ragged"):
            read_depth_csv(target)

    def test_unparseable_token_rejected_by_name(self, tmp_path):
        target = tmp_path / "words.csv"
        target.write_text("1,two\n")
        with pytest.raises(ValueError, match="words.csv: unparseable"):
            read_depth_csv(target)

    def test_whitespace_only_lines_skipped(self, tmp_path):
        target = tmp_path / "gaps.csv"
        target.write_text("1,2\n   \n3,4\n")
        np.testing.assert_array_equal(read_depth_csv(target).values,
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

    @pytest.mark.parametrize("h", [np.nan, np.inf])
    def test_non_finite_parameter_is_not_written(self, tmp_path, h):
        # "h": NaN or Infinity is not JSON, and read_depth_csv refuses it.
        target = tmp_path / "depth.csv"
        with pytest.raises(ValueError, match="JSON"):
            write_depth_csv(target, _depth_map(np.random.default_rng(5), h=h))
        assert not target.exists()
        assert not target.with_suffix(".json").exists()

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

    @pytest.mark.parametrize("raw", [b"\xef\xbb\xbf0.5,0.25\n",
                                     b"0.5,0.25\n0.5,\xff0.25\n"],
                             ids=["byte-order-mark", "0xff-in-a-row"])
    def test_non_ascii_byte_rejected_by_name(self, tmp_path, raw):
        target = tmp_path / "bytes.csv"
        target.write_bytes(raw)
        with pytest.raises(ValueError, match="bytes.csv: 'ascii' codec"):
            read_depth_csv(target)

    def test_json_name_is_refused_before_any_write(self, tmp_path):
        # The sidecar of depth.json is depth.json itself: it would
        # overwrite the map, so nothing is written.
        target = tmp_path / "depth.json"
        with pytest.raises(ValueError, match="depth.json"):
            write_depth_csv(target, _depth_map(np.random.default_rng(7)))
        assert not target.exists()

    def test_blank_lines_skipped(self, tmp_path):
        target = tmp_path / "gaps.csv"
        target.write_text("1,2\n\n3,4\n")
        assert read_depth_csv(target).values.shape == (2, 2)

    @pytest.mark.parametrize("text", [
        '{"z_min": "0", "z_max": 1}',
        '{"z_max": Infinity}',
        '{"h": NaN}',
        '{"alpha": -Infinity}',
        '{"z_min": 1e400}',
        '{"q": 2.0}',
        '{"q": true}',
        '{"zeta": "4"}',
        '{"alpha": [1.5]}',
        '{"z_max": 10' + '0' * 400 + '}',
        '[1, 2]',
        '{"q": ',
    ])
    def test_bad_sidecar_rejected_by_name(self, tmp_path, text):
        target = tmp_path / "depth.csv"
        target.write_text("0.5,0.25\n")
        (tmp_path / "depth.json").write_text(text)
        with pytest.raises(ValueError, match="depth.json"):
            read_depth_csv(target)

    def test_sidecar_numbers_load_uncoerced(self, tmp_path):
        target = tmp_path / "depth.csv"
        target.write_text("0.5,0.25\n")
        (tmp_path / "depth.json").write_text(
            '{"method": "x", "q": 3, "alpha": null, "zeta": null, '
            '"z_min": 0, "z_max": 1.5, "h": 2, "extra": "ignored"}')
        back = read_depth_csv(target)
        assert (back.q, back.alpha, back.zeta) == (3, None, None)
        assert (back.z_min, back.z_max, back.h) == (0, 1.5, 2)
        assert type(back.z_min) is int


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


def test_depth_csv_formats_many_distinct_values(tmp_path):
    # More distinct values than the writer formats at a time, each repeated,
    # with signed zeros and the longest "%.17g" tokens among them.
    rng = np.random.default_rng(23)
    pool = np.concatenate([rng.normal(size=6000) * 10.0 ** rng.integers(
        -320, 300, size=6000), [0.0, -0.0, -5e-324,
                                -2.2250738585072014e-308,
                                -1.7976931348623157e308]])
    values = rng.choice(pool, size=(90, 130))
    values[0, :5] = pool[-5:]
    valid = rng.random(values.shape) < 0.9
    valid[0, :5] = True
    target = tmp_path / "depth.csv"
    write_depth_csv(target, DepthMap(values=values, valid=valid))
    assert target.read_text(encoding="ascii") == reference_depth_csv(values,
                                                                     valid)


@pytest.mark.parametrize("shape,text", [((0, 5), ""), ((5, 0), "\n" * 5)])
def test_depth_csv_of_a_map_without_pixels(tmp_path, shape, text):
    target = tmp_path / "depth.csv"
    write_depth_csv(target, DepthMap(values=np.zeros(shape),
                                     valid=np.ones(shape, dtype=bool)))
    assert target.read_text(encoding="ascii") == text


@settings(max_examples=20, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(3, 4), st.integers(1, 6),
                                    st.integers(1, 6)), elements=_FINITE))
def test_lossless_stack_dir_roundtrips_every_bit(tmp_path_factory, data):
    stack_dir = tmp_path_factory.mktemp("stack")
    stack = FocalStack(data, z_min=0.0, z_max=1.0, h=0.1)
    write_stack_dir(stack_dir, stack, lossless=True)
    back = read_stack_dir(stack_dir)
    assert np.array_equal(_bits(back.data), _bits(data))


class TestWriteStack:

    def _header(self, directory, n=4, lossless=True):
        return StackHeader(directory=directory, n_slides=n, height=6, width=5,
                           z_min=0.0, z_max=1.0, h=0.1, lossless=lossless)

    @pytest.mark.parametrize("lossless", [False, True])
    def test_stream_writes_the_bytes_of_the_stack(self, tmp_path, lossless):
        stack = _stack(np.random.default_rng(8))
        write_stack_dir(tmp_path / "whole", stack, lossless=lossless)
        # Each slide arrives in the same reused buffer.
        buffer = np.empty((6, 5))

        def stream():
            for slide in stack.data:
                buffer[...] = slide
                yield buffer

        write_stack(self._header(tmp_path / "stream", lossless=lossless),
                    stream())
        names = sorted(p.name for p in (tmp_path / "whole").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "stream").iterdir())
        for name in names:
            assert (tmp_path / "whole" / name).read_bytes() \
                == (tmp_path / "stream" / name).read_bytes()

    @pytest.mark.parametrize("slides", [np.zeros((3, 6, 5)),
                                        np.zeros((5, 6, 5)),
                                        np.zeros((4, 5, 6))])
    def test_slides_must_fit_the_header(self, tmp_path, slides):
        with pytest.raises(ValueError, match="slide"):
            write_stack(self._header(tmp_path), slides)
        assert not (tmp_path / "stack.json").exists()

    @pytest.mark.parametrize("lossless", [False, True])
    def test_float32_slides_roundtrip(self, tmp_path, lossless):
        slides = _stack(np.random.default_rng(12)).data.astype(np.float32)
        write_stack(self._header(tmp_path, lossless=lossless), slides)
        back = read_stack_dir(tmp_path).data
        if lossless:
            assert np.array_equal(back, slides.astype(np.float64))
        else:
            assert np.max(np.abs(back - slides)) <= 0.5 * QUANTUM + 1e-7

    @pytest.mark.parametrize("lossless", [False, True])
    def test_non_finite_slide_is_refused(self, tmp_path, lossless):
        slides = _stack(np.random.default_rng(13)).data
        slides[1, 2, 3] = np.nan
        with pytest.raises(ValueError, match="slide 1 .*non-finite"):
            write_stack(self._header(tmp_path, lossless=lossless), slides)
        assert [p.name for p in tmp_path.glob("slide_*")] == [
            "slide_000." + ("npy" if lossless else "pgm")]
        # stack.json is written last, so the directory reads as no stack.
        assert not (tmp_path / "stack.json").exists()

    def test_refused_rewrite_removes_the_old_stack_json(self, tmp_path):
        slides = _stack(np.random.default_rng(15)).data
        write_stack(self._header(tmp_path), slides)
        slides[2, 0, 0] = np.inf
        with pytest.raises(ValueError, match="slide 2 .*non-finite"):
            write_stack(self._header(tmp_path), slides)
        with pytest.raises(StackFormatError, match="stack.json: missing"):
            read_stack_dir(tmp_path)

    def test_non_finite_geometry_is_not_written(self, tmp_path):
        header = StackHeader(directory=tmp_path, n_slides=4, height=6,
                             width=5, z_min=0.0, z_max=np.inf, h=0.1,
                             lossless=True)
        with pytest.raises(ValueError, match="JSON"):
            write_stack(header, _stack(np.random.default_rng(14)).data)
        assert not (tmp_path / "stack.json").exists()


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
        assert sorted(p.name for p in tmp_path.glob("slide_*")) == [
            f"slide_{k:03d}.npy" for k in range(4)]
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
        (tmp_path / "slide_002.npy").unlink()
        with pytest.raises(StackFormatError, match="slide_002"):
            read_stack_dir(tmp_path)

    def test_corrupt_slide_is_named(self, tmp_path):
        rng = np.random.default_rng(13)
        self._write(tmp_path, rng, lossless=True)
        (tmp_path / "slide_001.npy").write_text("not,numbers\n")
        with pytest.raises(StackFormatError, match="slide_001"):
            read_stack_dir(tmp_path)

    def test_pgm_slide_above_its_maxval_is_named(self, tmp_path):
        rng = np.random.default_rng(15)
        self._write(tmp_path, rng, lossless=False)
        (tmp_path / "slide_001.pgm").write_bytes(b"P5\n5 6\n100\n"
                                                 + bytes([200] * 30))
        with pytest.raises(StackFormatError,
                           match="slide_001.pgm.*above maxval 100"):
            read_stack_dir(tmp_path)

    def test_wrong_shape_slide_rejected(self, tmp_path):
        rng = np.random.default_rng(14)
        self._write(tmp_path, rng, lossless=True)
        np.save(tmp_path / "slide_000.npy", np.zeros((2, 2)))
        with pytest.raises(StackFormatError, match="shape"):
            read_stack_dir(tmp_path)

    @pytest.mark.parametrize("damage", [
        "truncated_body", "huge_shape_header", "float32", "pickled_objects",
        "fortran_order", "not_npy", "empty"])
    def test_bad_npy_slide_is_named(self, tmp_path, damage):
        rng = np.random.default_rng(17)
        self._write(tmp_path, rng, lossless=True)
        target = tmp_path / "slide_001.npy"
        if damage == "truncated_body":
            target.write_bytes(target.read_bytes()[:-8])
        elif damage == "huge_shape_header":
            # A plain np.load would try to allocate 8 TB here.
            with target.open("wb") as f:
                np.lib.format.write_array_header_1_0(
                    f, {"descr": "<f8", "fortran_order": False,
                        "shape": (10 ** 12,)})
                f.write(bytes(64))
        elif damage == "float32":
            np.save(target, np.zeros((6, 5), dtype=np.float32))
        elif damage == "pickled_objects":
            np.save(target, np.full((6, 5), None, dtype=object),
                    allow_pickle=True)
        elif damage == "fortran_order":
            np.save(target, np.asfortranarray(np.zeros((6, 5))))
        elif damage == "not_npy":
            target.write_bytes(b"P5\n5 6\n255\n" + bytes(30))
        else:
            target.write_bytes(b"")
        with pytest.raises(StackFormatError, match="slide_001.npy"):
            read_stack_dir(tmp_path)

    def test_fortran_order_slides_roundtrip(self, tmp_path):
        data = np.arange(60.0).reshape(3, 5, 4).transpose(0, 2, 1)
        assert data[0].flags.f_contiguous and not data[0].flags.c_contiguous
        write_stack_dir(tmp_path, FocalStack(data, z_min=0.0, z_max=1.0),
                        lossless=True)
        np.testing.assert_array_equal(read_stack_dir(tmp_path).data, data)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_lossless_must_be_a_json_boolean(self, tmp_path, value):
        rng = np.random.default_rng(18)
        self._write(tmp_path, rng, lossless=False)
        meta = json.loads((tmp_path / "stack.json").read_text())
        meta["lossless"] = value
        (tmp_path / "stack.json").write_text(json.dumps(meta))
        with pytest.raises(StackFormatError, match="stack.json.*lossless"):
            read_stack_dir(tmp_path)

    def test_missing_lossless_field_means_pgm(self, tmp_path):
        rng = np.random.default_rng(19)
        stack, _ = self._write(tmp_path, rng, lossless=False)
        meta = json.loads((tmp_path / "stack.json").read_text())
        del meta["lossless"]
        (tmp_path / "stack.json").write_text(json.dumps(meta))
        back = read_stack_dir(tmp_path)
        assert np.max(np.abs(back.data - stack.data)) <= 0.5 * QUANTUM + 1e-12

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

    @pytest.mark.parametrize("text", ["[]", "3", '"stack"'])
    def test_non_object_metadata_rejected(self, tmp_path, text):
        (tmp_path / "stack.json").write_text(text)
        with pytest.raises(StackFormatError, match="stack.json: bad"):
            read_stack_dir(tmp_path)

    def test_too_few_slides_rejected(self, tmp_path):
        meta = {"z_min": 0.0, "z_max": 1.0, "n_slides": 2, "h": 0.1,
                "width": 3, "height": 3, "lossless": True}
        (tmp_path / "stack.json").write_text(json.dumps(meta))
        for k in range(2):
            np.save(tmp_path / f"slide_{k:03d}.npy", np.zeros((3, 3)))
        with pytest.raises(StackFormatError):
            read_stack_dir(tmp_path)

    @pytest.mark.parametrize("field, value, message", [
        ("n_slides", 2, "at least 3 slides"),
        ("z_max", 0.0, "z_max > z_min"),
        ("z_max", -1.0, "z_max > z_min"),
        ("h", 0.0, "spacing must be positive"),
        ("width", 0, "hold nothing"),
        ("z_min", -np.inf, "must be finite"),
        ("z_max", np.inf, "must be finite"),
        ("h", np.inf, "must be finite"),
        ("h", np.nan, "must be finite"),
        # Nothing is coerced: each of these once loaded as another value.
        ("n_slides", 4.9, "n_slides must be a JSON int"),
        ("n_slides", "5", "n_slides must be a JSON int"),
        ("n_slides", True, "n_slides must be a JSON int"),
        ("height", 32.5, "height must be a JSON int"),
        ("width", "3", "width must be a JSON int"),
        ("z_min", "0.5", "z_min must be a JSON int or float"),
        ("z_max", True, "z_max must be a JSON int or float"),
        ("h", None, "h must be a JSON int or float"),
        # Both ends finite, but not the width z_max - z_min.
        pytest.param(None, {"z_min": -1e308, "z_max": 1e308},
                     "must be finite", id="range-width-must be finite")])
    def test_bad_geometry_fails_before_any_slide(self, tmp_path, field,
                                                 value, message):
        # No slide files at all: the error must name stack.json, not a
        # missing slide.
        meta = {"z_min": 0.0, "z_max": 1.0, "n_slides": 3, "h": 0.1,
                "width": 3, "height": 3, "lossless": True}
        meta.update(value if field is None else {field: value})
        (tmp_path / "stack.json").write_text(json.dumps(meta))
        with pytest.raises(StackFormatError,
                           match=f"stack.json: .*{message}"):
            read_stack_header(tmp_path)
        with pytest.raises(StackFormatError, match="stack.json"):
            read_stack_dir(tmp_path)

    def test_integer_geometry_reads_as_float(self, tmp_path):
        rng = np.random.default_rng(22)
        self._write(tmp_path, rng, lossless=True)
        meta = json.loads((tmp_path / "stack.json").read_text())
        meta.update(z_min=0, z_max=1)
        (tmp_path / "stack.json").write_text(json.dumps(meta))
        header = read_stack_header(tmp_path)
        assert (header.z_min, header.z_max) == (0.0, 1.0)
        assert type(header.z_min) is float

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_slide_is_named(self, tmp_path, bad):
        rng = np.random.default_rng(20)
        self._write(tmp_path, rng, lossless=True)
        data = np.load(tmp_path / "slide_002.npy")
        data[3, 1] = bad
        np.save(tmp_path / "slide_002.npy", data)
        with pytest.raises(StackFormatError,
                           match="slide_002.npy: slide values must be finite"):
            read_stack_dir(tmp_path)

    def test_header_reads_one_slide_at_a_time(self, tmp_path):
        rng = np.random.default_rng(21)
        stack, _ = self._write(tmp_path, rng, lossless=True)
        header = read_stack_header(tmp_path)
        assert (header.n_slides, header.height, header.width) == (4, 6, 5)
        assert (header.z_min, header.z_max, header.h) == (0.0, 1.0, 0.1)
        out = header.empty(1)
        header.read_slide(3, out[0])
        np.testing.assert_array_equal(out[0], stack.data[3])

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
