"""Tests for the command-line driver."""

import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fracfocus
from fracfocus import kernel2d
from fracfocus.cli import main
from fracfocus.depth import recover_depth
from fracfocus.evaluate import comparison_table
from fracfocus.focus import focus_volume
from fracfocus.grids import FocalStack
from fracfocus.io import (StackHeader, read_depth_csv, read_stack_dir,
                          write_depth_csv, write_stack_dir)
from fracfocus.kernel2d import build_kernel

SMALL_SYNTH = ["synth", "--scene", "plane", "--size", "16", "--slices", "5",
               "--wavelength", "0.5", "--seed", "3", "--sigma0", "1.5",
               "--max-radius", "4", "--lossless"]


def _run_python(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """Run Python with ``args`` in a fresh interpreter that imports this
    fracfocus, where numpy's warnings and any traceback reach stderr."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(fracfocus.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True)


def _assert_clean_error(proc: subprocess.CompletedProcess) -> None:
    """Exit 1 with fracfocus's one-line error, and no traceback or warning."""
    assert proc.returncode == 1
    assert "fracfocus: error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr


@pytest.fixture(scope="module")
def plane_dir(tmp_path_factory):
    """A rendered 48x48 plane stack written through the CLI."""
    out = tmp_path_factory.mktemp("cli_stack") / "plane"
    rc = main(["synth", "--scene", "plane", "--size", "48", "--slices", "9",
               "--wavelength", "0.3", "--seed", "11", "--sigma0", "2.0",
               "--max-radius", "8", "--lossless", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def tiny_spacing_dir(tmp_path_factory):
    """A stack whose 1/(q h)^2 divides by zero: (q h)^2 underflows to 0."""
    out = tmp_path_factory.mktemp("tiny_spacing") / "stack"
    assert main(["synth", "--scene", "plane", "--size", "16", "--slices", "3",
                 "--wavelength", "0.5", "--extent", "1e-198", "--lossless",
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def depth_csv(plane_dir, tmp_path_factory):
    """Nonlocal recovery of the plane stack, as written by the CLI."""
    out = tmp_path_factory.mktemp("cli_depth") / "depth.csv"
    rc = main(["recover", "--stack", str(plane_dir), "--method", "nonlocal",
               "--q", "3", "--alpha", "1.5", "--zeta", "2",
               "--out", str(out)])
    assert rc == 0
    return out


class TestKernelCommand:

    def test_csv_matches_reference_weight(self, capsys):
        assert main(["kernel", "--alpha", "1", "--zeta", "4"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 9
        assert all(len(row.split(",")) == 9 for row in rows)
        center_row = rows[4].split(",")
        assert center_row[4] == "1"
        assert float(center_row[5]) == pytest.approx(0.294441, abs=5e-6)

    def test_json_output(self, tmp_path):
        out = tmp_path / "kernel.json"
        rc = main(["kernel", "--alpha", "0", "--zeta", "2",
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["alpha"] == 0.0
        assert payload["zeta"] == 2
        weights = np.array(payload["weights"])
        assert weights.shape == (5, 5)
        assert weights[2, 2] == 1.0
        assert weights.sum() == 1.0

    def test_alpha_out_of_range_fails(self, capsys):
        assert main(["kernel", "--alpha", "2.5"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unallocatable_support_is_a_clean_error(self, capsys):
        # numpy refuses the 10**12-entry index array at once, so this
        # allocates nothing; at zeta = 10**9 it would build 4 GB first.
        assert main(["kernel", "--alpha", "1", "--zeta", str(10**12)]) == 1
        assert "fracfocus: error:" in capsys.readouterr().err

    def test_missing_alpha_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["kernel"])
        assert exc.value.code == 2


class TestSynthCommand:

    def test_writes_stack_directory(self, plane_dir):
        assert (plane_dir / "stack.json").exists()
        assert (plane_dir / "slide_000.npy").exists()
        assert (plane_dir / "truth.csv").exists()
        meta = json.loads((plane_dir / "stack.json").read_text())
        assert meta["n_slides"] == 9
        assert meta["seed"] == 11

    def test_reruns_are_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        for out in (first, second):
            assert main(SMALL_SYNTH + ["--out", str(out)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_rejects_tiny_size(self, capsys):
        assert main(["synth", "--size", "4", "--out", "unused"]) == 1
        assert "size" in capsys.readouterr().err

    @pytest.mark.parametrize("bad, message", [
        (["--height", "2"], "outside stack range"),
        (["--wavelength", "0.2"], "not resolvable"),
        (["--slices", "2"], "at least 3 slides"),
        # Every kind of scene must meet the stack range.
        (["--scene", "ramp", "--ramp-lo", "5", "--ramp-hi", "6"],
         "outside stack range"),
        (["--scene", "sphere", "--radius", "5"], "outside stack range"),
        (["--scene", "ramp", "--ramp-lo", "1e308", "--ramp-hi", "1e308"],
         "outside stack range"),
        # Meets the range, but its defocus overflows.
        (["--scene", "ramp", "--ramp-lo", "0.5", "--ramp-hi", "1e308"],
         "overflows"),
        # Both ends finite, but not the width z_max - z_min.
        (["--z-min=-1e308", "--z-max=1e308"], "must be finite"),
    ])
    def test_failed_checks_create_no_directory(self, tmp_path, capsys, bad,
                                               message):
        out = tmp_path / "stack"
        assert main(["synth", "--scene", "plane", "--size", "16",
                     "--wavelength", "0.5", *bad, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad, field", [
        (["--wavelength", "inf"], "texture_wavelength"),
        (["--scene", "sphere", "--radius", "nan"], "radius"),
        (["--height=-inf"], "height"),
        (["--scene", "ramp", "--ramp-lo", "nan"], "ramp_lo"),
        (["--scene", "ramp", "--ramp-hi", "inf"], "ramp_hi"),
        # Finite, but ground_truth would square it.
        (["--scene", "sphere", "--radius", "1e308"], "radius"),
        # Finite ends, but ground_truth would scale their difference.
        (["--scene", "ramp", "--ramp-lo=-1e308", "--ramp-hi", "1e308"],
         "ramp_hi"),
    ])
    def test_non_finite_scene_is_a_clean_error(self, tmp_path, capsys, bad,
                                               field):
        out = tmp_path / "stack"
        assert main(["synth", "--scene", "plane", "--size", "16",
                     "--wavelength", "0.5", *bad, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "fracfocus: error:" in err and f"{field} must be finite" in err
        assert not out.exists()

    def test_overflowing_ramp_rise_warns_nothing(self, tmp_path):
        proc = _run_python(
            ["-m", "fracfocus", "synth", "--scene", "ramp",
             "--ramp-lo=-1e308", "--ramp-hi", "1e308", "--size", "16",
             "--slices", "3", "--wavelength", "0.5",
             "--out", str(tmp_path / "stack")], tmp_path)
        _assert_clean_error(proc)
        assert not (tmp_path / "stack").exists()

    def test_outputs_do_not_depend_on_worker_count(self, tmp_path,
                                                   monkeypatch):
        """synth renders slide-parallel; PGM and .npy stack directories
        are byte-identical for any CPU count, 5 slides against rings of
        2 to 4 buffers included."""
        default_cpus = kernel2d._usable_cpus
        for lossless in (False, True):
            synth = [a for a in SMALL_SYNTH if lossless or a != "--lossless"]
            dirs = []
            for i, cpus in enumerate((lambda: 1, default_cpus, lambda: 2,
                                      lambda: 3)):
                monkeypatch.setattr(kernel2d, "_usable_cpus", cpus)
                dirs.append(tmp_path / f"{lossless}_{i}")
                assert main(synth + ["--out", str(dirs[-1])]) == 0
            names = sorted(p.name for p in dirs[0].iterdir())
            assert len(names) == 5 + 3  # slides, stack.json, truth files
            for other in dirs[1:]:
                assert names == sorted(p.name for p in other.iterdir())
                for name in names:
                    assert (other / name).read_bytes() \
                        == (dirs[0] / name).read_bytes(), (other, name)


class TestRecoverCommand:

    def test_writes_depth_map_with_sidecar(self, plane_dir, depth_csv):
        depth_map = read_depth_csv(depth_csv)
        assert depth_map.values.shape == (48, 48)
        meta = json.loads(depth_csv.with_suffix(".json").read_text())
        assert meta["method"] == "nonlocal"
        assert (meta["q"], meta["alpha"], meta["zeta"]) == (3, 1.5, 2)
        assert (meta["z_min"], meta["z_max"]) == (0.0, 1.0)

    def test_unallocatable_kernel_is_a_clean_error(self, plane_dir,
                                                   tmp_path, capsys):
        out = tmp_path / "depth.csv"
        assert main(["recover", "--stack", str(plane_dir), "--zeta",
                     str(10**12), "--out", str(out)]) == 1
        assert "fracfocus: error:" in capsys.readouterr().err
        assert not out.exists()

    def test_alpha_zero_payload_matches_local(self, plane_dir, tmp_path):
        """With a delta kernel the nonlocal path must write the exact same
        depth values as the local path; only the sidecar labels differ."""
        nl = tmp_path / "nl.csv"
        loc = tmp_path / "loc.csv"
        base = ["recover", "--stack", str(plane_dir), "--q", "2"]
        assert main(base + ["--method", "nonlocal", "--alpha", "0",
                            "--out", str(nl)]) == 0
        assert main(base + ["--method", "local", "--out", str(loc)]) == 0
        assert nl.read_bytes() == loc.read_bytes()
        assert json.loads(nl.with_suffix(".json").read_text())["method"] \
            == "nonlocal"
        assert json.loads(loc.with_suffix(".json").read_text())["method"] \
            == "local"

    def test_outputs_do_not_depend_on_worker_count(self, tmp_path,
                                                   monkeypatch):
        """recover streams the slides in blocks of one per usable CPU; with
        5 slides and 2 or 3 CPUs the last block is partial.  For PGM and
        .npy stacks, both methods and any CPU count, the CLI writes the
        bytes of the batch pipeline run on the whole stack."""
        default_cpus = kernel2d._usable_cpus
        methods = {"local": [], "nonlocal": ["--alpha", "1.5", "--zeta", "4"]}
        for lossless in (False, True):
            stack_dir = tmp_path / f"lossless_{lossless}"
            synth = [a for a in SMALL_SYNTH if lossless or a != "--lossless"]
            assert main(synth + ["--out", str(stack_dir)]) == 0
            stack = read_stack_dir(stack_dir)
            assert stack.data.shape[0] == 5
            for method, extra in methods.items():
                volume = focus_volume(stack, 2, build_kernel(1.5, 4)
                                      if method == "nonlocal" else None)
                batch = tmp_path / "batch.csv"
                write_depth_csv(batch, recover_depth(volume))
                want = (batch.read_bytes(),
                        batch.with_suffix(".json").read_bytes())
                assert b"NaN" in want[0] and want[0].count(b"NaN") < 16 * 16
                for cpus in (lambda: 1, default_cpus, lambda: 2, lambda: 3):
                    monkeypatch.setattr(kernel2d, "_usable_cpus", cpus)
                    out = tmp_path / "streamed.csv"
                    assert main(["recover", "--stack", str(stack_dir),
                                 "--method", method, "--q", "2", *extra,
                                 "--out", str(out)]) == 0
                    assert (out.read_bytes(),
                            out.with_suffix(".json").read_bytes()) == want, (
                        lossless, method, cpus())

    def test_json_output_name_is_refused(self, plane_dir, tmp_path, capsys):
        # depth.json is the sidecar name of depth.json itself: writing both
        # would leave only the sidecar.
        out = tmp_path / "depth.json"
        assert main(["recover", "--stack", str(plane_dir), "--q", "2",
                     "--out", str(out)]) == 1
        assert "depth.json" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _assert_out_refused(stack_dir, name, named, tmp_path, capsys):
        files = {p.name: p.read_bytes() for p in stack_dir.iterdir()}
        assert main(["recover", "--stack", str(stack_dir), "--q", "2",
                     "--out", str(stack_dir / name)]) == 1
        assert str(stack_dir / named) in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in stack_dir.iterdir()} == files
        read_stack_dir(stack_dir)
        assert main(["recover", "--stack", str(stack_dir), "--q", "2",
                     "--out", str(tmp_path / "d.csv")]) == 0

    def test_out_whose_sidecar_is_stack_json_is_refused(self, tmp_path,
                                                        capsys):
        # stack.csv's sidecar is stack.json: writing it would leave a
        # stack that no longer reads.
        stack_dir = tmp_path / "stack"
        assert main(SMALL_SYNTH + ["--out", str(stack_dir)]) == 0
        self._assert_out_refused(stack_dir, "stack.csv", "stack.json",
                                 tmp_path, capsys)

    def test_out_named_as_a_slide_is_refused(self, tmp_path, capsys):
        stack_dir = tmp_path / "stack"
        pgm_synth = [arg for arg in SMALL_SYNTH if arg != "--lossless"]
        assert main(pgm_synth + ["--out", str(stack_dir)]) == 0
        self._assert_out_refused(stack_dir, "slide_002.pgm", "slide_002.pgm",
                                 tmp_path, capsys)

    def test_missing_stack_fails(self, tmp_path, capsys):
        rc = main(["recover", "--stack", str(tmp_path / "nowhere"),
                   "--out", str(tmp_path / "d.csv")])
        assert rc == 1
        assert "stack.json" in capsys.readouterr().err

    def test_missing_slide_is_named(self, tmp_path, capsys):
        stack_dir = tmp_path / "stack"
        assert main(SMALL_SYNTH + ["--out", str(stack_dir)]) == 0
        (stack_dir / "slide_004.npy").unlink()
        rc = main(["recover", "--stack", str(stack_dir), "--q", "2",
                   "--out", str(tmp_path / "d.csv")])
        assert rc == 1
        assert "slide_004" in capsys.readouterr().err
        # The depth file is written only once the last slide is in.
        assert not (tmp_path / "d.csv").exists()

    def test_non_finite_slide_is_named(self, tmp_path, capsys):
        stack_dir = tmp_path / "stack"
        assert main(SMALL_SYNTH + ["--out", str(stack_dir)]) == 0
        slide = np.load(stack_dir / "slide_003.npy")
        slide[5, 5] = np.nan
        np.save(stack_dir / "slide_003.npy", slide)
        rc = main(["recover", "--stack", str(stack_dir), "--q", "2",
                   "--out", str(tmp_path / "d.csv")])
        assert rc == 1
        assert "slide_003.npy: slide values must be finite" \
            in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_first_of_two_bad_slides_is_named(self, tmp_path, capsys,
                                              monkeypatch, cpus):
        stack_dir = tmp_path / "stack"
        assert main(SMALL_SYNTH + ["--out", str(stack_dir)]) == 0
        for k in (2, 4):
            (stack_dir / f"slide_00{k}.npy").write_bytes(b"not a slide")
        monkeypatch.setattr(kernel2d, "_usable_cpus", lambda: cpus)
        threads = threading.active_count()
        rc = main(["recover", "--stack", str(stack_dir), "--q", "2",
                   "--out", str(tmp_path / "d.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "slide_002.npy" in err and "slide_004" not in err
        assert not (tmp_path / "d.csv").exists()
        assert threading.active_count() == threads

    @pytest.mark.parametrize("field, value", [
        ("n_slides", 2), ("z_max", 0.0), ("h", float("inf")),
        ("z_min", float("-inf")),
        # Both ends finite, but not the width z_max - z_min.
        pytest.param(None, {"z_min": -1e308, "z_max": 1e308},
                     id="range-width")])
    def test_bad_geometry_fails_before_any_slide(self, tmp_path, capsys,
                                                 field, value):
        stack_dir = tmp_path / "stack"
        stack_dir.mkdir()
        meta = {"z_min": 0.0, "z_max": 1.0, "n_slides": 3, "h": 0.1,
                "width": 16, "height": 16, "lossless": True}
        meta.update(value if field is None else {field: value})
        (stack_dir / "stack.json").write_text(json.dumps(meta))
        rc = main(["recover", "--stack", str(stack_dir), "--q", "2",
                   "--out", str(tmp_path / "d.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "stack.json" in err and "slide_" not in err

    def test_fractional_slide_count_fails(self, tmp_path, capsys):
        # 4.9 must not be read as 4 of the 5 slides on the wrong z scale.
        stack_dir = tmp_path / "stack"
        assert main(SMALL_SYNTH + ["--out", str(stack_dir)]) == 0
        meta = json.loads((stack_dir / "stack.json").read_text())
        meta["n_slides"] = 4.9
        (stack_dir / "stack.json").write_text(json.dumps(meta))
        rc = main(["recover", "--stack", str(stack_dir), "--q", "2",
                   "--out", str(tmp_path / "d.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "stack.json" in err and "n_slides" in err
        assert not (tmp_path / "d.csv").exists()

    def test_overflowing_focus_measure_fails(self, tmp_path, capsys):
        # Finite +-1e308 stripes overflow the second differences to inf.
        stripes = np.where(np.arange(12) % 2 == 0, 1e308, -1e308)
        data = np.broadcast_to(stripes, (3, 12, 12))
        stack_dir = tmp_path / "stack"
        write_stack_dir(stack_dir, FocalStack(data, z_min=0.0, z_max=1.0),
                        lossless=True)
        rc = main(["recover", "--stack", str(stack_dir), "--q", "1",
                   "--out", str(tmp_path / "d.csv")])
        assert rc == 1
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("method", ["nonlocal", "local"])
    def test_huge_slide_value_warns_nothing(self, tmp_path, method):
        data = np.zeros((3, 12, 12))
        data[1, 5, 5] = 1e308
        write_stack_dir(tmp_path / "stack",
                        FocalStack(data, z_min=0.0, z_max=1.0), lossless=True)
        proc = _run_python(["-m", "fracfocus", "recover", "--stack", "stack",
                            "--q", "1", "--method", method,
                            "--out", "d.csv"], tmp_path)
        _assert_clean_error(proc)
        assert "must be finite" in proc.stderr
        assert not (tmp_path / "d.csv").exists()

    def test_peak_fit_of_huge_focus_values_warns_nothing(self, tmp_path):
        # Columns 5e307, 5e307, -5e307, -5e307 halved from slide to slide:
        # focus values up to 1e308, whose 2 rho_0 in the peak fit would
        # overflow.
        stripes = np.tile([5e307, 5e307, -5e307, -5e307], (16, 4))
        data = stripes * np.array([1.0, 0.5, 0.25])[:, None, None]
        write_stack_dir(tmp_path / "stack",
                        FocalStack(data, z_min=0.0, z_max=1.0), lossless=True)
        proc = _run_python(["-m", "fracfocus", "recover", "--stack", "stack",
                            "--q", "1", "--method", "local",
                            "--out", "d.csv"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr
        assert read_depth_csv(tmp_path / "d.csv").valid.any()

    def test_tiny_grid_spacing_is_a_clean_error(self, tiny_spacing_dir,
                                                tmp_path):
        proc = _run_python(["-m", "fracfocus", "recover",
                            "--stack", str(tiny_spacing_dir), "--q", "2",
                            "--out", "d.csv"], tmp_path)
        _assert_clean_error(proc)
        assert "spacing" in proc.stderr
        assert not (tmp_path / "d.csv").exists()


@pytest.fixture(scope="module")
def plane_stacks_128(tmp_path_factory):
    """128x128 lossless plane stacks of 8 and of 64 slides."""
    stacks = {}
    for n in (8, 64):
        stacks[n] = tmp_path_factory.mktemp("plane128") / f"plane_{n}"
        assert main(["synth", "--scene", "plane", "--size", "128",
                     "--slices", str(n), "--lossless", "--seed", "0",
                     "--out", str(stacks[n])]) == 0
    return stacks


def _recover_peak_bytes(argv: list[str]) -> int:
    """Peak traced allocation of one CLI call."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_synth_memory_does_not_grow_with_the_stack(tmp_path, monkeypatch):
    """synth streams its slides into the stack directory: eight times the
    slides may cost at most 1 MB more at the peak (the stack would grow by
    7 MB).  One worker, as for recover below."""
    monkeypatch.setattr(kernel2d, "_usable_cpus", lambda: 1)

    def argv(n):
        return ["synth", "--scene", "plane", "--size", "128", "--slices",
                str(n), "--lossless", "--seed", "0",
                "--out", str(tmp_path / f"plane_{n}")]

    # Warm-up: lazy imports stay out of the peaks.
    assert main(argv(8)) == 0
    small, large = _recover_peak_bytes(argv(8)), _recover_peak_bytes(argv(64))
    assert large <= small + 2 ** 20, (small, large)


@pytest.mark.parametrize("method", ["local", "nonlocal"])
def test_recover_memory_does_not_grow_with_the_stack(plane_stacks_128,
                                                     tmp_path, monkeypatch,
                                                     method):
    """recover holds a block of slides, not the stack: eight times the
    slides may cost at most 1 MB more at the peak (the stack grows by
    7 MB).  One worker: with more, the peak depends on whether the
    workers' per-slide scratch arrays (about 1 MB each here) happen to be
    alive at the same moment, which varies from run to run."""
    monkeypatch.setattr(kernel2d, "_usable_cpus", lambda: 1)

    def argv(n):
        return ["recover", "--stack", str(plane_stacks_128[n]), "--method",
                method, "--q", "4", "--out", str(tmp_path / f"d{n}.csv")]

    # Warm-up: lazy imports and cached kernel rules stay out of the peaks.
    assert main(argv(8)) == 0
    small, large = _recover_peak_bytes(argv(8)), _recover_peak_bytes(argv(64))
    assert large <= small + 2 ** 20, (small, large)


def test_table_holds_one_volume_not_the_stack(plane_stacks_128, tmp_path,
                                              monkeypatch):
    """eval --table streams its cells from the stack and holds no volume:
    eight times the slides may cost at most 1 MB more at the peak (the
    stack grows by 7 MB), as for recover above.  One worker, as there."""
    monkeypatch.setattr(kernel2d, "_usable_cpus", lambda: 1)

    def argv(n):
        stack = plane_stacks_128[n]
        depth = tmp_path / f"d{n}.csv"
        assert main(["recover", "--stack", str(stack), "--q", "4",
                     "--out", str(depth)]) == 0
        return ["eval", "--depth", str(depth),
                "--truth", str(stack / "truth.csv"),
                "--report", str(tmp_path / f"r{n}.json"),
                "--table", str(tmp_path / f"t{n}.csv"), "--stack", str(stack),
                "--q", "4"]

    # Warm-up: lazy imports and cached kernel rules stay out of the peaks.
    assert main(argv(8)) == 0
    small, large = _recover_peak_bytes(argv(8)), _recover_peak_bytes(argv(64))
    assert large <= small + 2 ** 20, (small, large)


class TestEvalCommand:

    def test_report_shows_small_plane_error(self, plane_dir, depth_csv,
                                            tmp_path):
        report_path = tmp_path / "report.json"
        rc = main(["eval", "--depth", str(depth_csv),
                   "--truth", str(plane_dir / "truth.csv"),
                   "--report", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["rms_percent"] <= 2.0
        assert report["n_valid"] == (48 - 2 * 3) ** 2  # all but the frame
        assert report["z_range"] == 1.0
        assert report["parameters"]["method"] == "nonlocal"
        assert report["table"] is None

    def test_non_ascii_depth_is_refused_by_name(self, plane_dir, depth_csv,
                                                tmp_path, capsys):
        # The map with a UTF-8 byte-order mark in front.
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + depth_csv.read_bytes())
        assert main(["eval", "--depth", str(marked),
                     "--truth", str(plane_dir / "truth.csv"),
                     "--report", str(tmp_path / "report.json")]) == 1
        err = capsys.readouterr().err
        assert f"fracfocus: error: {marked}: " in err

    def test_profile_walks_central_row(self, plane_dir, depth_csv, tmp_path):
        profile_path = tmp_path / "profile.csv"
        rc = main(["eval", "--depth", str(depth_csv),
                   "--truth", str(plane_dir / "truth.csv"),
                   "--report", str(tmp_path / "r.json"),
                   "--profile", str(profile_path), "--axis", "x"])
        assert rc == 0
        lines = profile_path.read_text().splitlines()
        assert lines[0] == "coordinate,recovered,true"
        assert len(lines) == 1 + 48 - 2 * 3  # header + row minus the frame
        coord, recovered, true = map(float, lines[1].split(","))
        assert true == 0.5
        assert abs(recovered - true) < 0.1

    def test_table_alpha_zero_column_equals_local(self, plane_dir, depth_csv,
                                                  tmp_path):
        table_path = tmp_path / "table.csv"
        report_path = tmp_path / "report.json"
        rc = main(["eval", "--depth", str(depth_csv),
                   "--truth", str(plane_dir / "truth.csv"),
                   "--report", str(report_path),
                   "--table", str(table_path), "--stack", str(plane_dir),
                   "--q", "2", "--alphas", "0,1.5", "--zetas", "1,2"])
        assert rc == 0
        lines = table_path.read_text().splitlines()
        assert lines[0] == "zeta,alpha=0,alpha=1.5,local_at_q_prime_eq_zeta"
        row1, row2 = lines[1].split(","), lines[2].split(",")
        # A delta kernel reproduces the local result at the table's own
        # stride, so the alpha=0 cells agree across zeta; on the zeta=2 row
        # the local column (q'=2) coincides with them as well.
        assert row1[1] == row2[1]
        assert row2[1] == row2[3]
        table_json = json.loads(report_path.read_text())["table"]
        assert table_json["q"] == 2
        assert len(table_json["grid"]) == 4
        assert len(table_json["local"]) == 2

    def test_table_csv_is_the_table_format(self, plane_dir, depth_csv,
                                           tmp_path):
        table_path = tmp_path / "table.csv"
        rc = main(["eval", "--depth", str(depth_csv),
                   "--truth", str(plane_dir / "truth.csv"),
                   "--report", str(tmp_path / "report.json"),
                   "--table", str(table_path), "--stack", str(plane_dir),
                   "--q", "2"])
        assert rc == 0
        table = comparison_table(read_stack_dir(plane_dir),
                                 read_depth_csv(plane_dir / "truth.csv"), 2)
        assert table_path.read_text(encoding="ascii") == table.format()
        assert table_path.read_text().splitlines()[0] == (
            "zeta,alpha=0,alpha=0.5,alpha=1,alpha=1.5,alpha=2,"
            "local_at_q_prime_eq_zeta")

    def test_table_cell_is_recover_then_eval(self, plane_dir, depth_csv,
                                             tmp_path):
        """A table cell is the error that ``recover`` with the cell's
        parameters followed by ``eval`` reports, to the last bit."""
        truth = str(plane_dir / "truth.csv")
        report_path = tmp_path / "report.json"
        assert main(["eval", "--depth", str(depth_csv), "--truth", truth,
                     "--report", str(report_path),
                     "--table", str(tmp_path / "table.csv"),
                     "--stack", str(plane_dir), "--q", "4"]) == 0
        table = json.loads(report_path.read_text())["table"]
        cell, = (c for c in table["grid"]
                 if (c["zeta"], c["alpha"]) == (4, 1.5))
        local, = (c for c in table["local"] if c["q"] == 4)
        for entry, method in ((cell, ["--alpha", "1.5", "--zeta", "4"]),
                              (local, ["--method", "local"])):
            depth = tmp_path / "depth.csv"
            assert main(["recover", "--stack", str(plane_dir), "--q", "4",
                         *method, "--out", str(depth)]) == 0
            assert main(["eval", "--depth", str(depth), "--truth", truth,
                         "--report", str(report_path)]) == 0
            report = json.loads(report_path.read_text())
            assert (report["rms_percent"], report["n_valid"]) == (
                entry["rms_percent"], entry["n_valid"])

    def test_table_leaves_out_a_default_stride_with_no_interior(self,
                                                                tmp_path):
        """The local column's strides default to --zetas; one that leaves no
        pixel inside its frame (q' = 20 on a 16 x 16 stack) has an empty
        cell and no report entry, and the rest of the table is made."""
        stack_dir = tmp_path / "stack"
        assert main(SMALL_SYNTH + ["--out", str(stack_dir)]) == 0
        assert main(["recover", "--stack", str(stack_dir), "--q", "1",
                     "--zeta", "20", "--out", str(tmp_path / "d.csv")]) == 0
        proc = _run_python(["-m", "fracfocus", "eval", "--depth", "d.csv",
                            "--truth", str(stack_dir / "truth.csv"),
                            "--report", "r.json", "--table", "t.csv",
                            "--stack", str(stack_dir), "--q", "1",
                            "--zetas", "20,3"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[1].startswith("20,") and lines[1].endswith(",")
        assert lines[2].startswith("3,") and not lines[2].endswith(",")
        table = json.loads((tmp_path / "r.json").read_text())["table"]
        assert [entry["q"] for entry in table["local"]] == [3]
        assert len(table["grid"]) == 10

    @pytest.mark.parametrize("outputs, named", [
        # The depth map read, and its sidecar.
        (["--report", "d.csv"], "d.csv"),
        (["--report", "r.json", "--profile", "d.json"], "d.json"),
        # The truth read, and its sidecar.
        (["--report", "r.json", "--table", "s/truth.csv", "--stack", "s"],
         "s/truth.csv"),
        (["--report", "s/truth.json"], "s/truth.json"),
        # Files of the stack the table reads.
        (["--report", "r.json", "--table", "t.csv", "--stack", "s",
          "--profile", "s/stack.json"], "s/stack.json"),
        (["--report", "r.json", "--table", "t.csv", "--stack", "s",
          "--profile", "s/slide_001.npy"], "s/slide_001.npy"),
        # Two outputs on one path, also when spelled differently.
        (["--report", "r.json", "--table", "r.json", "--stack", "s"],
         "r.json"),
        (["--report", "p.csv", "--profile", "sub/../p.csv"], "sub/../p.csv"),
    ])
    def test_output_on_a_file_eval_reads_or_writes_is_refused(
            self, tmp_path, capsys, outputs, named):
        """An output that resolves to an input (a depth map, its sidecar or
        a file of the stack) or to another output is refused by name before
        anything is read or written: every file keeps its bytes, and no
        output is made."""
        assert main(SMALL_SYNTH + ["--out", str(tmp_path / "s")]) == 0
        assert main(["recover", "--stack", str(tmp_path / "s"), "--q", "2",
                     "--out", str(tmp_path / "d.csv")]) == 0
        (tmp_path / "sub").mkdir()
        files = {p: p.read_bytes() for p in tmp_path.rglob("*")
                 if p.is_file()}
        paths = [str(tmp_path / arg) if not arg.startswith("--") else arg
                 for arg in outputs]
        capsys.readouterr()
        assert main(["eval", "--depth", str(tmp_path / "d.csv"),
                     "--truth", str(tmp_path / "s" / "truth.csv"),
                     "--q", "2", "--zetas", "1", *paths]) == 1
        err = capsys.readouterr().err
        assert f"fracfocus: error: {tmp_path / named}: " in err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*")
                if p.is_file()} == files

    def test_table_requires_stack(self, plane_dir, depth_csv, tmp_path,
                                  capsys):
        rc = main(["eval", "--depth", str(depth_csv),
                   "--truth", str(plane_dir / "truth.csv"),
                   "--report", str(tmp_path / "r.json"),
                   "--table", str(tmp_path / "t.csv")])
        assert rc == 1
        assert "--stack" in capsys.readouterr().err

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_table_names_the_first_bad_slide(self, tmp_path, capsys,
                                             monkeypatch, cpus):
        stack_dir = tmp_path / "stack"
        synth = [a if a != "5" else "8" for a in SMALL_SYNTH]
        assert main(synth + ["--out", str(stack_dir)]) == 0
        depth = tmp_path / "d.csv"
        assert main(["recover", "--stack", str(stack_dir), "--q", "2",
                     "--out", str(depth)]) == 0
        (stack_dir / "slide_003.npy").unlink()
        slide = stack_dir / "slide_005.npy"
        slide.write_bytes(slide.read_bytes()[:-100])
        monkeypatch.setattr(kernel2d, "_usable_cpus", lambda: cpus)
        threads = threading.active_count()
        rc = main(["eval", "--depth", str(depth),
                   "--truth", str(stack_dir / "truth.csv"),
                   "--report", str(tmp_path / "r.json"),
                   "--table", str(tmp_path / "t.csv"),
                   "--stack", str(stack_dir), "--q", "2", "--zetas", "1,2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "slide_003.npy: missing" in err and "slide_005" not in err
        assert not (tmp_path / "t.csv").exists()
        assert not (tmp_path / "r.json").exists()
        assert threading.active_count() == threads

    def test_table_checks_truth_before_any_slide(self, plane_dir, depth_csv,
                                                 tmp_path, capsys,
                                                 monkeypatch):
        # The depth map and the truth agree with each other (48 x 48), not
        # with the 16 x 16 stack.
        stack_dir = tmp_path / "stack"
        assert main(SMALL_SYNTH + ["--out", str(stack_dir)]) == 0
        opened = []
        original = StackHeader.read_slide

        def counted(self, k, out):
            opened.append(k)
            original(self, k, out)

        monkeypatch.setattr(StackHeader, "read_slide", counted)
        rc = main(["eval", "--depth", str(depth_csv),
                   "--truth", str(plane_dir / "truth.csv"),
                   "--report", str(tmp_path / "r.json"),
                   "--table", str(tmp_path / "t.csv"),
                   "--stack", str(stack_dir)])
        assert rc == 1
        assert "shape mismatch" in capsys.readouterr().err
        assert opened == []
        assert not (tmp_path / "t.csv").exists()

    def test_table_refuses_tiny_grid_spacing(self, tiny_spacing_dir,
                                             tmp_path):
        truth = str(tiny_spacing_dir / "truth.csv")
        proc = _run_python(["-m", "fracfocus", "eval", "--depth", truth,
                            "--truth", truth, "--report", "r.json",
                            "--table", "t.csv",
                            "--stack", str(tiny_spacing_dir)], tmp_path)
        _assert_clean_error(proc)
        assert "spacing" in proc.stderr
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("sidecar", ['{"z_min": "0", "z_max": 1}',
                                         '{"z_min": 0, "z_max": Infinity}'])
    def test_bad_sidecar_fails_by_name(self, plane_dir, tmp_path, capsys,
                                       sidecar):
        depth = tmp_path / "depth.csv"
        depth.write_text("0.5,0.5\n0.5,0.5\n")
        depth.with_suffix(".json").write_text(sidecar)
        report = tmp_path / "r.json"
        assert main(["eval", "--depth", str(depth),
                     "--truth", str(plane_dir / "truth.csv"),
                     "--report", str(report)]) == 1
        assert "depth.json" in capsys.readouterr().err
        assert not report.exists()

    def test_bare_csv_needs_explicit_range(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        flat.write_text("0.5,0.5\n0.5,0.5\n")
        truth = tmp_path / "truth_flat.csv"
        truth.write_text("0.5,0.5\n0.5,0.5\n")
        args = ["eval", "--depth", str(flat), "--truth", str(truth),
                "--report", str(tmp_path / "r.json")]
        assert main(args) == 1
        assert "z-range" in capsys.readouterr().err
        assert main(args + ["--z-range", "1.0"]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["rms_percent"] == 0.0
        assert report["z_range"] == 1.0

    def test_infinite_range_fails(self, plane_dir, depth_csv, tmp_path,
                                  capsys):
        # It would read every error as 0% and write "z_range": Infinity,
        # which is not JSON.
        report = tmp_path / "r.json"
        assert main(["eval", "--depth", str(depth_csv),
                     "--truth", str(plane_dir / "truth.csv"),
                     "--report", str(report), "--z-range", "inf"]) == 1
        assert "z_range" in capsys.readouterr().err
        assert not report.exists()


class TestCommands:

    def test_there_are_four_commands(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert "{kernel,synth,recover,eval}" in capsys.readouterr().out

    def test_selftest_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["selftest"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "selftest" in err


def _fresh_interpreter(code: str, cwd: Path) -> str:
    """Run ``code`` in a new Python process that imports this fracfocus."""
    proc = _run_python(["-c", code], cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_leaves_heavy_scipy_modules_unloaded(tmp_path):
    """The kernel pass loads the thread pool and the kernel build
    numpy.polynomial on first use, and nothing loads scipy, so a bare
    import (every CLI start) pays for none of them."""
    probe = ("import sys, fracfocus; "
             "print(sorted(m for m in ('scipy', 'scipy.integrate', "
             "'scipy.ndimage', 'concurrent.futures', 'numpy.polynomial') "
             "if m in sys.modules))")
    assert _fresh_interpreter(probe, tmp_path) == "[]"


def test_nonlocal_recover_never_loads_scipy_integrate(tmp_path):
    """Kernels come from a fixed Gauss-Legendre rule and the kernel pass
    from numpy ufuncs, so neither a nonlocal recover nor a zeta = 8 build
    imports scipy or any of its modules."""
    recover = ["recover", "--stack", "stack", "--method", "nonlocal",
               "--q", "1", "--alpha", "1.5", "--zeta", "2",
               "--out", "depth.csv"]
    probe = ("import sys\n"
             "from fracfocus.cli import main\n"
             "from fracfocus.kernel2d import build_kernel\n"
             f"assert main({SMALL_SYNTH + ['--out', 'stack']!r}) == 0\n"
             f"assert main({recover!r}) == 0\n"
             "build_kernel(1.5, 8)\n"
             "print(sorted(m for m in ('scipy', 'scipy.integrate', "
             "'scipy.ndimage') if m in sys.modules))")
    assert _fresh_interpreter(probe, tmp_path) == "[]"
    assert (tmp_path / "depth.csv").is_file()


def test_runs_with_scipy_blocked(tmp_path):
    """scipy is a test dependency only: with it blocked, the package
    imports, synth, a nonlocal recover and eval --table run, and every 1D
    operator evaluates."""
    recover = ["recover", "--stack", "stack", "--q", "2", "--alpha", "1.5",
               "--out", "depth.csv"]
    table = ["eval", "--depth", "depth.csv", "--truth", "stack/truth.csv",
             "--report", "report.json", "--table", "table.csv",
             "--stack", "stack", "--q", "2", "--zetas", "1,2",
             "--alphas", "0,1.5,2"]
    probe = ("import math, sys\n"
             "sys.modules['scipy'] = None\n"
             "import fracfocus\n"
             "from fracfocus import frac1d\n"
             "from fracfocus.cli import main\n"
             f"assert main({SMALL_SYNTH + ['--out', 'stack']!r}) == 0\n"
             f"assert main({recover!r}) == 0\n"
             f"assert main({table!r}) == 0\n"
             "gauss = frac1d.Function1D(lambda x: math.exp(-x * x),\n"
             "                          lambda x: -2 * x * math.exp(-x * x))\n"
             "values = [frac1d.regularized_integral(gauss, 0.3, 0.5),\n"
             "          frac1d.regularized_derivative(gauss, 0.3, 0.5),\n"
             "          frac1d.regularized_derivative(gauss, 0.3, 0.5,\n"
             "                                        form='difference'),\n"
             "          frac1d.riesz_second_derivative(gauss, 0.3, 0.5)]\n"
             "assert all(math.isfinite(v) for v in values)\n"
             "print(sys.modules['scipy'])")
    assert _fresh_interpreter(probe, tmp_path).splitlines()[-1] == "None"
    assert (tmp_path / "table.csv").is_file()
