"""Release gate: end-to-end checks of accuracy, determinism and speed.

Each test prints one PASS/FAIL line with its measured numbers straight to
the terminal (bypassing capture), then asserts the same conditions, so a
full run reads as a short scorecard.
"""

import json
import math
import time

import numpy as np
import pytest

from kernel_reference import REFERENCE_QUADRANTS

from fracfocus.cli import main
from fracfocus.depth import recover_depth
from fracfocus.evaluate import comparison_table, rms_error_percent
from fracfocus.focus import focus_volume
from fracfocus.frac1d import (Function1D, regularized_derivative,
                              regularized_integral, riesz_second_derivative)
from fracfocus.grids import FocalStack, FocusVolume
from fracfocus.io import write_depth_csv, write_stack_dir
from fracfocus.kernel2d import build_kernel, kernel_frequency_response
from fracfocus.synth import ground_truth, render_stack

GAUSS = Function1D(value=lambda x: math.exp(-x * x),
                   derivative=lambda x: -2.0 * x * math.exp(-x * x))
XGAUSS = Function1D(value=lambda x: x * math.exp(-x * x),
                    derivative=lambda x: (1.0 - 2.0 * x * x) * math.exp(-x * x))


@pytest.fixture
def announce(capsys):
    def emit(ok: bool, name: str, detail: str) -> None:
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return emit


def test_kernel_reference_table(announce):
    """Every tabulated weight at zeta = 4 is reproduced to 5e-6."""
    start = time.monotonic()
    kernels = {a: build_kernel(a, 4) for a in (0.0, 0.5, 1.0, 1.5, 2.0)}
    elapsed = time.monotonic() - start
    worst = 0.0
    for alpha, quadrant in REFERENCE_QUADRANTS.items():
        kernel = kernels[alpha]
        for di in range(-4, 5):
            for dj in range(-4, 5):
                i, j = sorted((abs(di), abs(dj)))
                worst = max(worst, abs(kernel.at(di, dj) - quadrant[(i, j)]))
    delta = np.zeros((9, 9))
    delta[4, 4] = 1.0
    worst = max(worst,
                float(np.max(np.abs(kernels[0.0].weights - delta))),
                float(np.max(np.abs(kernels[2.0].weights - 1.0))))
    ok = worst <= 5e-6 and elapsed <= 10.0
    announce(ok, "kernel reference table",
             f"5 kernels at zeta=4, max deviation {worst:.2e} (<= 5e-6) in "
             f"{elapsed:.2f} s (budget 10 s)")
    assert worst <= 5e-6
    assert elapsed <= 10.0


def test_local_limit_bit_equality(announce):
    """At alpha = 0 the nonlocal pipeline is the local one, bit for bit."""
    rng = np.random.default_rng(7)
    ok = True
    for shape, q in [((6, 24, 20), 2), ((5, 17, 23), 1)]:
        stack = FocalStack(rng.uniform(0.0, 1.0, size=shape),
                           z_min=0.0, z_max=1.0, h=0.05)
        base = focus_volume(stack, q)
        reference = recover_depth(base)
        for zeta in (1, 4, 8):
            smoothed = focus_volume(stack, q, build_kernel(0.0, zeta))
            depth = recover_depth(smoothed)
            ok &= np.array_equal(smoothed.data, base.data)
            ok &= np.array_equal(depth.values, reference.values,
                                 equal_nan=True)
            ok &= np.array_equal(depth.valid, reference.valid)
    announce(ok, "local limit", "alpha=0 equals the local pipeline bit for "
             "bit (volumes and depth maps) for zeta in {1, 4, 8} on 2 "
             "random stacks")
    assert ok


def test_parabolic_vertex_exactness(announce):
    """Sub-slice peaks of exact parabolas come back to 1e-12 slices."""
    rng = np.random.default_rng(33)
    n_slides, height, width = 9, 24, 24
    vertex = rng.uniform(0.5, n_slides - 1.5, size=(height, width))
    curvature = rng.uniform(0.05, 0.15, size=(height, width))
    crest = rng.uniform(10.0, 20.0, size=(height, width))
    k = np.arange(n_slides)[:, None, None]
    volume = FocusVolume(data=crest - curvature * (k - vertex) ** 2,
                         q=1, z_min=0.0, z_max=1.0, h=0.05)
    depth = recover_depth(volume)
    # Delta-z is exactly 1/8, so scaling back to slice units is lossless.
    worst = float(np.max(np.abs(depth.values * (n_slides - 1) - vertex)))
    ok = bool(depth.valid.all()) and worst <= 1e-12
    announce(ok, "parabolic vertices",
             f"{height * width} random parabola columns, max vertex error "
             f"{worst:.2e} slices (tolerance 1e-12)")
    assert depth.valid.all()
    assert worst <= 1e-12


def test_plane_recovery_accuracy(announce, plane_scene):
    """Textured plane: local rms within 2%, nonlocal within 0.5%."""
    start = time.monotonic()
    base = focus_volume(plane_scene.stack, 4)
    local_report = rms_error_percent(recover_depth(base), plane_scene.truth,
                                     z_range=1.0)
    smoothed = focus_volume(plane_scene.stack, 4, build_kernel(1.5, 4))
    nonlocal_report = rms_error_percent(recover_depth(smoothed),
                                        plane_scene.truth, z_range=1.0)
    elapsed = plane_scene.render_seconds + (time.monotonic() - start)
    ok = (local_report.rms_percent <= 2.0
          and nonlocal_report.rms_percent <= 0.5
          and elapsed <= 60.0)
    announce(ok, "plane recovery",
             f"256x256x32 lossless plane: local rms "
             f"{local_report.rms_percent:.3f}% (<= 2%), "
             f"nonlocal(alpha=1.5, zeta=4) rms "
             f"{nonlocal_report.rms_percent:.3f}% (<= 0.5%), "
             f"{elapsed:.1f} s including render (budget 60 s)")
    assert local_report.rms_percent <= 2.0
    assert nonlocal_report.rms_percent <= 0.5
    assert elapsed <= 60.0


def test_sphere_error_ordering_and_robustness(announce, sphere_scene):
    """Sphere: nonlocal at (1.5, 4) halves every local error, and the
    error varies by less than 3x over a wide (alpha, zeta) grid."""
    start = time.monotonic()
    table = comparison_table(sphere_scene.stack, sphere_scene.truth, q=4,
                             alphas=(0.5, 1.0, 1.5, 2.0), zetas=(2, 4, 6),
                             local_strides=(1, 2, 3, 4))
    elapsed = time.monotonic() - start
    nonlocal_rms = table.rms(4, 1.5)
    local_rms = {s: table.local[s].rms_percent for s in (1, 2, 3, 4)}
    halved = all(nonlocal_rms <= 0.5 * rms for rms in local_rms.values())
    spread = table.spread()
    ok = halved and spread < 3.0 and elapsed <= 300.0
    local_text = ", ".join(f"q'={s}: {rms:.2f}%"
                           for s, rms in local_rms.items())
    announce(ok, "sphere ordering",
             f"nonlocal(alpha=1.5, zeta=4) rms {nonlocal_rms:.3f}% is at "
             f"most half of local ({local_text}); 12-cell grid spread "
             f"{spread:.2f} (< 3); {elapsed:.1f} s (budget 300 s)")
    assert halved
    assert spread < 3.0
    assert elapsed <= 300.0


def test_kernel_low_pass_response(announce):
    """Smoothing response falls strictly with spatial frequency."""
    h = 2.0 * 1.2 / 255.0  # pixel pitch of the default 256x256 scenes
    frequencies = (math.pi / 8, math.pi / 4, math.pi / 2, math.pi)
    smallest_drop = math.inf
    ok = True
    for alpha in (0.5, 1.0, 1.5, 2.0):
        kernel = build_kernel(alpha, 4)
        response = [kernel_frequency_response(kernel, k * h, 0.0)
                    for k in frequencies]
        drops = [a - b for a, b in zip(response, response[1:])]
        ok &= all(drop > 0.0 for drop in drops)
        smallest_drop = min(smallest_drop, min(drops))
    announce(ok, "low-pass response",
             f"strictly decreasing along (k, 0) for k in pi/8..pi per unit "
             f"length (h={h:.4g}) at zeta=4, alpha in {{0.5, 1, 1.5, 2}}; "
             f"smallest drop {smallest_drop:.2e}")
    assert ok


def test_fractional_operator_oracles(announce):
    """Closed forms, form agreement and classical limits of the 1D ops."""
    integral_gap = abs(regularized_integral(GAUSS, 0.0, 1.0)
                       - 0.5 * math.sqrt(math.pi))
    form_gap = 0.0
    for alpha in (0.25, 0.5, 0.75):
        for f in (GAUSS, XGAUSS):
            direct = regularized_derivative(f, 1.0, alpha, form="derivative")
            stepped = regularized_derivative(f, 1.0, alpha, form="difference")
            form_gap = max(form_gap, abs(direct - stepped))
    f_prime = -2.0 * math.exp(-1.0)
    f_second = 2.0 * math.exp(-1.0)
    derivative_rel = abs(regularized_derivative(GAUSS, 1.0, 0.01)
                         - f_prime) / abs(f_prime)
    second_rel = abs(riesz_second_derivative(GAUSS, 1.0, 0.01)
                     - f_second) / abs(f_second)
    ok = (integral_gap <= 1e-6 and form_gap <= 1e-6
          and derivative_rel <= 0.01 and second_rel <= 0.01)
    announce(ok, "fractional operators",
             f"order-1 Gaussian integral off by {integral_gap:.1e} (<= 1e-6); "
             f"derivative and difference forms within {form_gap:.1e} "
             f"(<= 1e-6) for alpha in {{0.25, 0.5, 0.75}}; alpha=0.01 limits "
             f"within {100.0 * max(derivative_rel, second_rel):.2f}% of "
             f"f' and f'' (<= 1%)")
    assert integral_gap <= 1e-6
    assert form_gap <= 1e-6
    assert derivative_rel <= 0.01
    assert second_rel <= 0.01


def _write_run(out_dir, scene, blur, stack, truth):
    """Write everything the accuracy scenarios produce for one run."""
    write_stack_dir(out_dir / "stack", stack, truth=truth, scene=scene,
                    blur=blur, lossless=True)
    base = focus_volume(stack, 4)
    write_depth_csv(out_dir / "local.csv", recover_depth(base))
    smoothed = focus_volume(stack, 4, build_kernel(1.5, 4))
    write_depth_csv(out_dir / "nonlocal.csv", recover_depth(smoothed))


def test_deterministic_outputs(announce, plane_scene, sphere_scene, tmp_path):
    """Same-seed reruns of the accuracy scenarios are byte-identical."""
    n_files = 0
    ok = True
    for name, rendered in (("plane", plane_scene), ("sphere", sphere_scene)):
        first = tmp_path / f"{name}_first"
        second = tmp_path / f"{name}_second"
        _write_run(first, rendered.scene, rendered.blur, rendered.stack,
                   rendered.truth)
        n_slides, height, width = rendered.stack.data.shape
        again = render_stack(rendered.scene, rendered.blur, width, height,
                             n_slides, rendered.stack.z_min,
                             rendered.stack.z_max, rendered.stack.h)
        again_truth = ground_truth(rendered.scene, width, height,
                                   rendered.stack.h)
        _write_run(second, rendered.scene, rendered.blur, again, again_truth)
        relatives = sorted(p.relative_to(first)
                           for p in first.rglob("*") if p.is_file())
        ok &= relatives == sorted(p.relative_to(second)
                                  for p in second.rglob("*") if p.is_file())
        for rel in relatives:
            n_files += 1
            ok &= (first / rel).read_bytes() == (second / rel).read_bytes()
    announce(ok, "determinism",
             f"{n_files} output files (stacks, truth, local and nonlocal "
             f"depth maps) byte-identical across a same-seed rerun")
    assert ok


def test_sphere_slide_ties_survive_rendering(announce, sphere_scene):
    """Slides 0 and 1 stay bitwise equal wherever the blur of slide 1 is
    below rounding, so first-maximum peak selection keeps its exact ties."""
    data = sphere_scene.stack.data
    ties = int(np.count_nonzero(data[0] == data[1]))
    share = ties / data[0].size
    ok = share >= 0.45
    announce(ok, "slide ties",
             f"slides 0 and 1 of the 256x256x32 sphere bitwise equal at "
             f"{ties} of {data[0].size} pixels ({100.0 * share:.1f}%, "
             f">= 45%)")
    assert share >= 0.45


def test_default_cli_path_accuracy(announce, tmp_path):
    """The CLI defaults (256x256 sphere, 8-bit PGM slides, seed 0) through
    synth, recover and eval: nonlocal within [2.5, 3.8]%, local within
    [8, 11]%, nonlocal below local."""
    start = time.monotonic()

    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    stack = tmp_path / "stack"
    truth = stack / "truth.csv"
    run("synth", "--scene", "sphere", "--seed", 0, "--out", stack)
    rms = {}
    for method, extra in (("nonlocal", ("--alpha", 1.5, "--zeta", 4)),
                          ("local", ())):
        depth = tmp_path / f"{method}.csv"
        # Not {method}.json: that is the depth map's sidecar, an input.
        report = tmp_path / f"{method}-report.json"
        run("recover", "--stack", stack, "--method", method, "--q", 4, *extra,
            "--out", depth)
        run("eval", "--depth", depth, "--truth", truth, "--report", report)
        rms[method] = json.loads(report.read_text())["rms_percent"]
    elapsed = time.monotonic() - start
    ok = (2.5 <= rms["nonlocal"] <= 3.8 and 8.0 <= rms["local"] <= 11.0
          and rms["nonlocal"] < rms["local"] and elapsed <= 120.0)
    announce(ok, "default CLI path",
             f"8-bit PGM sphere: nonlocal(alpha=1.5, zeta=4) rms "
             f"{rms['nonlocal']:.4f}% (in [2.5, 3.8]%), local rms "
             f"{rms['local']:.4f}% (in [8, 11]%), q=4; {elapsed:.1f} s "
             f"(budget 120 s)")
    assert 2.5 <= rms["nonlocal"] <= 3.8
    assert 8.0 <= rms["local"] <= 11.0
    assert rms["nonlocal"] < rms["local"]
    assert elapsed <= 120.0
