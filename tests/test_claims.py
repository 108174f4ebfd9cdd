"""The abstract's two accuracy claims, checked in the regime where the first
one holds.

``PAPER.md`` claims that going from the local to the nonlocal focus measure
gains an order of magnitude in accuracy, and that the fractional kernel
gains a further factor of 2 over the pinhole limit alpha = 2.  On a sparsely
textured scene, a sphere with a checker texture of wavelength 0.3, the
first claim holds with a margin; the second was not reached on any scene
tried, so its ratio is recorded here as measured, not asserted to be 2.

In memory with float slides: 256 x 256 x 32, seed 0, the default blur and
extent.  This file is not part of the acceptance layer.
"""

import pytest

from fracfocus.depth import recover_depth
from fracfocus.evaluate import rms_error_percent
from fracfocus.focus import local_focus_volume, nonlocalize_volume
from fracfocus.kernel2d import build_kernel
from fracfocus.synth import BlurSpec, SceneSpec, ground_truth, render_stack

SIZE = 256
SLIDES = 32
H = 2.0 * 1.2 / (SIZE - 1)
Q = 4
ZETA = 12


@pytest.fixture(scope="module")
def checker_sphere_rms():
    """Rms error (percent of the depth range) of the local measure at
    q = 4 and of the nonlocal one at zeta = 12, alpha 1.5 and 2."""
    scene = SceneSpec(kind="sphere", texture_kind="checker",
                      texture_wavelength=0.3, seed=0)
    stack = render_stack(scene, BlurSpec(), SIZE, SIZE, SLIDES, 0.0, 1.0, H)
    truth = ground_truth(scene, SIZE, SIZE, H)
    base = local_focus_volume(stack, Q)
    del stack

    def rms(volume):
        return rms_error_percent(recover_depth(volume), truth,
                                 z_range=1.0).rms_percent

    return {"local": rms(base),
            **{alpha: rms(nonlocalize_volume(base, build_kernel(alpha, ZETA)))
               for alpha in (1.5, 2.0)}}


def test_nonlocal_gains_an_order_of_magnitude(checker_sphere_rms):
    # Measured: 38.884% local against 2.933% nonlocal, 13.26 times.
    ratio = checker_sphere_rms["local"] / checker_sphere_rms[1.5]
    assert ratio >= 10.0, checker_sphere_rms


def test_fractional_gain_over_the_pinhole_limit_as_measured(
        checker_sphere_rms):
    # The abstract claims a factor of 2; measured is 3.197% at alpha = 2
    # against 2.933% at alpha = 1.5, 1.09 times.  Pinned to the measurement
    # so that a change in either error shows here.
    ratio = checker_sphere_rms[2.0] / checker_sphere_rms[1.5]
    assert ratio == pytest.approx(1.09, abs=0.005), checker_sphere_rms
