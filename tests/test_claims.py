"""The abstract's two accuracy claims, checked on the two scenes where each
one holds.

``PAPER.md`` claims that going from the local to the nonlocal focus measure
gains an order of magnitude in accuracy, and that the fractional kernel
gains a further factor of 2 over the pinhole limit alpha = 2.  The two
claims hold in different regimes of the renderer's blur growth ``sigma0``:

- on a sparsely textured scene at the default sigma0 = 3, a sphere with a
  checker texture of wavelength 0.3, the first claim holds with a margin,
  while alpha = 2 is only 1.09 times the fractional error;
- on the default value-noise texture (wavelength 0.075) at sigma0 = 10,
  alpha = 2 at a fixed cutoff zeta of 8 or 12 is 2.04 and 2.83 times the
  best fractional order at that cutoff, but at each method's own best
  cutoff the ratio is 1.25.

The ratios of the second claim are pinned as measured, not asserted to be
2, so that a change in any error shows here.  In memory with float slides:
256 x 256 x 32, seed 0, q = 4, the default extent.  This file is not part
of the acceptance layer.
"""

import pytest

from fracfocus.depth import recover_depth
from fracfocus.evaluate import rms_error_percent
from fracfocus.kernel2d import build_kernel
from fracfocus.synth import BlurSpec, SceneSpec, ground_truth, render_stack

SIZE = 256
SLIDES = 32
H = 2.0 * 1.2 / (SIZE - 1)
Q = 4
ZETA = 12
FRACTIONAL = (0.5, 1.0, 1.5, 1.9)


def _sphere_rms(scene, blur, cells):
    """Rms error (percent of the depth range) of the local measure at
    q = 4, under ``"local"``, and of the nonlocal one for each
    ``(alpha, zeta)`` of ``cells``."""
    stack = render_stack(scene, blur, SIZE, SIZE, SLIDES, 0.0, 1.0, H)
    truth = ground_truth(scene, SIZE, SIZE, H)

    def rms(kernel=None):
        return rms_error_percent(recover_depth(stack, Q, kernel), truth,
                                 z_range=1.0).rms_percent

    return {"local": rms(),
            **{(alpha, zeta): rms(build_kernel(alpha, zeta))
               for alpha, zeta in cells}}


@pytest.fixture(scope="module")
def checker_sphere_rms():
    """The checker sphere at sigma0 = 3: local, and zeta = 12 at alpha 1.5
    and 2."""
    scene = SceneSpec(kind="sphere", texture_kind="checker",
                      texture_wavelength=0.3, seed=0)
    return _sphere_rms(scene, BlurSpec(), [(1.5, ZETA), (2.0, ZETA)])


@pytest.fixture(scope="module")
def noise_sphere_rms():
    """The value-noise sphere at sigma0 = 10: local, and every alpha of
    ``FRACTIONAL`` and 2 at zeta 4, 8 and 12."""
    scene = SceneSpec(kind="sphere", texture_kind="value-noise",
                      texture_wavelength=0.075, seed=0)
    return _sphere_rms(scene, BlurSpec(sigma0=10),
                       [(alpha, zeta) for zeta in (4, 8, 12)
                        for alpha in (*FRACTIONAL, 2.0)])


def test_nonlocal_gains_an_order_of_magnitude(checker_sphere_rms):
    # Measured: 38.884% local against 2.933% nonlocal, 13.26 times.
    ratio = checker_sphere_rms["local"] / checker_sphere_rms[1.5, ZETA]
    assert ratio >= 10.0, checker_sphere_rms


def test_fractional_gain_over_the_pinhole_limit_as_measured(
        checker_sphere_rms):
    # The abstract claims a factor of 2; measured is 3.197% at alpha = 2
    # against 2.933% at alpha = 1.5, 1.09 times.  Pinned to the measurement
    # so that a change in either error shows here.
    ratio = checker_sphere_rms[2.0, ZETA] / checker_sphere_rms[1.5, ZETA]
    assert ratio == pytest.approx(1.09, abs=0.005), checker_sphere_rms


def _best_fractional(rms, zetas):
    return min(rms[alpha, zeta] for alpha in FRACTIONAL for zeta in zetas)


@pytest.mark.parametrize("zeta, measured", [(8, 2.04), (12, 2.83)])
def test_pinhole_limit_at_a_fixed_cutoff_as_measured(noise_sphere_rms, zeta,
                                                     measured):
    # Measured: 3.160% at alpha = 2 against 1.549% at alpha = 0.5 for
    # zeta = 8, and 5.165% against 1.824% for zeta = 12.
    ratio = (noise_sphere_rms[2.0, zeta]
             / _best_fractional(noise_sphere_rms, [zeta]))
    assert ratio == pytest.approx(measured, abs=0.005), noise_sphere_rms


def test_pinhole_limit_at_its_best_cutoff_as_measured(noise_sphere_rms):
    # Measured: 1.635% at alpha = 2, zeta = 4, against 1.306% at alpha = 1,
    # zeta = 4: 1.25 times, not 2.
    zetas = (4, 8, 12)
    ratio = (min(noise_sphere_rms[2.0, zeta] for zeta in zetas)
             / _best_fractional(noise_sphere_rms, zetas))
    assert ratio == pytest.approx(1.25, abs=0.005), noise_sphere_rms
