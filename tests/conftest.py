"""Shared fixtures and helpers: rendered stacks at the standard evaluation
geometry, whole focus volumes, and depth maps of hand-made focus data.

The full-size plane and sphere stacks are expensive enough (a few seconds
each) to render once per session. Render wall time is recorded so the
acceptance tests can count it against their runtime budgets.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from fracfocus.depth import PeakSearch
from fracfocus.focus import focus_layers
from fracfocus.grids import DepthMap, FocalStack
from fracfocus.synth import BlurSpec, SceneSpec, ground_truth, render_stack


def collect_layers(source, q, kernel=None):
    """The focus layers of every slide of ``source`` as one
    (n_slides, height, width) array: copies of the one layer of each
    stack ``focus_layers`` yields for the kernel's own cutoff (0 without a
    kernel), which may be overwritten once the next is requested."""
    return np.array([layers[0].copy() for layers in focus_layers(source, q,
                                                                 kernel)])


def search_depth(data, *, q=1, z_min=0.0, z_max=1.0, h=1.0, alpha=None,
                 zeta=None):
    """Depth map of hand-made focus data, (n_slides, height, width),
    pushed slide by slide through a ``PeakSearch``."""
    search = PeakSearch()
    for layer in np.asarray(data, dtype=float):
        search.push(layer)
    return search.depth_map(q=q, z_min=z_min, z_max=z_max, h=h, alpha=alpha,
                            zeta=zeta)

FULL_SIZE = 256
FULL_SLIDES = 32
FULL_EXTENT = 1.2
FULL_H = 2.0 * FULL_EXTENT / (FULL_SIZE - 1)
FULL_WAVELENGTH = 0.075
FULL_SIGMA0 = 3.0


@dataclass(frozen=True)
class RenderedScene:
    """A stack plus its ground truth, the scene and blur settings that
    made it, and the seconds spent rendering (counted against acceptance
    runtime budgets)."""

    stack: FocalStack
    truth: DepthMap
    scene: SceneSpec
    blur: BlurSpec
    render_seconds: float


def _render(scene: SceneSpec, blur: BlurSpec, size: int, n_slides: int,
            h: float) -> RenderedScene:
    start = time.monotonic()
    stack = render_stack(
        scene,
        blur,
        width=size,
        height=size,
        n_slides=n_slides,
        z_min=0.0,
        z_max=1.0,
        h=h,
    )
    elapsed = time.monotonic() - start
    truth = ground_truth(scene, width=size, height=size, h=h)
    return RenderedScene(stack=stack, truth=truth, scene=scene, blur=blur,
                         render_seconds=elapsed)


@pytest.fixture(scope="session")
def plane_scene() -> RenderedScene:
    spec = SceneSpec(
        kind="plane",
        height=0.5,
        texture_wavelength=FULL_WAVELENGTH,
        texture_kind="value-noise",
        seed=0,
    )
    return _render(spec, BlurSpec(sigma0=FULL_SIGMA0), FULL_SIZE, FULL_SLIDES,
                   FULL_H)


@pytest.fixture(scope="session")
def sphere_scene() -> RenderedScene:
    spec = SceneSpec(
        kind="sphere",
        radius=1.0,
        texture_wavelength=FULL_WAVELENGTH,
        texture_kind="value-noise",
        seed=0,
    )
    return _render(spec, BlurSpec(sigma0=FULL_SIGMA0), FULL_SIZE, FULL_SLIDES,
                   FULL_H)


SMALL_SIZE = 48
SMALL_SLIDES = 9
SMALL_H = 2.0 * FULL_EXTENT / (SMALL_SIZE - 1)


@pytest.fixture(scope="session")
def small_plane() -> RenderedScene:
    """A quick plane scene for unit tests that only need plausible data."""
    spec = SceneSpec(
        kind="plane",
        height=0.5,
        texture_wavelength=0.3,
        texture_kind="value-noise",
        seed=11,
    )
    return _render(spec, BlurSpec(sigma0=2.0, max_radius=8), SMALL_SIZE,
                   SMALL_SLIDES, SMALL_H)
