"""Data carriers shared by the reconstruction pipeline.

All raster data is stored row-major with shape (height, width): element
[j, i] samples position (x_i, y_j), x running along columns and y along
rows, with the same spacing h in both directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DepthMap", "FocalStack", "FocusVolume", "check_stack_geometry",
           "finite_min"]


def check_stack_geometry(n_slides: int, z_min: float, z_max: float,
                         h: float) -> None:
    """Reject what no focal stack may have, whatever its slides hold.

    Needs at least 3 slides (for the peak fit), finite z_min, z_max and h,
    z_max > z_min and h > 0; raises ValueError otherwise.  Stack
    directories and rendered stacks are checked with it before any slide
    is read or rendered.
    """
    if n_slides < 3:
        raise ValueError("a stack needs at least 3 slides for the peak fit")
    if not all(map(math.isfinite, (z_min, z_max, h))):
        raise ValueError(f"z_min, z_max and h must be finite, "
                         f"got {z_min}, {z_max}, {h}")
    if not z_max > z_min:
        raise ValueError(f"need z_max > z_min, got [{z_min}, {z_max}]")
    if not h > 0:
        raise ValueError(f"grid spacing must be positive, got {h}")


def finite_min(x: np.ndarray) -> float | None:
    """The smallest element of ``x``, or None if any element is NaN or +-inf.

    Two reductions and no array-sized temporary: a NaN or an infinity
    always reaches the minimum or the maximum.  An empty ``x`` has nothing
    non-finite and gives +inf.
    """
    if x.size == 0:
        return math.inf
    lowest = x.min()
    if np.isfinite(lowest) and np.isfinite(x.max()):
        return float(lowest)
    return None


@dataclass(frozen=True)
class FocalStack:
    """Slides of one scene at uniformly spaced focal distances.

    Slide k sits at z_k = z_min + k * delta_z for k = 0 .. n_slides-1, with
    delta_z = (z_max - z_min) / (n_slides - 1).
    """

    data: np.ndarray  # (n_slides, height, width)
    z_min: float
    z_max: float
    h: float = 1.0

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=float)
        object.__setattr__(self, "data", data)
        if data.ndim != 3:
            raise ValueError(f"stack data must be 3D, got shape {data.shape}")
        check_stack_geometry(data.shape[0], self.z_min, self.z_max, self.h)
        if finite_min(data) is None:
            raise ValueError("slide values must be finite")

    @property
    def n_slides(self) -> int:
        return self.data.shape[0]

    @property
    def delta_z(self) -> float:
        return (self.z_max - self.z_min) / (self.n_slides - 1)


@dataclass(frozen=True)
class FocusVolume:
    """Per-slide focus-measure fields, with a zero frame of width q.

    ``alpha``/``zeta`` are None for the plain local measure and record the
    nonlocalization parameters otherwise.
    """

    data: np.ndarray  # (n_slides, height, width), non-negative
    q: int
    z_min: float
    z_max: float
    h: float = 1.0
    alpha: float | None = None
    zeta: int | None = None

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=float)
        object.__setattr__(self, "data", data)
        if data.ndim != 3:
            raise ValueError(f"volume data must be 3D, got shape {data.shape}")
        if self.q < 1:
            raise ValueError(f"step q must be positive, got {self.q}")
        lowest = finite_min(data)
        if lowest is None:
            raise ValueError("focus measures must be finite")
        if lowest < 0:
            raise ValueError("focus measures are non-negative by construction")

    @property
    def n_slides(self) -> int:
        return self.data.shape[0]

    @property
    def delta_z(self) -> float:
        return (self.z_max - self.z_min) / (self.n_slides - 1)


@dataclass(frozen=True)
class DepthMap:
    """Per-pixel recovered (or ground-truth) focal distance with a validity mask.

    ``values`` is meaningful only where ``valid`` is True; recovered maps
    store NaN elsewhere, synthetic ground truth stores the clamped surface
    height (needed by the defocus model).  Metadata fields are None when
    they do not apply (e.g. ground-truth maps carry no q).
    """

    values: np.ndarray  # (height, width)
    valid: np.ndarray   # (height, width) bool
    q: int | None = None
    alpha: float | None = None
    zeta: int | None = None
    z_min: float | None = None
    z_max: float | None = None
    h: float | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        valid = np.asarray(self.valid, dtype=bool)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "valid", valid)
        if values.ndim != 2 or values.shape != valid.shape:
            raise ValueError("values and valid mask must be matching 2D grids")
        if finite_min(values[valid]) is None:
            raise ValueError("values at valid pixels must be finite")

    @property
    def method(self) -> str:
        if self.alpha is not None:
            return "nonlocal"
        if self.q is not None:
            return "local"
        return "truth"
