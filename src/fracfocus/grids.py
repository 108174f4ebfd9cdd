"""Data carriers shared by the reconstruction pipeline.

All raster data is stored row-major with shape (height, width): element
[j, i] samples position (x_i, y_j), x running along columns and y along
rows, with the same spacing h in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["DepthMap", "FocalStack", "FocusVolume", "ScalarField"]


@dataclass(frozen=True)
class ScalarField:
    """A W x H grid of finite real intensities with isotropic spacing h."""

    values: np.ndarray
    h: float = 1.0

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or min(values.shape) < 1:
            raise ValueError(f"field must be a 2D grid, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        if not self.h > 0:
            raise ValueError(f"grid spacing must be positive, got {self.h}")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


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
        if data.shape[0] < 3:
            raise ValueError("a stack needs at least 3 slides for the peak fit")
        if not np.all(np.isfinite(data)):
            raise ValueError("slide values must be finite")
        if not self.z_max > self.z_min:
            raise ValueError(f"need z_max > z_min, got [{self.z_min}, {self.z_max}]")
        if not self.h > 0:
            raise ValueError(f"grid spacing must be positive, got {self.h}")

    @property
    def n_slides(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def delta_z(self) -> float:
        return (self.z_max - self.z_min) / (self.n_slides - 1)

    @property
    def z_values(self) -> np.ndarray:
        return self.z_min + np.arange(self.n_slides) * self.delta_z

    def slide(self, k: int) -> ScalarField:
        return ScalarField(self.data[k], self.h)


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
        # Two reductions, no volume-sized temporary: NaN and inf reach the
        # max or the min.
        if data.size:
            lowest, highest = data.min(), data.max()
            if not (np.isfinite(lowest) and np.isfinite(highest)):
                raise ValueError("focus measures must be finite")
            if lowest < 0:
                raise ValueError(
                    "focus measures are non-negative by construction")

    @property
    def n_slides(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def delta_z(self) -> float:
        return (self.z_max - self.z_min) / (self.n_slides - 1)

    def layer(self, k: int) -> ScalarField:
        return ScalarField(self.data[k], self.h)


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
        if not np.all(np.isfinite(values[valid])):
            raise ValueError("values at valid pixels must be finite")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def method(self) -> str:
        if self.alpha is not None:
            return "nonlocal"
        if self.q is not None:
            return "local"
        return "truth"

    def with_metadata(self, **kwargs) -> "DepthMap":
        return replace(self, **kwargs)
