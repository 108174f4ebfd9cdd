"""Depth-map error metrics and local-versus-nonlocal comparison grids."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .depth import recover_depth
from .focus import local_focus_volume, nonlocalize_volume
from .grids import DepthMap, FocalStack
from .kernel2d import build_kernel

__all__ = [
    "ComparisonTable",
    "EmptyMaskError",
    "ErrorReport",
    "axis_profile",
    "comparison_table",
    "rms_error_percent",
]


class EmptyMaskError(ValueError):
    """Raised when two depth maps share no jointly valid pixel."""


@dataclass(frozen=True)
class ErrorReport:
    """Root-mean-square depth error over jointly valid pixels.

    ``rms_percent`` is the rms error as a percentage of the depth range,
    the unit used for all cross-method comparisons here.  The method and
    parameter fields record how the compared map was produced, when known.
    """

    rms_percent: float
    rms_absolute: float
    n_valid: int
    n_total: int
    method: str | None = None
    q: int | None = None
    alpha: float | None = None
    zeta: int | None = None


def _check_same_grid(recovered: DepthMap, truth: DepthMap) -> None:
    if recovered.values.shape != truth.values.shape:
        raise ValueError(f"shape mismatch: recovered "
                         f"{recovered.values.shape}, truth {truth.values.shape}")


def rms_error_percent(recovered: DepthMap, truth: DepthMap,
                      z_range: float | None = None) -> ErrorReport:
    """Compare a recovered depth map against ground truth.

    Only pixels valid in both maps contribute.  ``z_range`` defaults to
    the recovered map's z_max - z_min; pass it explicitly when the map
    carries no stack metadata.  It must be finite and positive: an infinite
    range would read every error as 0%.
    """
    _check_same_grid(recovered, truth)
    if z_range is None:
        if recovered.z_min is None or recovered.z_max is None:
            raise ValueError("z_range not given and recovered map carries "
                             "no z_min/z_max metadata")
        z_range = recovered.z_max - recovered.z_min
    if not (math.isfinite(z_range) and z_range > 0):
        raise ValueError(f"z_range must be finite and positive, got {z_range}")
    joint = recovered.valid & truth.valid
    n_valid = int(np.count_nonzero(joint))
    if n_valid == 0:
        raise EmptyMaskError("no jointly valid pixels to compare")
    diff = recovered.values[joint] - truth.values[joint]
    rms = float(np.sqrt(np.mean(diff * diff)))
    return ErrorReport(
        rms_percent=100.0 * rms / z_range,
        rms_absolute=rms,
        n_valid=n_valid,
        n_total=joint.size,
        method=recovered.method,
        q=recovered.q,
        alpha=recovered.alpha,
        zeta=recovered.zeta,
    )


@dataclass(frozen=True)
class ComparisonTable:
    """Grid of rms errors: nonlocal over (zeta, alpha), local over stride.

    ``grid[(zeta, alpha)]`` holds the nonlocal pipeline's error at the
    fixed stride ``q``; ``local[q_prime]`` holds the plain local
    pipeline's error at stride q_prime, one entry per requested stride
    (by default the same values as the zeta list, so each row of the
    formatted table carries a matching local reference).
    """

    q: int
    alphas: tuple[float, ...]
    zetas: tuple[int, ...]
    grid: dict[tuple[int, float], ErrorReport] = field(default_factory=dict)
    local: dict[int, ErrorReport] = field(default_factory=dict)

    def rms(self, zeta: int, alpha: float) -> float:
        return self.grid[(zeta, float(alpha))].rms_percent

    def spread(self) -> float:
        """Worst-to-best rms ratio over grid cells with alpha > 0."""
        cells = [rep.rms_percent for (_, alpha), rep in self.grid.items()
                 if alpha > 0.0]
        if not cells:
            raise ValueError("no grid cells with alpha > 0")
        best = min(cells)
        if best == 0.0:
            return float("inf") if max(cells) > 0.0 else 1.0
        return max(cells) / best

    def format(self) -> str:
        """CSV grid: one row per zeta, one column per alpha, then the local
        error at stride q' = zeta (empty where it was not computed)."""
        header = ["zeta"] + [f"alpha={a:g}" for a in self.alphas]
        header.append("local_at_q_prime_eq_zeta")
        lines = [",".join(header)]
        for zeta in self.zetas:
            row = [str(zeta)]
            row += [format(self.rms(zeta, a), ".9g") for a in self.alphas]
            loc = self.local.get(zeta)
            row.append(format(loc.rms_percent, ".9g") if loc else "")
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def comparison_table(stack: FocalStack, truth: DepthMap, q: int,
                     alphas: tuple[float, ...] = (0.0, 0.5, 1.0, 1.5, 2.0),
                     zetas: tuple[int, ...] = (1, 2, 3, 4),
                     local_strides: tuple[int, ...] | None = None,
                     ) -> ComparisonTable:
    """Run the local and nonlocal pipelines over a parameter grid.

    The local focus volume at stride q is computed once and reused for
    every (zeta, alpha) cell, so each cell costs one kernel build and one
    smoothing pass.  ``local_strides`` defaults to the zeta list, giving
    the customary side-by-side column of local errors at q' = zeta.
    """
    if not alphas or not zetas:
        raise ValueError("alphas and zetas must be non-empty")
    if local_strides is None:
        local_strides = zetas
    base = local_focus_volume(stack, q)
    z_range = stack.z_max - stack.z_min
    grid = {}
    for zeta in zetas:
        for alpha in alphas:
            kernel = build_kernel(alpha, zeta)
            nl_map = recover_depth(nonlocalize_volume(base, kernel))
            grid[(zeta, float(alpha))] = rms_error_percent(nl_map, truth,
                                                           z_range)
    local = {}
    for stride in local_strides:
        loc_map = recover_depth(local_focus_volume(stack, stride))
        local[stride] = rms_error_percent(loc_map, truth, z_range)
    return ComparisonTable(q=q, alphas=tuple(float(a) for a in alphas),
                           zetas=tuple(zetas), grid=grid, local=local)


def axis_profile(recovered: DepthMap, truth: DepthMap, axis: str = "y",
                 ) -> list[tuple[float, float, float]]:
    """Walk the central row or column and pair recovered with true depth.

    Returns (coordinate, recovered z, true z) triples, skipping pixels
    invalid in either map.  ``axis`` is the direction the profile runs
    along: "x" walks the middle row, "y" the middle column.
    """
    _check_same_grid(recovered, truth)
    height, width = recovered.values.shape
    h = recovered.h if recovered.h is not None else 1.0
    if axis == "x":
        row = height // 2
        coord = (np.arange(width) - (width - 1) / 2.0) * h
        rec, tru = recovered.values[row, :], truth.values[row, :]
        ok = recovered.valid[row, :] & truth.valid[row, :]
    elif axis == "y":
        col = width // 2
        coord = (np.arange(height) - (height - 1) / 2.0) * h
        rec, tru = recovered.values[:, col], truth.values[:, col]
        ok = recovered.valid[:, col] & truth.valid[:, col]
    else:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    return [(float(coord[i]), float(rec[i]), float(tru[i]))
            for i in np.flatnonzero(ok)]
