"""Depth-map error metrics and local-versus-nonlocal comparison grids.

A grid is a sequence of streams over the stack, one per order and one per
local stride, each on the slide pool of :mod:`kernel2d`: one kernel pass a
slide serves every cutoff of an order, and no stack-sized volume is held.
Each stream is the push-and-stamp loop of ``depth.recover_depth`` with one
peak search per cutoff, so each cell is, bit for bit, the error of
``recover_depth`` with that cell's q and kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .depth import _recover_depths
from .focus import _check_step, _has_interior
from .grids import DepthMap, FocalStack
from .kernel2d import _check_cutoff, build_kernel

if TYPE_CHECKING:
    from .io import StackHeader

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
    z_range: float  # the depth range rms_percent is a percentage of
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
            raise ValueError("no z_range (--z-range) given and the recovered "
                             "map carries no z_min/z_max")
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
        z_range=z_range,
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


def comparison_table(source: FocalStack | StackHeader, truth: DepthMap,
                     q: int,
                     alphas: tuple[float, ...] = (0.0, 0.5, 1.0, 1.5, 2.0),
                     zetas: tuple[int, ...] = (1, 2, 3, 4),
                     local_strides: tuple[int, ...] | None = None,
                     ) -> ComparisonTable:
    """Run the local and nonlocal pipelines over a parameter grid.

    ``source`` is a slide source (see :mod:`fracfocus.focus`): a FocalStack
    in memory, or the StackHeader of a stack directory, whose slides are
    then read on the workers and never held all at once.  Cell (zeta,
    alpha) is the error of ``recover_depth(source, q, build_kernel(alpha,
    zeta))``, and the local entry at stride q' that of
    ``recover_depth(source, q')``, bit for bit.  ``local_strides`` defaults
    to the zeta list, giving the customary side-by-side column of local
    errors at q' = zeta; a default stride that leaves no pixel inside its
    frame has no entry, and its cell of the formatted column is empty.  The
    depth range is the source's, which every recovered map carries.

    The table is a sequence of streams over the stack, each the loop of
    ``recover_depth`` (``depth._recover_depths``): one per order alpha > 0,
    whose one kernel pass a slide feeds the peak search of each cutoff; one
    of the local measure at q, which answers the alpha = 0 cells (the delta
    kernel returns an exact copy, so it is not built) and the local entry
    at q' = q; and one for each other local stride.  Each search's map is
    scored once, and each cell it answers takes that report with its own
    method, q, alpha and zeta.  No volume is held: the table holds
    O((CPUs + 1) * cutoffs * height * width) values, however many slides
    there are.  Every cutoff (first: the default strides come from them),
    order, q, explicit stride, the spacing and the truth's grid are checked
    before the first slide is read; a cutoff or an order given twice is
    refused (-0 is order 0, and is recorded as +0.0).
    """
    if not alphas or not zetas:
        raise ValueError("alphas and zetas must be non-empty")
    cutoffs = [_check_cutoff(zeta) for zeta in zetas]
    # + 0.0 turns an order of -0.0, which equals 0, into +0.0.
    orders = tuple(float(alpha) + 0.0 for alpha in alphas)
    for name, values in (("cutoff zeta", cutoffs), ("order alpha", orders)):
        repeats = [value for i, value in enumerate(values)
                   if value in values[:i]]
        if repeats:
            raise ValueError(f"{name} {repeats[0]:g} is given more than once")
    cutoffs.sort()
    shape = (source.height, source.width)
    _check_step(shape, q, source.h)
    if local_strides is None:
        local_strides = tuple(s for s in zetas if _has_interior(shape, s))
    for stride in local_strides:
        _check_step(shape, stride, source.h)
    if truth.values.shape != shape:
        raise ValueError(f"shape mismatch: stack slides {shape}, "
                         f"truth {truth.values.shape}")
    # build_kernel refuses an order outside [0, 2]; order 0 needs none.
    kernels = {alpha: build_kernel(alpha, cutoffs[-1]) for alpha in orders
               if alpha != 0.0}

    def local(stride: int) -> tuple:
        return stride, {"method": "local", "q": stride, "alpha": None,
                        "zeta": None}

    def nonlocal_(zeta: int, alpha: float) -> tuple:
        return (zeta, alpha), {"method": "nonlocal", "q": q, "alpha": alpha,
                               "zeta": int(zeta)}

    # Each stream: stride, kernel, cutoffs ((0,): the local measure) and,
    # per map, the cells it answers as (table key, report parameters).
    base = [nonlocal_(zeta, alpha) for alpha in orders if alpha == 0.0
            for zeta in zetas] + [local(q)] * (q in local_strides)
    streams = [(q, None, (0,), [base])] if base else []
    streams += [(q, kernel, cutoffs,
                 [[nonlocal_(zeta, alpha)] for zeta in cutoffs])
                for alpha, kernel in kernels.items()]
    streams += [(stride, None, (0,), [[local(stride)]])
                for stride in dict.fromkeys(local_strides) if stride != q]
    reports = {}
    for stride, kernel, stream_cutoffs, answers in streams:
        maps = _recover_depths(source, stride, kernel, stream_cutoffs)
        for cells in answers:
            # The map's values do not depend on the recovery parameters it
            # records, so one score serves every cell it answers; the map
            # goes once it is scored, before the next is built.
            report = rms_error_percent(next(maps), truth)
            reports.update((key, replace(report, **params))
                           for key, params in cells)
    return ComparisonTable(q=q, alphas=orders, zetas=tuple(zetas),
                           grid={(zeta, alpha): reports[(zeta, alpha)]
                                 for zeta in zetas for alpha in orders},
                           local={s: reports[s] for s in local_strides})


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
