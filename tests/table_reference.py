"""Reference comparison table: one whole volume per cell.

This is how ``comparison_table`` ran each cell before the cells became
items of the slide pool: the local volume at stride q once, then for every
(zeta, alpha) cell ``nonlocalize_volume`` on it and ``recover_depth``, and
for every local stride q' ``local_focus_volume`` and ``recover_depth``.
Tests hold the pooled table to it cell for cell.
"""

from fracfocus.depth import recover_depth
from fracfocus.evaluate import ComparisonTable, rms_error_percent
from fracfocus.focus import local_focus_volume, nonlocalize_volume
from fracfocus.grids import DepthMap, FocalStack
from fracfocus.kernel2d import build_kernel


def reference_table(stack: FocalStack, truth: DepthMap, q: int,
                    alphas: tuple[float, ...], zetas: tuple[int, ...],
                    local_strides: tuple[int, ...] | None = None,
                    ) -> ComparisonTable:
    """The comparison table computed cell by cell from whole volumes."""
    if local_strides is None:
        # A default stride that leaves no pixel inside its frame is left out.
        local_strides = tuple(s for s in zetas
                              if 2 * s < min(stack.data.shape[1:]))
    base = local_focus_volume(stack, q)
    grid = {}
    for zeta in zetas:
        for alpha in alphas:
            kernel = build_kernel(alpha, zeta)
            nl_map = recover_depth(nonlocalize_volume(base, kernel))
            grid[(zeta, float(alpha))] = rms_error_percent(nl_map, truth)
    local = {}
    for stride in local_strides:
        loc_map = recover_depth(local_focus_volume(stack, stride))
        local[stride] = rms_error_percent(loc_map, truth)
    return ComparisonTable(q=q, alphas=tuple(float(a) for a in alphas),
                           zetas=tuple(zetas), grid=grid, local=local)
