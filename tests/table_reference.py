"""Reference comparison table: one whole volume per cell.

Every (zeta, alpha) cell is ``recover_depth`` on its own
``focus_volume(stack, q, build_kernel(alpha, zeta))``, and every local
stride q' ``recover_depth`` on ``focus_volume(stack, q')``: no pass is
shared between cells, as the table's streams share one per order.  Tests
hold the streamed table to it cell for cell.
"""

from fracfocus.depth import recover_depth
from fracfocus.evaluate import ComparisonTable, rms_error_percent
from fracfocus.focus import focus_volume
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
    grid = {}
    for zeta in zetas:
        for alpha in alphas:
            kernel = build_kernel(alpha, zeta)
            nl_map = recover_depth(focus_volume(stack, q, kernel))
            grid[(zeta, float(alpha))] = rms_error_percent(nl_map, truth)
    local = {}
    for stride in local_strides:
        loc_map = recover_depth(focus_volume(stack, stride))
        local[stride] = rms_error_percent(loc_map, truth)
    return ComparisonTable(q=q, alphas=tuple(float(a) for a in alphas),
                           zetas=tuple(zetas), grid=grid, local=local)
