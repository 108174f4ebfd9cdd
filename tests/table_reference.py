"""Reference comparison table: one recovery per cell.

Every (zeta, alpha) cell is its own ``recover_depth(stack, q,
build_kernel(alpha, zeta))``, and every local stride q' its own
``recover_depth(stack, q')``: no pass is shared between cells, as the
table's streams share one per order.  Tests hold the streamed table to it
cell for cell.
"""

from fracfocus.depth import recover_depth
from fracfocus.evaluate import ComparisonTable, rms_error_percent
from fracfocus.grids import DepthMap, FocalStack
from fracfocus.kernel2d import build_kernel


def reference_table(stack: FocalStack, truth: DepthMap, q: int,
                    alphas: tuple[float, ...], zetas: tuple[int, ...],
                    local_strides: tuple[int, ...] | None = None,
                    ) -> ComparisonTable:
    """The comparison table computed cell by cell."""
    if local_strides is None:
        # A default stride that leaves no pixel inside its frame is left out.
        local_strides = tuple(s for s in zetas
                              if 2 * s < min(stack.data.shape[1:]))
    grid = {}
    for zeta in zetas:
        for alpha in alphas:
            kernel = build_kernel(alpha, zeta)
            nl_map = recover_depth(stack, q, kernel)
            grid[(zeta, float(alpha))] = rms_error_percent(nl_map, truth)
    local = {}
    for stride in local_strides:
        loc_map = recover_depth(stack, stride)
        local[stride] = rms_error_percent(loc_map, truth)
    return ComparisonTable(q=q, alphas=tuple(float(a) for a in alphas),
                           zetas=tuple(zetas), grid=grid, local=local)
