"""Depth-from-focus reconstruction with a fractional-order focus measure.

The pipeline: render or load a focal stack, compute the modified-Laplacian
focus measure per slide (locally, or smeared by a fractional-order
nonlocalization kernel), then recover per-pixel depth from the focus peak
with sub-slice parabolic refinement.  One-dimensional regularized
fractional operators, the 2D kernel construction, synthetic scene
generation and error evaluation are exposed as separate modules and
re-exported here.
"""

from .depth import PeakFit, PeakSearch, parabolic_peak, recover_depth
from .evaluate import (ComparisonTable, EmptyMaskError, ErrorReport,
                       axis_profile, comparison_table, rms_error_percent)
from .focus import focus_layers
from .frac1d import (Function1D, QuadratureError, QuadratureSpec,
                     regularized_derivative, regularized_integral,
                     riesz_second_derivative)
from .grids import DepthMap, FocalStack
from .io import (StackFormatError, StackHeader, read_depth_csv, read_pgm,
                 read_stack_dir, read_stack_header, write_depth_csv,
                 write_pgm, write_stack, write_stack_dir)
from .kernel2d import Kernel, build_kernel, kernel_frequency_response
from .synth import (BlurSpec, SceneSpec, ground_truth, render_slides,
                    render_stack)

__version__ = "0.1.0"

__all__ = [
    "BlurSpec",
    "ComparisonTable",
    "DepthMap",
    "EmptyMaskError",
    "ErrorReport",
    "FocalStack",
    "Function1D",
    "Kernel",
    "PeakFit",
    "PeakSearch",
    "QuadratureError",
    "QuadratureSpec",
    "SceneSpec",
    "StackFormatError",
    "StackHeader",
    "axis_profile",
    "build_kernel",
    "comparison_table",
    "focus_layers",
    "ground_truth",
    "kernel_frequency_response",
    "parabolic_peak",
    "read_depth_csv",
    "read_pgm",
    "read_stack_dir",
    "read_stack_header",
    "recover_depth",
    "regularized_derivative",
    "regularized_integral",
    "render_slides",
    "render_stack",
    "riesz_second_derivative",
    "rms_error_percent",
    "write_depth_csv",
    "write_pgm",
    "write_stack",
    "write_stack_dir",
    "__version__",
]
