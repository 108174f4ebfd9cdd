"""Command-line driver: synthesize stacks, recover depth, evaluate, dump kernels.

Subcommands: kernel, synth, recover, eval, selftest.  All output files are
deterministic given the arguments and seed; rerunning a command reproduces
its outputs byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .depth import parabolic_peak, recover_depth
from .evaluate import axis_profile, comparison_table, rms_error_percent
from .focus import local_focus_volume, nonlocalize_volume
from .frac1d import QuadratureError
from .io import (StackFormatError, read_depth_csv, read_stack_dir,
                 write_depth_csv, write_stack_dir)
from .kernel2d import build_kernel, kernel_frequency_response
from .synth import BlurSpec, SceneSpec, ground_truth, render_stack

__all__ = ["main"]


def _log(message: str) -> None:
    print(f"fracfocus: {message}", file=sys.stderr)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _float_list(text: str) -> tuple[float, ...]:
    values = tuple(float(t) for t in text.split(",") if t.strip())
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list")
    return values


def _int_list(text: str) -> tuple[int, ...]:
    values = tuple(int(t) for t in text.split(",") if t.strip())
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list")
    return values


def cmd_kernel(args: argparse.Namespace) -> int:
    kernel = build_kernel(args.alpha, args.zeta)
    if args.format == "csv":
        lines = [",".join(format(w, ".9g") for w in row)
                 for row in kernel.weights]
        text = "\n".join(lines) + "\n"
    else:
        payload = {"alpha": kernel.alpha, "zeta": kernel.zeta,
                   "weights": kernel.weights.tolist()}
        text = json.dumps(payload, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="ascii")
        _log(f"wrote kernel alpha={args.alpha} zeta={args.zeta} to {args.out}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    if args.size < 8:
        raise ValueError(f"--size must be >= 8, got {args.size}")
    scene = SceneSpec(kind=args.scene, radius=args.radius, height=args.height,
                      ramp_lo=args.ramp_lo, ramp_hi=args.ramp_hi,
                      texture_wavelength=args.wavelength,
                      texture_kind=args.texture, seed=args.seed)
    blur = BlurSpec(sigma0=args.sigma0, max_radius=args.max_radius)
    h = 2.0 * args.extent / (args.size - 1)
    _log(f"rendering {args.scene} {args.size}x{args.size}, "
         f"{args.slices} slides, z in [{args.z_min}, {args.z_max}]")
    stack = render_stack(scene, blur, args.size, args.size, args.slices,
                         args.z_min, args.z_max, h)
    truth = ground_truth(scene, args.size, args.size, h)
    truth = truth.with_metadata(z_min=args.z_min, z_max=args.z_max)
    write_stack_dir(args.out, stack, truth=truth, scene=scene, blur=blur,
                    lossless=args.lossless)
    _log(f"wrote {args.slices} slides, stack.json and truth.csv to {args.out}")
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    stack = read_stack_dir(args.stack)
    _log(f"read stack {args.stack} "
         f"({stack.data.shape[0]} slides of {stack.data.shape[2]}x"
         f"{stack.data.shape[1]})")
    volume = local_focus_volume(stack, args.q)
    if args.method == "nonlocal":
        volume = nonlocalize_volume(volume, build_kernel(args.alpha, args.zeta))
    depth_map = recover_depth(volume)
    write_depth_csv(args.out, depth_map)
    _log(f"recovered depth ({args.method}, q={args.q}"
         + (f", alpha={args.alpha}, zeta={args.zeta}"
            if args.method == "nonlocal" else "")
         + f"), wrote {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    recovered = read_depth_csv(args.depth)
    truth = read_depth_csv(args.truth)
    z_range = args.z_range
    if z_range is None and recovered.z_min is not None \
            and recovered.z_max is not None:
        z_range = recovered.z_max - recovered.z_min
    if z_range is None:
        raise ValueError("no --z-range given and the depth sidecar carries "
                         "no z_min/z_max")
    report = rms_error_percent(recovered, truth, z_range)
    payload = {
        "rms_percent": report.rms_percent,
        "rms_absolute": report.rms_absolute,
        "n_valid": report.n_valid,
        "n_total": report.n_total,
        "z_range": z_range,
        "normalization": "percent of z_range",
        "parameters": {"method": report.method, "q": report.q,
                       "alpha": report.alpha, "zeta": report.zeta},
        "table": None,
    }
    if args.table is not None:
        if args.stack is None:
            raise ValueError("--table needs --stack to rerun the pipelines")
        stack = read_stack_dir(args.stack)
        table = comparison_table(stack, truth, args.q, args.alphas, args.zetas)
        _write_table_csv(args.table, table)
        payload["table"] = {
            "q": table.q,
            "alphas": list(table.alphas),
            "zetas": list(table.zetas),
            "grid": [{"zeta": z, "alpha": a,
                      "rms_percent": rep.rms_percent, "n_valid": rep.n_valid}
                     for (z, a), rep in sorted(table.grid.items())],
            "local": [{"q": s, "rms_percent": rep.rms_percent,
                       "n_valid": rep.n_valid}
                      for s, rep in sorted(table.local.items())],
        }
        _log(f"wrote comparison table to {args.table}")
    if args.profile is not None:
        rows = axis_profile(recovered, truth, args.axis)
        lines = ["coordinate,recovered,true"]
        lines += [f"{c:.17g},{r:.17g},{t:.17g}" for c, r, t in rows]
        Path(args.profile).write_text("\n".join(lines) + "\n",
                                      encoding="ascii")
        _log(f"wrote {args.axis}-axis profile to {args.profile}")
    Path(args.report).write_text(json.dumps(payload, indent=2) + "\n",
                                 encoding="ascii")
    _log(f"rms error {report.rms_percent:.4f}% of range "
         f"({report.n_valid} pixels), wrote {args.report}")
    return 0


def _write_table_csv(path: str | Path, table) -> None:
    header = ["zeta"] + [f"alpha={a:g}" for a in table.alphas]
    header.append("local_at_q_prime_eq_zeta")
    lines = [",".join(header)]
    for zeta in table.zetas:
        row = [str(zeta)]
        row += [format(table.rms(zeta, a), ".9g") for a in table.alphas]
        loc = table.local.get(zeta)
        row.append(format(loc.rms_percent, ".9g") if loc else "")
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if ok:
            print(f"ok: {name}")
        else:
            failures += 1
            print(f"FAIL: {name}" + (f" ({detail})" if detail else ""))

    scene = SceneSpec(kind="plane", height=0.5, texture_wavelength=0.3,
                      seed=11)
    blur = BlurSpec(sigma0=3.0)
    size = 48
    h = 2.0 / (size - 1)
    stack = render_stack(scene, blur, size, size, 9, 0.0, 1.0, h)
    base = local_focus_volume(stack, 3)

    smoothed = nonlocalize_volume(base, build_kernel(0.0, 2))
    check("delta kernel is the identity",
          np.array_equal(smoothed.data, base.data))

    vertex = 0.37
    rho = [5.0 - (z - vertex) ** 2 for z in (-1.0, 0.0, 1.0)]
    fit = parabolic_peak(rho[0], rho[1], rho[2])
    err = abs(fit.offset - vertex)
    check("parabolic fit recovers a true vertex", err <= 1e-12, f"err={err:g}")

    unit = build_kernel(1.0, 4)
    response = [kernel_frequency_response(unit, k, 0.0)
                for k in (np.pi / 8, np.pi / 4, np.pi / 2, np.pi)]
    check("smoothing kernel damps high frequencies",
          all(a > b for a, b in zip(response, response[1:])))

    depth_map = recover_depth(nonlocalize_volume(base, build_kernel(1.5, 4)))
    truth = ground_truth(scene, size, size, h)
    report = rms_error_percent(depth_map, truth, 1.0)
    check("plane pipeline end to end", report.rms_percent <= 2.0,
          f"rms={report.rms_percent:.3f}%")

    scaled = recover_depth(replace(base, data=base.data * 4.0))
    reference = recover_depth(base)
    check("depth is invariant under focus rescaling",
          np.array_equal(scaled.values, reference.values, equal_nan=True)
          and np.array_equal(scaled.valid, reference.valid))

    if failures:
        print(f"selftest: {failures} check(s) failed")
        return 1
    print("selftest: all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracfocus",
        description="Depth-from-focus reconstruction with a nonlocal "
                    "(fractional-order) modified Laplacian focus measure.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="print a nonlocalization kernel")
    p.add_argument("--alpha", type=float, required=True,
                   help="fractional order in [0, 2]")
    p.add_argument("--zeta", type=_positive_int, default=4,
                   help="kernel cutoff radius in pixels")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("synth", help="render a synthetic focal stack")
    p.add_argument("--scene", choices=("sphere", "plane", "ramp"),
                   default="sphere")
    p.add_argument("--size", type=_positive_int, default=256,
                   help="square image side in pixels")
    p.add_argument("--slices", type=_positive_int, default=32,
                   help="number of focal slides")
    p.add_argument("--z-min", type=float, default=0.0)
    p.add_argument("--z-max", type=float, default=1.0)
    p.add_argument("--extent", type=float, default=1.2,
                   help="half-width of the x, y domain in world units")
    p.add_argument("--radius", type=float, default=1.0,
                   help="sphere radius")
    p.add_argument("--height", type=float, default=0.5,
                   help="plane height")
    p.add_argument("--ramp-lo", type=float, default=0.2)
    p.add_argument("--ramp-hi", type=float, default=0.8)
    p.add_argument("--wavelength", type=float, default=0.075,
                   help="texture wavelength in world units")
    p.add_argument("--texture", choices=("value-noise", "checker"),
                   default="value-noise")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma0", type=float, default=3.0,
                   help="blur growth in pixels per unit defocus")
    p.add_argument("--max-radius", type=_positive_int, default=16,
                   help="hard cap on the blur kernel radius in pixels")
    p.add_argument("--lossless", action="store_true",
                   help="write slides as full-precision CSV instead of PGM")
    p.add_argument("--out", required=True, help="output stack directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("recover", help="recover a depth map from a stack")
    p.add_argument("--stack", required=True, help="stack directory")
    p.add_argument("--method", choices=("local", "nonlocal"),
                   default="nonlocal")
    p.add_argument("--q", type=_positive_int, default=4,
                   help="modified-Laplacian stride in pixels")
    p.add_argument("--alpha", type=float, default=1.5,
                   help="fractional order (nonlocal method only)")
    p.add_argument("--zeta", type=_positive_int, default=4,
                   help="kernel cutoff (nonlocal method only)")
    p.add_argument("--out", required=True, help="output depth CSV")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("eval", help="compare a depth map against truth")
    p.add_argument("--depth", required=True, help="recovered depth CSV")
    p.add_argument("--truth", required=True, help="ground-truth depth CSV")
    p.add_argument("--report", required=True, help="output report JSON")
    p.add_argument("--z-range", type=float, default=None,
                   help="depth range for the percent normalization "
                        "(default: from the depth sidecar)")
    p.add_argument("--table", default=None,
                   help="also write a (zeta x alpha) rms grid CSV here")
    p.add_argument("--stack", default=None,
                   help="stack directory (needed for --table)")
    p.add_argument("--q", type=_positive_int, default=4,
                   help="fixed stride for the table's nonlocal column")
    p.add_argument("--alphas", type=_float_list,
                   default=(0.0, 0.5, 1.0, 1.5, 2.0),
                   help="comma-separated fractional orders for --table")
    p.add_argument("--zetas", type=_int_list, default=(1, 2, 3, 4),
                   help="comma-separated cutoffs for --table")
    p.add_argument("--profile", default=None,
                   help="also write a central-axis profile CSV here")
    p.add_argument("--axis", choices=("x", "y"), default="y",
                   help="axis the profile runs along")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("selftest", help="run quick built-in checks")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, QuadratureError, StackFormatError) as exc:
        print(f"fracfocus: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
