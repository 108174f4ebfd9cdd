"""File formats: binary PGM images, CSV float fields, stack directories.

Slides travel as 8-bit binary PGM (P5, maxval 255, values mapped linearly
from [0, 1]) or, in lossless mode, as CSV.  Every CSV float field, a
lossless slide or a depth map, goes through one codec: 17 significant
digits, so that floats round-trip bit-exactly, and the literal token NaN
where a value is missing.  A depth map marks its invalid pixels that way
and adds a small JSON sidecar holding the recovery parameters.  A stack
directory couples numbered slide files with a stack.json carrying all
physical metadata; the ground truth it may hold is an ordinary depth CSV.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from io import StringIO
from pathlib import Path

import numpy as np

from .grids import DepthMap, FocalStack

__all__ = [
    "StackFormatError",
    "read_depth_csv",
    "read_field_csv",
    "read_pgm",
    "read_stack_dir",
    "write_depth_csv",
    "write_field_csv",
    "write_pgm",
    "write_stack_dir",
]

_DEPTH_META_KEYS = ("q", "alpha", "zeta", "z_min", "z_max", "h")


class StackFormatError(ValueError):
    """A stack directory is missing a file or a file disagrees with stack.json."""


def write_pgm(path: str | Path, values: np.ndarray) -> None:
    """Write a 2D float field as binary PGM, clipping to [0, 1]."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2D field, got shape {arr.shape}")
    pixels = np.rint(np.clip(arr, 0.0, 1.0) * 255.0).astype(np.uint8)
    height, width = arr.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())


def _pgm_tokens(raw: bytes):
    """Yield whitespace-separated header tokens, skipping # comments."""
    pos = 0
    while pos < len(raw):
        c = raw[pos:pos + 1]
        if c == b"#":
            pos = raw.find(b"\n", pos)
            if pos < 0:
                return
            pos += 1
        elif c.isspace():
            pos += 1
        else:
            end = pos
            while end < len(raw) and not raw[end:end + 1].isspace():
                end += 1
            yield raw[pos:end], end
            pos = end


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary PGM into floats in [0, 1] (pixel / maxval)."""
    raw = Path(path).read_bytes()
    tokens = _pgm_tokens(raw)
    try:
        (magic, _), (w_tok, _), (h_tok, _), (max_tok, end) = (
            next(tokens), next(tokens), next(tokens), next(tokens))
    except StopIteration:
        raise ValueError(f"{path}: truncated PGM header") from None
    if magic != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {magic!r})")
    width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
    if width < 1 or height < 1 or not 0 < maxval < 256:
        raise ValueError(f"{path}: bad PGM dimensions {width}x{height}"
                         f" maxval {maxval}")
    data = raw[end + 1:end + 1 + width * height]
    if len(data) != width * height:
        raise ValueError(f"{path}: PGM raster truncated "
                         f"({len(data)} of {width * height} bytes)")
    pixels = np.frombuffer(data, dtype=np.uint8).reshape(height, width)
    return pixels.astype(float) / maxval


def write_field_csv(path: str | Path, values: np.ndarray) -> None:
    """Write a 2D float field as CSV that round-trips bit-exactly.

    Values go out with 17 significant digits, NaN as the literal token NaN.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2D field, got shape {arr.shape}")
    buf = StringIO()
    np.savetxt(buf, arr, fmt="%.17g", delimiter=",")
    Path(path).write_text(buf.getvalue().replace("nan", "NaN"),
                          encoding="ascii")


def read_field_csv(path: str | Path) -> np.ndarray:
    """Read a 2D float field written by write_field_csv.

    Blank lines are skipped and NaN tokens may be in any case.  Raises
    ValueError naming the file if it is empty or a row is ragged.
    """
    lines = [line for line in Path(path).read_text(encoding="ascii")
             .splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    try:
        return np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except ValueError as exc:
        kind = ("ragged row" if "number of columns changed" in str(exc)
                else "unparseable CSV")
        raise ValueError(f"{path}: {kind} ({exc})") from exc


def write_depth_csv(path: str | Path, depth_map: DepthMap) -> None:
    """Write a depth map as CSV plus a JSON metadata sidecar.

    Invalid pixels are written as the literal token NaN; the sidecar
    ``<name>.json`` records the method and recovery parameters so the map
    can be interpreted without the stack it came from.
    """
    path = Path(path)
    write_field_csv(path, np.where(depth_map.valid, depth_map.values, np.nan))
    meta = {"method": depth_map.method}
    meta.update((key, getattr(depth_map, key)) for key in _DEPTH_META_KEYS)
    sidecar = path.with_suffix(".json")
    sidecar.write_text(json.dumps(meta, indent=2) + "\n", encoding="ascii")


def read_depth_csv(path: str | Path) -> DepthMap:
    """Read a depth map written by write_depth_csv.

    Non-finite values (the NaN tokens) become invalid pixels.  The JSON
    sidecar is optional; a bare CSV loads with empty metadata.
    """
    path = Path(path)
    arr = read_field_csv(path)
    valid = np.isfinite(arr)
    meta = {}
    sidecar = path.with_suffix(".json")
    if sidecar.exists():
        loaded = json.loads(sidecar.read_text(encoding="ascii"))
        meta = {key: loaded[key] for key in _DEPTH_META_KEYS if key in loaded}
    return DepthMap(values=np.where(valid, arr, np.nan), valid=valid, **meta)


def _slide_name(k: int, lossless: bool) -> str:
    return f"slide_{k:03d}.{'csv' if lossless else 'pgm'}"


def write_stack_dir(out_dir: str | Path, stack: FocalStack,
                    truth: DepthMap | None = None,
                    scene=None, blur=None,
                    lossless: bool = False) -> None:
    """Write a stack directory: numbered slides, stack.json, truth files.

    ``scene`` and ``blur`` may be any dataclasses describing how the
    stack was made; they are stored verbatim in stack.json.  With
    ``lossless`` the slides go out as full-precision CSV instead of 8-bit
    PGM.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_slides = stack.data.shape[0]
    meta = {
        "z_min": stack.z_min,
        "z_max": stack.z_max,
        "n_slides": n_slides,
        "h": stack.h,
        "width": int(stack.data.shape[2]),
        "height": int(stack.data.shape[1]),
        "lossless": bool(lossless),
        "seed": getattr(scene, "seed", None),
        "scene": asdict(scene) if scene is not None else None,
        "blur": asdict(blur) if blur is not None else None,
    }
    (out_dir / "stack.json").write_text(json.dumps(meta, indent=2) + "\n",
                                        encoding="ascii")
    for k in range(n_slides):
        target = out_dir / _slide_name(k, lossless)
        if lossless:
            write_field_csv(target, stack.data[k])
        else:
            write_pgm(target, stack.data[k])
    if truth is not None:
        write_depth_csv(out_dir / "truth.csv", truth)


def read_stack_dir(stack_dir: str | Path) -> FocalStack:
    """Read the slides of a stack directory, checked against its stack.json.

    Raises StackFormatError naming the first missing or inconsistent
    file.  truth.csv is not read; load it with read_depth_csv.
    """
    stack_dir = Path(stack_dir)
    meta_path = stack_dir / "stack.json"
    if not meta_path.exists():
        raise StackFormatError(f"{meta_path}: missing")
    try:
        meta = json.loads(meta_path.read_text(encoding="ascii"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise StackFormatError(f"{meta_path}: unreadable JSON ({exc})") from exc
    try:
        z_min = float(meta["z_min"])
        z_max = float(meta["z_max"])
        h = float(meta["h"])
        lossless = bool(meta.get("lossless", False))
        data = np.empty((int(meta["n_slides"]), int(meta["height"]),
                         int(meta["width"])))
    except (KeyError, TypeError, ValueError, MemoryError) as exc:
        raise StackFormatError(f"{meta_path}: bad or missing field ({exc})"
                               ) from exc
    for k in range(data.shape[0]):
        target = stack_dir / _slide_name(k, lossless)
        if not target.exists():
            raise StackFormatError(f"{target}: missing")
        try:
            slide = read_field_csv(target) if lossless else read_pgm(target)
        except ValueError as exc:
            raise StackFormatError(f"{target}: unreadable ({exc})") from exc
        if slide.shape != data.shape[1:]:
            raise StackFormatError(
                f"{target}: shape {slide.shape} does not match stack.json "
                f"{data.shape[1:]}")
        data[k] = slide
    try:
        return FocalStack(data, z_min=z_min, z_max=z_max, h=h)
    except ValueError as exc:
        raise StackFormatError(f"{meta_path}: {exc}") from exc
