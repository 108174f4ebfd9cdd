"""File formats: binary PGM images, .npy slides, depth CSVs, stack directories.

Slides travel as 8-bit binary PGM (P5, maxval 255, values mapped linearly
from [0, 1]) or, in lossless mode, as float64 .npy files that keep every
bit.  Depth maps are CSV, because people read them: 17 significant digits,
so that floats round-trip bit-exactly, the literal token NaN at invalid
pixels, and a small JSON sidecar holding the recovery parameters.  A stack
directory couples numbered slide files with a stack.json carrying all
physical metadata; the ground truth it may hold is an ordinary depth CSV.
"""

from __future__ import annotations

import json
import math
import re
import threading
from collections.abc import Iterable
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .grids import (DepthMap, FocalStack, check_stack_geometry,
                    finite_min)

__all__ = [
    "StackFormatError",
    "StackHeader",
    "read_depth_csv",
    "read_pgm",
    "read_stack_dir",
    "read_stack_header",
    "write_depth_csv",
    "write_pgm",
    "write_stack",
    "write_stack_dir",
]

_DEPTH_META_KEYS = ("q", "alpha", "zeta", "z_min", "z_max", "h")


class StackFormatError(ValueError):
    """A stack directory is missing a file or a file disagrees with stack.json."""


def write_pgm(path: str | Path, values: np.ndarray) -> None:
    """Write a 2D float field as binary PGM, clipping to [0, 1].

    Raises ValueError, before the file is opened, for a field that is not
    2D or holds a NaN or an infinity.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2D field, got shape {arr.shape}")
    if finite_min(arr) is None:
        raise ValueError("PGM values must be finite")
    # One float temporary: clipped, then scaled and rounded in place.
    scaled = np.clip(arr, 0.0, 1.0)
    np.multiply(scaled, 255.0, out=scaled)
    np.rint(scaled, out=scaled)
    height, width = arr.shape
    with open(path, "wb") as file:
        file.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        file.write(scaled.astype(np.uint8, order="C"))


def _pgm_tokens(raw: bytes):
    """Yield whitespace-separated header tokens with their end offsets.

    A # outside a token starts a comment that runs to the end of its line.
    """
    for token in re.finditer(rb"#[^\n]*\n?|[^\s#]\S*", raw):
        if not token.group().startswith(b"#"):
            yield token.group(), token.end()


def _read_pgm_pixels(path: str | Path) -> tuple[np.ndarray, int]:
    """The 8-bit raster of a binary PGM and its maxval.

    Raises ValueError naming the file for a header that is truncated, of
    another magic or not decimal, a zero dimension, a maxval outside
    1..255, a truncated raster, or a sample above the maxval.
    """
    raw = Path(path).read_bytes()
    tokens = _pgm_tokens(raw)
    try:
        (magic, _), (w_tok, _), (h_tok, _), (max_tok, end) = (
            next(tokens), next(tokens), next(tokens), next(tokens))
    except StopIteration:
        raise ValueError(f"{path}: truncated PGM header") from None
    if magic != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {magic!r})")
    if not (w_tok.isdigit() and h_tok.isdigit() and max_tok.isdigit()):
        raise ValueError(f"{path}: bad PGM header")
    width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
    if width < 1 or height < 1:
        raise ValueError(f"{path}: bad PGM dimensions {width}x{height}")
    if not 0 < maxval < 256:
        raise ValueError(f"{path}: PGM maxval {maxval} outside 1..255")
    data = raw[end + 1:end + 1 + width * height]
    if len(data) != width * height:
        raise ValueError(f"{path}: PGM raster truncated "
                         f"({len(data)} of {width * height} bytes)")
    pixels = np.frombuffer(data, dtype=np.uint8).reshape(height, width)
    top = pixels.max()
    if top > maxval:
        raise ValueError(f"{path}: PGM sample {top} above maxval {maxval}")
    return pixels, maxval


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary PGM into floats in [0, 1] (pixel / maxval).

    Raises ValueError naming the file if it is not an 8-bit binary PGM.
    """
    pixels, maxval = _read_pgm_pixels(path)
    return pixels.astype(float) / maxval


def write_depth_csv(path: str | Path, depth_map: DepthMap) -> None:
    """Write a depth map as CSV plus a JSON metadata sidecar.

    Values go out with 17 significant digits, so they round-trip
    bit-exactly, and invalid pixels as the literal token NaN; the sidecar
    ``<name>.json`` records the method and recovery parameters so the map
    can be interpreted without the stack it came from.  Raises ValueError,
    before any file is written, for a parameter that is not finite, which
    the reader would refuse, or a ``.json`` path, its own sidecar.
    """
    path = Path(path)
    if path.with_suffix(".json") == path:
        raise ValueError(f"{path}: a depth CSV named .json is its sidecar")
    meta = {"method": depth_map.method}
    meta.update((key, getattr(depth_map, key)) for key in _DEPTH_META_KEYS)
    # Made first: a non-finite field raises before any file is written.
    sidecar_text = json.dumps(meta, indent=2, allow_nan=False) + "\n"
    # Each distinct value is formatted once, a few thousand at a time, into
    # a table of ASCII tokens ("%.17g" of a float64 takes at most 24
    # characters): a map holds far fewer distinct values than pixels.
    # Distinct by bits, so that -0.0 keeps its sign.  Not np.unique: its
    # inverse costs several more map-sized temporaries than a lookup, and
    # without one it hashes, which is slower than this sort.
    bits = np.where(depth_map.valid, depth_map.values, np.nan).view(np.int64)
    distinct = np.sort(bits, axis=None)
    first = np.ones(distinct.size, dtype=bool)
    np.not_equal(distinct[1:], distinct[:-1], out=first[1:])
    distinct = distinct[first]
    index = np.searchsorted(distinct, bits)
    del bits, first
    tokens = np.empty(len(distinct), dtype="S24")
    for start in range(0, len(distinct), 4096):
        tokens[start:start + 4096] = [
            "NaN" if v != v else "%.17g" % v
            for v in distinct[start:start + 4096].view(np.float64).tolist()]
    with path.open("wb") as file:
        for row in index:
            file.write(b",".join(tokens[row].tolist()) + b"\n")
    path.with_suffix(".json").write_text(sidecar_text, encoding="ascii")


def read_depth_csv(path: str | Path) -> DepthMap:
    """Read a depth map written by write_depth_csv.

    Blank lines are skipped and NaN tokens may be in any case; non-finite
    values become invalid pixels.  Raises ValueError naming the file if it
    is empty, holds a byte that is not ASCII, a row is ragged or a value
    does not parse.  The JSON sidecar is optional; a bare CSV loads with
    empty metadata.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    try:
        arr = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except ValueError as exc:
        kind = ("ragged row" if "number of columns changed" in str(exc)
                else "unparseable CSV")
        raise ValueError(f"{path}: {kind} ({exc})") from exc
    valid = np.isfinite(arr)
    sidecar = path.with_suffix(".json")
    meta = _read_depth_sidecar(sidecar) if sidecar.exists() else {}
    return DepthMap(values=np.where(valid, arr, np.nan), valid=valid, **meta)


def _read_depth_sidecar(sidecar: Path) -> dict:
    """The recovery parameters a depth sidecar records, checked.

    Each of q and zeta must be a JSON integer or null, each of alpha,
    z_min, z_max and h a finite JSON number or null; absent keys are
    left out.  Raises ValueError naming the sidecar otherwise, or if it
    is not a JSON object.
    """
    try:
        loaded = json.loads(sidecar.read_text(encoding="ascii"))
        if type(loaded) is not dict:
            raise TypeError(f"expected a JSON object, got {loaded!r}")
        meta = {}
        for key in _DEPTH_META_KEYS:
            if key not in loaded:
                continue
            kinds = (int,) if key in ("q", "zeta") else (int, float)
            value = meta[key] = _json_field(loaded, key, *kinds, type(None))
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
    except (ValueError, TypeError, OverflowError, UnicodeDecodeError) as exc:
        raise ValueError(f"{sidecar}: bad depth sidecar ({exc})") from exc
    return meta


def _slide_name(k: int, lossless: bool) -> str:
    return f"slide_{k:03d}.{'npy' if lossless else 'pgm'}"


# numpy parses a .npy header with ast.literal_eval, which is not thread-safe
# in CPython 3.11 ("SystemError: AST constructor recursion depth mismatch"),
# and slides are read on pool threads: one header at a time.
_NPY_HEADER_LOCK = threading.Lock()


def _read_npy(path: Path, out: np.ndarray) -> None:
    """Fill ``out`` from a .npy file whose header must describe it exactly."""
    with path.open("rb") as f:
        try:
            with _NPY_HEADER_LOCK:
                major, _ = np.lib.format.read_magic(f)
                header = (np.lib.format.read_array_header_1_0 if major == 1
                          else np.lib.format.read_array_header_2_0)(f)
        except ValueError as exc:
            raise StackFormatError(f"{path}: not a .npy file ({exc})"
                                   ) from exc
        # Checked before any data is read: no claimed size gets allocated.
        if header != (out.shape, False, out.dtype):
            raise StackFormatError(
                f"{path}: header (shape, fortran_order, dtype) {header} does "
                f"not match stack.json {(out.shape, False, out.dtype)}")
        if f.readinto(out) != out.nbytes:
            raise StackFormatError(f"{path}: data truncated")


@dataclass(frozen=True)
class StackHeader:
    """The geometry and slide format of a stack directory: its stack.json.

    Everything needed to read or write the slides one at a time: their
    number, shape and format, and the physical metadata of the stack.
    :func:`read_stack_header` makes one from a stack.json, with checks a
    FocalStack's geometry would pass; :func:`write_stack` writes one.
    """

    directory: Path
    n_slides: int
    height: int
    width: int
    z_min: float
    z_max: float
    h: float
    lossless: bool

    def empty(self, n_slides: int) -> np.ndarray:
        """An uninitialized float64 buffer for ``n_slides`` slides.

        Raises StackFormatError naming stack.json if the shape it claims
        cannot be allocated.
        """
        try:
            return np.empty((n_slides, self.height, self.width))
        except (ValueError, MemoryError) as exc:
            raise StackFormatError(f"{self.directory / 'stack.json'}: "
                                   f"unusable slide shape ({exc})") from exc

    def read_slide(self, k: int, out: np.ndarray) -> None:
        """Read slide ``k`` into ``out``, a (height, width) float64 array.

        Raises StackFormatError naming the slide file if it is missing,
        unreadable, of another shape or dtype, or holds a non-finite value.
        """
        target = self.directory / _slide_name(k, self.lossless)
        if not target.exists():
            raise StackFormatError(f"{target}: missing")
        if self.lossless:
            _read_npy(target, out)
        else:
            try:
                pixels, maxval = _read_pgm_pixels(target)
            except ValueError as exc:
                raise StackFormatError(f"{target}: unreadable ({exc})"
                                       ) from exc
            if pixels.shape != out.shape:
                raise StackFormatError(
                    f"{target}: shape {pixels.shape} does not match "
                    f"stack.json {out.shape}")
            # The quotient read_pgm gives, decoded straight into out.
            np.divide(pixels, float(maxval), out=out)
        if finite_min(out) is None:
            raise StackFormatError(f"{target}: slide values must be finite")

    def holds(self, path: str | Path) -> bool:
        """Whether ``path`` resolves to stack.json, a slide or a truth file of
        this stack."""
        path = Path(path).resolve()
        k = path.stem.removeprefix("slide_")
        return path.parent == self.directory.resolve() and (
            path.name in ("stack.json", "truth.csv", "truth.json")
            or k.isdecimal() and int(k) < self.n_slides
            and path.name == _slide_name(int(k), self.lossless))


def write_stack(header: StackHeader, slides: Iterable[np.ndarray],
                truth: DepthMap | None = None, scene=None,
                blur=None) -> None:
    """Write a stack directory: stack.json, numbered slides, truth files.

    ``header`` gives the directory, the geometry and the slide format
    stack.json records; ``slides`` may be any iterable of
    (height, width) arrays, each written as it arrives, so a stream
    (``synth.render_slides``) is never held whole.  ``scene`` and ``blur``
    may be any dataclasses describing how the stack was made; they are
    stored verbatim in stack.json.  Lossless slides go out bit-exact as
    float64 .npy (whatever their dtype), others as 8-bit PGM.  Raises
    ValueError if the slides disagree with the header in shape or number,
    if a slide holds a non-finite value, or if stack.json would hold one:
    the reader refuses all of these.  stack.json is checked before the
    first slide but written after the last slide and the truth files, and a
    stack.json already in the directory is removed first, so a failed
    write leaves no directory that reads as a stack.
    """
    out_dir = Path(header.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {
        "z_min": header.z_min,
        "z_max": header.z_max,
        "n_slides": header.n_slides,
        "h": header.h,
        "width": header.width,
        "height": header.height,
        "lossless": header.lossless,
        "seed": getattr(scene, "seed", None),
        "scene": asdict(scene) if scene is not None else None,
        "blur": asdict(blur) if blur is not None else None,
    }
    text = json.dumps(meta, indent=2, allow_nan=False) + "\n"
    (out_dir / "stack.json").unlink(missing_ok=True)
    shape = (header.height, header.width)
    count = 0
    for k, slide in enumerate(slides):
        if k >= header.n_slides or slide.shape != shape:
            raise ValueError(f"slide {k} of shape {slide.shape} does not fit "
                             f"{header.n_slides} slides of {shape}")
        if finite_min(slide) is None:
            raise ValueError(f"slide {k} holds a non-finite value")
        target = out_dir / _slide_name(k, header.lossless)
        if header.lossless:
            np.save(target, np.ascontiguousarray(slide, dtype=np.float64))
        else:
            write_pgm(target, slide)
        count = k + 1
    if count != header.n_slides:
        raise ValueError(f"got {count} of {header.n_slides} slides")
    if truth is not None:
        write_depth_csv(out_dir / "truth.csv", truth)
    (out_dir / "stack.json").write_text(text, encoding="ascii")


def write_stack_dir(out_dir: str | Path, stack: FocalStack,
                    truth: DepthMap | None = None,
                    scene=None, blur=None,
                    lossless: bool = False) -> None:
    """Write a FocalStack held in memory as a stack directory.

    See :func:`write_stack`; ``lossless`` picks .npy over PGM slides.
    """
    n_slides, height, width = stack.data.shape
    header = StackHeader(directory=Path(out_dir), n_slides=n_slides,
                         height=height, width=width, z_min=stack.z_min,
                         z_max=stack.z_max, h=stack.h,
                         lossless=bool(lossless))
    write_stack(header, stack.data, truth=truth, scene=scene, blur=blur)


def _json_field(meta: dict, key: str, *kinds: type):
    """``meta[key]``, uncoerced: its type must be one of ``kinds``.

    Exact types, not isinstance, under which true would pass as an int.
    """
    value = meta[key]
    if type(value) not in kinds:
        names = " or ".join(kind.__name__ for kind in kinds)
        raise TypeError(f"{key} must be a JSON {names}, got {value!r}")
    return value


def read_stack_header(stack_dir: str | Path) -> StackHeader:
    """Read and check the stack.json of a stack directory.

    Opens no slide.  Raises StackFormatError naming stack.json if it is
    missing, not JSON, lacks a field, has a field of the wrong JSON type
    (n_slides, height, width: integers; z_min, z_max, h: numbers), or
    describes no usable stack (see ``grids.check_stack_geometry``; empty
    slides).
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
        sizes = {key: _json_field(meta, key, int)
                 for key in ("n_slides", "height", "width")}
        geometry = {key: float(_json_field(meta, key, int, float))
                    for key in ("z_min", "z_max", "h")}
        lossless = ("lossless" in meta
                    and _json_field(meta, "lossless", bool))
        header = StackHeader(directory=stack_dir, lossless=lossless,
                             **sizes, **geometry)
    except (KeyError, OverflowError, TypeError) as exc:
        raise StackFormatError(f"{meta_path}: bad or missing field ({exc})"
                               ) from exc
    try:
        check_stack_geometry(header.n_slides, header.z_min, header.z_max,
                             header.h)
        if header.height < 1 or header.width < 1:
            raise ValueError(f"slides of {header.width}x{header.height} "
                             f"pixels hold nothing")
    except ValueError as exc:
        raise StackFormatError(f"{meta_path}: {exc}") from exc
    return header


def read_stack_dir(stack_dir: str | Path) -> FocalStack:
    """Read the slides of a stack directory, checked against its stack.json.

    stack.json is checked whole before any slide is opened (see
    :func:`read_stack_header`); then each slide in order
    (:meth:`StackHeader.read_slide`).  Raises StackFormatError naming the
    first missing or inconsistent file.  truth.csv is not read; load it
    with read_depth_csv.
    """
    header = read_stack_header(stack_dir)
    data = header.empty(header.n_slides)
    for k, out in enumerate(data):
        header.read_slide(k, out)
    return FocalStack(data, z_min=header.z_min, z_max=header.z_max,
                      h=header.h)
