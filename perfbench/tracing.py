"""Run one fracfocus CLI call with spans around each layer.

    python3 perfbench/tracing.py --role recover --out spans.json [--alloc] \\
        -- recover --stack stack --out nonlocal.csv

Like ``python3 -m fracfocus``, this is one fresh interpreter per CLI call:
it imports fracfocus (span ``import.fracfocus``), swaps the public functions
each module imports by name for timing wrappers defined here, and calls
``fracfocus.cli.main``.  Every call into ``synth``, ``io``, ``focus``,
``kernel2d``, ``depth`` and ``evaluate`` then records a span: name, start,
end and parent span, under the root span ``cli.<role>``.  Spans stay in
memory and are written to ``--out`` as JSON when the call returns, with its
exit code.  With ``--alloc`` there are no spans; tracemalloc runs instead and
the peak traced allocation of the call is written.  The program's own files
are not changed.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import time
import tracemalloc
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    iteration: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory, each with the span open when it began."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = Span(id=len(self.spans), name=name,
                      parent=self._open[-1] if self._open else None,
                      start=time.perf_counter(), attrs=attrs)
        self.spans.append(record)
        self._open.append(record.id)
        try:
            yield record
        finally:
            self._open.pop()
            record.end = time.perf_counter()

    def wrap(self, name: str, fn, annotate=None):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    record.attrs.update(annotate(args, result))
            return result
        traced.__wrapped__ = fn
        return traced


def _kernel_attrs(args, kernel) -> dict:
    return {"alpha": kernel.alpha, "zeta": kernel.zeta}


def _nonlocalize_attrs(args, result) -> dict:
    # Computed, not measured: the per-tap shifted add does one multiply-add
    # per voxel and kernel tap; alpha = 0 is a copy and does none.
    volume, kernel = args[0], args[1]
    n, height, width = volume.data.shape
    taps = 0 if kernel.alpha == 0.0 else (2 * kernel.zeta + 1) ** 2
    return {"madds": n * height * width * taps, "zeta": kernel.zeta,
            "alpha": kernel.alpha}


def _depth_attrs(args, depth_map) -> dict:
    return {"invalid_px": int(depth_map.valid.size
                              - depth_map.valid.sum())}


def _path_bytes(path: Path) -> int:
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return path.stat().st_size


def _written_attrs(args, result) -> dict:
    return {"path": str(args[0]), "bytes": _path_bytes(Path(args[0]))}


# (module, attribute, span name, annotate).  Each entry replaces the name a
# module calls; nested calls (the truth map inside write_stack_dir, the
# kernel passes inside comparison_table) get their own spans that way.
PATCHES = (
    ("cli", "render_stack", "synth.render_stack", None),
    ("cli", "ground_truth", "synth.ground_truth", None),
    ("synth", "ground_truth", "synth.ground_truth", None),
    ("cli", "write_stack_dir", "io.write_stack_dir", _written_attrs),
    ("cli", "read_stack_dir", "io.read_stack_dir", None),
    ("cli", "write_depth_csv", "io.write_depth_csv", _written_attrs),
    ("io", "write_depth_csv", "io.write_depth_csv", _written_attrs),
    ("cli", "read_depth_csv", "io.read_depth_csv", None),
    ("io", "read_depth_csv", "io.read_depth_csv", None),
    ("cli", "local_focus_volume", "focus.local_focus_volume", None),
    ("evaluate", "local_focus_volume", "focus.local_focus_volume", None),
    ("cli", "build_kernel", "kernel2d.build_kernel", _kernel_attrs),
    ("evaluate", "build_kernel", "kernel2d.build_kernel", _kernel_attrs),
    ("cli", "nonlocalize_volume", "focus.nonlocalize_volume",
     _nonlocalize_attrs),
    ("evaluate", "nonlocalize_volume", "focus.nonlocalize_volume",
     _nonlocalize_attrs),
    ("cli", "recover_depth", "depth.recover_depth", _depth_attrs),
    ("evaluate", "recover_depth", "depth.recover_depth", _depth_attrs),
    ("cli", "comparison_table", "evaluate.comparison_table", None),
    ("cli", "rms_error_percent", "evaluate.rms_error_percent", None),
    ("evaluate", "rms_error_percent", "evaluate.rms_error_percent", None),
)


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the timing wrappers for the duration of the block.

    Yields the list of patch targets that no longer exist, so a renamed
    function shows up as a missing layer, which reads 0, not as a crash.
    """
    saved, missing = [], []
    for module_name, attr, name, annotate in PATCHES:
        module = importlib.import_module(f"fracfocus.{module_name}")
        original = getattr(module, attr, None)
        if original is None:
            missing.append(f"fracfocus.{module_name}.{attr}")
            continue
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(name, original, annotate))
    try:
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def import_seconds(stderr: str, package: str) -> float:
    """Cumulative import seconds of ``package`` from ``-X importtime`` output.

    Sums the outermost entries named ``package`` or ``package.*``: scipy's
    lazy loader imports ``scipy.integrate``'s submodules without an entry
    for the package itself.  A child is printed before its parent, one
    level deeper.
    """
    rows = []
    for line in stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), int(parts[1]) * 1e-6,
                     name.strip()))

    def inside(name: str) -> bool:
        return name == package or name.startswith(package + ".")

    total = 0.0
    for i, (depth, cumulative, name) in enumerate(rows):
        if not inside(name):
            continue
        parent = next((r[2] for r in rows[i + 1:] if r[0] < depth), None)
        if parent is None or not inside(parent):
            total += cumulative
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--role", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--alloc", action="store_true")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_argv = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    tracer = Tracer()
    alloc_peak, missing = None, []
    if args.alloc:
        from fracfocus import cli
        tracemalloc.start()
        code = cli.main(cli_argv)
        alloc_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    else:
        with tracer.span(f"cli.{args.role}", command=cli_argv[0]):
            with tracer.span("import.fracfocus"):
                from fracfocus import cli
            with patched(tracer) as missing:
                code = cli.main(cli_argv)
    Path(args.out).write_text(json.dumps({
        "code": code, "missing": missing,
        "alloc_peak": alloc_peak, "fracfocus": cli.__file__,
        "spans": [asdict(s) for s in tracer.spans]}))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
