"""Benchmark the fracfocus CLI end to end, or trace it layer by layer.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload sphere-pgm --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

With ``--trace 0`` the benchmark is a closed loop with one client: it starts
each ``python3 -m fracfocus ...`` child of the workload in turn, waits for
it, and goes round the calls until ``--seconds`` are used.  It reports the
end-to-end metrics of BENCHMARK.json as medians over those calls.  With
``--trace 1`` it alternates untraced passes with passes whose calls run
through tracing.py, which records spans around each layer, and reports the
per-layer metrics.  Both check the program's outputs; every CLI call and
every check is one attempted operation.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import tracing
from workloads import BASELINE, BASELINE_TOLERANCE, WORKLOADS, Step, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = Path(__file__).resolve().parent / "tracing.py"

IMPORTTIME_REPEATS = 3
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "FRACFOCUS_THREADS")
# Computed traffic of the per-tap shifted add: one float64 read of the
# shifted source plus a read and a write of the float64 accumulator.
BYTES_PER_MADD = 24

TIMED_SPANS = sorted({name for _, _, name, _ in tracing.PATCHES})


class Checks:
    """Counts attempted and failed operations; keeps the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


@dataclass(frozen=True)
class Child:
    wall: float
    code: int
    maxrss_kb: int
    stdout: str


def run_child(args: list[str], cwd: Path, env: dict, log: Path,
              capture: bool = False) -> Child:
    """Run ``python3 <args>`` to completion; wall time and rusage via wait4."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=cwd, env=env,
            stdin=subprocess.DEVNULL, stderr=err,
            stdout=subprocess.PIPE if capture else err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out = ""
        if capture:
            out = proc.stdout.read().decode()
            proc.stdout.close()
    return Child(wall, proc.returncode, usage.ru_maxrss, out)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def machine_facts(seed: int) -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        **versions,
        "seed": seed,
        "child_thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "note": "largest array is the 512x512x64 float64 volume (128 MiB), "
                "under 4x the L3, so byte counts are computed, not "
                "measured bandwidth",
    }


def digest(path: Path) -> str:
    """sha256 of a file, or of every file under a directory by name."""
    h = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) \
        if path.is_dir() else [path]
    for f in files:
        h.update(str(f.relative_to(path.parent)).encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def output_digests(workload: Workload, run_dir: Path,
                   checks: Checks) -> dict[str, str] | None:
    missing = [o for o in workload.outputs if not (run_dir / o).exists()]
    if not checks.record(not missing, f"{workload.name}: outputs missing: "
                                      f"{missing}"):
        return None
    return {o: digest(run_dir / o) for o in workload.outputs}


def _finite_table(path: Path) -> bool:
    try:
        lines = path.read_text().splitlines()[1:]
        cells = [float(c) for line in lines for c in line.split(",")[1:]]
    except (OSError, ValueError):
        return False
    return bool(cells) and all(map(math.isfinite, cells))


def read_accuracy(workload: Workload, run_dir: Path,
                  checks: Checks) -> dict[str, float]:
    """rms figures from the eval reports, checked against the workload bounds.

    ``rms_mean_pct`` is the mean over every depth map the workload scores:
    each report and, with a table, its grid and local cells.
    """
    acc, every = {}, []
    for name, report in workload.reports.items():
        try:
            payload = json.loads((run_dir / report).read_text())
            rms = float(payload["rms_percent"])
            table = payload["table"]
            grid = [float(c["rms_percent"]) for c in table["grid"]] \
                if table else []
            local = [float(c["rms_percent"]) for c in table["local"]] \
                if table else []
        except (OSError, ValueError, KeyError, TypeError) as exc:
            checks.record(False, f"{workload.name}: {report}: {exc!r}")
            continue
        acc[name] = rms
        every.append(rms)
        if table:
            acc["table_rms_mean_pct"] = statistics.fmean(grid)
            every += grid + local
            checks.record(_finite_table(run_dir / "table.csv")
                          and all(map(math.isfinite, every)),
                          f"{workload.name}: non-finite table cell")
    if every:
        acc["rms_mean_pct"] = statistics.fmean(every)
    for name, (low, high) in workload.rms_bounds.items():
        value = acc.get(name, math.nan)
        checks.record(low <= value <= high,
                      f"{workload.name}: {name} = {value} outside "
                      f"[{low}, {high}]")
    return acc


SETUP_PROBE = "import fracfocus, sys; sys.stdout.write(fracfocus.__file__)"


def setup_call(run_dir: Path, env: dict, log: Path, checks: Checks) -> Child:
    """A fresh ``import fracfocus``; checks it came from the checkout."""
    child = run_child(["-c", SETUP_PROBE], run_dir, env, log, capture=True)
    where = Path(child.stdout).resolve() if child.stdout else None
    checks.record(child.code == 0 and where is not None
                  and SRC.resolve() in where.parents,
                  f"import fracfocus exited {child.code} from {where}")
    return child


def run_step(workload: Workload, step: Step, seed: int, run_dir: Path,
             env: dict, log: Path, checks: Checks,
             tracer_args: list[str] | None = None) -> Child:
    """One CLI call, or with ``tracer_args`` the same call via tracing.py."""
    argv = ["-m", "fracfocus", *step.resolve(seed)]
    if tracer_args is not None:
        argv = [str(TRACER), *tracer_args, "--", *argv[2:]]
    child = run_child(argv, run_dir, env, log)
    checks.record(child.code == 0, f"{workload.name}: {step.role} exited "
                                   f"{child.code} (see {log})")
    return child


def cli_pass(workload: Workload, seed: int, run_dir: Path, env: dict,
             log: Path, checks: Checks,
             tracer_args: tuple[str, ...] | None = None,
             ) -> tuple[dict[str, Child], dict[str, dict]]:
    """One pass of the workload's CLI calls in a fresh run directory.

    With ``tracer_args`` each call runs through tracing.py instead of
    ``-m fracfocus``, and its JSON record is returned by role.
    """
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    calls, records = {}, {}
    for step in workload.steps:
        record = run_dir.parent / f"{run_dir.name}-{step.role}.json"
        calls[step.role] = run_step(
            workload, step, seed, run_dir, env, log, checks,
            None if tracer_args is None
            else [*tracer_args, "--role", step.role, "--out", str(record)])
        if tracer_args is not None:
            records[step.role] = json.loads(record.read_text()) \
                if record.exists() else {"code": None, "spans": []}
    return calls, records


def measure(workload: Workload, seed: int, seconds: float, base: Path,
            env: dict, log: Path, checks: Checks) -> tuple[dict, dict]:
    """Untraced closed loop over the set-up probe and the CLI calls.

    The first round runs the probe and the whole pipeline in order and keeps
    its outputs as the reference.  After it, the next call is always the one
    with the least wall time spent on it so far, among those whose median
    still fits in the time left; the loop ends when none fits.  So every
    metric's median rests on about the same share of the run: a short call
    is sampled many times, spread over the whole run, and a long call a few
    times.  Every call is deterministic and rewrites the same files, so any
    call may run once its inputs exist.
    """
    run_dir = base / "cli"
    run_dir.mkdir()
    start = time.perf_counter()
    steps = {step.role: step for step in workload.steps}
    samples: dict[str, list[Child]] = {"setup": []}
    samples.update((role, []) for role in steps)

    def call(role: str) -> None:
        if role == "setup":
            samples[role].append(setup_call(base, env, log, checks))
        else:
            samples[role].append(run_step(workload, steps[role], seed,
                                          run_dir, env, log, checks))

    for role in samples:
        call(role)
    reference = output_digests(workload, run_dir, checks)
    accuracy = read_accuracy(workload, run_dir, checks)
    while True:
        left = seconds - (time.perf_counter() - start)
        fits = [role for role, calls in samples.items()
                if statistics.median(c.wall for c in calls) <= left]
        if not fits:
            break
        call(min(fits, key=lambda r: sum(c.wall for c in samples[r])))
    checks.record(reference is not None
                  and output_digests(workload, run_dir, checks) == reference,
                  f"{workload.name}: outputs of the last calls differ from "
                  f"the first round's")

    def median(role: str) -> float:
        return statistics.median(c.wall for c in samples[role])

    def per_call(command: str) -> float:
        return statistics.fmean(median(s.role) for s in workload.steps
                                if s.command == command)

    metrics = {
        "setup_s": median("setup"),
        "synth_s": per_call("synth"),
        "recover_s": per_call("recover"),
        "eval_s": per_call("eval"),
        "pipeline_s": sum(median(s.role) for s in workload.steps),
        "peak_rss_mb": max(
            statistics.median(c.maxrss_kb for c in samples[s.role])
            for s in workload.steps) / 1024,
        "rms_nonlocal_pct": accuracy.get("rms_nonlocal_pct"),
        "rms_mean_pct": accuracy.get("rms_mean_pct"),
    }
    detail = {"accuracy": accuracy,
              "wall_samples": {role: [c.wall for c in calls]
                               for role, calls in samples.items()},
              "maxrss_kb": {role: [c.maxrss_kb for c in calls]
                            for role, calls in samples.items()}}
    return metrics, detail


def importtime(env: dict, base: Path, log: Path, checks: Checks) -> dict:
    samples = {"fracfocus": [], "scipy.integrate": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import fracfocus"],
            cwd=base, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        checks.record(proc.returncode == 0, "python -X importtime failed")
        for name in samples:
            samples[name].append(tracing.import_seconds(proc.stderr, name))
    return {name: statistics.median(v) for name, v in samples.items()}


def _children(spans, parent_id) -> list:
    return [s for s in spans if s.parent == parent_id]


def layer_metrics(spans, workload: Workload,
                  cli_walls: dict[str, float]) -> dict:
    """Per-layer figures of one traced pass; ``cli_walls`` are its calls'."""
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out = {f"{name}_s": sum(s.seconds for s in by_name.get(name, ()))
           for name in TIMED_SPANS}

    roots = {s.name.removeprefix("cli."): s for s in spans if s.parent is None}
    under_recover = _children(spans, roots["recover"].id) \
        if "recover" in roots else []
    writes = [s for s in under_recover if s.name == "io.write_depth_csv"]
    depth = [s for s in under_recover if s.name == "depth.recover_depth"]
    stack = by_name.get("io.write_stack_dir", [])
    out["io.stack_bytes"] = stack[0].attrs["bytes"] if stack else 0
    out["io.depth_csv_bytes"] = writes[0].attrs["bytes"] if writes else 0
    out["depth.invalid_px"] = depth[0].attrs["invalid_px"] if depth else 0

    passes = by_name.get("focus.nonlocalize_volume", [])
    madds = sum(s.attrs["madds"] for s in passes)
    busy = sum(s.seconds for s in passes)
    out["focus.nonlocalize_madds"] = madds
    out["focus.nonlocalize_bytes"] = madds * BYTES_PER_MADD
    out["focus.nonlocalize_gmadd_per_s"] = madds / busy / 1e9 if busy else 0.0
    out["kernel2d.quadrature_builds"] = sum(
        1 for s in by_name.get("kernel2d.build_kernel", ())
        if 0.0 < s.attrs["alpha"] < 2.0)
    tables = by_name.get("evaluate.comparison_table", [])
    out["evaluate.table_cells"] = sum(
        1 for t in tables for s in _children(spans, t.id)
        if s.name == "evaluate.rms_error_percent")

    for command in ("synth", "recover", "eval"):
        unattributed = 0.0
        for step in workload.steps:
            root = roots.get(step.role)
            if step.command != command or root is None:
                continue
            layers = sum(s.seconds for s in _children(spans, root.id))
            unattributed += cli_walls[step.role] - layers
        out[f"cli.{command}.unattributed_s"] = unattributed
    return out


def baseline_report(workload: Workload, spans, extra: dict) -> list[str]:
    """Compare median seconds per call with the ROADMAP baseline rows."""
    calls: dict[str, list[float]] = {}
    for s in spans:
        calls.setdefault(s.name, []).append(s.seconds)
    medians = {name: statistics.median(v) for name, v in calls.items()}
    medians.update(extra)
    lines = []
    for name, span, low, high in BASELINE:
        if name not in (workload.name, "*") or span not in medians:
            continue
        value = medians[span]
        ok = low * (1 - BASELINE_TOLERANCE) <= value \
            <= high * (1 + BASELINE_TOLERANCE)
        ref = f"{low:g}" if low == high else f"{low:g}-{high:g}"
        lines.append(f"baseline {span}: {value:.4g} s per call vs {ref} s "
                     f"+-{BASELINE_TOLERANCE:.0%}: "
                     f"{'reproduces' if ok else 'DOES NOT reproduce'}")
    return lines


def traced(workload: Workload, seed: int, seconds: float, base: Path,
           env: dict, log: Path, checks: Checks) -> tuple[dict, dict]:
    """Untraced and traced CLI passes alternate, then one tracemalloc pass.

    A traced call runs in a fresh interpreter through tracing.py, so its
    spans include the same first-call costs as the CLI child it replays.
    Pairs repeat while the median pair still fits in ``seconds``.
    """
    start = time.perf_counter()
    imports = importtime(env, base, log, checks)
    reference = None

    def same_outputs(run_dir: Path, what: str) -> None:
        digests = output_digests(workload, run_dir, checks)
        checks.record(digests is not None and digests == reference,
                      f"{workload.name}: {what} outputs differ from the "
                      f"first CLI pass")

    missing = set()

    def check_records(records: dict) -> None:
        for role, record in records.items():
            where = Path(record.get("fracfocus") or "/").resolve()
            checks.record(record["code"] == 0
                          and SRC.resolve() in where.parents,
                          f"{workload.name}: traced {role} exited "
                          f"{record['code']}, fracfocus from {where}")
            missing.update(record.get("missing", ()))

    plain, traced_runs, spans, pairs = [], [], [], []
    while True:
        began = time.perf_counter()
        calls, _ = cli_pass(workload, seed, base / "cli", env, log, checks)
        if reference is None:
            reference = output_digests(workload, base / "cli", checks)
            read_accuracy(workload, base / "cli", checks)
        else:
            same_outputs(base / "cli", "untraced")
        plain.append({role: c.wall for role, c in calls.items()})
        calls, records = cli_pass(workload, seed, base / "traced", env, log,
                                  checks, tracer_args=())
        same_outputs(base / "traced", "traced")
        check_records(records)
        traced_runs.append({role: c.wall for role, c in calls.items()})
        for record in records.values():
            offset = len(spans)
            for raw in record["spans"]:
                span = tracing.Span(**raw)
                span.id += offset
                span.parent = None if span.parent is None \
                    else span.parent + offset
                span.iteration = len(traced_runs) - 1
                spans.append(span)
        pairs.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(pairs) > seconds:
            break

    _, records = cli_pass(workload, seed, base / "alloc", env, log, checks,
                          tracer_args=("--alloc",))
    same_outputs(base / "alloc", "tracemalloc")
    check_records(records)
    peaks: dict[str, int] = {}
    for step in workload.steps:
        peak = records[step.role].get("alloc_peak") or 0
        peaks[step.command] = max(peak, peaks.get(step.command, 0))

    rounds = [layer_metrics([s for s in spans if s.iteration == i],
                            workload, walls)
              for i, walls in enumerate(traced_runs)]
    metrics = {name: statistics.median(r[name] for r in rounds)
               for name in rounds[0]}
    metrics["import.fracfocus_s"] = imports["fracfocus"]
    metrics["import.scipy_integrate_s"] = imports["scipy.integrate"]
    for command in ("synth", "recover", "eval"):
        metrics[f"{command}.peak_alloc_mb"] = peaks.get(command, 0) / 2**20
    metrics["trace.overhead_s"] = (
        statistics.median(sum(t.values()) for t in traced_runs)
        - statistics.median(sum(p.values()) for p in plain))

    extra = {"import.fracfocus": imports["fracfocus"],
             "import.scipy_integrate": imports["scipy.integrate"]}
    extra.update((f"cli.{role}", statistics.median(p[role] for p in plain))
                 for role in plain[0])
    detail = {"missing_layers": sorted(missing), "cli_walls": plain,
              "traced_walls": traced_runs, "alloc_peak_bytes": peaks,
              "baseline": baseline_report(workload, spans, extra),
              "spans": [vars(s) for s in spans]}
    return metrics, detail


def run_workload(workload: Workload, args, env: dict, checks: Checks,
                 why: str) -> dict:
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    base = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    log = WORK / f"{tag}.stderr.log"
    log.unlink(missing_ok=True)
    failed_before = len(checks.failures)
    try:
        run = traced if args.trace else measure
        metrics, detail = run(workload, args.seed, args.seconds, base, env,
                              log, checks)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    result = {"workload": workload.name, "why": why,
              "machine": machine_facts(args.seed), "metrics": metrics,
              "detail": detail, "failures": checks.failures[failed_before:]}
    (WORK / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def print_summary(result: dict, units: dict[str, str]) -> None:
    detail = result["detail"]
    print(f"== {result['workload']}: {result['why']}")
    if "baseline" in detail:
        for line in detail["baseline"]:
            print(f"   {line}")
        for name in detail["missing_layers"]:
            print(f"   warning: {name} not found, its layer reads 0")
    else:
        for role, walls in detail["wall_samples"].items():
            print(f"   {role}: median {statistics.median(walls):.6g} s of "
                  f"{len(walls)} call(s)")
        for key in ("rms_local_pct", "table_rms_mean_pct"):
            if key in detail["accuracy"]:
                print(f"   {key} = {detail['accuracy'][key]:.6g} %")
    for metric, unit in units.items():
        value = result["metrics"][metric]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"   {metric} = {shown} {unit}")


def load_spec() -> dict:
    """BENCHMARK.json: the metric names and units a run must report."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    if names != set(WORKLOADS):
        raise ValueError(f"BENCHMARK.json names workloads {sorted(names)}, "
                         f"workloads.py defines {sorted(WORKLOADS)}")
    return spec


def _stop(signum, frame) -> None:
    # Raised inside os.wait4, so run_child kills and reaps its child and the
    # scratch directory is removed before the benchmark exits.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0,
                        help="scene seed, passed only to synth --seed")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fracfocus" / "__init__.py").is_file():
        print(f"perfbench: no fracfocus sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}

    chosen = list(WORKLOADS.values()) if args.workload == "all" \
        else [WORKLOADS[args.workload]]
    env = child_env()
    checks = Checks()
    WORK.mkdir(exist_ok=True)
    metrics = {}
    for workload in chosen:
        result = run_workload(workload, args, env, checks,
                              whys[workload.name])
        print_summary(result, units)
        prefix = "" if len(chosen) == 1 else f"{workload.name}."
        metrics.update({prefix + k: {"value": result["metrics"][k], "unit": u}
                        for k, u in units.items()})
    failed = len(checks.failures)
    print(f"machine: {json.dumps(machine_facts(args.seed))}")
    print(f"error_rate = {failed}/{checks.attempted} = "
          f"{failed / checks.attempted:g}")
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
