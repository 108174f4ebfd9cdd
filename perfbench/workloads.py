"""The benchmark's workloads: fracfocus CLI pipelines and their accuracy bounds.

Each workload is one pipeline a user runs: ``synth`` renders a stack,
``recover`` maps depth, ``eval`` scores the map.  The scene seed is the only
input the benchmark varies, and it reaches the program only as
``synth --seed``.  BENCHMARK.json and NOTES.md say why each workload
exists; NOTES.md says which layer change should move which of its metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

SEED = "{seed}"


@dataclass(frozen=True)
class Step:
    """One CLI call.  ``role`` names the metric its wall time feeds."""

    role: str
    argv: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.argv[0]

    def resolve(self, seed: int) -> list[str]:
        return [str(seed) if a == SEED else a for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...]
    # Eval reports written by the steps, keyed by the accuracy name they feed.
    reports: dict[str, str]
    # Files and directories (relative to the run directory) that must end a
    # run byte-identical to what the first round of calls wrote.
    outputs: tuple[str, ...]
    # Accuracy gates: name -> (low, high) in percent of the depth range, 10-20%
    # outside the range seeds 0-20 gave when the benchmark was added (NOTES.md
    # lists them); a value outside fails its check.
    rms_bounds: dict[str, tuple[float, float]]


def _recover(out: str, *extra: str) -> tuple[str, ...]:
    return ("recover", "--stack", "stack", "--q", "4", *extra, "--out", out)


_NONLOCAL = ("--method", "nonlocal", "--alpha", "1.5")

SPHERE_PGM = Workload(
    name="sphere-pgm",
    steps=(
        Step("synth", ("synth", "--scene", "sphere", "--out", "stack",
                       "--seed", SEED)),
        Step("recover", _recover("nonlocal.csv", *_NONLOCAL, "--zeta", "4")),
        Step("recover_local", _recover("local.csv", "--method", "local")),
        Step("eval", ("eval", "--depth", "nonlocal.csv", "--truth",
                      "stack/truth.csv", "--report", "report_nonlocal.json")),
        Step("eval_local", ("eval", "--depth", "local.csv", "--truth",
                            "stack/truth.csv", "--report",
                            "report_local.json")),
    ),
    reports={"rms_nonlocal_pct": "report_nonlocal.json",
             "rms_local_pct": "report_local.json"},
    outputs=("stack", "nonlocal.csv", "nonlocal.json", "local.csv",
             "local.json", "report_nonlocal.json", "report_local.json"),
    rms_bounds={"rms_nonlocal_pct": (2.5, 3.8), "rms_local_pct": (8.0, 11.0)},
)

# Height 0.37: at the default 0.5 the plane sits midway between two slides
# and the nonlocal rms is exactly 0, which would leave the gate empty.
_PLANE = ("synth", "--scene", "plane", "--height", "0.37")

PLANE_TABLE_CSV = Workload(
    name="plane-table-csv",
    steps=(
        Step("synth", (*_PLANE, "--lossless", "--out", "stack",
                       "--seed", SEED)),
        Step("recover", _recover("nonlocal.csv", *_NONLOCAL, "--zeta", "4")),
        Step("eval", ("eval", "--depth", "nonlocal.csv", "--truth",
                      "stack/truth.csv", "--report", "report_nonlocal.json",
                      "--table", "table.csv", "--stack", "stack")),
    ),
    reports={"rms_nonlocal_pct": "report_nonlocal.json"},
    outputs=("stack", "nonlocal.csv", "nonlocal.json",
             "report_nonlocal.json", "table.csv"),
    rms_bounds={"rms_nonlocal_pct": (0.08, 0.12),
                "table_rms_mean_pct": (0.08, 0.125)},
)

PLANE_LARGE = Workload(
    name="plane-large",
    steps=(
        Step("synth", (*_PLANE, "--size", "512", "--slices", "64",
                       "--extent", "2.4", "--out", "stack", "--seed", SEED)),
        Step("recover", _recover("nonlocal.csv", *_NONLOCAL, "--zeta", "8")),
        Step("eval", ("eval", "--depth", "nonlocal.csv", "--truth",
                      "stack/truth.csv", "--report", "report_nonlocal.json")),
    ),
    reports={"rms_nonlocal_pct": "report_nonlocal.json"},
    outputs=("stack", "nonlocal.csv", "nonlocal.json",
             "report_nonlocal.json"),
    rms_bounds={"rms_nonlocal_pct": (5.5, 7.5)},
)

WORKLOADS = {w.name: w for w in (SPHERE_PGM, PLANE_TABLE_CSV, PLANE_LARGE)}

# Per-call times from the ROADMAP baseline table (256x256x32, seed 0), which
# states +-20% noise: (workload or "*", traced span or CLI role, low s,
# high s).  The traced run prints each against its own mean per call; a miss
# is reported, not counted as a failure.
BASELINE = (
    ("*", "import.fracfocus", 0.98, 0.98),
    ("*", "import.scipy_integrate", 0.67, 0.67),
    ("sphere-pgm", "synth.render_stack", 5.2, 5.2),
    ("plane-table-csv", "synth.render_stack", 0.29, 0.29),
    ("sphere-pgm", "kernel2d.build_kernel", 0.0037, 0.0037),
    ("plane-large", "kernel2d.build_kernel", 0.011, 0.011),
    ("sphere-pgm", "focus.local_focus_volume", 0.036, 0.036),
    ("sphere-pgm", "focus.nonlocalize_volume", 0.19, 0.25),
    ("sphere-pgm", "depth.recover_depth", 0.014, 0.014),
    ("sphere-pgm", "io.write_stack_dir", 0.11, 0.11),
    ("sphere-pgm", "io.read_stack_dir", 0.07, 0.07),
    ("plane-table-csv", "io.write_stack_dir", 1.8, 1.8),
    ("plane-table-csv", "io.read_stack_dir", 1.0, 1.0),
    ("sphere-pgm", "io.write_depth_csv", 0.17, 0.17),
    ("sphere-pgm", "io.read_depth_csv", 0.04, 0.04),
    ("plane-table-csv", "evaluate.comparison_table", 2.7, 2.7),
    ("sphere-pgm", "cli.synth", 5.7, 5.7),
    ("sphere-pgm", "cli.recover", 1.5, 1.5),
    ("sphere-pgm", "cli.eval", 1.05, 1.05),
    ("plane-table-csv", "cli.eval", 3.8, 3.8),
)
BASELINE_TOLERANCE = 0.2
