"""The library example of README.md runs as written."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs(capsys):
    """The first ```python block of README.md (its "Library use"), run in a
    namespace of its own, prints the rms error it promises."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^```python\n(.*?)^```$", text, re.M | re.S).group(1)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out
    match = re.fullmatch(r"rms error: (\S+)% of the depth range\n", printed)
    assert match, printed
    assert math.isfinite(float(match.group(1)))
