"""README's library sketch runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def library_sketch() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library sketch", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README has no python block under 'Library sketch'"
    return match.group(1)


def test_library_sketch_runs_and_matches_its_comment():
    code = library_sketch()
    first_print = next(line for line in code.splitlines() if line.startswith("print("))
    expected = float(first_print.split("#", 1)[1])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme_sketch"})
    first_printed = out.getvalue().splitlines()[0]
    assert float(first_printed) == pytest.approx(expected, abs=1e-12)
