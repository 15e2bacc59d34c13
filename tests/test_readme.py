"""The README's Python examples run as written."""

import re
import warnings
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs_without_warnings(source: str):
    # A block that names a deleted function fails here with NameError or
    # ImportError; one that warns fails on the warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})
