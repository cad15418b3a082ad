"""The README's Python examples run as written, so a renamed or removed
public name cannot leave them stale."""
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def test_readme_has_two_python_examples():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("i", range(len(BLOCKS)))
def test_readme_python_example_runs(i):
    exec(compile(BLOCKS[i], f"README.md python block {i + 1}", "exec"), {})
