"""The README's python blocks run as written, so the documentation cannot
name an API that no longer exists."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


def test_python_blocks_run():
    namespace = {}
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), namespace)
    tour = "ss.macdonald_volume(tri, 1.0).value"
    assert any(tour in block for block in BLOCKS)
    assert abs(eval(tour, namespace) - 11 / 12) < 1e-13
