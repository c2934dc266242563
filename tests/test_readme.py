"""README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "README has no python block under 'Library example'"
    exec(compile(block.group(1), str(README), "exec"), {})
