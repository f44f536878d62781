"""README's Python examples run as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:  # later blocks use the names earlier ones define
        exec(compile(block, str(README), "exec"), namespace)
