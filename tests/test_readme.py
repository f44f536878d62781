"""README's Python examples run as written, and its Claims table names real tests."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
ACCEPTANCE = pathlib.Path(__file__).resolve().parent / "test_acceptance.py"


def test_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:  # later blocks use the names earlier ones define
        exec(compile(block, str(README), "exec"), namespace)


def test_claims_table_names_acceptance_tests_and_verdicts():
    claims = README.read_text().split("\n## Claims\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in claims.splitlines() if line.startswith("| ")][1:]  # no header
    assert len(rows) >= 7
    for row in rows:
        assert row.split("|")[-2].strip().startswith(("holds", "not reproduced")), row
    named = re.findall(r"tests/test_acceptance\.py::(\w+)", claims)
    defined = re.findall(r"^def (test_\w+)", ACCEPTANCE.read_text(), re.M)
    assert named and set(named) <= set(defined)
