"""The python examples of README.md run against the current API."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```",
                        README.read_text(encoding="utf-8"), re.S | re.M)
    assert blocks
    for i, code in enumerate(blocks, 1):
        # each block in a fresh namespace, as a reader would paste it
        exec(compile(code, f"README.md python block {i}", "exec"), {})
