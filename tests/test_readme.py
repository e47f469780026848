"""The README's library quickstart runs as written."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_python_blocks_run(capsys):
    with open(README) as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, README, "exec"), {"__name__": "readme"})
    capsys.readouterr()
