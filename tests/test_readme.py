"""Every Python example of README.md runs as written.

Each ```python block is run in a fresh interpreter with the package on its
path, so an example that imports a name the package no longer has, or that
fails an assertion, fails here.  A ``print(..)  # value`` line must print
that value.
"""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)


def printed(block):
    """The values that the commented print lines of block promise."""
    return [line.split("#", 1)[1].strip() for line in block.splitlines()
            if line.startswith("print(") and "#" in line]


def test_the_blocks_are_found():
    text = "a\n```python\nx = 1\n```\n```sh\nls\n```\n```python\ny\n```\n"
    assert python_blocks(text) == ["x = 1\n", "y\n"]


def test_readme_examples_run():
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = python_blocks(fh.read())
    assert blocks
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for block in blocks:
        run = subprocess.run([sys.executable, "-c", block], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == printed(block)
