"""The "Library example" block of README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_example_runs():
    found = re.search(r"^## Library example\n\n```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)
    assert found, "README.md has no Library example block"
    exec(compile(found.group(1), str(README), "exec"), {})
