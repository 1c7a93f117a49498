"""The README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(blocks[0], namespace)
    test, label_sets = namespace["test"], namespace["label_sets"]
    assert len(test) == 120 and len(label_sets) == len(test)
    # well-separated blobs: the true class is in nearly every 95% label set
    covered = sum(y in s for y, s in zip(test.y, label_sets)) / len(test)
    assert covered >= 0.9
