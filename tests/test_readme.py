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
    # one explanation per test row, of the label the model predicts
    explanations, agreement = namespace["explanations"], namespace["agreement"]
    assert [e["predicted_label"] for e in explanations] == namespace["preds"].predicted.tolist()
    assert all(len(e["entries"]) == 5 for e in explanations)
    assert [k for k, _ in agreement] == [1, 5] and all(0.0 <= f <= 1.0 for _, f in agreement)
