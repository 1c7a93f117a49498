"""The ``dwac-kit/2`` artifact as the CLI meets it: each malformed array,
shape or format exits 2 with one ``error:`` line naming the file, and no
mutation of a saved artifact ends in a traceback."""

from __future__ import annotations

import base64
import contextlib
import copy
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwac_kit.cli import main

SCHEMA = {
    "columns": [{"name": "size", "role": "continuous"}, {"name": "color", "role": "categorical"},
                {"name": "species", "role": "label"}],
    "label_values": ["a", "b", "c"],
}


def f8(a) -> dict:
    """An array object as the format defines it, built without the package."""
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape), "f8": base64.b64encode(a.tobytes()).decode("ascii")}


def array(obj: dict) -> np.ndarray:
    return np.frombuffer(base64.b64decode(obj["f8"]), dtype="<f8").reshape(obj["shape"])


@pytest.fixture(scope="module", params=["blobs", "csv"])
def saved(request, tmp_path_factory):
    """The JSON document of a small trained dwac artifact, and the arguments
    that give ``predict`` data to score with it: blobs, or a CSV with a
    schema, whose stats and vocabularies the artifact carries."""
    out = tmp_path_factory.mktemp("artifact")
    if request.param == "blobs":
        data = ["--data", "blobs:n=60,c=3,d=3,sep=8,seed=0"]
    else:
        (out / "schema.json").write_text(json.dumps(SCHEMA))
        rows = [f"{i % 3 * 4 + i % 5 / 5},{['red', 'blue'][i % 2]},{'abc'[i % 3]}"
                for i in range(60)]
        (out / "data.csv").write_text("\n".join(["size,color,species", *rows]) + "\n")
        data = ["--data", str(out / "data.csv"), "--schema", str(out / "schema.json")]
    assert main(["train", *data, "--head", "dwac", "--max-epochs", "3", "--batch-size", "16",
                 "--out", str(out)]) == 0
    return json.loads((out / "model_dwac_trial0.json").read_text()), data


def predict(saved, doc: dict, directory) -> tuple[int, list[str], str]:
    """Write ``doc`` as a model file and run ``predict`` on it with the data
    of ``saved``; returns the exit code, the stderr lines, and the model path."""
    path = directory / "model.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["predict", *saved[1], "--model", str(path), "--out", str(directory / "out")])
    return rc, err.getvalue().splitlines(), str(path)


def _edit_h(key, value):
    def mutate(doc):
        doc["embedded"]["h"][key] = value(doc["embedded"]["h"])
    return mutate


def _narrow_h(doc):
    doc["embedded"]["h"] = f8(array(doc["embedded"]["h"])[:, :-1])


def _transpose_first_weight(doc):
    doc["weights"][0] = f8(array(doc["weights"][0]).T)


def _negate_first_weight_shape(doc):
    # same product, so only the sign check can catch it
    doc["weights"][0]["shape"] = [-n for n in doc["weights"][0]["shape"]]


def _v1(doc):
    doc["format"] = "dwac-kit/1"


@pytest.mark.parametrize("mutate, message", [
    (_edit_h("f8", lambda h: h["f8"][:-1]), "bad base64"),
    (_edit_h("f8", lambda h: "!" + h["f8"][1:]), "bad base64"),
    (_edit_h("shape", lambda h: [h["shape"][0] + 1, h["shape"][1]]), "bytes for shape"),
    (_negate_first_weight_shape, "non-negative"),
    (_edit_h("shape", lambda h: [2 ** 40, 2 ** 40]), "bytes for shape"),
    (_narrow_h, "embedded.h has 2 columns, layer_sizes[-1] is 3"),
    (_transpose_first_weight, "do not chain with spec"),
    (_v1, "unsupported format 'dwac-kit/1'"),
], ids=["truncated-base64", "non-base64-character", "wrong-byte-count", "negative-dimension",
        "int64-overflowing-shape", "narrow-embedding", "unchained-weight", "format-v1"])
def test_each_decoder_failure_is_one_error_line_naming_the_file(saved, tmp_path, mutate,
                                                                message):
    doc = copy.deepcopy(saved[0])
    mutate(doc)
    rc, lines, path = predict(saved, doc, tmp_path)
    assert rc == 2
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: "), lines
    assert message in lines[0]


def test_the_saved_artifact_predicts(saved, tmp_path):
    assert predict(saved, saved[0], tmp_path)[:2] == (0, [])


def _paths(node, prefix=()):
    """Every key path into ``node``; long lists contribute their first items."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node[:3]):
            yield from _paths(value, prefix + (i,))


VALUES = st.sampled_from([
    None, True, 0, -1, 2, 7, 2.5, 1e300, float("nan"), float("inf"), "", "x", "AAAA",
    [], [1], [0.5, -2], {}, {"shape": [1], "f8": "AAAAAAAAAAA="}, {"shape": [], "f8": ""},
])
CHARS = st.sampled_from(list("AQgw/+=9z!é \n"))


@st.composite
def mutations(draw, doc):
    """``doc`` with one to three edits: a key or item dropped, a value
    swapped for one of another type, or an array's shape or base64 edited."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(sorted(_paths(doc), key=repr)[1:] or [()]))
        if not path:
            break
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]]
        kind = draw(st.sampled_from(["drop", "swap", "shape", "f8"]))
        if kind == "shape" and isinstance(node, dict) and "shape" in node:
            node["shape"] = draw(st.lists(st.integers(-2, 70), max_size=3))
        elif kind == "f8" and isinstance(node, dict) and isinstance(node.get("f8"), str):
            text = node["f8"]
            i = draw(st.integers(0, len(text)))
            edit = draw(st.sampled_from(["cut", "insert", "replace"]))
            if edit == "cut":
                node["f8"] = text[:i]
            elif edit == "insert":
                node["f8"] = text[:i] + draw(CHARS) + text[i:]
            else:
                node["f8"] = text[:i] + draw(CHARS) + text[i + 1:]
        elif kind == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(VALUES))
    return doc


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_mutated_artifacts_exit_cleanly(saved, tmp_path_factory, data):
    doc = data.draw(mutations(saved[0]))
    rc, lines, _ = predict(saved, doc, tmp_path_factory.mktemp("mutated"))
    assert rc == 0 or (rc == 2 and len(lines) == 1 and lines[0].startswith("error: ")), lines
