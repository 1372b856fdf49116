"""Malformed cluster files, fuzzed: each command that reads a cluster must
answer every one with exit status 2 and a structured error report, never a
traceback and never a silent acceptance."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from nearpoints.cli import main
from nearpoints.clusters import satellite_targets


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
not_ints = json_values.filter(lambda v: not _is_int(v))
not_objects = json_values.filter(lambda v: not isinstance(v, dict))
not_nonempty_lists = json_values.filter(
    lambda v: not (isinstance(v, list) and v))
not_kinds = json_values.filter(
    lambda v: v not in ("root", "free", "satellite"))
# null is an absent lambda, so it is not among the bad rationals
bad_rationals = (
    st.sampled_from(["1/0", "2/4", "1/-3", "x", "", "1.5", "1/2/3", "0x10",
                     "1e3", "--1", "1/"])
    | json_values.filter(lambda v: v is not None and not _is_int(v)
                         and not isinstance(v, str)))


@st.composite
def valid_cluster_docs(draw):
    """A valid cluster file: combinatorial, or embedded when every chain
    carries a base.  Free points always carry a lambda (ignored by the
    combinatorial reading), so that it can be spoilt."""
    embedded = draw(st.booleans())
    chains = []
    for c in range(draw(st.integers(1, 3))):
        extras = [None]
        points = [{"kind": "root", "mult": draw(st.integers(0, 3))}]
        for k in range(1, draw(st.integers(1, 5))):
            mult = draw(st.integers(0, 3))
            targets = satellite_targets(extras, k)
            if targets and draw(st.booleans()):
                extras.append(draw(st.sampled_from(targets)))
                points.append({"kind": "satellite", "mult": mult,
                               "extra_prox": extras[-1]})
            else:
                extras.append(None)
                points.append({"kind": "free", "mult": mult, "lambda": "1"})
        chain = {"points": points}
        if embedded:
            chain["base"] = [str(c), "0"]
        chains.append(chain)
    return {"chains": chains}


@st.composite
def malformed_cluster_docs(draw):
    """A valid cluster file with exactly one fault that makes it invalid."""
    doc = draw(valid_cluster_docs())
    chain = draw(st.sampled_from(doc["chains"]))
    pts = chain["points"]
    k = draw(st.integers(0, len(pts) - 1))
    point = pts[k]
    satellite = point["kind"] == "satellite"
    fault = draw(st.sampled_from(["wrong type", "missing key",
                                  "bad rational", "extra_prox out of range",
                                  "bool as int"]))
    if fault == "wrong type":
        slot = draw(st.sampled_from(["doc", "chains", "chain", "points",
                                     "point", "mult", "kind"]
                                    + ["extra_prox"] * satellite))
        if slot == "doc":
            return draw(not_objects)
        if slot == "chains":
            doc["chains"] = draw(not_nonempty_lists)
        elif slot == "chain":
            doc["chains"][doc["chains"].index(chain)] = draw(not_objects)
        elif slot == "points":
            chain["points"] = draw(not_nonempty_lists)
        elif slot == "point":
            pts[k] = draw(not_objects)
        elif slot == "kind":
            # "root" off the first point, anything else on it, or no kind
            pts[k]["kind"] = draw(not_kinds | st.just("root") if k
                                  else not_kinds | st.just("free"))
        else:
            point[slot] = draw(not_ints)
    elif fault == "missing key":
        key = draw(st.sampled_from(["chains", "points", "kind", "mult"]
                                   + ["extra_prox"] * satellite))
        owner = {"chains": doc, "points": chain}.get(key, point)
        del owner[key]
    elif fault == "bad rational":
        where = draw(st.sampled_from(["shear", "lambda", "base"]))
        free = [p for p in pts if p["kind"] == "free"]
        if where == "lambda" and free:
            draw(st.sampled_from(free))["lambda"] = draw(bad_rationals)
        elif where == "base" and "base" in chain:
            chain["base"][draw(st.integers(0, 1))] = draw(bad_rationals)
        else:
            chain["shear"] = draw(bad_rationals)
    elif fault == "extra_prox out of range":
        if len(pts) == 1:
            pts.append({"kind": "free", "mult": 1, "lambda": "1"})
        k = draw(st.integers(1, len(pts) - 1))
        # valid targets of point k lie in 0 .. k-2
        pts[k] = {"kind": "satellite", "mult": pts[k]["mult"],
                  "extra_prox": draw(st.integers(max_value=-1)
                                     | st.integers(min_value=k - 1))}
    else:
        if satellite and draw(st.booleans()):
            point["extra_prox"] = draw(st.booleans())
        elif "base" in chain and draw(st.booleans()):
            chain["base"][draw(st.integers(0, 1))] = draw(st.booleans())
        else:
            point["mult"] = draw(st.booleans())
    return doc


@settings(max_examples=150, deadline=None)
@given(malformed_cluster_docs())
def test_malformed_cluster_files_are_error_reports(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for command in ("length", "unload", "render"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([command, "--in", path])
            report = json.loads(out.getvalue())
            assert code == 2, (command, report)
            assert report["verdict"] == "error"
            assert isinstance(report["error"], str)
