"""Malformed input files, fuzzed: cluster files through `length`, `unload`
and `render`, and curve files through `verify --curve`.  Every one must be
answered with exit status 2 and a structured error report whose error names
a `$` path, never a traceback and never a silent acceptance."""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fixture
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
                     "1e3", "--1", "1/", "1_0", " +3 ", "+3", "\u0663/4",
                     "3 ", "1/ 2"])
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


def error_of(argv):
    """Run the CLI in process; assert an error report and return its error."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    report = json.loads(out.getvalue())
    assert code == 2, (argv, report)
    assert report["verdict"] == "error"
    assert report["error"].startswith("$"), report["error"]
    return report["error"]


def error_of_doc(doc, *argv):
    """error_of for argv with the document, as JSON text or as data, written
    to a file in place of the string "FILE"."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.json")
        with open(path, "w") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc))
        return error_of([path if a == "FILE" else a for a in argv])


@settings(max_examples=150, deadline=None)
@given(malformed_cluster_docs())
def test_malformed_cluster_files_are_error_reports(doc):
    for command in ("length", "unload", "render"):
        error_of_doc(doc, command, "--in", "FILE")


rational_texts = st.builds(
    lambda p, q: str(Fraction(p, q)), st.integers(-9, 9), st.integers(1, 9))


@st.composite
def malformed_curve_docs(draw):
    """A valid curve file with exactly one fault that makes it invalid."""
    d = draw(st.integers(0, 4))
    mons = ["%d,%d" % (a, b) for a in range(d + 1) for b in range(d + 1 - a)]
    doc = {"degree": d, "coefficients": draw(st.dictionaries(
        st.sampled_from(mons), rational_texts | st.integers(-9, 9),
        min_size=1, max_size=4))}
    fault = draw(st.sampled_from(["doc", "degree", "coefficients", "key",
                                  "value", "missing key"]))
    if fault == "doc":
        return draw(not_objects)
    if fault == "degree":
        doc["degree"] = draw(not_ints | st.integers(max_value=-1))
    elif fault == "coefficients":
        doc["coefficients"] = draw(not_objects)
    elif fault == "key":
        key = draw(st.sampled_from(
            ["01,0", "0,01", "1, 0", " 1,0", "1,0,0", "+1,0", "-1,0", "1",
             "a,b", "\u0661,0", "1_0,0", "", ",", "%d,0" % (d + 1)]))
        doc["coefficients"][key] = "1"
    elif fault == "value":
        key = draw(st.sampled_from(sorted(doc["coefficients"])))
        doc["coefficients"][key] = draw(bad_rationals | st.none())
    else:
        del doc[draw(st.sampled_from(["degree", "coefficients"]))]
    return doc


@settings(max_examples=100, deadline=None)
@given(malformed_curve_docs())
def test_malformed_curve_files_are_error_reports(doc):
    error_of_doc(doc, "verify", "--curve", "FILE",
                 "--union", fixture("tacnode_union.json"))


HUGE = "9" * 5000


@pytest.mark.parametrize("text, argv, path", [
    # an integer beyond the interpreter's conversion limit
    ('{"chains": [{"points": [{"kind": "root", "mult": %s}]}]}' % HUGE,
     ("length",), "$: "),
    ('{"degree": 1, "coefficients": {"1,0": %s}}' % HUGE, ("verify",), "$: "),
    # a repeated key, and a second spelling of the same monomial
    ('{"degree": 1, "coefficients": {"1,0": "1", "1,0": "2"}}', ("verify",),
     "$: "),
    ('{"degree": 1, "coefficients": {"1,0": "1", "01,0": "2"}}', ("verify",),
     "$.coefficients['01,0']: "),
    # a list of singularity orders is no input file
    ('{"tacnodes": [2, 2, 2], "cusps": [1]}', ("length",),
     "$: unrecognized input shape"),
], ids=["huge-int-in-cluster", "huge-int-in-curve", "repeated-key",
        "second-spelling", "singularity-list"])
def test_unreadable_documents_are_schema_errors(text, argv, path):
    if argv == ("verify",):
        argv = ("verify", "--curve", "FILE",
                "--union", fixture("tacnode_union.json"))
    else:
        argv += ("--in", "FILE")
    assert error_of_doc(text, *argv).startswith(path)
