"""The traced benchmark patches library attributes by name: every name it
lists must still be bound in its module, or `perfbench/run.py --trace 1`
stops with a KeyError."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _sites():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(owner, attr) for owner, attr, _ in
            spans.SPAN_SITES + spans.COUNT_SITES
            if owner.startswith("nearpoints.")]


SITES = _sites()


def test_sites_cover_the_library():
    assert len(SITES) >= 10


@pytest.mark.parametrize("owner,attr", SITES,
                         ids=["%s.%s" % site for site in SITES])
def test_patched_name_is_bound(owner, attr):
    assert attr in importlib.import_module(owner).__dict__
