"""Seeded reports frozen across commits.

Each digest is the sha256 of a report's sorted-key JSON, cut to 16 hex
digits: the existence-pipeline report of every acceptance spec at its
acceptance seed, and the CLI report of every criterion-9 command without
its `timings` and `config` (config holds file paths).  A change meant to
keep every seeded report byte-identical keeps them all.  A change that
alters a report on purpose writes the fixture anew and says why:

    PYTHONPATH=src:tests python tests/test_report_digests.py \\
        > tests/fixtures/report_digests.json
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from conftest import fixture
from test_acceptance import PIPELINE_SPECS
from nearpoints import synthesis
from nearpoints.cli import main as cli_main
from nearpoints.io import cluster_to_data, curve_to_data, jsonable

FIXTURE = Path(__file__).parent / "fixtures" / "report_digests.json"

CLI_COMMANDS = [
    ["verify", "--curve", "{curve}", "--union", "{union}"],
    ["unload", "--in", fixture("d7.json"), "--trace"],
    ["length", "--in", fixture("d7.json")],
    ["ell", "--in", fixture("tacnode_union.json"), "--degree", "3"],
    ["maxrank", "--in", fixture("five_doubles.json"), "--seed", "5"],
    ["catalog", "--seed", "12"],
    ["synthesize", "--tacnodes", "2,2,2", "--seed", "7"],
    ["experiment", "semicontinuity", "--mults", "2,2,2",
     "--trials", "5", "--seed", "3"],
    ["experiment", "limit-identities", "--s-max", "3", "--m-max", "4",
     "--i-max", "5", "--j-max", "5"],
    ["experiment", "limit-dimension", "--s", "2", "--i", "2", "--j", "1",
     "--degree", "3", "--seed", "4"],
    ["render", "--in", fixture("d7.json"), "--style", "dot"],
]


def digest(data):
    text = json.dumps(jsonable(data), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cli_name(argv):
    return " ".join(Path(a).name for a in argv)


def current_digests():
    """{"existence_driver": [one digest per acceptance spec],
    "cli": {command: {"exit": status, "digest": digest}}} from the code as
    it stands."""
    drivers = [digest(synthesis.existence_driver(spec, seed=31000 + k))
               for k, spec in enumerate(PIPELINE_SPECS)]
    cli = {}
    with tempfile.TemporaryDirectory() as tmp:
        curve, union = synthesis.synthesize(
            synthesis.SingularitySpec(tacnodes=(1, 1, 1)), 4, seed=3)
        paths = {"curve": Path(tmp) / "curve.json",
                 "union": Path(tmp) / "union.json"}
        paths["curve"].write_text(json.dumps(curve_to_data(curve)))
        paths["union"].write_text(json.dumps(cluster_to_data(union)))
        for argv in CLI_COMMANDS:
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli_main([a.format(**paths) for a in argv])
            data = json.loads(out.getvalue())
            data.pop("timings", None)
            data.pop("config", None)
            cli[_cli_name(argv)] = {"exit": code, "digest": digest(data)}
    return {"existence_driver": drivers, "cli": cli}


def test_seeded_reports_match_the_frozen_digests(monkeypatch):
    # none of these runs takes the resultant locus, so the digests do not
    # depend on how sympy prints
    calls = []
    locus_fn = synthesis.singular_locus
    monkeypatch.setattr(synthesis, "singular_locus",
                        lambda C: calls.append(C) or locus_fn(C))
    assert current_digests() == json.loads(FIXTURE.read_text())
    assert calls == []


if __name__ == "__main__":
    json.dump(current_digests(), sys.stdout, indent=1, sort_keys=True)
    print()
