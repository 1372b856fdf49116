import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nearpoints.cli import main
from conftest import fixture


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def stable(report):
    report = dict(report)
    report.pop("timings", None)
    return json.dumps(report, sort_keys=False)


def test_unload_d7(capsys):
    code, rep = run_cli(capsys, "unload", "--in", fixture("d7.json"))
    assert code == 0
    assert rep["results"]["delta"] == [4, 2, 2, 2, 1, 0, 0]


def test_unload_trace(capsys):
    code, rep = run_cli(capsys, "unload", "--in", fixture("d7.json"),
                        "--trace")
    assert code == 0
    steps = rep["results"]["steps"]
    assert steps and all(s["amount"] >= 1 for s in steps)


def test_unload_error_fixture(capsys):
    code = main(["unload", "--in", fixture("bad_lambda.json")])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["verdict"] == "error"


def test_length(capsys):
    code, rep = run_cli(capsys, "length", "--in", fixture("d7.json"))
    assert code == 0
    assert rep["results"]["length"] == 20


def test_cluster_commands_read_a_union_as_its_chains(capsys, tmp_path):
    # an embedded union of two chains is the cluster of its chains in order:
    # the bases and lambdas change no result
    chains = [{"points": [{"kind": "root", "mult": 2},
                          {"kind": "free", "mult": 2, "lambda": "1"}]},
              {"points": [{"kind": "root", "mult": 2}]}]
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"chains": chains}))
    for chain, base in zip(chains, (["0", "0"], ["3", "4"])):
        chain["base"] = base
    union = tmp_path / "union.json"
    union.write_text(json.dumps({"chains": chains}))
    for command, *flags in (["length"], ["unload", "--trace"], ["render"]):
        reports = [run_cli(capsys, command, "--in", str(path), *flags)
                   for path in (plain, union)]
        assert [code for code, _ in reports] == [0, 0], command
        assert reports[0][1]["results"] == reports[1][1]["results"]
        if command == "length":
            assert reports[1][1]["results"]["length"] == 9


def test_ell(capsys):
    code, rep = run_cli(capsys, "ell", "--in", fixture("tacnode_union.json"),
                        "--degree", "2")
    assert code == 0
    assert rep["results"]["actual"] == 0


def test_maxrank_five_doubles_fails_at_4(capsys):
    code, rep = run_cli(capsys, "maxrank", "--in",
                        fixture("five_doubles.json"))
    assert code == 1
    fails = [d for d in rep["results"]["detail"] if d["verdict"] != "ok"]
    assert [f["degree"] for f in fails] == [4]


def test_maxrank_all_degrees(capsys):
    code, rep = run_cli(capsys, "maxrank", "--in",
                        fixture("five_doubles.json"),
                        "--all-degrees-up-to", "6")
    assert rep["results"]["degrees"] == list(range(7))


def test_maxrank_without_degrees_is_an_error(capsys):
    # --all-degrees-up-to -1 leaves nothing to audit: no verdict to give
    code, rep = run_cli(capsys, "maxrank", "--in",
                        fixture("tacnode_union.json"),
                        "--all-degrees-up-to", "-1")
    assert code == 2 and rep["verdict"] == "error"
    assert "no degree" in rep["error"]


@pytest.mark.parametrize("argv", [
    ["semicontinuity", "--trials", "-3"],
    ["semicontinuity", "--trials", "0"],
    ["semicontinuity", "--mults", "4"],
    ["limit-identities", "--s-max", "1"],
    ["limit-identities", "--m-max", "-1"],
    ["limit-identities", "--i-max", "-1"],
    ["limit-identities", "--j-max", "-2"],
    ["limit-dimension", "--s", "1"],
    ["limit-identities", "--m-max", "1"],
    ["limit-identities", "--i-max", "1"],
], ids=" ".join)
def test_experiment_on_an_empty_range_is_an_error(capsys, argv):
    # nothing would be checked: no verdict to give
    code, rep = run_cli(capsys, "experiment", *argv)
    assert code == 2 and rep["verdict"] == "error"
    assert "results" not in rep


def test_maxrank_error_on_missing_file(capsys):
    assert main(["maxrank", "--in", fixture("nope.json")]) == 2
    capsys.readouterr()


def test_verify_ok_and_fail(capsys, tmp_path):
    code, rep = run_cli(capsys, "synthesize", "--tacnodes", "1,1,1",
                        "--seed", "3",
                        "--curve-out", str(tmp_path / "c.json"))
    assert code == 0
    union_path = tmp_path / "u.json"
    from nearpoints.io import cluster_to_data
    from nearpoints.synthesis import SingularitySpec
    from nearpoints.synthesis import _spec_union
    union = _spec_union(SingularitySpec(tacnodes=(1, 1, 1)), 3, 100)
    union_path.write_text(json.dumps(cluster_to_data(union)))
    code, rep = run_cli(capsys, "verify", "--curve", str(tmp_path / "c.json"),
                        "--union", str(union_path))
    assert code == 0 and all(c["ok"] for c in rep["results"]["certificates"])
    # the same curve against a mismatched union fails
    other = _spec_union(SingularitySpec(tacnodes=(2,)), 4, 100)
    other_path = tmp_path / "u2.json"
    other_path.write_text(json.dumps(cluster_to_data(other)))
    code, rep = run_cli(capsys, "verify", "--curve", str(tmp_path / "c.json"),
                        "--union", str(other_path))
    assert code == 1


def test_synthesize_error_weight5(capsys):
    assert main(["synthesize", "--tacnodes", "5", "--seed", "1"]) == 2
    capsys.readouterr()


def test_synthesize_flagship(capsys):
    code, rep = run_cli(capsys, "synthesize", "--tacnodes", "2,2,2",
                        "--seed", "7")
    assert code == 0
    assert rep["results"]["degree"] == 6 and rep["verdict"] == "ok"


@pytest.mark.parametrize("data, path", [
    ({"chains": [1]}, "$.chains[0]"),
    ([{"chains": []}], "$"),
    ({"chains": [{"points": [{"kind": "root", "mult": True}]}]},
     "$.chains[0].points[0].mult"),
    ({"chains": [{"points": [{"kind": "root", "mult": 2},
                             {"kind": "satellite", "mult": 1,
                              "extra_prox": False}]}]},
     "$.chains[0].points[1].extra_prox"),
    ({"chains": [{"base": [True, "0"],
                  "points": [{"kind": "root", "mult": 2}]}]},
     "$.chains[0].base[0]"),
    ({"degree": True, "coefficients": {"0,0": "1"}}, "$.degree"),
])
def test_malformed_input_is_a_schema_error(capsys, tmp_path, data, path):
    from nearpoints.io import SchemaError, parse_inputs
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(SchemaError) as info:
        parse_inputs(str(bad))
    assert info.value.path == path
    code, rep = run_cli(capsys, "length", "--in", str(bad))
    assert code == 2 and rep["verdict"] == "error"
    assert rep["error"].startswith(path + ":")


@pytest.mark.parametrize("command", ["render", "length", "unload"])
@pytest.mark.parametrize("base", [None, ["0", "0"]])
def test_invalid_cluster_is_a_schema_error(capsys, tmp_path, command, base):
    chain = {"points": [{"kind": "root", "mult": 1},
                        {"kind": "satellite", "mult": 1, "extra_prox": 7}]}
    if base:
        chain["base"] = base
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"chains": [chain]}))
    code, rep = run_cli(capsys, command, "--in", str(bad))
    assert code == 2 and rep["verdict"] == "error"
    assert rep["error"].startswith("$.chains[0].points[1].extra_prox:")


@pytest.mark.parametrize("base, message", [
    (["9" * 5000, "0"], "malformed rational"),
    (["6" * 3000 + "/2", "0"], "is not in lowest terms"),
    (["1/" + "0" * 3000, "0"], "zero denominator"),
])
def test_long_rejected_rational_is_echoed_short(capsys, tmp_path, base,
                                                message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"chains": [
        {"base": base, "points": [{"kind": "root", "mult": 2}]}]}))
    code, rep = run_cli(capsys, "length", "--in", str(bad))
    assert code == 2 and rep["verdict"] == "error"
    assert rep["error"].startswith("$.chains[0].base[0]: ")
    assert message in rep["error"]
    assert "(%d characters)" % len(base[0]) in rep["error"]
    assert len(rep["error"]) < 150


def test_long_curve_key_is_a_schema_error(capsys, tmp_path):
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"degree": 2,
                                 "coefficients": {"9" * 5000 + ",0": "1"}}))
    code, rep = run_cli(capsys, "verify", "--curve", str(curve),
                        "--union", fixture("tacnode_union.json"))
    assert code == 2 and rep["verdict"] == "error"
    assert rep["error"].startswith("$.coefficients['99")
    assert rep["error"].endswith("monomial outside degree 2")
    assert len(rep["error"]) < 150


def test_parse_minimal_cluster(tmp_path):
    from nearpoints.io import parse_inputs
    from nearpoints.clusters import WeightedCluster
    p = tmp_path / "one.json"
    p.write_text('{"chains": [{"points": [{"kind": "root", "mult": 2}]}]}')
    wc = parse_inputs(str(p))
    assert isinstance(wc, WeightedCluster) and wc.r == 1 and wc.mults == (2,)


@pytest.mark.parametrize("argv", [
    ["catalog", "--height", "0"],
    ["catalog", "--height", "-4"],
    ["synthesize", "--tacnodes", "1,1,1", "--height", "0"],
    ["experiment", "semicontinuity", "--height", "-1"]])
def test_height_below_one_is_an_error(capsys, argv):
    code, rep = run_cli(capsys, *argv)
    assert code == 2 and rep["verdict"] == "error"
    assert "--height" in rep["error"] and "config" not in rep


@pytest.mark.parametrize("argv, command, message", [
    (["synthesize", "--tacnodes", "1,x"], "synthesize",
     "argument --tacnodes: invalid _int_list value: '1,x'"),
    (["frobnicate"], None, "argument command: invalid choice: 'frobnicate'"),
    (["--format", "text", "length"], "length",
     "the following arguments are required: --in"),
    # an empty item is an error, not a skipped one
    (["synthesize", "--tacnodes", "1,,1,1", "--seed", "3"], "synthesize",
     "argument --tacnodes: invalid _int_list value: '1,,1,1'"),
    (["synthesize", "--cusps", "1,1,"], "synthesize",
     "argument --cusps: invalid _int_list value: '1,1,'"),
    (["experiment", "semicontinuity", "--mults", ","], "experiment",
     "argument --mults: invalid _int_list value: ','"),
    # nothing to synthesize, also when --degree skips the weight check
    (["synthesize", "--degree", "2"], "synthesize",
     "no tacnode or cusp prescribed"),
    # the weight bound admits a node at d = 2, but a singular conic is a
    # line pair
    (["synthesize", "--tacnodes", "1", "--degree", "2"], "synthesize",
     "degree 2 below 3: a singular curve of degree <= 2 is reducible")])
def test_usage_error_is_an_error_report(capsys, argv, command, message):
    # no usage text on stderr and no SystemExit: the JSON error report,
    # also when --format text was asked for, since parsing did not finish
    code = main(argv)
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert code == 2 and err == ""
    assert list(rep) == ["tool", "version", "command", "error", "verdict",
                         "timings"]
    assert rep["command"] == command and rep["verdict"] == "error"
    assert rep["error"].startswith(message)
    assert "elapsed_s" in rep["timings"]


def test_an_empty_list_value_is_the_empty_list():
    from nearpoints.cli import _int_list
    assert _int_list("") == _int_list(" ") == []
    assert _int_list("1, 2,3") == [1, 2, 3]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert "usage: nearpoints" in capsys.readouterr().out


def test_render_round(capsys):
    code, rep = run_cli(capsys, "render", "--in", fixture("d7.json"))
    assert code == 0 and "sat->0" in rep["results"]["diagram"]
    code, rep = run_cli(capsys, "render", "--in", fixture("d7.json"),
                        "--style", "dot")
    assert "digraph" in rep["results"]["diagram"]


def test_experiment_semicontinuity(capsys):
    code, rep = run_cli(capsys, "experiment", "semicontinuity",
                        "--mults", "2,2,2", "--trials", "5", "--seed", "1")
    assert code == 0 and rep["results"]["ok"]


def test_experiment_limit_identities(capsys):
    code, rep = run_cli(capsys, "experiment", "limit-identities",
                        "--s-max", "3", "--m-max", "5", "--i-max", "6",
                        "--j-max", "6")
    assert code == 0 and rep["results"]["counterexamples"] == []


def test_experiment_limit_dimension(capsys):
    code, rep = run_cli(capsys, "experiment", "limit-dimension",
                        "--s", "2", "--i", "2", "--j", "1", "--degree", "3")
    assert code == 0 and rep["results"]["ok"]


def test_experiment_limit_dimension_negative_count_is_an_error(capsys):
    code, rep = run_cli(capsys, "experiment", "limit-dimension",
                        "--s", "2", "--i", "2", "--j", "-1", "--degree", "3")
    assert code == 2 and rep["verdict"] == "error"
    assert "negative count" in rep["error"] and "results" not in rep


def test_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code = main(["--out", str(path), "length", "--in", fixture("d7.json")])
    capsys.readouterr()
    assert code == 0
    assert json.loads(path.read_text())["results"]["length"] == 20


def test_error_report_carries_timings(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"chains": [1]}')
    code, rep = run_cli(capsys, "length", "--in", str(bad))
    assert code == 2
    assert list(rep) == ["tool", "version", "command", "error", "verdict",
                         "timings"]
    assert rep["command"] == "length" and rep["verdict"] == "error"
    assert rep["error"].startswith("$.chains[0]")
    assert rep["timings"]["elapsed_s"] >= 0


def test_error_report_honours_format_and_out(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"chains": [1]}')
    out = tmp_path / "o.json"
    code = main(["--format", "text", "--out", str(out), "length", "--in",
                 str(bad)])
    text = capsys.readouterr().out
    assert code == 2
    assert text.startswith("nearpoints length: error\n")
    assert "error: $.chains[0]" in text
    assert out.read_text() == text
    code = main(["--out", str(out), "length", "--in", str(bad)])
    assert code == 2
    assert json.loads(out.read_text())["verdict"] == "error"
    assert json.loads(capsys.readouterr().out)["verdict"] == "error"



def test_unwritable_out_is_an_error_report(capsys, tmp_path):
    out = tmp_path / "missing" / "o.json"
    code = main(["--out", str(out), "length", "--in", fixture("d7.json")])
    rep = json.loads(capsys.readouterr().out)
    assert code == 2 and not out.exists()
    assert list(rep) == ["tool", "version", "command", "error", "verdict",
                         "timings"]
    assert rep["verdict"] == "error"
    assert rep["error"].startswith("cannot write --out: ")
    assert str(out) in rep["error"]


# A child that cannot import sympy: every command that does not need the
# resultant locus must run without it, synthesize included when the
# Tjurina count certifies its curve.
NO_SYMPY = """
import sys
class Blocked:
    def find_spec(self, name, path=None, target=None):
        if name == "sympy" or name.startswith("sympy."):
            raise ImportError("sympy is blocked")
sys.meta_path.insert(0, Blocked())
from nearpoints.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _child(*args, timeout=None):
    import nearpoints
    src = str(Path(nearpoints.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=timeout)


def test_more_points_than_the_height_holds_is_an_error():
    # ten components need ten distinct base points; height 1 has nine
    proc = _child("-m", "nearpoints.cli", "synthesize", "--tacnodes",
                  ",".join(["1"] * 10), "--height", "1", timeout=20)
    assert proc.returncode == 2, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["verdict"] == "error" and "distinct points" in rep["error"]


def test_cold_start_does_not_import_sympy():
    proc = _child("-c", "import sys, nearpoints.cli; "
                        "print('sympy' in sys.modules)")
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


def test_commands_run_without_sympy(tmp_path):
    from nearpoints.io import cluster_to_data, curve_to_data
    from nearpoints.synthesis import SingularitySpec, synthesize
    curve, union = synthesize(SingularitySpec(tacnodes=(1, 1, 1)), 4, seed=3)
    curve_path, union_path = tmp_path / "c.json", tmp_path / "u.json"
    curve_path.write_text(json.dumps(curve_to_data(curve)))
    union_path.write_text(json.dumps(cluster_to_data(union)))
    for argv, code in (
            (["length", "--in", fixture("d7.json")], 0),
            (["maxrank", "--in", fixture("five_doubles.json")], 1),
            (["verify", "--curve", str(curve_path), "--union",
              str(union_path)], 0),
            (["synthesize", "--tacnodes", "1,1,1", "--seed", "31000"], 0),
            # two of the bases share an x-coordinate
            (["synthesize", "--tacnodes", "1,1,1,1", "--seed", "205"], 0)):
        proc = _child("-c", NO_SYMPY, *argv)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["verdict"] == ("ok" if code == 0
                                                      else "fail")

def test_text_format(capsys):
    code = main(["--format", "text", "length", "--in", fixture("d7.json")])
    out = capsys.readouterr().out
    assert code == 0 and "length: 20" in out


@pytest.mark.parametrize("argv", [
    ["unload", "--in", fixture("d7.json"), "--trace"],
    ["length", "--in", fixture("d7.json")],
    ["ell", "--in", fixture("tacnode_union.json"), "--degree", "3"],
    ["maxrank", "--in", fixture("five_doubles.json")],
    ["render", "--in", fixture("d7.json"), "--style", "dot"],
    ["experiment", "semicontinuity", "--mults", "2,2,2", "--trials", "3",
     "--seed", "7"],
    ["synthesize", "--tacnodes", "1,1,1", "--seed", "11"],
])
def test_reports_deterministic(capsys, argv):
    main(argv)
    first = json.loads(capsys.readouterr().out)
    main(argv)
    second = json.loads(capsys.readouterr().out)
    assert stable(first) == stable(second)
