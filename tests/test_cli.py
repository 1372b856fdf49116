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


def test_a_negative_multiplicity_imposes_no_condition(capsys, tmp_path):
    # multiplicities are signed virtual ones: unloading raises (2, -1) to
    # (2, 0), so the negative one imposes no condition
    path = tmp_path / "neg.json"
    path.write_text(json.dumps({"chains": [{"points": [
        {"kind": "root", "mult": 2}, {"kind": "free", "mult": -1}]}]}))
    code, rep = run_cli(capsys, "length", "--in", str(path))
    assert code == 0 and rep["results"] == {"length": 3, "delta": [2, 0]}
    code, rep = run_cli(capsys, "experiment", "semicontinuity", "--mults",
                        "2,2,-1", "--trials", "2")
    assert code == 0 and rep["verdict"] == "ok"


@pytest.mark.parametrize("name,degree,rank,expected,actual,exact", [
    # length 6, defective in degree 2
    ("tacnode_union.json", 2, 5, -1, 0, [2]),
    # length 15; degree 4 is superabundant: the certificate falls short of
    # rank 15, and the one exact matrix is built there
    ("five_doubles.json", 3, 10, -1, -1, []),
    ("five_doubles.json", 4, 14, -1, 0, [4]),
    ("five_doubles.json", 5, 15, 5, 5, []),
], ids=["tacnode_union-2", "five_doubles-3", "five_doubles-4",
        "five_doubles-5"])
def test_ell(capsys, monkeypatch, name, degree, rank, expected, actual,
             exact):
    from nearpoints import plane_systems
    condition_matrix = plane_systems.condition_matrix
    built = []
    monkeypatch.setattr(plane_systems, "condition_matrix",
                        lambda Z, d: built.append(d) or condition_matrix(Z, d))
    code, rep = run_cli(capsys, "ell", "--in", fixture(name),
                        "--degree", str(degree))
    assert code == 0 and rep["verdict"] == "ok"
    assert list(rep["results"].items()) == [
        ("degree", degree), ("rank", rank), ("expected", expected),
        ("actual", actual), ("verdict", "ok"), ("seed", None)]
    assert built == exact


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
    ["semicontinuity", "--mults", "0,0,0", "--trials", "1"],
    ["semicontinuity", "--mults", "0,-1,0", "--trials", "1"],
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


def test_maxrank_above_the_degree_limit_is_an_error(capsys):
    # the degrees are never all listed: the audit stops at the first one
    # past plane_systems.MAX_DEGREE (it used to end in a MemoryError
    # traceback from list(range(10^11 + 1)))
    from nearpoints.plane_systems import MAX_DEGREE
    for top in (100000000000, MAX_DEGREE + 1):
        code, rep = run_cli(capsys, "maxrank", "--in",
                            fixture("five_doubles.json"),
                            "--all-degrees-up-to", str(top))
        assert code == 2 and rep["verdict"] == "error"
        assert rep["error"] == ("degree %d above the audit limit %d"
                                % (MAX_DEGREE + 1, MAX_DEGREE))


def test_ell_above_the_degree_limit_is_an_error(capsys):
    # ell is maxrank at one degree, so it stops at plane_systems.MAX_DEGREE
    # with the same error (it used to run on, 0.8 s at degree 201 and
    # without bound above), and below degree 0 too
    from nearpoints.plane_systems import MAX_DEGREE, ell, generic_union
    for degree in (MAX_DEGREE + 1, 100000, -1):
        error = ("degree %d above the audit limit %d" % (degree, MAX_DEGREE)
                 if degree > 0 else "degree must be nonnegative")
        code, rep = run_cli(capsys, "ell", "--in",
                            fixture("tacnode_union.json"), "--degree",
                            str(degree))
        assert code == 2 and rep["verdict"] == "error"
        assert rep["error"] == error
        with pytest.raises(ValueError, match=error):
            ell(generic_union([(2,)], 1), degree)


class _MatrixAsked(Exception):
    """Raised by the condition-matrix spy instead of building the matrix."""


def test_synthesize_above_the_degree_limit_is_an_error(capsys, monkeypatch):
    # the degree stops at plane_systems.MAX_DEGREE before a condition
    # matrix is asked for, whether --degree gives it or the weight bound
    # does (--degree 100000 used to reach monomials(100000), about 5 * 10^9
    # tuples); the spy stops a run that gets past the limit at once
    from nearpoints import synthesis
    from nearpoints.plane_systems import MAX_DEGREE

    def spy(Z, d):
        raise _MatrixAsked(d)

    monkeypatch.setattr(synthesis, "condition_matrix", spy)
    # weight 6701 is the least whose bound, d(d+1) >= 6 * weight, is 201
    assert synthesis.min_degree(synthesis.SingularitySpec((6701,))) == \
        MAX_DEGREE + 1
    for argv, degree in ((["--tacnodes", "1,1,1", "--degree", "100000"],
                          100000),
                         (["--tacnodes", "1,1,1", "--degree",
                           str(MAX_DEGREE + 1)], MAX_DEGREE + 1),
                         (["--tacnodes", "6701"], MAX_DEGREE + 1)):
        code, rep = run_cli(capsys, "synthesize", *argv)
        assert code == 2 and rep["verdict"] == "error"
        assert rep["error"] == ("degree %d above the audit limit %d"
                                % (degree, MAX_DEGREE))
    # the limit itself is admitted: the matrix is asked for at it
    with pytest.raises(_MatrixAsked) as asked:
        main(["synthesize", "--tacnodes", "1,1,1", "--degree",
              str(MAX_DEGREE)])
    assert asked.value.args == (MAX_DEGREE,)


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


def test_verify_refuses_a_sharp_curve_with_extra_nodes(capsys):
    # C.L: the seed-3 nodal quartic times the line x + 2y + 7, which misses
    # its three bases.  The product is sharp at each base, but the line
    # meets the quartic in four more nodes, and the Tjurina count sees them
    from nearpoints.io import parse_inputs
    from nearpoints.synthesis import SingularitySpec, synthesize
    quartic, union = synthesize(SingularitySpec(tacnodes=(1, 1, 1)), 4,
                                seed=3)
    assert parse_inputs(fixture("three_nodes.json")) == union
    product = {}
    for (a, b), c in quartic.coeffs.items():
        for (e, f), g in (((1, 0), 1), ((0, 1), 2), ((0, 0), 7)):
            product[a + e, b + f] = product.get((a + e, b + f), 0) + c * g
    assert parse_inputs(fixture("cl_quintic.json")).coeffs == product
    code, rep = run_cli(capsys, "verify", "--curve",
                        fixture("cl_quintic.json"), "--union",
                        fixture("three_nodes.json"))
    assert (code, rep["verdict"]) == (1, "fail")
    assert all(c["ok"] for c in rep["results"]["certificates"])
    assert rep["results"]["locus_ok"] is False


def verify_curve(capsys, tmp_path, curve, union):
    """The verify report of a curve against an embedded union, through
    files."""
    from nearpoints.io import cluster_to_data, curve_to_data
    curve_path, union_path = tmp_path / "c.json", tmp_path / "u.json"
    curve_path.write_text(json.dumps(curve_to_data(curve)))
    union_path.write_text(json.dumps(cluster_to_data(union)))
    return run_cli(capsys, "verify", "--curve", str(curve_path),
                   "--union", str(union_path))


def test_verify_passes_every_acceptance_curve(capsys, tmp_path):
    # the curve the driver certifies at each acceptance seed, verified
    # against its own union, gets exit 0 and the driver's certificates
    from test_acceptance import PIPELINE_SPECS
    from nearpoints.synthesis import existence_driver, synthesize
    for k, spec in enumerate(PIPELINE_SPECS):
        rep = existence_driver(spec, seed=31000 + k)
        entry = rep["attempts"][-1]
        assert rep["verdict"] == "ok", spec
        curve, union = synthesize(spec, rep["degree"],
                                  seed=31000 + k + 7777 * entry["attempt"])
        code, out = verify_curve(capsys, tmp_path, curve, union)
        assert (code, out["verdict"]) == (0, "ok"), spec
        assert out["results"] == {"certificates": entry["certificates"]}


def test_verify_refuses_each_count_miss(capsys, tmp_path):
    # each sharp attempt the driver's count refused, verified against its
    # own union, fails in the CLI too
    from test_acceptance import PIPELINE_SPECS
    from test_synthesis import COUNT_MISSES
    from nearpoints.synthesis import min_degree, synthesize
    for seed, k, attempt in COUNT_MISSES:
        spec = PIPELINE_SPECS[k]
        curve, union = synthesize(spec, min_degree(spec),
                                  seed + 7777 * attempt, height=1)
        code, rep = verify_curve(capsys, tmp_path, curve, union)
        assert (code, rep["verdict"]) == (1, "fail"), (seed, k, attempt)
        assert all(c["ok"] for c in rep["results"]["certificates"])
        assert rep["results"]["locus_ok"] is False


def test_verify_refuses_a_union_above_multiplicity_two(capsys, tmp_path,
                                                       monkeypatch):
    # a D_4 point is a triple point, where tau can fall below mu: the
    # count has no premise there, and no audit runs
    from nearpoints import synthesis
    from nearpoints.io import cluster_to_data
    from nearpoints.plane_systems import SchemeUnion

    def audit(curve, ec):
        raise AssertionError("a union outside the premise was audited")
    monkeypatch.setattr(synthesis, "verify_sharp", audit)
    union_path = tmp_path / "d4.json"
    union_path.write_text(json.dumps(cluster_to_data(
        SchemeUnion((synthesis.dk_scheme(4),)))))
    code = main(["verify", "--curve", fixture("cl_quintic.json"),
                 "--union", str(union_path)])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert (code, rep["verdict"], err) == (2, "error", "")
    assert rep["error"] == ("a multiplicity above 2 is outside the premise "
                            "of the Tjurina count")


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
    (["length"], "length", "the following arguments are required: --in"),
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
     "degree 2 below 3: a singular curve of degree <= 2 is reducible"),
    # an option of one experiment kind is foreign to the others
    (["experiment", "semicontinuity", "--s-max", "3"], "experiment",
     "unrecognized arguments: --s-max 3"),
    (["experiment", "limit-identities", "--height", "0"], "experiment",
     "unrecognized arguments: --height 0"),
    (["experiment", "limit-dimension", "--trials", "0"], "experiment",
     "unrecognized arguments: --trials 0"),
    # nor is an option read by a prefix of its name
    (["experiment", "limit-identities", "--s", "3"], "experiment",
     "unrecognized arguments: --s 3"),
    (["experiment", "semicontinuity", "--s", "3"], "experiment",
     "unrecognized arguments: --s 3"),
    (["length", "--in", fixture("d7.json"), "--bogus", "1"], "length",
     "unrecognized arguments: --bogus 1"),
    (["length", "--in", fixture("d7.json"), "--format", "text"], "length",
     "unrecognized arguments: --format text"),
    # no global option: the first word after an unknown one is read as
    # the command
    (["--format", "text", "length", "--in", fixture("d7.json")], None,
     "argument command: invalid choice: 'text'"),
    (["--out", "report.json", "length", "--in", fixture("d7.json")], None,
     "argument command: invalid choice: 'report.json'")])
def test_usage_error_is_an_error_report(capsys, argv, command, message):
    # no usage text on stderr and no SystemExit: the JSON error report
    code = main(argv)
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert code == 2 and err == ""
    assert list(rep) == ["tool", "version", "command", "error", "verdict",
                         "timings"]
    assert rep["command"] == command and rep["verdict"] == "error"
    assert rep["error"].startswith(message)
    assert "elapsed_s" in rep["timings"]


@pytest.mark.parametrize("argv, options", [
    (["semicontinuity", "--trials", "2", "--height", "5"],
     {"seed", "trials", "mults", "height"}),
    (["limit-identities", "--s-max", "2", "--m-max", "2", "--i-max", "3",
      "--j-max", "3"], {"s_max", "m_max", "i_max", "j_max"}),
    (["limit-dimension", "--height", "5"],
     {"seed", "s", "ii", "jj", "degree", "height"})],
    ids=["semicontinuity", "limit-identities", "limit-dimension"])
def test_experiment_config_echoes_only_the_kind_options(capsys, argv,
                                                        options):
    code, rep = run_cli(capsys, "experiment", *argv)
    assert code == 0
    assert set(rep["config"]) == {"command", "kind"} | options


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


# A child that cannot import sympy: every command must run without it,
# synthesize included, whether the Tjurina count certifies its curve or
# refuses it.
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


# `python -m nearpoints.cli ARGS` that prints, as it exits, the modules it
# loaded as a JSON list on stderr
LOADED_AT_EXIT = """
import atexit, json, runpy, sys
atexit.register(lambda: print(json.dumps(sorted(sys.modules)),
                              file=sys.stderr))
runpy.run_module("nearpoints.cli", run_name="__main__", alter_sys=True)
"""

# the package modules every cold command may load: the CLI and what a
# cluster file needs
CLI_CORE = {"nearpoints", "nearpoints.cli", "nearpoints.clusters",
            "nearpoints.io", "nearpoints.unloading"}


def test_cold_start_does_not_import_sympy(tmp_path):
    from nearpoints.io import cluster_to_data, curve_to_data
    from nearpoints.synthesis import SingularitySpec, synthesize
    curve, union = synthesize(SingularitySpec(tacnodes=(1, 1, 1)), 4, seed=3)
    curve_path, union_path = tmp_path / "c.json", tmp_path / "u.json"
    curve_path.write_text(json.dumps(curve_to_data(curve)))
    union_path.write_text(json.dumps(cluster_to_data(union)))
    heavy = {"nearpoints.synthesis", "nearpoints.locus",
             "nearpoints.specialization"}
    # the command shapes of the cli_cold benchmark, with the package
    # modules each must not load
    for argv, code, barred in (
            (["length", "--in", fixture("d7.json")], 0, None),
            (["unload", "--in", fixture("d7.json"), "--trace"], 0, None),
            (["render", "--in", fixture("d7.json")], 0, None),
            (["length", "--in", fixture("bad_lambda.json")], 2, None),
            (["ell", "--in", fixture("tacnode_union.json"), "--degree", "3"],
             0, heavy),
            (["maxrank", "--in", fixture("five_doubles.json")], 1, heavy),
            (["verify", "--curve", str(curve_path), "--union",
              str(union_path)], 0, {"nearpoints.specialization"})):
        proc = _child("-c", LOADED_AT_EXIT, *argv)
        assert proc.returncode == code, (argv, proc.stderr)
        loaded = set(json.loads(proc.stderr.splitlines()[-1]))
        assert not any(m == "sympy" or m.startswith("sympy.")
                       for m in loaded), argv
        # records are `clusters.record`s: `dataclasses` would pull in
        # `inspect`, `ast`, `dis` and `tokenize` at every cold start
        assert "dataclasses" not in loaded, argv
        # none of them draws: `sampling` imports hashlib (and OpenSSL) only
        # in `rng_from`
        assert "hashlib" not in loaded, argv
        ours = {m for m in loaded if m.split(".")[0] == "nearpoints"}
        if barred is None:
            assert ours <= CLI_CORE, (argv, sorted(ours - CLI_CORE))
        else:
            assert not ours & barred, (argv, sorted(ours & barred))


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
            (["synthesize", "--tacnodes", "1,1,1,1", "--seed", "205"], 0),
            # both attempts are sharp, and the count refuses both
            (["synthesize", "--tacnodes", "1,1,1", "--seed", "3",
              "--height", "1"], 1)):
        proc = _child("-c", NO_SYMPY, *argv)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["verdict"] == ("ok" if code == 0
                                                      else "fail")


# A child whose Tjurina count refuses every curve: the d = 9 driver fails
# both sharp attempts at once, and sympy is never loaded.
FORCED_MISS = """
import json, sys, time
from nearpoints import synthesis
synthesis.tjurina_certificate = lambda coeffs, s: False
start = time.perf_counter()
rep = synthesis.existence_driver(
    synthesis.SingularitySpec(tacnodes=(4, 4, 4, 1)), seed=0)
print(json.dumps({"seconds": time.perf_counter() - start,
                  "degree": rep["degree"], "verdict": rep["verdict"],
                  "locus_ok": [a.get("locus_ok") for a in rep["attempts"]],
                  "sympy": [m for m in sys.modules
                            if m == "sympy" or m.startswith("sympy.")]}))
"""


def test_a_count_miss_fails_the_attempt_without_sympy():
    proc = _child("-c", FORCED_MISS, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert (got["degree"], got["verdict"], got["locus_ok"], got["sympy"]) \
        == (9, "fail", [False, False], [])
    assert got["seconds"] < 1


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
