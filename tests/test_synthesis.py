import hashlib
import itertools
import json
import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from nearpoints import linalg, local_algebra, locus, polyops, synthesis
from nearpoints.clusters import validate, weighted_chain
from nearpoints.io import jsonable
from nearpoints.local_algebra import (EmbeddedCluster, contains,
                                      ideal_subspace, strict_transforms,
                                      to_local)
from nearpoints.plane_systems import SchemeUnion, max_rank
from nearpoints.polyops import (p_form, p_min_deg, u_clean, u_diff,
                                u_is_squarefree)
from nearpoints.synthesis import (PlaneCurve, SharpnessCertificate,
                                  SingularitySpec, cusp_scheme,
                                  dk_scheme, existence_driver, min_degree,
                                  singular_locus, synthesize, tacnode_scheme,
                                  verify_sharp)
from nearpoints.unloading import length, unload
from test_plane_systems import fraction_u_divide_out


def ec_of(extras, mults, lambdas):
    return EmbeddedCluster(weighted_chain(extras, mults), tuple(lambdas))


def test_tacnode_scheme():
    for t in (1, 2, 4):
        ec = tacnode_scheme(t, seed=t)
        assert length(ec.weighted) == 3 * t
        assert unload(ec.weighted).steps == ()       # consistent
        assert validate(ec.weighted.cluster) == []


def test_cusp_scheme():
    ec = cusp_scheme(1, seed=1)
    assert ec.mults == (2, 1, 1, 1)
    assert length(ec.weighted) == 6
    for n in (1, 2, 3):
        ec = cusp_scheme(n, seed=n)
        assert length(ec.weighted) == 3 * (n + 1)
        assert unload(ec.weighted).steps == ()
    core = ec_of([None, None, 0], [2, 1, 1], [None, 0, None])
    assert contains(ideal_subspace(core, 5), {(0, 2): 1, (3, 0): -1})


def test_dk_scheme():
    assert dk_scheme(4, seed=1).mults == (3,)
    assert length(dk_scheme(4, seed=1).weighted) == 6
    assert dk_scheme(6, seed=1).mults == (3, 2)
    assert length(dk_scheme(6, seed=1).weighted) == 9
    ec7 = dk_scheme(7, seed=1)
    assert ec7.mults == (3, 2, 1, 1) and ec7.extras[-1] == 1
    with pytest.raises(ValueError):
        dk_scheme(3)


def test_min_degree():
    assert min_degree(SingularitySpec(tacnodes=(2, 2, 2))) == 6
    assert min_degree(SingularitySpec(cusps=(1,) * 10)) == 11
    with pytest.raises(ValueError):
        min_degree(SingularitySpec(tacnodes=(5,)))
    with pytest.raises(ValueError):
        min_degree(SingularitySpec(tacnodes=(1,)))


def test_verify_sharp_tacnode():
    tac = ec_of([None, None], [2, 2], [None, 0])
    cert = verify_sharp(PlaneCurve(4, {(0, 2): 1, (4, 0): -1}), tac)
    assert cert.ok and cert.attained == (2, 2)


def test_verify_sharp_cusp():
    cusp = ec_of([None, None, 0], [2, 1, 1], [None, 0, None])
    cert = verify_sharp(PlaneCurve(3, {(0, 2): 1, (3, 0): -1}), cusp)
    assert cert.ok and cert.attained == (2, 1, 1)


def test_verify_sharp_mismatch():
    tac = ec_of([None, None], [2, 2], [None, 0])
    cert = verify_sharp(PlaneCurve(3, {(0, 2): 1, (3, 0): -1}), tac)
    assert not cert.ok
    assert cert.attained == (2, 1)


def test_verify_sharp_rejects_tangency_and_high_contact():
    node = ec_of([None], [2], [None])
    # y^2 - x^5: double tangent line, not an honest node
    assert not verify_sharp(PlaneCurve(5, {(0, 2): 1, (5, 0): -1}), node).ok
    # a node with two transverse branches passes
    assert verify_sharp(PlaneCurve(2, {(0, 2): 1, (2, 0): -1}), node).ok
    # triple point with a repeated tangent fails the simple-crossing audit
    triple = ec_of([None], [3], [None])
    assert not verify_sharp(
        PlaneCurve(4, {(0, 2): 1, (4, 0): -1}), triple).ok
    # each curve attains the multiplicities and fails one corner check
    for coeffs, ec, note in [
            ({(2, 0): 1, (0, 3): -1}, node,
             "non-simple crossing in the unchartable direction at the base "
             "point"),
            ({(0, 2): 1, (3, 0): -1}, ec_of([None, None], [2, 1], [None, 0]),
             "branch through the corner with the previous divisor at point 1"),
            ({(4, 0): 1, (0, 3): 1},
             ec_of([None, None, 0], [3, 1, 1], [None, 0, None]),
             "branch through the corner with the older divisor at point 2")]:
        cert = verify_sharp(PlaneCurve(4, coeffs), ec)
        assert cert.multiplicities_ok and not cert.ok
        assert cert.notes == (note,)


def test_verify_sharp_vanishing_curve():
    tac = ec_of([None, None], [2, 2], [None, 0])
    with pytest.raises(ValueError):
        verify_sharp(PlaneCurve(1, {}), tac)


def test_singular_locus_cuspidal_cubic():
    loc = singular_locus(PlaneCurve(3, {(0, 2): 1, (3, 0): -1}))
    assert loc["affine"] == [{"point": (Fraction(0), Fraction(0)),
                              "multiplicity": 2}]
    assert not loc["infinity"] and not loc["infinity_unlocated"]
    assert not loc["affine_unlocated"]


def test_singular_locus_smooth_conic():
    loc = singular_locus(PlaneCurve(2, {(2, 0): 1, (0, 2): 1, (0, 0): -1}))
    assert loc["affine"] == [] and loc["infinity"] == []


def test_singular_locus_tacnode_model():
    loc = singular_locus(PlaneCurve(4, {(0, 2): 1, (4, 0): -1}))
    assert [p["point"] for p in loc["affine"]] == [(0, 0)]
    assert loc["affine"][0]["multiplicity"] == 2
    # the two branches also meet at the vertical direction at infinity
    assert loc["infinity"] == [{"direction": (Fraction(0), Fraction(1))}]


def test_singular_locus_rejects_non_squarefree():
    with pytest.raises(ValueError):
        singular_locus(PlaneCurve(4, {(0, 2): 1, (2, 1): -2, (4, 0): 1}))


def test_singular_locus_irrational_node_counted():
    # (y - x^2 + 2)(y + x^2 - 2) has nodes at x^2 = 2: not rational, so the
    # two points come back counted against their eliminant
    f = {(0, 2): 1, (4, 0): -1, (2, 0): 4, (0, 0): -4}
    loc = singular_locus(PlaneCurve(4, f))
    assert loc["affine"] == []
    assert len(loc["affine_unlocated"]) == 1
    entry = loc["affine_unlocated"][0]
    assert entry["degree"] == 2 and entry["count"] == 2


def test_synthesize_three_nodes():
    curve, union = synthesize(SingularitySpec(tacnodes=(1, 1, 1)), 4, seed=8)
    assert curve.coeffs
    for ec in union.components:
        H = ideal_subspace(ec, max(curve.d, 3))
        assert contains(H, to_local(curve.coeffs, ec))
        assert verify_sharp(curve, ec).ok


def collinear_bases(monkeypatch, calls):
    """Patch the base draw: its first `calls` calls give the collinear
    bases (k, 2k), later ones the seeded draw."""
    seeded = synthesis.distinct_points
    made = []

    def draw(rng, count, height):
        made.append(count)
        if len(made) <= calls:
            return [(Fraction(k), Fraction(2 * k)) for k in range(1, count + 1)]
        return seeded(rng, count, height)
    monkeypatch.setattr(synthesis, "distinct_points", draw)


def test_synthesize_resamples_dependent_conditions(monkeypatch):
    # three collinear nodes are dependent on cubics: attempt 0 fails the
    # degree-3 check and attempt 1 draws the curve through fresh bases
    spec = SingularitySpec(tacnodes=(1, 1, 1))
    want_union = synthesis._spec_union(spec, 8 + 1000003,
                                       synthesis.DEFAULT_HEIGHT)
    collinear_bases(monkeypatch, 1)
    curve, union = synthesize(spec, 4, seed=8)
    assert union == want_union
    for ec in union.components:
        assert verify_sharp(curve, ec).ok


def test_synthesize_gives_up_after_one_resample(monkeypatch):
    collinear_bases(monkeypatch, 2)
    with pytest.raises(RuntimeError) as err:
        synthesize(SingularitySpec(tacnodes=(1, 1, 1)), 4, seed=8)
    assert str(err.value) == ("could not reach general position: conditions "
                              "dependent in degree 3 (attempt 1)")


def test_synthesize_below_bound():
    with pytest.raises(ValueError):
        synthesize(SingularitySpec(tacnodes=(1, 1, 1)), 3, seed=8)


def test_synthesize_rejects_degree_below_three():
    # the bound admits one node at d = 2, but a singular conic is a line
    # pair, so no certificate of irreducibility can hold
    with pytest.raises(ValueError, match="degree 2 below 3"):
        synthesize(SingularitySpec(tacnodes=(1,)), 2)


def test_driver_three_tacnodes_sextic():
    rep = existence_driver(SingularitySpec(tacnodes=(2, 2, 2)), seed=5)
    assert rep["degree"] == 6
    assert rep["verdict"] == "ok"
    assert rep["length_check"]


def test_driver_cuspidal_cubic_equisingular():
    # the synthesized cubic is certified equisingular to an ordinary cusp
    # through its own cluster, not compared coefficientwise to y^2 - x^3
    rep = existence_driver(SingularitySpec(cusps=(1,)), seed=2, degree=3)
    assert rep["verdict"] == "ok"
    assert rep["total_length"] == 6


def test_driver_rejects_weight_five():
    with pytest.raises(ValueError):
        existence_driver(SingularitySpec(tacnodes=(5,)), seed=1)


def test_driver_mixed():
    rep = existence_driver(SingularitySpec(tacnodes=(3,), cusps=(2,)),
                            seed=9)
    assert rep["degree"] == 6 and rep["verdict"] == "ok"


def test_singular_locus_confirms_every_certified_curve():
    # the resultant locus as the oracle of the Tjurina count: on each ok
    # curve it lists exactly the bases, with the attained multiplicities,
    # and nothing unlocated or at infinity
    from test_acceptance import PIPELINE_SPECS
    runs = [(spec, 31000 + k) for k, spec in enumerate(PIPELINE_SPECS[:8])]
    # seeded draws where two bases share an x-coordinate
    runs += [(PIPELINE_SPECS[k], seed)
             for seed, k in ((204, 9), (205, 5), (210, 9), (212, 10))]
    for spec, seed in runs:
        rep = existence_driver(spec, seed=seed)
        assert rep["verdict"] == "ok", (spec, seed)
        entry = rep["attempts"][-1]
        curve, union = synthesize(spec, rep["degree"],
                                  seed + 7777 * entry["attempt"])
        assert [[str(v) for v in ec.base] for ec in union.components] \
            == rep["bases"]
        loc = singular_locus(curve)
        assert loc["affine_unlocated"] == loc["infinity"] \
            == loc["infinity_unlocated"] == [], (spec, seed)
        found = sorted((p["point"], p["multiplicity"]) for p in loc["affine"])
        assert found == sorted((ec.base, c["attained"][0]) for ec, c in
                               zip(union.components, entry["certificates"]))
        assert entry["singular_points"] == [
            {"point": [str(x), str(y)], "multiplicity": m}
            for (x, y), m in found]


# Seeded height-1 runs, as (seed, PIPELINE_SPECS index), that fail both
# attempts: five sharp attempts the count misses, and seven that fail a
# sharpness certificate, three of them on a curve with a repeated factor
FAILING_RUNS = ((3, 0), (19, 0), (30, 0), (33, 0), (35, 2), (35, 3))
# the five sharp attempts among them, as (seed, index, attempt)
COUNT_MISSES = ((3, 0, 0), (3, 0, 1), (30, 0, 0), (33, 0, 1), (35, 3, 1))


def test_failing_attempts_never_reach_the_resultant_locus(monkeypatch):
    from test_acceptance import PIPELINE_SPECS

    def refuse(C):
        raise AssertionError("the driver called singular_locus")
    monkeypatch.setattr(synthesis, "singular_locus", refuse)
    monkeypatch.setattr(locus, "singular_locus", refuse)
    misses = []
    for seed, k in FAILING_RUNS:
        spec = PIPELINE_SPECS[k]
        rep = existence_driver(spec, seed=seed, height=1)
        assert rep["verdict"] == "fail" and len(rep["attempts"]) == 2
        for entry in rep["attempts"]:
            sharp = all(c["ok"] for c in entry["certificates"])
            # a sharp attempt records the count's miss, any other attempt
            # no locus field at all
            assert list(entry) == (["attempt", "degree", "certificates"]
                                   + ["locus_ok"] * sharp + ["ok"])
            assert entry["ok"] is False
            if sharp:
                assert entry["locus_ok"] is False
                misses.append((seed, k, entry["attempt"]))
    assert misses == list(COUNT_MISSES)
    monkeypatch.undo()
    # no rescue was lost: every curve the count refused is singular off
    # its bases
    for seed, k, attempt in misses:
        spec = PIPELINE_SPECS[k]
        curve, union = synthesize(spec, min_degree(spec),
                                  seed + 7777 * attempt, height=1)
        loc = singular_locus(curve)
        bases = {ec.base for ec in union.components}
        assert (any(p["point"] not in bases for p in loc["affine"])
                or loc["affine_unlocated"] or loc["infinity"]
                or loc["infinity_unlocated"]), (seed, k, attempt)


def test_certify_reads_the_tjurina_premise_off_the_union(monkeypatch):
    # Milnor's formula on the cluster against the spec's A_k count, for
    # tacnodes and cusps of orders 1-8 and the acceptance specs; a simple
    # point adds 0, and so does a root of multiplicity 0
    premises = []
    monkeypatch.setattr(synthesis, "verify_sharp", lambda C, ec:
                        SharpnessCertificate(ec.mults, ec.mults, True, ()))
    monkeypatch.setattr(synthesis, "tjurina_certificate",
                        lambda coeffs, s: premises.append(s) or True)
    from test_acceptance import PIPELINE_SPECS
    specs = ([SingularitySpec(tacnodes=(t,)) for t in range(1, 9)]
             + [SingularitySpec(cusps=(n,)) for n in range(1, 9)]
             + PIPELINE_SPECS)
    curve = PlaneCurve(0, {(0, 0): 1})
    for spec in specs:
        union = synthesis._spec_union(spec, 0, 100)
        assert synthesis.certify(curve, union)[1] is True
    assert premises == [spec.tjurina for spec in specs]
    premises.clear()
    union = SchemeUnion((tacnode_scheme(2),
                         synthesis.embed(weighted_chain((None,), (1,)),
                                         base=(1, 0)),
                         synthesis.embed(weighted_chain((None, None), (0, 0)),
                                         base=(2, 0), lambdas=(None, 1))))
    synthesis.certify(curve, union)
    assert premises == [3]


def test_shared_x_takes_the_tjurina_certificate(monkeypatch):
    bases = [(Fraction(0), Fraction(5)), (Fraction(0), Fraction(0)),
             (Fraction(3), Fraction(-2))]
    monkeypatch.setattr(synthesis, "distinct_points",
                        lambda rng, count, height: bases[:count])
    calls = []
    monkeypatch.setattr(synthesis, "singular_locus", calls.append)
    rep = existence_driver(SingularitySpec(tacnodes=(1, 1, 1)), seed=4)
    assert rep["verdict"] == "ok" and calls == []
    assert [p["point"] for p in rep["attempts"][-1]["singular_points"]] \
        == [[str(x), str(y)] for x, y in sorted(bases)]


def test_sharp_attempts_never_reach_the_resultant_locus(monkeypatch):
    # seed 205 draws two tacnodes of (1, 1, 1, 1) at x = -24
    from test_acceptance import PIPELINE_SPECS
    calls = []
    monkeypatch.setattr(synthesis, "singular_locus", calls.append)
    for seed, spec in itertools.product(range(200, 215), PIPELINE_SPECS[:8]):
        rep = existence_driver(spec, seed=seed)
        assert rep["verdict"] == "ok", (seed, spec)
    assert calls == []


def test_dk_maximal_rank_small():
    rep_ok = max_rank(SchemeUnion((dk_scheme(5, seed=3),)))
    assert rep_ok["ok"]
    rep_bad = max_rank(SchemeUnion((dk_scheme(6, seed=3),)))
    fails = [d for d in rep_bad["detail"] if d["verdict"] != "ok"]
    assert [f["degree"] for f in fails] == [3] and fails[0]["defect"] == 1


# Reference: synthesize as it drew before the sparse kernel, from the dense
# Fraction nullspace of the degree-d condition matrix.

def dense_nullspace_synthesize(spec, d, seed=0, height=synthesis.DEFAULT_HEIGHT):
    from nearpoints import linalg
    from nearpoints.polyops import monomials, p_primitive
    last_err = None
    for attempt in (0, 1):
        union = synthesis._spec_union(spec, seed + 1000003 * attempt, height)
        mat_low = synthesis.condition_matrix(union, d - 1)
        if mat_low.rank() != union.total_length:
            last_err = ("conditions dependent in degree %d (attempt %d)"
                        % (d - 1, attempt))
            continue
        mat = synthesis.condition_matrix(union, d)
        kernel = linalg.nullspace(list(mat.rows), mat.ncols)
        rng = synthesis.rng_from(seed, "draw", attempt, d)
        mons = monomials(d)
        vec = [Fraction(0)] * mat.ncols
        while all(v == 0 for v in vec):
            for basis_vec in kernel:
                c = rng.randint(-height, height)
                if c:
                    for i, v in enumerate(basis_vec):
                        if v:
                            vec[i] += c * v
        coeffs = p_primitive({mons[i]: v for i, v in enumerate(vec) if v})
        return PlaneCurve(d, coeffs), union
    raise RuntimeError("could not reach general position: %s" % last_err)


@lru_cache(maxsize=None)
def synthesized(spec, d, seed):
    """`synthesize` once per (spec, d, seed) in a session: the draw oracle
    and the audit oracle below read the same curves."""
    return synthesize(spec, d, seed=seed)


def test_synthesize_matches_the_dense_nullspace_draw():
    from test_acceptance import PIPELINE_SPECS
    for seed, spec in itertools.product((0, 1, 2), PIPELINE_SPECS):
        d = min_degree(spec)
        curve, union = synthesized(spec, d, seed)
        want, want_union = dense_nullspace_synthesize(spec, d, seed=seed)
        assert union == want_union
        # equal as dicts and in the key order the reports print
        assert curve == want, (seed, spec)
        assert list(curve.coeffs.items()) == list(want.coeffs.items()), \
            (seed, spec)


def test_synthesize_matches_the_dense_nullspace_draw_at_degree_12():
    # past the acceptance degrees: five A_7 tacnodes and an A_8 cusp
    spec = SingularitySpec((4,) * 5, (4,))
    curve, union = synthesized(spec, 12, 2)
    want, want_union = dense_nullspace_synthesize(spec, 12, seed=2)
    assert union == want_union
    assert list(curve.coeffs.items()) == list(want.coeffs.items())


def test_cli_synthesize_certifies_degree_12_with_its_digest(monkeypatch,
                                                           capsys):
    # the CLI `synthesize` of the spec above in-process, on the curve the
    # draw oracle already made: ok at the first attempt, and the report
    # without `timings` keeps the digest that CI pins for the same command
    from nearpoints.cli import main
    draw = synthesis.synthesize

    def cached(spec, d, seed, height):
        if height != synthesis.DEFAULT_HEIGHT:
            return draw(spec, d, seed, height)
        return synthesized(spec, d, seed)
    monkeypatch.setattr(synthesis, "synthesize", cached)
    assert main(["synthesize", "--tacnodes", "4,4,4,4,4", "--cusps", "4",
                 "--seed", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    report.pop("timings")
    assert report["verdict"] == "ok"
    assert [a["ok"] for a in report["results"]["attempts"]] == [True]
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] \
        == "7ff7025f1e756d11"


def test_existence_driver_reads_the_total_length_once(monkeypatch):
    # every read of `total_length` unloads each component: the driver
    # takes one for its report, beyond those its draws take
    from test_acceptance import PIPELINE_SPECS
    total_length = SchemeUnion.total_length
    reads = []
    monkeypatch.setattr(SchemeUnion, "total_length", property(
        lambda union: reads.append(1) or total_length.fget(union)))
    draw = synthesis.synthesize

    def counted(*args):
        before = len(reads)
        out = draw(*args)
        del reads[before:]
        return out
    monkeypatch.setattr(synthesis, "synthesize", counted)
    rep = existence_driver(PIPELINE_SPECS[0], seed=0)
    assert rep["verdict"] == "ok" and rep["length_check"]
    assert len(reads) == 1


# Reference: the sharpness audit as it ran on Fractions, before it read the
# integer states of the walk.  `to_local` and `strict_transforms` are the
# Fraction renderings of the integer translation and walk, each checked
# against its own Fraction oracle in test_plane_systems.py and
# test_local_algebra.py; the division is the old one over Q.

def fraction_leading_univariate(g):
    """Leading form of g as coefficients of L(1, t), plus the multiplicity
    of the vertical direction (the x-valuation of the form)."""
    e = p_min_deg(g)
    form = p_form(g, e)
    psi = [Fraction(0)] * (e + 1)
    for (a, b), c in form.items():
        psi[b] = Fraction(c)
    while psi and not psi[-1]:
        psi.pop()
    return psi, e - (len(psi) - 1)


def fraction_verify_sharp(C, ec):
    coeffs = C.coeffs if isinstance(C, PlaneCurve) else C
    f = to_local(coeffs, ec)
    if not f:
        raise ValueError("curve vanishes identically in the local chart")
    polys, attained = strict_transforms(ec, f)
    mults = ec.mults
    steps = ec.steps
    notes = []
    crossings_ok = True

    def fail(msg):
        nonlocal crossings_ok
        crossings_ok = False
        notes.append(msg)

    for k in range(ec.r):
        if attained[k] is None or attained[k] != mults[k]:
            notes.append("multiplicity %s at point %d, prescribed %d"
                         % (attained[k], k, mults[k]))
            continue
        psi, vert_mult = fraction_leading_univariate(polys[k])
        # where the tracked branches continue: the next cluster point is
        # the vertical direction when its step exchanges x and y, else the
        # root lam of the leading form (none after the last point)
        swap, lam = steps[k + 1] if k + 1 < ec.r else (False, None)
        # corner with the previous exceptional divisor (vertical direction)
        if not swap:
            if k >= 1 and vert_mult > 0:
                fail("branch through the corner with the previous divisor "
                     "at point %d" % k)
            elif k == 0 and vert_mult > 1:
                fail("non-simple crossing in the unchartable direction at "
                     "the base point")
        res = (psi if swap or lam is None
               else fraction_u_divide_out(psi, lam)[1])
        # corner with the older divisor (direction y = 0) at a satellite
        if ec.extras[k] is not None and fraction_u_divide_out(res, 0)[0] > 0:
            fail("branch through the corner with the older divisor "
                 "at point %d" % k)
        # every remaining crossing of the exceptional divisor must be simple
        if res and not u_is_squarefree(res):
            fail("non-simple residual crossing of the exceptional divisor "
                 "at point %d" % k)
    return SharpnessCertificate(tuple(mults), tuple(attained), crossings_ok,
                                tuple(notes))


TAC = ec_of([None, None], [2, 2], [None, 0])
NODE = ec_of([None], [2], [None])
HALF = Fraction(1, 2)

# (curve, cluster): the failing curves of the two tests above, then leading
# forms with a double root at a fractional direction: (2y - x)^2 at the
# tracked lam = 1/2, sharp as a tacnode and failing as a cusp, and
# (3y - x)^2 in the residual of a triple point
AUDIT_CASES = [
    (PlaneCurve(3, {(0, 2): 1, (3, 0): -1}), TAC),
    (PlaneCurve(5, {(0, 2): 1, (5, 0): -1}), NODE),
    (PlaneCurve(2, {(0, 2): 1, (2, 0): -1}), NODE),
    (PlaneCurve(4, {(0, 2): 1, (4, 0): -1}), ec_of([None], [3], [None])),
    (PlaneCurve(4, {(2, 0): 1, (0, 3): -1}), NODE),
    (PlaneCurve(4, {(0, 2): 1, (3, 0): -1}),
     ec_of([None, None], [2, 1], [None, 0])),
    (PlaneCurve(4, {(4, 0): 1, (0, 3): 1}),
     ec_of([None, None, 0], [3, 1, 1], [None, 0, None])),
    (PlaneCurve(4, {(0, 2): 4, (1, 1): -4, (2, 0): 1, (4, 0): -1}),
     ec_of([None, None], [2, 2], [None, HALF])),
    (PlaneCurve(3, {(0, 2): 4, (1, 1): -4, (2, 0): 1, (3, 0): -1}),
     ec_of([None, None], [2, 1], [None, HALF])),
    # (2y - x)(3y - x)^2 + x^4
    (PlaneCurve(4, {(0, 3): 18, (1, 2): -21, (2, 1): 8, (3, 0): -1,
                    (4, 0): 1}),
     ec_of([None, None], [3, 1], [None, HALF])),
]


def test_verify_sharp_matches_the_fraction_audit():
    from test_acceptance import PIPELINE_SPECS
    runs = [(spec, min_degree(spec), seed)
            for seed, spec in itertools.product((0, 1, 2), PIPELINE_SPECS)]
    runs.append((SingularitySpec((4,) * 5, (4,)), 12, 2))
    cases = list(AUDIT_CASES)
    for spec, d, seed in runs:
        curve, union = synthesized(spec, d, seed)
        cases += [(curve, ec) for ec in union.components]
    certs = [verify_sharp(curve, ec) for curve, ec in cases]
    assert certs == [fraction_verify_sharp(curve, ec) for curve, ec in cases]
    # the fractional double roots: one sharp, one corner, one residual fail
    assert certs[7].ok
    assert certs[8].notes == ("branch through the corner with the previous "
                              "divisor at point 1",)
    assert certs[9].attained == (3, 1) and certs[9].notes == (
        "non-simple residual crossing of the exceptional divisor at point 0",)


def calls_during(codes, fn, *args):
    """Names of the functions with these code objects entered while fn
    runs, traced by a profile hook."""
    seen = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen.append(frame.f_code.co_name)
    old = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(old)
    return seen


def test_verify_sharp_makes_no_fraction():
    # the audit reads integer states: it renders no strict transform
    # (`_germ_of`) and no translation (`p_translate`) in Fractions, and
    # constructs no Fraction at all
    codes = {local_algebra._germ_of.__code__, polyops.p_translate.__code__,
             Fraction.__new__.__code__}
    if hasattr(Fraction, "_from_coprime_ints"):     # Python >= 3.12
        codes.add(Fraction._from_coprime_ints.__func__.__code__)
    spec = SingularitySpec(tacnodes=(2, 2), cusps=(3,))
    curve, union = synthesized(spec, min_degree(spec), 0)
    cases = AUDIT_CASES + [(curve, ec) for ec in union.components]
    for C, ec in cases:
        assert calls_during(codes, verify_sharp, C, ec) == []
    # the hook sees them where they are called
    ec = union.components[0]
    assert "p_translate" in calls_during(codes, to_local, curve.coeffs, ec)
    f = to_local(curve.coeffs, ec)
    assert "_germ_of" in calls_during(codes, strict_transforms, ec, f)


# Reference: the Fraction Euclid that decided squarefreeness before the
# Sylvester rank did.

def euclid_u_gcd(u, v):
    """Monic gcd over Q."""
    a = u_clean([Fraction(c) for c in u])
    b = u_clean([Fraction(c) for c in v])
    while b:
        a, b = b, euclid_u_mod(a, b)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def euclid_u_mod(a, b):
    a = [Fraction(c) for c in a]
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        f = a[-1] / lb
        shift = len(a) - 1 - db
        for i in range(db + 1):
            a[shift + i] -= f * b[i]
        a = u_clean(a)
        if not a:
            break
    return a


def euclid_u_is_squarefree(u):
    g = euclid_u_gcd(u, u_diff(list(u)))
    return len(g) <= 1


def u_mul(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def univariates(draw):
    """A random coefficient list (trailing zeros allowed), or a scalar times
    a product of factors of degree 1 and 2, some of them squared or cubed."""
    if draw(st.booleans()):
        return draw(st.lists(small_fractions, max_size=7))
    u = [draw(small_fractions.filter(bool))]
    for _ in range(draw(st.integers(0, 3))):
        factor = draw(st.lists(small_fractions, min_size=2, max_size=3))
        if not factor[-1]:
            factor[-1] = Fraction(1)
        for _ in range(draw(st.sampled_from([1, 1, 2, 3]))):
            u = u_mul(u, factor)
    return u


@settings(max_examples=300, deadline=None)
@given(univariates())
def test_squarefree_sylvester_rank_matches_euclid(u):
    assert u_is_squarefree(u) == euclid_u_is_squarefree(u)


# Reference: the Sylvester test with each row made integral on its own, its
# rank taken by `linalg.forward`.

def exact_sylvester_is_squarefree(u):
    u = u_clean(list(u))
    n = len(u) - 1
    if n < 2:
        return True
    rows = ([dict(enumerate(u, i)) for i in range(n - 1)]
            + [dict(enumerate(u_diff(u), i)) for i in range(n)])
    return len(linalg.forward(rows)) == 2 * n - 1


@settings(max_examples=300, deadline=None)
@given(univariates())
def test_squarefree_matches_the_rowwise_sylvester_rank(u):
    assert u_is_squarefree(u) == exact_sylvester_is_squarefree(u)


# with and without repeated roots, up to degree 9
SYLVESTER_CASES = [
    [-2, 0, 1], [1, 0, 1], [Fraction(1, 3), -1, Fraction(5, 2), 7],
    u_mul([-2, 0, 1], [-2, 0, 1]), u_mul([1, 1], u_mul([1, 1], [0, 3])),
    u_mul([Fraction(1, 2), 1], u_mul([1, 0, 1], [Fraction(1, 2), 1])),
    u_mul([1, 2, 3, 4], [5, 6, 7]), u_mul([1, -1], [1, -1, 0, 0, 1]),
    u_mul([3, 1], u_mul([3, 1], u_mul([3, 1], [-7, 0, 0, 2]))),
    [c * (1 << 40) + 1 for c in (1, -3, 0, 5, 2)],
]


def test_squarefree_takes_one_exact_rank(monkeypatch):
    # one exact Sylvester rank per polynomial of degree 2 or more decides,
    # repeated roots or not
    want = [euclid_u_is_squarefree(u) for u in SYLVESTER_CASES]
    assert want.count(True) >= 4 and want.count(False) >= 4
    exact = []
    bareiss = linalg._rank_bareiss
    monkeypatch.setattr(linalg, "_rank_bareiss",
                        lambda rows: exact.append(rows) or bareiss(rows))
    assert [u_is_squarefree(u) for u in SYLVESTER_CASES] == want
    assert len(exact) == len(SYLVESTER_CASES)


def test_squarefree_on_squared_factors():
    x2 = [-2, 0, 1]                   # x^2 - 2, irreducible over Q
    assert u_is_squarefree(x2)
    assert not u_is_squarefree(u_mul(x2, x2))
    assert not u_is_squarefree(u_mul([1, 1], u_mul([1, 1], [0, 3])))
    assert u_is_squarefree([5]) and u_is_squarefree([1, 2, 0, 0])
    assert u_is_squarefree([]) and u_is_squarefree([0, 0])
