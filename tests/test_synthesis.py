import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nearpoints import synthesis
from nearpoints.clusters import validate, weighted_chain
from nearpoints.io import jsonable
from nearpoints.local_algebra import (EmbeddedCluster, contains,
                                      ideal_subspace, to_local)
from nearpoints.plane_systems import SchemeUnion, max_rank
from nearpoints.polyops import u_clean, u_diff, u_is_squarefree
from nearpoints.synthesis import (PlaneCurve, SingularitySpec, cusp_scheme,
                                  dk_scheme, existence_driver, min_degree,
                                  singular_locus, synthesize, tacnode_scheme,
                                  verify_sharp)
from nearpoints.unloading import length, unload


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


def test_tjurina_fast_path_equals_resultant_fallback(monkeypatch):
    from test_acceptance import PIPELINE_SPECS
    runs = [(spec, 31000 + k) for k, spec in enumerate(PIPELINE_SPECS[:8])]
    # seeded draws where two bases share an x-coordinate
    runs += [(PIPELINE_SPECS[k], seed)
             for seed, k in ((204, 9), (205, 5), (210, 9), (212, 10))]
    calls = []
    locus_fn = synthesis.singular_locus
    monkeypatch.setattr(synthesis, "singular_locus",
                        lambda C: calls.append(C) or locus_fn(C))
    fast = [json.dumps(jsonable(existence_driver(spec, seed=seed)))
            for spec, seed in runs]
    assert calls == []
    monkeypatch.setattr(synthesis, "tjurina_certificate",
                        lambda coeffs, s: False)
    slow = [json.dumps(jsonable(existence_driver(spec, seed=seed)))
            for spec, seed in runs]
    assert len(calls) == len(runs)
    assert fast == slow


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


def test_synthesize_matches_the_dense_nullspace_draw():
    from test_acceptance import PIPELINE_SPECS
    for seed, spec in itertools.product((0, 1, 2), PIPELINE_SPECS):
        d = min_degree(spec)
        curve, union = synthesize(spec, d, seed=seed)
        want, want_union = dense_nullspace_synthesize(spec, d, seed=seed)
        assert union == want_union
        # equal as dicts and in the key order the reports print
        assert curve == want, (seed, spec)
        assert list(curve.coeffs.items()) == list(want.coeffs.items()), \
            (seed, spec)


def test_synthesize_matches_the_dense_nullspace_draw_at_degree_12():
    # past the acceptance degrees: five A_7 tacnodes and an A_8 cusp
    spec = SingularitySpec((4,) * 5, (4,))
    curve, union = synthesize(spec, 12, seed=2)
    want, want_union = dense_nullspace_synthesize(spec, 12, seed=2)
    assert union == want_union
    assert list(curve.coeffs.items()) == list(want.coeffs.items())


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


def test_squarefree_on_squared_factors():
    x2 = [-2, 0, 1]                   # x^2 - 2, irreducible over Q
    assert u_is_squarefree(x2)
    assert not u_is_squarefree(u_mul(x2, x2))
    assert not u_is_squarefree(u_mul([1, 1], u_mul([1, 1], [0, 3])))
    assert u_is_squarefree([5]) and u_is_squarefree([1, 2, 0, 0])
    assert u_is_squarefree([]) and u_is_squarefree([0, 0])
