from dataclasses import replace
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_weighted_chain
from nearpoints.clusters import WeightedCluster, free_chain, system, us_chain
from nearpoints.local_algebra import (_emit_conditions, embed, ideal_subspace,
                                      local_conditions, required_truncation,
                                      track_bounds)
from nearpoints import linalg, plane_systems
from nearpoints.linalg import integral
from nearpoints.polyops import (monomials, p_clean, p_translate,
                                translated_monomials, u_divide_out)
from nearpoints.plane_systems import (EXCEPTION_SYSTEMS, SchemeUnion,
                                      condition_matrix, ell,
                                      exception_catalog, expected_dimension,
                                      generic_union, level_floor, level_split,
                                      max_rank, max_rank_generic, stratum_ell,
                                      us_consistent)
from nearpoints.sampling import rng_from
from nearpoints.unloading import length


def p_mul(p, q):
    """Product of two polynomial dicts, for the translation oracles."""
    out = {}
    for (a, b), c in p.items():
        for (a2, b2), c2 in q.items():
            e = (a + a2, b + b2)
            out[e] = out.get(e, 0) + c * c2
    return p_clean(out)


def test_condition_matrix_double_point():
    Z = generic_union([(2,)], 1)
    mat = condition_matrix(Z, 2)
    assert mat.ncols == 6
    assert len(mat.rows) == 3
    assert mat.rank() == 3


def test_condition_matrix_two_doubles_degree1():
    Z = generic_union([(2,), (2,)], 2)
    assert condition_matrix(Z, 1).rank() == 3  # no lines at all


def test_condition_matrix_empty_union():
    assert condition_matrix(SchemeUnion(()), 3).rows == ()


def test_condition_matrix_rejects_negative_degree():
    with pytest.raises(ValueError):
        condition_matrix(SchemeUnion(()), -1)


def test_local_conditions_are_the_plane_matrix_at_the_origin():
    # one record for both: the plane matrix of one cluster based at the
    # origin, unsheared, is its local condition matrix row for row
    for seed in range(200):
        rng = rng_from(seed, "origin-matrix")
        ec = embed(random_weighted_chain(rng), rng=rng)
        need = required_truncation(ec.mults)
        for d in (need, need + 1, need + 3):
            mat = condition_matrix(SchemeUnion((ec,)), d)
            assert all(ci == 0 for ci, _, _ in mat.labels)
            local = replace(mat, labels=tuple(lab[1:] for lab in mat.labels))
            assert local == local_conditions(ec, d), (seed, d)


def test_ell_two_doubles_conics():
    # the double line through the two points is the only conic
    assert ell(generic_union([(2,), (2,)], 3), 2) == 0


def test_ell_five_doubles_quartics():
    # the double conic
    assert ell(generic_union([(2,)] * 5, 4), 4) == 0


def test_ell_one_double_conics():
    assert ell(generic_union([(2,)], 5), 2) == 2


def test_expected_dimension():
    Z9 = generic_union([(2,)] * 3, 6)     # length 9
    assert expected_dimension(Z9, 3) == 0
    Z15 = generic_union([(2,)] * 5, 6)    # length 15
    assert expected_dimension(Z15, 4) == -1
    assert expected_dimension(SchemeUnion(()), 1) == 2


def test_max_rank_window_and_normalization():
    # one order-2 tacnode + four double points: length 18, audited 4..6
    Z = generic_union([(2, 2)] + [(2,)] * 4, 9)
    rep = max_rank(Z)
    assert rep["ok"] and rep["degrees"] == [4, 5, 6]
    # raw over-determined input: normalization makes rows match the length
    wc = WeightedCluster(us_chain(3, 3), (2, 2, 2))
    ec = embed(wc, rng=rng_from(3, "raw"), height=20)
    Zraw = SchemeUnion((ec,))
    assert Zraw.normalized().components[0].mults == (3, 1, 1)
    assert max_rank(Zraw)["length"] == 8


def test_max_rank_five_doubles():
    rep = max_rank(generic_union([(2,)] * 5, 10))
    fails = [d for d in rep["detail"] if d["verdict"] != "ok"]
    assert [f["degree"] for f in fails] == [4]
    assert fails[0]["defect"] == 1


def test_max_rank_accepts_a_generator_of_degrees():
    Z = generic_union([(2,)] * 5, 10)
    rep = max_rank(Z, (d for d in (1, 2)))
    assert rep["degrees"] == [1, 2]
    assert [d["degree"] for d in rep["detail"]] == [1, 2]
    assert rep == max_rank(Z, [1, 2])
    # a single degree: (systems, degree, defect)
    for systems, d, defect in [([(2,)] * 3, 3, 0), ([(5,), (2,), (2,)], 5, 2),
                               ([(4,)] + [(2,)] * 6, 6, 1)]:
        rep = max_rank(generic_union(systems, 8), [d])
        assert [row["defect"] for row in rep["detail"]] == [defect]
        assert rep["ok"] == (defect == 0)


def test_max_rank_rejects_bad_degrees():
    Z = generic_union([(2,)] * 3, 8)
    for degrees in ([-1, 3], [3, -1], [-2], []):
        with pytest.raises(ValueError):
            max_rank(Z, degrees)


# Reference: max_rank's detail as it was computed before the graded prefix,
# from one condition matrix and one rank per audited degree.

def per_degree_detail(Z, degrees):
    Zn = Z.normalized()
    L = Zn.total_length
    detail = []
    for d in degrees:
        mat = condition_matrix(Zn, d)
        have = mat.rank()
        defect = min(mat.ncols, L) - have
        detail.append({"degree": d, "verdict": "defect" if defect else "ok",
                       "defect": defect,
                       "expected": expected_dimension(Zn, d),
                       "actual": mat.ncols - 1 - have})
    return detail


def _recording_builds(monkeypatch):
    """Patch the condition_matrix that max_rank calls; return the list of
    degrees it builds.  per_degree_detail keeps the unpatched function."""
    built = []
    monkeypatch.setattr(plane_systems, "condition_matrix",
                        lambda Z, d: built.append(d) or condition_matrix(Z, d))
    return built


def _first_full(rep):
    """The smallest audited degree with more columns than the length."""
    over = [d for d in rep["degrees"] if (d + 1) * (d + 2) // 2 > rep["length"]]
    return min(over, default=max(rep["degrees"]))


def test_max_rank_matches_the_per_degree_audit(monkeypatch):
    # default window: one matrix, at the first degree with more columns
    # than rows, unless the rank falls short there; then also the top one
    from test_acceptance import _rang_parameter_sets
    built = _recording_builds(monkeypatch)
    # (union, degrees built, expected verdict or None when not asserted)
    unions = [(generic_union(comps, seed=trial), 1, None)
              for trial, m, sum_i, sum_j, comps in _rang_parameter_sets(50)]
    # the two exceptional families, defective at degrees 4 and 6
    families = ([[(2,)] * 5, [(2, 2, 2, 2, 2)], [(2, 2), (2,), (2,), (2,)]],
                [[(4,)] + [(2,)] * 6, [(4, 2, 2), (2, 2), (2, 2)]])
    unions += [(generic_union(comps, seed=seed), 1, False)
               for seed, family in zip((101, 102), families)
               for comps in family]
    # the catalog; (3,2), (4,2) and (5,2) fall short above the level floor
    unions += [(generic_union(systems,
                              rng_from(0, label).randrange(2**32)),
                2 if label in ("(3,2)", "(4,2)", "(5,2)") else 1, False)
               for label, systems, _ in EXCEPTION_SYSTEMS]
    for Z, nbuilds, ok in unions:
        del built[:]
        rep = max_rank(Z)
        first = _first_full(rep)
        assert first < max(rep["degrees"])
        assert built == [first, max(rep["degrees"])][:nbuilds]
        assert ok is None or rep["ok"] == ok
        assert rep["detail"] == per_degree_detail(Z, rep["degrees"])
        full = max_rank(Z, range(9))
        assert full["detail"] == per_degree_detail(Z, range(9))


def test_max_rank_wide_window_builds_one_matrix(monkeypatch):
    # five doubles reach full rank 15 in degree 5; no column past it is built
    Z = generic_union([(2,)] * 5, 101)
    built = _recording_builds(monkeypatch)
    rep = max_rank(Z, range(60))
    assert built == [5]
    assert rep["detail"][:9] == per_degree_detail(Z, range(9))
    for row in rep["detail"][9:]:
        ncols = (row["degree"] + 1) * (row["degree"] + 2) // 2
        assert row["defect"] == 0 and row["actual"] == ncols - 16


def test_max_rank_generic_keeps_the_better_draw(monkeypatch):
    # the first draw puts the three double points on a line, defective in
    # degrees 2, 3 and 4; the independent re-draw has full rank
    collinear = SchemeUnion(tuple(
        embed(WeightedCluster(free_chain(1), (2,)), base=(k, 2 * k))
        for k in (1, 2, 3)))
    assert [row["defect"] for row in max_rank(collinear)["detail"]] \
        == [1, 2, 1]
    seeded = plane_systems.generic_union
    draws = []

    def draw(mult_systems, seed, height):
        draws.append(seed)
        return collinear if len(draws) == 1 else seeded(mult_systems, seed,
                                                        height)

    monkeypatch.setattr(plane_systems, "generic_union", draw)
    rep = max_rank_generic([(2,)] * 3, seed=8)
    assert len(draws) == 2
    assert rep["flagged"] and rep["ok"]
    assert list(rep) == ["ok", "length", "degrees", "detail", "flagged"]


def test_max_rank_exception_m4():
    rep = max_rank(generic_union([(4,)] + [(2,)] * 6, 11))
    fails = [d for d in rep["detail"] if d["verdict"] != "ok"]
    assert [f["degree"] for f in fails] == [6]


def test_max_rank_window_agrees_with_a_full_audit():
    # the default window [d_low, d_low+2] against every degree up to
    # d_low+5 on seeded unions of one multiple point with doubles and
    # simples, some with a two-point chain
    import random
    rng = random.Random(2024)
    verdicts = []
    for trial in range(30):
        systems = ([(rng.randint(2, 6),)] + [(2,)] * rng.randint(0, 6)
                   + [(1,)] * rng.randint(0, 5)
                   + rng.sample([(2, 2), (2, 1), (3, 2), (1, 1)],
                                rng.randint(0, 1)))
        Z = generic_union(systems, seed=trial)
        window = max_rank(Z)
        d_low = level_floor(window["length"])
        assert window["degrees"] == [d_low, d_low + 1, d_low + 2]
        full = max_rank(Z, range(d_low + 6))
        assert window["ok"] == full["ok"], systems
        verdicts.append(window["ok"])
    # both verdicts occur, so the agreement is not vacuous
    assert set(verdicts) == {True, False}


def test_level_floor():
    assert level_floor(6) == 2
    assert level_floor(9) == 2
    assert level_floor(10) == 3
    assert level_floor(1) == 0


def test_level_split_six_simple_points():
    m_minus, m_plus, d, eps = level_split(0, 0, 6, 1)
    assert (m_minus, d, eps) == ((1,) * 6, 2, 0)
    assert m_plus == (1,) * 10


def test_level_split_tacnode():
    m_minus, m_plus, d, eps = level_split(2, 1, 0, 1)
    assert m_minus == (2, 2) and d == 2 and eps == 0
    assert m_plus == (2, 2, 1, 1, 1, 1)


def test_negative_counts_are_rejected():
    # a negative i or j would become an empty run of 2s or 1s in the system
    with pytest.raises(ValueError, match="negative count"):
        us_consistent(2, 2, 2, -1)
    with pytest.raises(ValueError, match="negative count"):
        us_consistent(2, 2, -1, 2)
    with pytest.raises(ValueError, match="negative count"):
        level_split(2, 2, -3, 2)


def test_level_split_lengths_and_containments():
    for (m, i, j, s) in [(2, 2, 0, 2), (3, 2, 1, 2), (4, 3, 2, 3),
                         (2, 1, 3, 2)]:
        if not us_consistent(s, m, i, j):
            continue
        m_minus, m_plus, d, eps = level_split(m, i, j, s)
        lm = length(WeightedCluster(us_chain(len(m_minus), s), m_minus))
        lp = length(WeightedCluster(us_chain(len(m_plus), s), m_plus))
        assert lm == (d + 1) * (d + 2) // 2
        assert lp == (d + 2) * (d + 3) // 2
        # scheme containments Z_minus <= Z <= Z_plus via the truncated ideals
        npts = len(m_plus)
        rng = rng_from(17, "split", m, i, j, s)
        ec = embed(WeightedCluster(us_chain(npts, s), (1,) * npts),
                   rng=rng, height=20)
        mid = system(m, i, j) + (0,) * (npts - len(system(m, i, j)))
        mlow = m_minus + (0,) * (npts - len(m_minus))
        trunc = sum(v * (v + 1) // 2 for v in m_plus)
        H_mid = ideal_subspace(ec.with_mults(mid), trunc)
        H_low = ideal_subspace(ec.with_mults(mlow), trunc)
        H_hi = ideal_subspace(ec.with_mults(m_plus), trunc)
        assert H_low.contains_subspace(H_mid)
        assert H_mid.contains_subspace(H_hi)


def test_exception_catalog_frozen_defects():
    # the defects are computed values, frozen: 1 everywhere except the
    # head-5 system with two doubles, whose quintics form the pencil of
    # cones (twice the line to each double point plus a movable line),
    # giving rank 19 on 21 conditions
    frozen = {"(3,2)": {3: 1}, "(4,2)": {4: 1}, "(4,2^2)": {4: 1},
              "(5,2)": {5: 1}, "(5,2^2)": {5: 2}, "(4,2^6)": {6: 1},
              "(2^2)": {2: 1}, "(2^5)": {4: 1}}
    for entry in exception_catalog(seed=3):
        assert entry["failures"] == frozen[entry["system"]], entry["system"]


def test_ell_at_least_expected():
    rng = rng_from(23, "monotone")
    for trial in range(6):
        systems = [tuple(rng.choice([1, 2]) for _ in range(rng.randint(1, 2)))
                   for _ in range(rng.randint(1, 3))]
        systems = [tuple(sorted(s, reverse=True)) for s in systems]
        Z = generic_union(systems, 100 + trial)
        for d in range(1, 5):
            assert ell(Z, d) >= expected_dimension(Z, d)


def test_ell_non_increasing_under_adding_components():
    for trial in range(5):
        base = generic_union([(2,), (1,), (2, 1)][: 1 + trial % 3], 55 + trial)
        extra = generic_union([(1,)], 900 + trial)
        more = SchemeUnion(base.components + extra.components)
        for d in range(1, 5):
            assert ell(more, d) <= ell(base, d)


def test_stratum_ell():
    # conics through a generic five-point U_2 scheme of simple points
    assert stratum_ell(2, (1,) * 5, 2, 9) == 0


def classical_fat_point_rows(bases_mults, d):
    """Independent construction for ordinary fat points: one row per partial
    derivative of order below the multiplicity, evaluated at the base point.
    Built by plain differentiation, no blowups involved."""
    from math import comb
    cols = monomials(d)
    rows = []
    for (x0, y0), m in bases_mults:
        for i in range(m):
            for j in range(m - i):
                row = []
                for (a, b) in cols:
                    if a >= i and b >= j:
                        row.append(comb(a, i) * comb(b, j)
                                   * x0 ** (a - i) * y0 ** (b - j))
                    else:
                        row.append(0)
                rows.append(row)
    return rows


def test_conditions_match_classical_fat_points():
    # for unions of ordinary multiple points the pipeline rows must span
    # exactly the classical Taylor-coefficient conditions
    for trial in range(8):
        rng = rng_from(trial, "xcheck")
        mults = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        Z = generic_union([(m,) for m in mults], 3000 + trial)
        bm = [(ec.base, ec.mults[0]) for ec in Z.components]
        for d in range(1, 6):
            mine = condition_matrix(Z, d)
            theirs = classical_fat_point_rows(bm, d)
            r1 = mine.rank()
            r2 = linalg.rank([dict(enumerate(r)) for r in theirs])
            joint = list(mine.rows) + [
                {i: v for i, v in enumerate(row) if v} for row in theirs]
            assert r1 == r2 == linalg.rank(joint), (trial, d)


def fraction_translated_columns(ec, d, bound):
    """Reference for the integer translation: expand (x0 + x + s*y)^a and
    (y0 + y)^b by repeated Fraction products, multiply them out in full,
    then drop the local monomials of degree >= bound."""
    x0, y0 = ec.base
    s = ec.shear
    px = {(0, 0): x0, (1, 0): Fraction(1)}
    if s:
        px[(0, 1)] = s
    py = {(0, 0): y0, (0, 1): Fraction(1)}
    powx = [{(0, 0): Fraction(1)}]
    powy = [{(0, 0): Fraction(1)}]
    for _ in range(d):
        powx.append(p_mul(powx[-1], px))
        powy.append(p_mul(powy[-1], py))
    state_frac = {}
    for col, (a, b) in enumerate(monomials(d)):
        for e, v in p_mul(powx[a], powy[b]).items():
            if e[0] + e[1] < bound:
                state_frac.setdefault(e, {})[col] = v
    den = 1
    for vec in state_frac.values():
        for v in vec.values():
            den = den * v.denominator // gcd(den, v.denominator)
    return {e: {c: int(v * den) for c, v in vec.items()}
            for e, vec in state_frac.items()}


@st.composite
def rational_unions(draw):
    """Up to three chains (free or U_s satellite patterns) at distinct
    rational bases, each with a nonzero rational shear."""
    rat = st.fractions(min_value=-20, max_value=20, max_denominator=9)
    comps = []
    bases = set()
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 4))
        mults = tuple(sorted(draw(st.lists(st.integers(1, 3), min_size=n,
                                           max_size=n)), reverse=True))
        s = draw(st.integers(0, n))
        cluster = us_chain(n, s) if s >= 2 else free_chain(n)
        base = (draw(rat), draw(rat))
        if base in bases:
            continue
        bases.add(base)
        shear = draw(rat.filter(bool))
        rng = rng_from(draw(st.integers(0, 10 ** 6)), "oracle")
        comps.append(embed(WeightedCluster(cluster, mults), rng=rng,
                           base=base, shear=shear, height=30))
    return SchemeUnion(tuple(comps))


@settings(max_examples=40, deadline=None)
@given(rational_unions(), st.integers(0, 7))
def test_condition_matrix_matches_fraction_oracle(Z, d):
    mat = condition_matrix(Z, d)
    rows, labels = [], []
    for ci, ec in enumerate(Z.components):
        bound = track_bounds(ec.mults)[0] if ec.r else 0
        state = fraction_translated_columns(ec, d, bound)
        for k, e, vec in _emit_conditions(ec, state):
            rows.append(vec)
            labels.append((ci, k, e))
    assert mat.rows == tuple(rows)
    assert mat.labels == tuple(labels)


@settings(max_examples=30, deadline=None)
@given(rational_unions(), st.integers(0, 5), st.sampled_from([1, 2]))
def test_lower_degree_matrix_is_a_column_prefix(Z, d, k):
    # the invariant max_rank reads its window off: the degree-d matrix
    # spans the rows of the degree-(d + k) one cut to its columns
    ncols = (d + 1) * (d + 2) // 2
    cut = [{c: v for c, v in row.items() if c < ncols}
           for row in condition_matrix(Z, d + k).rows]
    assert (linalg.echelon(cut, ncols)
            == linalg.echelon(condition_matrix(Z, d).rows, ncols))


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                       st.fractions(min_value=-9, max_value=9,
                                    max_denominator=7), max_size=8),
       st.fractions(min_value=-9, max_value=9, max_denominator=7),
       st.fractions(min_value=-9, max_value=9, max_denominator=7),
       st.fractions(min_value=-9, max_value=9, max_denominator=7))
def test_p_translate_matches_fraction_products(p, x0, y0, shear):
    px = {(0, 0): x0, (1, 0): 1, (0, 1): shear}
    py = {(0, 0): y0, (0, 1): 1}
    expected = {}
    for (a, b), c in p.items():
        term = {(0, 0): c}
        for _ in range(a):
            term = p_mul(term, px)
        for _ in range(b):
            term = p_mul(term, py)
        for e, v in term.items():
            expected[e] = expected.get(e, 0) + v
    assert p_translate(p, x0, y0, shear) == {e: v for e, v in expected.items()
                                             if v}


def closed_form_translated_monomials(x0, y0, shear, max_deg, bound=None):
    """The binomial expansion `translated_monomials` used to be, kept as the
    reference for its recurrence:

        D^(a+b) X^a Y^b = (X0 + D x + S y)^a (Y0 + D y)^b,

    whose coefficient at x^j y^t is C(a, j) D^j times the coefficient at y^t
    of (X0 + S y)^(a-j) (Y0 + D y)^b."""
    ints, D = integral({0: x0, 1: y0, 2: shear})
    X0, Y0, S = (ints.get(k, 0) for k in range(3))
    if bound is None:
        bound = max_deg + 1
    xpow, ypow, spow, dpow = ([v ** k for k in range(max_deg + 1)]
                              for v in (X0, Y0, S, D))
    ux = [[comb(m, k) * xpow[m - k] * spow[k]
           for k in range(min(m + 1, bound))] for m in range(max_deg + 1)]
    uy = [[comb(b, l) * ypow[b - l] * dpow[l]
           for l in range(min(b + 1, bound))] for b in range(max_deg + 1)]
    conv = {}
    images = {}
    for a, b in monomials(max_deg):
        img = {}
        for j in range(min(a, bound - 1) + 1):
            m = a - j
            prod = conv.get((m, b))
            if prod is None:
                p, q = ux[m], uy[b]
                prod = [sum(p[k] * q[t - k]
                            for k in range(max(0, t - len(q) + 1),
                                           min(t, len(p) - 1) + 1))
                        for t in range(min(len(p) + len(q) - 1, bound))]
                conv[(m, b)] = prod
            cj = comb(a, j) * dpow[j]
            for t in range(min(len(prod), bound - j)):
                if prod[t]:
                    img[(j, t)] = cj * prod[t]
        images[(a, b)] = img
    return D, images


translation_values = st.one_of(
    st.just(0),
    st.integers(-50, 50),
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
    st.builds(Fraction, st.integers(-2 ** 100, 2 ** 100),
              st.integers(1, 2 ** 100)))


@settings(max_examples=150, deadline=None)
@given(translation_values, translation_values, translation_values,
       st.integers(0, 8).flatmap(
           lambda n: st.tuples(st.just(n),
                               st.none() | st.integers(0, n + 3))))
def test_translated_monomials_match_closed_form(x0, y0, shear, deg_bound):
    max_deg, bound = deg_bound
    assert translated_monomials(x0, y0, shear, max_deg, bound) == \
        closed_form_translated_monomials(x0, y0, shear, max_deg, bound)


def test_u_divide_out():
    # (t - 2)^2 (t + 3) = t^3 - t^2 - 8t + 12
    u = [12, -8, -1, 1]
    assert u_divide_out(u, 2) == (2, [3, 1])
    assert u_divide_out(u, -3) == (1, [4, -4, 1])
    assert u_divide_out(u, Fraction(1, 2)) == (0, u)
    assert u_divide_out([], 0) == (0, [])
