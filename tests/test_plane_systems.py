from fractions import Fraction
from math import comb, gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_weighted_chain
from nearpoints.clusters import WeightedCluster, free_chain, system, us_chain
from nearpoints.local_algebra import (ConditionMatrix, _emit_conditions,
                                      embed, ideal_subspace, local_conditions,
                                      required_truncation, track_bounds)
from nearpoints import linalg, plane_systems
from nearpoints.linalg import integral
from nearpoints.polyops import (monomials, p_clean, p_translate, u_clean,
                               u_divide_out)
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
            local = ConditionMatrix(mat.max_deg,
                                    tuple(lab[1:] for lab in mat.labels),
                                    mat.rows, mat.ncols)
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


def test_normalized_keeps_consistent_components():
    # unloading that changes nothing rebuilds and re-validates nothing:
    # each consistent component comes back as the same object
    Z = generic_union([(2, 2), (3, 1)] + [(2,)] * 3, 9)
    Zn = Z.normalized()
    assert Zn == Z
    assert all(a is b for a, b in zip(Zn.components, Z.components))
    ec = Z.components[0]
    assert ec.with_mults(list(ec.mults)) is ec
    assert ec.weighted.with_mults(iter(ec.mults)) is ec.weighted
    # a component that unloads is still replaced, the others kept
    wc = WeightedCluster(us_chain(3, 3), (2, 2, 2))
    raw = embed(wc, rng=rng_from(3, "raw"), height=20)
    Zn = SchemeUnion((raw,) + Z.components[1:]).normalized()
    assert Zn.components[0] == raw.with_mults((3, 1, 1))
    assert all(a is b for a, b in zip(Zn.components[1:], Z.components[1:]))


def test_max_rank_reads_the_length_off_the_normalized_mults(monkeypatch):
    # the unloading in `normalized` is the only one: the length is summed
    # off the consistent multiplicities, never recomputed by `length`
    wc = WeightedCluster(us_chain(3, 3), (2, 2, 2))
    Z = SchemeUnion((embed(wc, rng=rng_from(3, "raw"), height=20),)
                    + generic_union([(2, 2)] + [(2,)] * 4, 9).components)
    want = Z.total_length
    calls = []
    monkeypatch.setattr(plane_systems, "length",
                        lambda wc: calls.append(wc) or length(wc))
    assert max_rank(Z)["length"] == want == 26
    assert ell(Z, 6) == 27 - 26 and calls == []


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


def _audited_unions():
    """(union, expected verdict): the criterion-3 sets, the two exceptional
    families and the catalog, at the seeds of their tests."""
    from test_acceptance import _rang_parameter_sets
    unions = [(generic_union(comps, seed=trial), True)
              for trial, m, sum_i, sum_j, comps in _rang_parameter_sets(50)]
    # the two exceptional families, defective at degrees 4 and 6
    families = ([[(2,)] * 5, [(2, 2, 2, 2, 2)], [(2, 2), (2,), (2,), (2,)]],
                [[(4,)] + [(2,)] * 6, [(4, 2, 2), (2, 2), (2, 2)]])
    unions += [(generic_union(comps, seed=seed), False)
               for seed, family in zip((101, 102), families)
               for comps in family]
    # the catalog; (3,2), (4,2) and (5,2) fall short above the level floor
    unions += [(_catalog_union(label, systems), False)
               for label, systems, _ in EXCEPTION_SYSTEMS]
    return unions


def _catalog_union(label, systems):
    """The first draw of a catalog entry, as `exception_catalog` seeds it."""
    return generic_union(systems, rng_from(0, label).randrange(2**32))


def test_max_rank_matches_the_per_degree_audit(monkeypatch):
    # default window: the certificate at the first degree with more columns
    # than rows, again at the top degree when it falls short there, and one
    # exact matrix when a degree is left short, at the widest such degree
    built = _recording_builds(monkeypatch)
    for Z, ok in _audited_unions():
        del built[:]
        rep = max_rank(Z)
        assert _first_full(rep) < max(rep["degrees"])
        short = [row["degree"] for row in rep["detail"] if row["defect"]]
        assert built == short[-1:]
        assert rep["ok"] == ok
        assert rep["detail"] == per_degree_detail(Z, rep["degrees"])
        # ell is max_rank at one degree; the exact rank stays its oracle
        for row in rep["detail"]:
            assert ell(Z, row["degree"]) == row["actual"]
        full = max_rank(Z, range(9))
        assert full["detail"] == per_degree_detail(Z, range(9))


def test_max_rank_wide_window_builds_one_matrix(monkeypatch):
    # four doubles have maximal rank: the certificate decides every degree
    # and no exact matrix is built
    built = _recording_builds(monkeypatch)
    Z = generic_union([(2,)] * 4, 101)
    rep = max_rank(Z, range(60))
    assert rep["ok"] and built == []
    assert rep["detail"][:9] == per_degree_detail(Z, range(9))
    # five doubles fall short in degree 4 and reach full rank 15 in degree
    # 5: one exact matrix, at 4, and no column past degree 5 is built
    Z = generic_union([(2,)] * 5, 101)
    rep = max_rank(Z, range(60))
    assert built == [4]
    assert rep["detail"][:9] == per_degree_detail(Z, range(9))
    for row in rep["detail"][9:]:
        ncols = (row["degree"] + 1) * (row["degree"] + 2) // 2
        assert row["defect"] == 0 and row["actual"] == ncols - 16
    # the catalog's (5,2), length 18, falls short at degree 5, the first
    # with more than 18 columns: the certificate at degree 200 settles every
    # degree above it, and the one exact matrix is at 5
    del built[:]
    Z = _catalog_union("(5,2)", ((5,), (2,)))
    rep = max_rank(Z, range(201))
    assert built == [5]
    assert rep["detail"][:9] == per_degree_detail(Z, range(9))
    assert all(row["defect"] == 0 for row in rep["detail"][6:])


def _certificate_matches_the_exact_rows(Zn, d):
    """The certificate's pivots are those of the exact rows mod p."""
    mat = condition_matrix(Zn, d)
    assert len(mat.rows) == Zn.total_length
    assert (plane_systems._certified_pivots(Zn, d, len(mat.rows))
            == linalg._rank_mod(mat.rows))


def test_certificate_pivots_match_the_exact_rows():
    # at each union's first degree with more columns than rows, where
    # max_rank takes the certificate, and one degree below it
    for Z, _ in _audited_unions():
        Zn = Z.normalized()
        first = level_floor(Zn.total_length) + 1
        for d in (first - 1, first):
            _certificate_matches_the_exact_rows(Zn, d)


def test_a_short_certificate_falls_back_to_the_exact_rank(monkeypatch):
    # a packed pivot loop that loses a pivot at every width leaves the top
    # audited degree short, so the one exact matrix is built there and its
    # prefixes decide every short degree; the report does not change
    pivots_mod = linalg._pivots_mod
    monkeypatch.setattr(linalg, "_pivots_mod",
                        lambda *args: pivots_mod(*args)[:-1])
    built = _recording_builds(monkeypatch)
    unions = _audited_unions()
    for k, (Z, ok) in enumerate(unions):
        if k % 7 and ok:
            continue
        del built[:]
        rep = max_rank(Z)
        assert built == [max(rep["degrees"])]
        detail = per_degree_detail(Z, rep["degrees"])
        assert rep["detail"] == detail
        # so does ell at each degree: every catalog system and both
        # exceptional families reach its exact fallback
        for row in detail:
            del built[:]
            assert ell(Z, row["degree"]) == row["actual"]
            assert built == [row["degree"]]


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


def test_level_split_of_the_empty_system_is_a_value_error():
    # (0, 2^0, 1^0) is consistent in every U_s but has no level
    for s in (1, 2):
        assert us_consistent(s, 0, 0, 0)
        with pytest.raises(ValueError, match="empty system"):
            level_split(0, 0, 0, s)


def test_negative_counts_are_rejected():
    # a negative i or j would become an empty run of 2s or 1s in the system
    with pytest.raises(ValueError, match="negative count"):
        us_consistent(2, 2, 2, -1)
    with pytest.raises(ValueError, match="negative count"):
        us_consistent(2, 2, -1, 2)
    with pytest.raises(ValueError, match="negative count"):
        level_split(2, 2, -3, 2)


def test_a_stratum_below_one_is_rejected():
    # U_1 is the free chain; s < 1 names no stratum
    assert us_consistent(1, 0, 0, 3)
    for s in (0, -1):
        with pytest.raises(ValueError, match="s >= 1"):
            us_consistent(s, 2, 1, 1)
        with pytest.raises(ValueError, match="s >= 1"):
            us_consistent(s, 0, 0, 3)
    with pytest.raises(ValueError, match="s >= 1"):
        level_split(2, 1, 1, -5)


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
def rational_unions(draw, mult=st.integers(1, 3), ordered=True):
    """Up to three chains (free or U_s satellite patterns) at distinct
    rational bases, each with a nonzero rational shear; the multiplicities
    are drawn from mult, in decreasing order when ordered is set."""
    rat = st.fractions(min_value=-20, max_value=20, max_denominator=9)
    comps = []
    bases = set()
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 4))
        mults = draw(st.lists(mult, min_size=n, max_size=n))
        mults = tuple(sorted(mults, reverse=True) if ordered else mults)
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


@settings(max_examples=40, deadline=None)
@given(rational_unions(st.integers(-1, 4), ordered=False), st.integers(0, 7))
def test_ell_is_the_exact_rank_of_the_union_as_given(Z, d):
    # multiplicities in any order, so that unloading moves them: ell ranks
    # the normalized union, which has the ideals, hence the rank, of Z
    ncols = (d + 1) * (d + 2) // 2
    assert ell(Z, d) == ncols - 1 - condition_matrix(Z, d).rank()


@settings(max_examples=40, deadline=None)
@given(rational_unions(), st.integers(0, 7))
def test_certificate_pivots_match_the_exact_rows_off_integer_points(Z, d):
    # nonzero shears and fractional bases, as a union file may give them
    _certificate_matches_the_exact_rows(Z.normalized(), d)


P31 = (1 << 31) - 1


def _packed_translation(ec, d, bound, nrows):
    """`_translated_packed` of ec as {local monomial: slots mod p}."""
    ncols = (d + 1) * (d + 2) // 2
    nbytes = linalg._slot_bytes(nrows)
    state = plane_systems._translated_packed(
        ec, d, bound, linalg._packer(ncols, nbytes),
        linalg._folder(ncols, nbytes))
    out = {}
    for e, row in state.items():
        data = row.to_bytes(ncols * nbytes, "little")
        out[e] = [int.from_bytes(data[c:c + nbytes], "little") % P31
                  for c in range(0, len(data), nbytes)]
    return out


@settings(max_examples=40, deadline=None)
@given(rational_unions(), st.integers(0, 7), st.integers(1, 12),
       st.integers(0, 600))
def test_packed_translation_is_the_exact_one_mod_p(Z, d, bound, extra):
    # The slots are those of at least bound rows, as in `_certified_pivots`.
    ec = Z.components[0]
    _packed_matches_exact(ec, d, bound, bound + extra,
                          plane_systems._translated_columns(ec, d, bound))


def _packed_matches_exact(ec, d, bound, nrows, exact):
    """The packed translation times D^d, D the common denominator, is the
    exact one, `_translated_columns`, mod p; every local monomial below the
    bound and up to degree d has a row in both, a nonzero one in exact."""
    got = _packed_translation(ec, d, bound, nrows)
    assert set(got) == set(exact) == {
        (i, j) for i in range(d + 1) for j in range(d + 1)
        if i + j < min(bound, d + 1)}
    assert all(exact.values())
    D = integral({0: ec.base[0], 1: ec.base[1], 2: ec.shear})[1]
    scale = pow(D, d, P31)
    for e, row in got.items():
        vec = exact.get(e, {})
        assert [v * scale % P31 for v in row] == \
            [vec.get(col, 0) % P31 for col in range(len(row))]


def test_a_denominator_divisible_by_p_gives_zero_rows():
    ec = embed(WeightedCluster(free_chain(2), (2, 1)), lambdas=(None, 3),
               base=(Fraction(1, P31), 0))
    rows = _packed_translation(ec, 3, 3, 4)
    assert len(rows) == 6 and not any(map(any, rows.values()))
    Z = SchemeUnion((ec,))
    rep = max_rank(Z, [1, 2, 3])
    assert rep["detail"] == per_degree_detail(Z, [1, 2, 3])


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


def images_p_translate(p, x0, y0, shear=0):
    """`p_translate` as it was before it took Horner steps, kept as its
    reference: every monomial's image from
    `closed_form_translated_monomials`, scaled and summed over the common
    denominator D^n."""
    n = max((a + b for (a, b) in p), default=0)
    D, images = closed_form_translated_monomials(x0, y0, shear, n)
    out = {}
    for (a, b), c in p.items():
        c = c * D ** (n - a - b)
        for e, v in images[(a, b)].items():
            out[e] = out.get(e, 0) + c * v
    if D > 1:
        out = {e: Fraction(v) / D ** n for e, v in out.items()}
    return p_clean(out)


translate_coefficients = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=12))


@st.composite
def translate_cases(draw):
    """A polynomial of degree up to 8 (the zero one included, and zero
    coefficients), a base with fractional coordinates or not, and a shear
    that is 0, an int or a Fraction."""
    n = draw(st.integers(0, 8))
    exps = st.tuples(st.integers(0, n), st.integers(0, n)).filter(
        lambda e: e[0] + e[1] <= n)
    p = draw(st.dictionaries(exps, translate_coefficients, max_size=12))
    base = st.one_of(st.integers(-20, 20),
                     st.fractions(min_value=-20, max_value=20,
                                  max_denominator=9))
    shear = st.one_of(st.just(0), st.integers(-5, 5),
                      st.fractions(min_value=-5, max_value=5,
                                   max_denominator=9))
    return p, draw(base), draw(base), draw(shear)


@settings(max_examples=150, deadline=None)
@given(translate_cases())
def test_horner_translation_matches_monomial_images(case):
    p, x0, y0, shear = case
    got = p_translate(p, x0, y0, shear)
    assert got == images_p_translate(p, x0, y0, shear)
    if all(type(v) is int for v in (*p.values(), x0, y0, shear)):
        assert all(type(v) is int for v in got.values())


def test_horner_translation_edge_cases():
    assert p_translate({}, Fraction(1, 3), 2, Fraction(-1, 2)) == {}
    assert p_translate({(2, 1): 0, (0, 0): 0}, 1, 1) == {}
    # a constant, and a line whose translate is constant
    assert p_translate({(0, 0): Fraction(5, 2)}, 7, Fraction(1, 3)) == {
        (0, 0): Fraction(5, 2)}
    assert p_translate({(1, 0): 1, (0, 1): -1}, 2, 2, 1) == {
        (1, 0): 1}
    # x^2 y at (1/2, 1/3): (1/2 + x)^2 (1/3 + y)
    got = p_translate({(2, 1): 1}, Fraction(1, 2), Fraction(1, 3))
    assert got == images_p_translate({(2, 1): 1}, Fraction(1, 2),
                                     Fraction(1, 3))
    assert got[(0, 0)] == Fraction(1, 12) and got[(2, 1)] == 1


def closed_form_translated_monomials(x0, y0, shear, max_deg, bound=None):
    """The images of the plane monomials X^a Y^b, a + b <= max_deg, under
    X = x0 + x + shear*y, Y = y0 + y, by their binomial expansion, kept as
    the reference for the translation of the monomial basis:

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


def closed_form_columns(x0, y0, shear, d, bound=None):
    """`_translated_columns` from `closed_form_translated_monomials`: the
    column of X^a Y^b is D^(d-a-b) times its image, D the common
    denominator."""
    D, images = closed_form_translated_monomials(x0, y0, shear, d, bound)
    state = {}
    for col, (a, b) in enumerate(monomials(d)):
        for e, v in images[(a, b)].items():
            state.setdefault(e, {})[col] = v * D ** (d - a - b)
    return state


@settings(max_examples=150, deadline=None)
@given(translation_values, translation_values, translation_values,
       st.integers(0, 8).flatmap(
           lambda n: st.tuples(st.just(n),
                               st.none() | st.integers(0, n + 3))))
def test_translated_columns_match_closed_form(x0, y0, shear, deg_bound):
    max_deg, bound = deg_bound
    ec = SimpleNamespace(base=(x0, y0), shear=shear)
    got = plane_systems._translated_columns(
        ec, max_deg, max_deg + 1 if bound is None else bound)
    assert got == closed_form_columns(x0, y0, shear, max_deg, bound)


@settings(max_examples=12, deadline=None)
@given(st.integers(9, 60), st.integers(0, 7),
       *[st.fractions(min_value=-50, max_value=50, max_denominator=30)
         .filter(lambda v: v.denominator > 1)] * 3)
def test_translation_at_high_degrees(d, bound, x0, y0, shear):
    # the exact fallback builds matrices up to MAX_DEGREE, and the
    # certificate runs there too: fractional bases and shears at degrees
    # past the hypothesis cases above
    ec = SimpleNamespace(base=(x0, y0), shear=shear)
    got = plane_systems._translated_columns(ec, d, bound)
    assert got == closed_form_columns(x0, y0, shear, d, bound)
    _packed_matches_exact(ec, d, bound, max(bound, 1), got)


def fraction_u_divide_out(u, root):
    """`u_divide_out` as it was before it divided by q t - p: synthetic
    division by t - root over Q, kept as its oracle."""
    u = u_clean([Fraction(c) for c in u])
    k = 0
    while u:
        # synthetic division by (t - root), highest degree first
        res = []
        acc = Fraction(0)
        for c in reversed(u):
            acc = acc * root + c
            res.append(acc)
        if res[-1]:
            break
        u = u_clean(list(reversed(res[:-1])))
        k += 1
    return k, u


def test_u_divide_out():
    # (t - 2)^2 (t + 3) = t^3 - t^2 - 8t + 12
    u = [12, -8, -1, 1]
    assert u_divide_out(u, 2) == (2, [3, 1])
    assert u_divide_out(u, -3) == (1, [4, -4, 1])
    assert u_divide_out(u, Fraction(1, 2)) == (0, u)
    assert u_divide_out([], 0) == (0, [])
    # (2t - 1)^2 (t + 3) = 4t^3 + 8t^2 - 11t + 3: the quotient by the
    # primitive factor (2t - 1)^2 is integral, the Fraction quotient by
    # (t - 1/2)^2 divided by 2^2
    u = [3, -11, 8, 4]
    k, w = u_divide_out(u, Fraction(1, 2))
    assert (k, w) == (2, [3, 1])
    assert all(type(c) is int for c in w)
    assert fraction_u_divide_out(u, Fraction(1, 2)) == (2, [c * 4 for c in w])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=5),
       st.fractions(min_value=-5, max_value=5, max_denominator=6),
       st.integers(0, 3))
def test_u_divide_out_matches_the_fraction_quotient(w, root, k):
    # an integer polynomial with root p/q of multiplicity at least k: the
    # integer quotient times q^k is the Fraction quotient
    u = list(w)
    for _ in range(k):
        u = [root.denominator * a - root.numerator * b
             for a, b in zip([0] + u, u + [0])]
    got_k, got = u_divide_out(u, root)
    want_k, want = fraction_u_divide_out(u, root)
    assert got_k == want_k and (not u_clean(list(u)) or got_k >= k)
    assert all(type(c) is int for c in got)
    assert [c * root.denominator ** got_k for c in got] == want
