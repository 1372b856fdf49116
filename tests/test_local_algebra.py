import os
import subprocess
import sys
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_weighted_chain
from nearpoints import linalg
from nearpoints.clusters import (WeightedCluster, satellite_targets, system,
                                 us_chain, weighted_chain)
from nearpoints.local_algebra import (EmbeddedCluster, IdealSubspace,
                                      _walk, colength,
                                      colon_subspace, contains, embed,
                                      sandwiched_ideal_point, ideal_subspace,
                                      local_conditions, multiplicities_along,
                                      germ_transforms, required_truncation,
                                      strict_transforms, track_bounds)
from nearpoints.polyops import (monomial_index, monomials, p_clean,
                                p_min_deg)
from nearpoints.sampling import rng_from
from nearpoints.unloading import length
from test_linalg import dense_fraction_rref
from test_plane_systems import p_mul


def ec_of(extras, mults, lambdas):
    return EmbeddedCluster(weighted_chain(extras, mults), tuple(lambdas))


def test_embedding_validation():
    with pytest.raises(ValueError):
        ec_of([None, None], [1, 1], [None, None])          # missing lambda
    with pytest.raises(ValueError):
        ec_of([None, None, 0], [2, 1, 1], [None, 0, 0])    # lambda on satellite
    with pytest.raises(ValueError):
        # lambda 0 right after a satellite is the forbidden corner direction
        ec_of([None, None, 0, None], [2, 1, 1, 1], [None, 0, None, 0])
    ec_of([None, None, 0, None], [2, 1, 1, 1], [None, 0, None, 1])


@pytest.mark.parametrize("rng", [None, rng_from(0, "short-lambdas")])
def test_embed_rejects_a_lambda_tuple_of_the_wrong_length(rng):
    wc = weighted_chain([None] * 3, [2, 1, 1])
    for lams in [(None,), (None, 1, 2, 3)]:
        with pytest.raises(ValueError, match="one lambda slot per point"):
            embed(wc, lambdas=lams, rng=rng)
    with pytest.raises(ValueError, match="free point 1 needs a lambda"):
        embed(wc, lambdas=(None, None, 2))


def test_conditions_double_point():
    ec = ec_of([None], [2], [None])
    cs = local_conditions(ec, 2)
    assert [dict(r) for r in cs.rows] == [{0: 1}, {1: 1}, {2: 1}]
    assert cs.labels == ((0, (0, 0)), (0, (1, 0)), (0, (0, 1)))


def test_conditions_two_simple_points():
    # hand expansion of f(x, xy)/x: the two conditions are a00 and a10
    ec = ec_of([None, None], [1, 1], [None, 0])
    cs = local_conditions(ec)
    assert [dict(r) for r in cs.rows] == [{0: 1}, {1: 1}]


def test_conditions_vanish_on_cuspidal_cubic():
    ec = ec_of([None, None, 0], [2, 1, 1], [None, 0, None])
    cs = local_conditions(ec, 3)
    f = {(0, 2): 1, (3, 0): -1}
    assert cs.apply(f) == [0] * len(cs.rows)


def test_truncation_audit():
    ec = ec_of([None, None], [2, 2], [None, 0])
    with pytest.raises(ValueError):
        local_conditions(ec, 1)


def test_colength_powers_of_maximal_ideal():
    assert colength(ec_of([None], [3], [None])) == 6


def test_colength_222():
    free = ec_of([None] * 3, [2, 2, 2], [None, Fraction(1, 3), Fraction(-2)])
    sat = ec_of([None, None, 0], [2, 2, 2], [None, Fraction(1, 3), None])
    assert colength(free) == 9
    assert colength(sat) == 8


def test_colength_cusp():
    assert colength(ec_of([None, None, 0], [2, 1, 1], [None, 0, None])) == 5


def test_ideal_m_squared():
    H = ideal_subspace(ec_of([None], [2], [None]))
    assert H.codim == 3
    assert contains(H, {(2, 0): 1})
    assert not contains(H, {(1, 0): 1})
    # every degree >= 2 monomial lies inside
    for e in monomials(H.trunc):
        if e[0] + e[1] >= 2:
            assert contains(H, {e: 1})


def test_ideal_two_points_contains_line():
    lam = Fraction(2, 5)
    H = ideal_subspace(ec_of([None, None], [1, 1], [None, lam]))
    # the aligned line through both points: y - lam*x
    assert contains(H, {(0, 1): 1, (1, 0): -lam})
    assert not contains(H, {(0, 1): 1, (1, 0): -lam - 1})


def test_contains_subspace_is_row_space_containment():
    # conditions on the coefficients (c1, cx, cy) of germs of degree <= 1:
    # A, the multiples of y, satisfies 2 c1 + 3 cx = 0 but not cy = 0
    A = IdealSubspace(1, [[1, 0, 0], [0, 1, 0]])
    assert IdealSubspace(1, [[2, 3, 0]]).contains_subspace(A)
    assert not IdealSubspace(1, [[0, 0, 1]]).contains_subspace(A)


def test_ideal_tacnode():
    H = ideal_subspace(ec_of([None, None], [2, 2], [None, 0]))
    assert contains(H, {(0, 2): 1})            # y^2
    assert contains(H, {(2, 1): 1})            # x^2 y
    assert contains(H, {(4, 0): 1})            # x^4
    assert contains(H, {(0, 2): 1, (4, 0): -1})
    assert not contains(H, {(0, 2): 1, (3, 0): -1})
    with pytest.raises(ValueError):
        contains(H, {(H.trunc + 1, 0): 1})


def test_monomial_saturation():
    for seed in range(10):
        rng = rng_from(seed, "saturation")
        wc = random_weighted_chain(rng, max_points=4, mult_range=(0, 3))
        ec = embed(wc, rng=rng, height=20)
        N = sum(m * (m + 1) // 2 for m in wc.mults if m > 0)
        H = ideal_subspace(ec)
        for e in [(N, 0), (0, N), (N // 2, N - N // 2)]:
            assert contains(H, {e: 1})


def test_ideal_closed_under_multiplication():
    H = ideal_subspace(ec_of([None, None], [2, 1], [None, Fraction(1, 2)]))
    for g in H.basis():
        for shift in ({(1, 0): 1}, {(0, 1): 1}):
            prod = {e: c for e, c in p_mul(g, shift).items()
                    if e[0] + e[1] <= H.trunc}
            assert contains(H, prod)


def test_colon_by_coordinate():
    ec2 = ec_of([None], [2], [None])
    H = ideal_subspace(ec2, 3)
    got = colon_subspace(H, {(1, 0): 1}, e=(1,))
    want = ideal_subspace(ec_of([None], [1], [None]), 3)
    assert got == want


def test_colon_by_unit():
    H = ideal_subspace(ec_of([None], [2], [None]))
    assert colon_subspace(H, {(0, 0): 1}, e=(0,)) == H


def test_colon_tacnode_by_tangent():
    ec = ec_of([None, None], [2, 2], [None, 0])
    H = ideal_subspace(ec, 8)
    got = colon_subspace(H, {(0, 1): 1}, e=(1, 1))
    want = ideal_subspace(ec.with_mults((1, 1)), 8)
    assert got == want


def test_colon_by_fatter_germ_is_everything():
    # dividing by a germ at least as fat as the scheme leaves no condition:
    # the residual multiplicities m - e are nonpositive
    ec = ec_of([None, None], [2, 1], [None, Fraction(1, 3)])
    H = ideal_subspace(ec, 6)
    f = {}
    for g in ideal_subspace(ec.with_mults((2, 2)), 6).basis()[:2]:
        for e2, v in g.items():
            f[e2] = f.get(e2, 0) + v
    e = multiplicities_along(ec, f)
    assert all(a >= m for a, m in zip(e, ec.mults))
    got = colon_subspace(H, f, e=tuple(e))
    assert got.codim == 0
    want = ideal_subspace(
        ec.with_mults(tuple(m - a for m, a in zip(ec.mults, e))), 6)
    assert got == want


def test_colon_rejects_zero():
    H = ideal_subspace(ec_of([None], [1], [None]))
    with pytest.raises(ValueError):
        colon_subspace(H, {})


def test_conductor_identity_randomized():
    # e known by construction: f is a product of generic germs through
    # sub-systems, and its actual multiplicities are recomputed by blowup
    done = 0
    seed = 0
    while done < 12:
        seed += 1
        rng = rng_from(seed, "conductor")
        wc = random_weighted_chain(rng, max_points=3, mult_range=(0, 3))
        ec = embed(wc, rng=rng, height=12)
        sub = tuple(rng.randint(0, max(0, m)) for m in wc.mults)
        if sum(sub) == 0:
            continue
        Hsub = ideal_subspace(ec.with_mults(sub))
        basis = Hsub.basis()
        f = {}
        for g in basis[: rng.randint(1, min(3, len(basis)))]:
            c = rng.randint(-5, 5)
            for e2, v in g.items():
                f[e2] = f.get(e2, 0) + c * v
        f = {e2: v for e2, v in f.items() if v}
        if not f:
            continue
        e = multiplicities_along(ec, f)
        trunc = max(sum(m * (m + 1) // 2 for m in wc.mults if m > 0),
                    sum(max(m - a, 0) * (max(m - a, 0) + 1) // 2
                        for m, a in zip(wc.mults, e)))
        H = ideal_subspace(ec, trunc)
        got = colon_subspace(H, f, e=tuple(e))
        want = ideal_subspace(
            ec.with_mults(tuple(m - a for m, a in zip(wc.mults, e))), trunc)
        assert got == want, (wc, f, e)
        done += 1


def test_multiplicities_additive_on_products():
    # e-vectors of strict transforms add under products of germs, even when
    # the product is fatter than the prescribed system
    for trial in range(20):
        rng = rng_from(trial, "mult-add")
        wc = random_weighted_chain(rng, max_points=4, mult_range=(1, 2))
        ec = embed(wc, rng=rng, height=15)
        germs = []
        for _ in range(2):
            sub = tuple(rng.randint(0, m) for m in wc.mults)
            basis = ideal_subspace(ec.with_mults(sub)).basis()
            f = {}
            for g in basis[:2]:
                c = rng.randint(-4, 4)
                for e2, v in g.items():
                    f[e2] = f.get(e2, 0) + c * v
            f = {e: v for e, v in f.items() if v}
            germs.append(f or {(0, 0): 1})
        f, g = germs
        ef = multiplicities_along(ec, f)
        eg = multiplicities_along(ec, g)
        assert [a + b for a, b in zip(ef, eg)] == \
            multiplicities_along(ec, p_mul(f, g))


def test_virtual_transform_requires_passage():
    ec = ec_of([None, None], [2, 2], [None, 0])
    with pytest.raises(ValueError):
        germ_transforms(ec, ec.mults, {(0, 1): 1})  # a line is not double


def test_oracle_identity_sample():
    for seed in range(40):
        rng = rng_from(seed, "oracle-sample")
        wc = random_weighted_chain(rng, max_points=5, mult_range=(0, 3))
        ec = embed(wc, rng=rng, height=50)
        assert colength(ec) == length(wc)


def _us_embedding(s, mults, seed):
    rng = rng_from(seed, "us-embed")
    wc = WeightedCluster(us_chain(len(mults), s), mults)
    return embed(wc, rng=rng, height=20)


def test_sandwiched_ideal_point_roundtrip():
    s, m1, i, j = 2, 2, 1, 2
    ec = _us_embedding(s, system(m1, i, j), 5)
    trunc = sum(m * (m + 1) // 2 for m in system(m1, i + 1, j - 1)) + 1
    rng = rng_from(6, "witness")
    for trial in range(3):
        lam = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
        ext = ec.extend_free(lam)
        I = ideal_subspace(ext.with_mults(system(m1, i, j + 1)), trunc)
        q = sandwiched_ideal_point(ec, m1, i, j, I)
        assert q == ("free", lam)
    # the satellite position on the last divisor
    ext = ec.extend_satellite(ec.r - 2)
    I = ideal_subspace(ext.with_mults(system(m1, i, j + 1)), trunc)
    q = sandwiched_ideal_point(ec, m1, i, j, I)
    assert q == ("satellite", ec.r - 2)


def test_sandwiched_ideal_point_on_a_u4_chain():
    # extras (None, None, 0, 0) match U_4 but neither U_2 nor U_3
    m1, i, j = 5, 1, 2
    ec = _us_embedding(4, system(m1, i, j), 5)
    assert ec.extras == (None, None, 0, 0)
    trunc = sum(m * (m + 1) // 2 for m in system(m1, i + 1, j - 1)) + 1
    ext = ec.extend_free(Fraction(3, 7))
    I = ideal_subspace(ext.with_mults(system(m1, i, j + 1)), trunc)
    assert sandwiched_ideal_point(ec, m1, i, j, I) == ("free", Fraction(3, 7))


def test_sandwiched_ideal_point_from_ideal_closure():
    # build the middle ideal bottom-up: the larger scheme's ideal plus all
    # truncated multiples of one germ picked from the gap
    from nearpoints import linalg
    from nearpoints.local_algebra import IdealSubspace
    from nearpoints.polyops import monomials, vector_of

    s, m1, i, j = 2, 2, 1, 2
    ec = _us_embedding(s, system(m1, i, j), 21)
    trunc = sum(m * (m + 1) // 2 for m in system(m1, i + 1, j - 1)) + 1
    lam = Fraction(3, 7)
    ext = ec.extend_free(lam)
    H_plus = ideal_subspace(ec.with_mults(system(m1, i + 1, j - 1)), trunc)
    target = ideal_subspace(ext.with_mults(system(m1, i, j + 1)), trunc)
    f = next(g for g in target.basis() if not contains(H_plus, g))
    vectors = [vector_of(g, trunc) for g in H_plus.basis()]
    for (a, b) in monomials(trunc):
        prod = {(a + a2, b + b2): c for (a2, b2), c in f.items()
                if a + a2 + b + b2 <= trunc}
        if prod:
            vectors.append(vector_of(prod, trunc))
    ncols = len(monomials(trunc))
    span, _ = linalg.rref(vectors, ncols)
    conditions, _ = linalg.rref(linalg.nullspace(span, ncols), ncols)
    I = IdealSubspace(trunc, conditions)
    assert I == target  # the closure recovers the one-more-point ideal
    q = sandwiched_ideal_point(ec, m1, i, j, I)
    assert q == ("free", lam)


def test_sandwiched_ideal_point_rejects_non_strict():
    s, m1, i, j = 2, 2, 1, 2
    ec = _us_embedding(s, system(m1, i, j), 7)
    trunc = sum(m * (m + 1) // 2 for m in system(m1, i + 1, j - 1)) + 1
    H_minus = ideal_subspace(ec.with_mults(system(m1, i, j)), trunc)
    H_plus = ideal_subspace(ec.with_mults(system(m1, i + 1, j - 1)), trunc)
    with pytest.raises(ValueError):
        sandwiched_ideal_point(ec, m1, i, j, H_minus)
    with pytest.raises(ValueError):
        sandwiched_ideal_point(ec, m1, i, j, H_plus)


SANDWICH_ON_A_SHORT_CHAIN = """
import sys
from fractions import Fraction
from nearpoints.clusters import system, weighted_chain
from nearpoints.local_algebra import (embed, ideal_subspace,
                                      sandwiched_ideal_point)
from nearpoints.sampling import rng_from
extras = [None if x == "-" else int(x) for x in sys.argv[1].split(",")]
m1, i, j = map(int, sys.argv[2:])
ec = embed(weighted_chain(extras, system(m1, i, j)),
           rng=rng_from(0, "short-chain"), height=10)
trunc = sum(m * (m + 1) // 2 for m in system(m1, i + 1, j - 1)) + 1
I = ideal_subspace(ec.extend_free(Fraction(2)).with_mults(
    system(m1, i, j + 1)), trunc)
print(*sandwiched_ideal_point(ec, m1, i, j, I))
"""


@pytest.mark.parametrize("extras, m1, i, j", [
    ("-,-", 3, 0, 1),     # two points: U_s matches for every s >= 2
    ("-,-,0", 3, 1, 1),   # U_3 on three points: so does every U_s, s >= 3
])
def test_sandwiched_ideal_point_on_a_chain_every_long_stratum_matches(
        extras, m1, i, j):
    # U_s and U_{s+1} put the same proximities on r points once s >= r; the
    # stratum search stops there instead of looping (hence the timeout)
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", SANDWICH_ON_A_SHORT_CHAIN,
                           extras, str(m1), str(i), str(j)],
                          capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["free", "2"]


# Reference: the blowup substitution written out over Fractions, as the
# transforms of a germ were computed before they shared the integer step,
# with its three cases read off the chain here and not from the library.

def _fraction_kinds(ec):
    """For each point k >= 1, which substitution reaches it: the free
    direction lam, the corner with the previous exceptional divisor (extra
    proximity to k-2) or the corner with the older one."""
    kinds = [None]
    for k in range(1, ec.r):
        if ec.extras[k] is None:
            kinds.append(("free", ec.lambdas[k]))
        elif ec.extras[k] == k - 2:
            kinds.append(("corner_prev", None))
        else:
            kinds.append(("corner_old", None))
    return kinds


def _fraction_step(g, kind, lam, m, bound):
    new = {}
    for (a, b), c in g.items():
        if not c:
            continue
        base_a = a + b - m
        if kind == "free":
            for l in range(b + 1):
                if base_a < 0 or base_a + l >= bound:
                    continue
                coef = comb(b, l) * lam ** (b - l)
                if coef:
                    e2 = (base_a, l)
                    new[e2] = new.get(e2, Fraction(0)) + coef * c
        else:
            yexp = a if kind == "corner_prev" else b
            if base_a < 0 or base_a + yexp >= bound:
                continue
            e2 = (base_a, yexp)
            new[e2] = new.get(e2, Fraction(0)) + c
    return p_clean(new)


def fraction_germ_transforms(ec, mults, f):
    bounds = track_bounds(mults, 2)
    kinds = _fraction_kinds(ec)
    g = {e: Fraction(c) for e, c in f.items() if e[0] + e[1] < bounds[0]}
    out = []
    for k in range(ec.r):
        out.append(dict(g))
        if k + 1 == ec.r:
            break
        m = mults[k]
        if any(e[0] + e[1] < m and c for e, c in g.items()):
            raise ValueError(
                "germ has multiplicity below %d at point %d" % (m, k))
        kind, lam = kinds[k + 1]
        g = _fraction_step(g, kind, lam, m, bounds[k + 1])
    return out


def fraction_strict_transforms(ec, f):
    bounds = track_bounds([max(m, 1) for m in ec.mults], 2)
    kinds = _fraction_kinds(ec)
    g = p_clean({e: Fraction(c) for e, c in f.items()
                 if e[0] + e[1] < bounds[0]})
    polys, attained = [], []
    for k in range(ec.r):
        polys.append(g)
        e_k = p_min_deg(g)
        if e_k < 0:
            polys.extend({} for _ in range(ec.r - k - 1))
            attained.extend(None for _ in range(ec.r - k))
            break
        attained.append(e_k)
        if k + 1 < ec.r:
            kind, lam = kinds[k + 1]
            g = _fraction_step(g, kind, lam, e_k, bounds[k + 1])
    return polys, attained


@st.composite
def embedded_chains(draw, max_points=6, max_mult=3):
    """A random valid chain (r <= max_points) with random rational lambdas
    and multiplicities 0..max_mult."""
    rat = st.fractions(min_value=-30, max_value=30, max_denominator=30)
    extras = [None]
    lams = [None]
    for k in range(1, draw(st.integers(1, max_points))):
        targets = satellite_targets(extras, k)
        if targets and draw(st.booleans()):
            extras.append(draw(st.sampled_from(targets)))
            lams.append(None)
        else:
            extras.append(None)
            after_satellite = extras[k - 1] is not None
            lams.append(draw(rat.filter(bool) if after_satellite else rat))
    mults = draw(st.lists(st.integers(0, max_mult), min_size=len(extras),
                          max_size=len(extras)))
    return ec_of(extras, mults, lams)


germs = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    st.fractions(min_value=-20, max_value=20,
                 max_denominator=9).filter(bool), max_size=10)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=150, deadline=None)
@given(embedded_chains(), germs)
def test_transforms_match_fraction_oracle(ec, f):
    assert strict_transforms(ec, f) == fraction_strict_transforms(ec, f)
    assert _outcome(germ_transforms, ec, ec.mults, f) == \
        _outcome(fraction_germ_transforms, ec, ec.mults, f)


def test_germ_transforms_oracle_on_germs_through_the_cluster():
    # germs drawn from the ideal pass every prescribed multiplicity, so the
    # comparison covers the transforms themselves and not only the error
    for seed in range(15):
        rng = rng_from(seed, "germ-oracle")
        wc = random_weighted_chain(rng, max_points=5, mult_range=(1, 3))
        ec = embed(wc, rng=rng, height=30)
        f = {}
        for g in ideal_subspace(ec).basis()[:3]:
            c = rng.randint(-5, 5)
            for e2, v in g.items():
                f[e2] = f.get(e2, 0) + c * v
        f = p_clean(f)
        got = germ_transforms(ec, ec.mults, f)
        assert got == fraction_germ_transforms(ec, ec.mults, f)
        assert strict_transforms(ec, f) == fraction_strict_transforms(ec, f)


def _rows_are_clean(rows):
    return all(0 not in row.values() and (not row or row[min(row)] > 0)
               for row in rows)


def _walk_states_are_clean(ec):
    """No state the condition-row walk of ec yields stores a 0 or an empty
    column dict."""
    mults = ec.mults
    init = {e: {i: 1} for e, i in
            monomial_index(required_truncation(mults)).items()}
    return all(vec and 0 not in vec.values()
               for _, state, _ in _walk(ec, init, 1, track_bounds(mults),
                                        lambda k, _: mults[k])
               for vec in state.values())


@settings(max_examples=100, deadline=None)
@given(embedded_chains())
def test_condition_rows_store_no_zeros(ec):
    assert _rows_are_clean(local_conditions(ec).rows)
    assert _walk_states_are_clean(ec)


def test_condition_rows_store_no_zeros_seeded():
    # these 300 chains include rows whose entries cancel to 0 in the blowup
    # steps (3 of their 4,097 rows)
    for i in range(300):
        rng = rng_from(209, "probe", i)
        wc = random_weighted_chain(rng, max_points=6, mult_range=(0, 4))
        ec = embed(wc, rng=rng, height=5)
        assert _rows_are_clean(local_conditions(ec).rows)
        assert _walk_states_are_clean(ec)


# Reference: the conductor as it was built before it walked only the
# nonzero entries of each condition, one Fraction sum per monomial, and
# reduced by the dense Fraction rref.

def dense_colon_subspace(H, f):
    f = p_clean(f)
    mons = monomials(H.trunc)
    idx = monomial_index(H.trunc)
    rows = []
    for cond in H.conditions:
        row = {}
        for j, (a2, b2) in enumerate(mons):
            acc = Fraction(0)
            for (a, b), c in f.items():
                ee = (a + a2, b + b2)
                if ee[0] + ee[1] <= H.trunc:
                    v = cond.get(idx[ee], 0)
                    if v:
                        acc += c * v
            if acc:
                row[j] = acc
        rows.append(row)
    return IdealSubspace(H.trunc, dense_fraction_rref(rows, len(mons))[0])


@settings(max_examples=60, deadline=None)
@given(embedded_chains(max_points=4, max_mult=2), st.data())
def test_colon_matches_dense_oracle(ec, data):
    # f from the ideal of a sub-system, as in the conductor identity, and an
    # arbitrary germ, whose terms may reach past the truncation
    H = ideal_subspace(ec)
    sub = tuple(data.draw(st.integers(0, m)) for m in ec.mults)
    basis = ideal_subspace(ec.with_mults(sub), H.trunc).basis()
    coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=len(basis),
                                max_size=len(basis)))
    f = {}
    for c, g in zip(coeffs, basis):
        for e2, v in g.items():
            f[e2] = f.get(e2, 0) + c * v
    for g in (p_clean(f), data.draw(germs)):
        if g:
            assert colon_subspace(H, g) == dense_colon_subspace(H, g)


# Reference: the kernel basis as IdealSubspace.basis read it while the
# conditions were dense rref rows: the nullspace of the dense Fraction rref,
# one polynomial per vector through the dense monomial vector.

def dense_basis(H):
    red, pivots = dense_fraction_rref(list(H.conditions), H.ncols)
    mons = monomials(H.trunc)
    basis = []
    for fc in range(H.ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * H.ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][fc]
        basis.append(p_clean({mons[i]: c for i, c in enumerate(vec)}))
    return basis


@settings(max_examples=60, deadline=None)
@given(embedded_chains(max_points=4, max_mult=3), st.data())
def test_ideal_subspace_canonical_form(ec, data):
    H = ideal_subspace(ec)
    rows = [dict(r) for r in local_conditions(ec).rows]
    # the same row space as raw rows, as dense rref rows, and as the rows
    # scaled by nonzero rationals, padded with combinations and shuffled
    scale = st.fractions(min_value=-40, max_value=40,
                         max_denominator=30).filter(bool)
    mixed = []
    for row in rows:
        c = data.draw(scale)
        mixed.append({j: c * v for j, v in row.items()})
    for _ in range(data.draw(st.integers(0, 3))):
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                                    max_size=len(rows)))
        pad = {}
        for c, row in zip(coeffs, rows):
            for j, v in row.items():
                pad[j] = pad.get(j, 0) + c * v
        mixed.append(pad)
    mixed = data.draw(st.permutations(mixed))
    raw = IdealSubspace(H.trunc, rows)
    dense = IdealSubspace(H.trunc, linalg.rref(rows, H.ncols)[0])
    assert raw == dense == IdealSubspace(H.trunc, mixed) == H
    # the stored form: primitive integer rows, positive at increasing
    # pivots, zero at every other row's pivot
    pivots = [min(row) for row in H.conditions]
    assert pivots == sorted(set(pivots))
    for row, pc in zip(H.conditions, pivots):
        assert all(type(v) is int and v for v in row.values())
        assert row[pc] > 0 and gcd(*row.values()) == 1
        assert not set(row) & set(pivots) - {pc}
    # the sparse kernel basis is the dense one, vector for vector and
    # monomial for monomial
    assert ([list(g.items()) for g in H.basis()]
            == [list(g.items()) for g in dense_basis(H)])
