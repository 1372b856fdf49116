import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_chain
from nearpoints.clusters import (Cluster, WeightedCluster, excesses,
                                 free_chain, is_consistent, matches_stratum,
                                 proximity_matrix, render_enriques,
                                 satellite_targets, single_chain, us_chain,
                                 validate, weighted_chain)
from nearpoints.sampling import rng_from


def reference_validate(cluster):
    """The proximity invariants checked from first principles, independent
    of `satellite_targets`: (chain, point) of each violation, in the order
    found."""
    problems = []
    for c, ch in enumerate(cluster.chains):
        if len(ch) == 0:
            problems.append((c, 0))
            continue
        if ch[0] is not None:
            problems.append((c, 0))
        if len(ch) > 1 and ch[1] is not None:
            problems.append((c, 1))
        for k in range(2, len(ch)):
            t = ch[k]
            if t is None:
                continue
            if not (0 <= t < k - 1):
                problems.append((c, k))
                continue
            # the satellite sits on the strict transform of E_t, so the
            # previous point must be proximate to t as well, unless t = k-2
            if t != k - 2 and ch[k - 1] != t:
                problems.append((c, k))
        # proximity runs must be contiguous: the satellites of point t are
        # exactly points t+2 .. t+1+len(run)
        runs = {}
        for k in range(len(ch)):
            if ch[k] is not None:
                runs.setdefault(ch[k], []).append(k)
        for t, ks in runs.items():
            if ks != list(range(t + 2, t + 2 + len(ks))):
                problems.append((c, ks[0]))
    return problems


def test_validate_plain_chain():
    assert validate(free_chain(3)) == []


def test_validate_satellite():
    assert validate(single_chain([None, None, 0])) == []


def test_validate_broken_contiguity():
    # a satellite of the root at position 3 needs position 2 to be one too
    bad = single_chain([None, None, None, 0])
    problems = validate(bad)
    assert problems
    assert any(p[1] == 3 for p in problems)


def test_validate_root_and_second_point():
    assert validate(single_chain([0])) != []
    assert validate(single_chain([None, 0])) != []


def test_proximity_matrix_single():
    assert proximity_matrix(free_chain(1)) == [[1]]


def test_proximity_matrix_chain2():
    assert proximity_matrix(free_chain(2)) == [[1, 0], [-1, 1]]


def test_proximity_matrix_satellite_row():
    P = proximity_matrix(single_chain([None, None, 0]))
    assert P[2] == [-1, -1, 1]


def test_excesses_single():
    assert excesses(weighted_chain([None], [3])) == [3]


def test_excesses_chain2():
    assert excesses(weighted_chain([None, None], [1, 2])) == [-1, 2]


def test_excesses_satellite_222():
    # hand evaluation: rho_0 = 2-(2+2), rho_1 = 2-2, rho_2 = 2
    wc = weighted_chain([None, None, 0], [2, 2, 2])
    assert excesses(wc) == [-2, 0, 2]


def test_is_consistent():
    assert is_consistent(weighted_chain([None, None], [2, 1]))
    assert not is_consistent(weighted_chain([None, None], [1, 2]))
    assert not is_consistent(weighted_chain([None, None, 0], [2, 2, 2]))


def test_matches_stratum():
    assert matches_stratum(free_chain(4), 2)
    assert matches_stratum(single_chain([None, None, 0, None]), 3)
    assert not matches_stratum(single_chain([None, None, 0, 0]), 3)
    assert matches_stratum(single_chain([None, None, 0, 0]), 4)
    assert matches_stratum(us_chain(6, 4), 4)


def test_a_stratum_below_one_is_rejected():
    # U_1 and U_2 are the free chain; s < 1 names no stratum
    assert us_chain(4, 1) == us_chain(4, 2) == free_chain(4)
    assert matches_stratum(free_chain(4), 1)
    for s in (0, -3):
        with pytest.raises(ValueError, match="s >= 1"):
            us_chain(4, s)
        with pytest.raises(ValueError, match="s >= 1"):
            matches_stratum(free_chain(4), s)


def test_render_single_point():
    txt = render_enriques(weighted_chain([None], [4]))
    assert txt == "chain 0: p0[4]\n"


def test_render_tacnode_and_cusp():
    assert ("p1[2,free]"
            in render_enriques(weighted_chain([None, None], [2, 2])))
    cusp = weighted_chain([None, None, 0], [2, 1, 1])
    assert "sat->0" in render_enriques(cusp)
    dot = render_enriques(cusp, "dot")
    assert "style=dashed" in dot and 'label="2"' in dot


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 7))
def test_excesses_match_proximity_matrix(seed, npts):
    rng = rng_from(seed, "cluster-prop")
    cluster = random_chain(rng, npts)
    mults = tuple(rng.randint(-3, 4) for _ in range(npts))
    wc = WeightedCluster(cluster, mults)
    P = proximity_matrix(cluster)
    via_matrix = [sum(P[i][j] * mults[i] for i in range(npts))
                  for j in range(npts)]
    assert via_matrix == excesses(wc)
    assert is_consistent(wc) == (min(excesses(wc)) >= 0)


def test_render_two_chain_forest():
    # every chain shows its own multiplicities, read from its own offset
    forest = Cluster(((None, None), (None, None, 0)))
    wc = WeightedCluster(forest, (2, 1, 3, 2, 1))
    assert render_enriques(wc) == (
        "chain 0: p0[2] -- p1[1,free]\n"
        "chain 1: p0[3] -- p1[2,free] -- p2[1,sat->0]\n")


@st.composite
def forests(draw):
    """Forests of 1-3 chains of up to 7 points: each chain is a random
    valid chain, the same with one point's extra redrawn, or arbitrary."""
    chains = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 7))
        extra = st.one_of(st.none(), st.integers(-1, n))
        kind = draw(st.sampled_from(["valid", "one redrawn", "arbitrary"]))
        if kind == "arbitrary" or n == 0:
            chains.append(tuple(draw(st.lists(extra, min_size=n,
                                              max_size=n))))
            continue
        ch = list(random_chain(rng_from(draw(st.integers(0, 10 ** 6)),
                                        "forest"), n).chains[0])
        if kind == "one redrawn":
            ch[draw(st.integers(0, n - 1))] = draw(extra)
        chains.append(tuple(ch))
    return Cluster(tuple(chains))


@settings(max_examples=300, deadline=None)
@given(forests())
def test_validate_agrees_with_the_reference(forest):
    # same verdict, and the same first (chain, point) on an invalid forest
    got = [(c, k) for c, k, _ in validate(forest)]
    assert got[:1] == reference_validate(forest)[:1]


def test_validate_accepts_synthesis_constructors():
    from nearpoints.synthesis import cusp_scheme, dk_scheme, tacnode_scheme
    for t in (1, 2, 4):
        assert validate(tacnode_scheme(t, seed=t).weighted.cluster) == []
    for n in (1, 2, 3):
        assert validate(cusp_scheme(n, seed=n).weighted.cluster) == []
    for k in range(4, 14):
        assert validate(dk_scheme(k, seed=k).weighted.cluster) == []


def test_multi_chain_forest():
    from nearpoints.clusters import Cluster
    forest = Cluster(((None, None), (None, None, 0)))
    assert forest.r == 5
    wc = WeightedCluster(forest, (2, 1, 2, 2, 2))
    assert excesses(wc) == [1, 1, -2, 0, 2]
    with pytest.raises(ValueError):
        WeightedCluster(forest, (1, 2, 3))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 8))
def test_satellite_targets_are_the_valid_extensions(seed, npts):
    # a satellite appended to a valid chain is valid exactly over the
    # targets the rule lists, in the rule's order: k-2 first
    extras = list(random_chain(rng_from(seed, "targets"), npts).chains[0])
    k = len(extras)
    valid = [t for t in range(k - 1)
             if not reference_validate(single_chain(extras + [t]))]
    targets = satellite_targets(extras, k)
    assert sorted(targets) == valid
    assert targets[0] == k - 2
