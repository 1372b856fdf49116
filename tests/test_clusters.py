import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_chain
from nearpoints.clusters import (Cluster, WeightedCluster, excesses,
                                 free_chain, is_consistent, matches_stratum,
                                 parse_enriques, proximity_matrix,
                                 render_enriques, satellite_targets,
                                 single_chain, us_chain, validate,
                                 weighted_chain)
from nearpoints.sampling import rng_from


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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000),
       st.lists(st.integers(1, 6), min_size=1, max_size=3))
def test_render_round_trip(seed, sizes):
    # forests of 1-3 chains: every chain shows its own multiplicities
    rng = rng_from(seed, "render-prop")
    forest = Cluster(tuple(random_chain(rng, n).chains[0] for n in sizes))
    wc = WeightedCluster(forest,
                         tuple(rng.randint(0, 5) for _ in range(forest.r)))
    assert parse_enriques(render_enriques(wc)) == wc


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
             if not validate(single_chain(extras + [t]))]
    targets = satellite_targets(extras, k)
    assert sorted(targets) == valid
    assert targets[0] == k - 2
