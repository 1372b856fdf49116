import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_chain
from nearpoints.clusters import (WeightedCluster, excesses, free_chain,
                                 proximate_to, single_chain, system,
                                 us_chain, weighted_chain)
from nearpoints.sampling import rng_from
from nearpoints.unloading import (equivalent, length, unload, unload_step)


def oracle_step(wc, i):
    """Independent oracle: smallest n >= 1 restoring the inequality at i,
    found by searching, applied by hand."""
    prox = proximate_to(wc.cluster, i)
    n = 1
    while True:
        m = list(wc.mults)
        m[i] += n
        for j in prox:
            m[j] -= n
        if excesses(wc.with_mults(m))[i] >= 0:
            return tuple(m), n
        n += 1


def test_step_chain2():
    wc = weighted_chain([None, None], [1, 2])
    new, n = unload_step(wc, 0)
    assert (new.mults, n) == ((2, 1), 1)
    assert (new.mults, n) == oracle_step(wc, 0)


def test_step_satellite_222():
    wc = weighted_chain([None, None, 0], [2, 2, 2])
    new, n = unload_step(wc, 0)
    assert (new.mults, n) == ((3, 1, 1), 1)
    assert (new.mults, n) == oracle_step(wc, 0)


def test_step_requires_negative_excess():
    with pytest.raises(ValueError):
        unload_step(weighted_chain([None], [3]), 0)


def test_step_minimality_postcondition():
    # after a step at i the excess is >= 0 but smaller than 1 + #proximate
    for seed in range(40):
        rng = rng_from(seed, "step-min")
        cluster = random_chain(rng, rng.randint(2, 6))
        wc = WeightedCluster(cluster,
                             tuple(rng.randint(0, 4)
                                   for _ in range(cluster.r)))
        rho = excesses(wc)
        bad = next((i for i, v in enumerate(rho) if v < 0), None)
        if bad is None:
            continue
        new, _ = unload_step(wc, bad)
        q = len(proximate_to(wc.cluster, bad))
        rho_new = excesses(new)[bad]
        assert 0 <= rho_new < 1 + q


def test_unload_limit_family():
    # the one-step-specialized systems: head 2s-1 with i-s+1 doubles on the
    # U_{s+1} pattern unload to head 2s when the doubles overrun the bound
    for s, i, j in [(2, 3, 0), (2, 3, 2), (2, 4, 1), (3, 5, 2), (3, 7, 0)]:
        m = 2 * s - 2
        mults = system(m + 1, i - s + 1, j + s - 2)
        wc = WeightedCluster(us_chain(len(mults), s + 1), mults)
        final = unload(wc).final
        want = system(m + 2, i - 2 * s + 1, j + 2 * s - 2)
        got = tuple(v for v in final.mults if v != 0)
        assert got == tuple(v for v in want if v != 0), (s, i, j)


def test_unload_specialized_odd_dk():
    # r = 7: (3, 2^4, 1^2) with the third point proximate to the root and
    # the last point satellite; the normal form is (4, 2^3, 1, 0, 0)
    extras = [None, None, 0, None, None, None, 4]
    wc = WeightedCluster(single_chain(extras), (3, 2, 2, 2, 2, 1, 1))
    assert unload(wc).final.mults == (4, 2, 2, 2, 1, 0, 0)


def test_unload_specialized_extended_cusp():
    for n in (1, 2, 3, 4):
        extras = [None] * (n + 1) + [n - 1, n]
        wc = WeightedCluster(single_chain(extras), (2,) * n + (1, 1, 1))
        final = unload(wc).final
        assert final.mults == (2,) * (n + 1) + (0, 0)


def test_unload_consistent_is_identity():
    wc = weighted_chain([None, None], [2, 1])
    tr = unload(wc)
    assert tr.steps == () and tr.final == wc


def test_length_examples():
    for t in (1, 2, 3, 5):
        assert length(WeightedCluster(free_chain(t), (2,) * t)) == 3 * t
    assert length(weighted_chain([None, None, 0], [2, 2, 2])) == 8
    assert length(weighted_chain([None], [0])) == 0


def test_equivalent():
    cl = single_chain([None, None, 0])
    assert equivalent(WeightedCluster(cl, (2, 2, 2)),
                      WeightedCluster(cl, (3, 1, 1)))
    ch2 = free_chain(2)
    assert not equivalent(WeightedCluster(ch2, (2, 2)),
                          WeightedCluster(ch2, (2, 1)))
    wc = weighted_chain([None, None], [3, 1])
    assert equivalent(wc, wc)
    with pytest.raises(ValueError):
        equivalent(WeightedCluster(cl, (1, 1, 1)),
                   WeightedCluster(free_chain(3), (1, 1, 1)))


def test_equivalent_trailing_zeros():
    # (2^{n+1}, 0, 0) in the specialized cusp position matches the plain
    # (2^{n+1}) on the truncated cluster only after dropping the zeros;
    # within one cluster, equivalence sees through them
    extras = [None, None, 0, 1]
    cl = single_chain(extras)
    assert equivalent(WeightedCluster(cl, (2, 1, 1, 1)),
                      WeightedCluster(cl, (2, 2, 0, 0)))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100_000))
def test_unload_idempotent(seed):
    rng = rng_from(seed, "idem")
    cluster = random_chain(rng, rng.randint(1, 6))
    wc = WeightedCluster(cluster,
                         tuple(rng.randint(0, 4) for _ in range(cluster.r)))
    tr = unload(wc)
    again = unload(tr.final)
    assert again.steps == ()
    assert again.final == tr.final


def test_unload_order_independence():
    # random eligible index at every step reaches the same normal form as
    # the smallest-index strategy, over 100 random weighted clusters
    for trial in range(100):
        rng = rng_from(trial, "order")
        cluster = random_chain(rng, rng.randint(2, 6))
        wc = WeightedCluster(cluster,
                             tuple(rng.randint(0, 4)
                                   for _ in range(cluster.r)))
        reference = unload(wc).final
        current = wc
        for _ in range(10_000):
            rho = excesses(current)
            bad = [i for i, v in enumerate(rho) if v < 0]
            if not bad:
                break
            current, _ = unload_step(current, rng.choice(bad))
        else:
            pytest.fail("random-order unloading did not terminate")
        assert current == reference


def test_length_invariant_under_equivalence():
    # perturb a system by one unloading step taken backwards: both define
    # the same scheme so the lengths agree; 100 random pairs
    count = 0
    trial = 0
    while count < 100:
        rng = rng_from(trial, "equiv-len")
        trial += 1
        cluster = random_chain(rng, rng.randint(2, 6))
        wc = WeightedCluster(cluster,
                             tuple(rng.randint(0, 3)
                                   for _ in range(cluster.r)))
        final = unload(wc).final
        # reverse a step: pick a point, push weight back onto its neighbours
        i = rng.randrange(cluster.r)
        prox = proximate_to(cluster, i)
        if not prox:
            continue
        m = list(final.mults)
        m[i] -= 1
        for j in prox:
            m[j] += 1
        perturbed = final.with_mults(m)
        if equivalent(perturbed, final):
            assert length(perturbed) == length(final)
            count += 1
