import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nearpoints.clusters import matches_stratum, weighted_chain
from nearpoints.local_algebra import colength, embed
from nearpoints.sampling import rational_count, rng_from
from nearpoints.specialization import (cusp_to_tacnode_chain,
                                       limit_dimension_experiment,
                                       limit_identities,
                                       limit_identities_sweep,
                                       one_more_point_lengths,
                                       semicontinuity_experiment,
                                       specialize_to_satellite)
from nearpoints.clusters import WeightedCluster, us_chain

ROOT = Path(__file__).resolve().parents[1]


def test_specialize_us_to_us1():
    # U_3 cluster: specializing the next free point extends the run
    wc = WeightedCluster(us_chain(5, 3), (1,) * 5)
    ec = embed(wc, rng=rng_from(1, "spec"), height=10)
    moved = specialize_to_satellite(ec, 3)
    assert matches_stratum(moved.weighted.cluster, 4)


def test_specialize_free_chain():
    wc = weighted_chain([None] * 3, [1, 1, 1])
    ec = embed(wc, rng=rng_from(2, "spec"), height=10)
    moved = specialize_to_satellite(ec, 2)
    assert moved.extras == (None, None, 0)
    assert moved.lambdas[2] is None


def test_specialize_rejects_satellite_and_root():
    wc = weighted_chain([None, None, 0], [2, 1, 1])
    ec = embed(wc, rng=rng_from(3, "spec"), height=10)
    with pytest.raises(ValueError):
        specialize_to_satellite(ec, 2)
    with pytest.raises(ValueError):
        specialize_to_satellite(ec, 1)


def test_specialize_never_increases_colength():
    for seed in range(15):
        rng = rng_from(seed, "semicont-point")
        r = rng.randint(3, 5)
        mults = tuple(rng.randint(0, 3) for _ in range(r))
        ec = embed(weighted_chain([None] * r, mults), rng=rng, height=20)
        i = rng.randrange(2, r)
        assert colength(specialize_to_satellite(ec, i)) <= colength(ec)


def test_semicontinuity_222():
    rep = semicontinuity_experiment((2, 2, 2), trials=6, seed=0)
    assert rep["ok"]
    assert {(r["free"], r["special"]) for r in rep["runs"]} == {(9, 8)}


def test_semicontinuity_simple_points():
    rep = semicontinuity_experiment((1, 1, 1), trials=4, seed=0)
    assert rep["ok"]
    assert all(r["free"] == r["special"] == 3 for r in rep["runs"])


def test_semicontinuity_single_point():
    # a satellite position needs three points: nothing to compare below that
    for mults in ((4,), (2, 2)):
        with pytest.raises(ValueError):
            semicontinuity_experiment(mults, trials=4, seed=0)


def test_limit_identities_examples():
    rep = limit_identities(2, 2, 2, 1)
    assert rep["detected"] and rep["ok"]
    assert rep["part3_consistent"] is True
    rep = limit_identities(2, 2, 3, 0)
    assert rep["detected"] and rep["ok"]
    assert rep["part3_consistent"] is False
    assert tuple(rep["part3_delta"]) == (4, 1, 1)


def test_limit_identities_mini_sweep():
    detected, bad = limit_identities_sweep(3, 6, 8, 8)
    assert detected > 0 and bad == []


def test_limit_dimension_examples():
    assert limit_dimension_experiment(2, 2, 1, 3, seed=3)["ok"]
    assert limit_dimension_experiment(2, 3, 2, 4, seed=4)["ok"]
    with pytest.raises(ValueError):
        limit_dimension_experiment(2, 1, 0, 3)
    with pytest.raises(ValueError):
        limit_dimension_experiment(1, 2, 1, 3)


def test_one_more_point_constant_length():
    wc = weighted_chain([None, None, 0], [3, 1, 1])
    ec = embed(wc, rng=rng_from(5, "ompl"), height=20)
    rep = one_more_point_lengths(ec, samples=6, seed=1)
    assert rep["constant"]
    assert rep["values"] == [colength(ec) + 1]


@pytest.mark.parametrize("samples", [0, -3])
def test_one_more_point_lengths_needs_a_sample(samples):
    ec = embed(weighted_chain([None], [2]))
    with pytest.raises(ValueError, match="samples must be at least 1"):
        one_more_point_lengths(ec, samples=samples)


ONE_MORE_AT_HEIGHT_1 = """
import sys
from nearpoints.clusters import satellite_targets, weighted_chain
from nearpoints.local_algebra import embed
from nearpoints.sampling import rng_from
from nearpoints.specialization import one_more_point_lengths
ec = embed(weighted_chain([None, None], [2, 1]), rng=rng_from(0, "ompl"),
           height=1)
# the satellite corner, then every one of -1, 0, 1 (and one more)
samples = len(satellite_targets(ec.extras, ec.r)) + 3
rep = one_more_point_lengths(ec, samples=samples + int(sys.argv[1]),
                             height=1)
print(len(rep["samples"]))
"""


@pytest.mark.parametrize("extra", [0, 1])
def test_one_more_point_lengths_runs_out_of_positions(extra):
    # at height 1 only three free positions exist: asking for one more is
    # a ValueError at once, not an endless redraw (hence the timeout)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", ONE_MORE_AT_HEIGHT_1,
                           str(extra)], capture_output=True, text=True,
                          env=env, timeout=20)
    if extra:
        assert proc.returncode == 1
        assert "ValueError" in proc.stderr
        assert "only 3 rationals" in proc.stderr
    else:
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["4"]


def test_rational_count_matches_the_draws():
    for height in range(1, 6):
        values = {Fraction(p, q) for p in range(-height, height + 1)
                  for q in range(1, height + 1)}
        assert rational_count(height) == len(values)
        assert rational_count(height, nonzero=True) == len(values) - 1


def test_dimension_inequality_in_length_constant_family():
    # simple points keep their length under specialization, and the
    # per-degree dimension inequality still has to hold
    from nearpoints.plane_systems import SchemeUnion, ell
    wc = weighted_chain([None] * 3, [1, 1, 1])
    free = embed(wc, rng=rng_from(11, "flat-ell"), height=20)
    special = specialize_to_satellite(free, 2)
    assert colength(free) == colength(special)
    for d in (1, 2, 3):
        assert ell(SchemeUnion((free,)), d) \
            <= ell(SchemeUnion((special,)), d)


def test_cusp_to_tacnode_chain():
    for n in (1, 2, 3, 4):
        rep = cusp_to_tacnode_chain(n, seed=n)
        assert rep["ok"], rep
        assert rep["specialized_delta"] == [2] * (n + 1) + [0, 0]
        assert rep["colength_special"] == rep["colength_tacnode"] \
            == 3 * (n + 1)
