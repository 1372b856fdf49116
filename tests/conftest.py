from pathlib import Path

from nearpoints.clusters import WeightedCluster, satellite_targets, single_chain

FIXTURES = Path(__file__).parent / "fixtures"
# chance that a random chain's point from the third on is a satellite
SATELLITE_PROB = 0.35


def fixture(name):
    return str(FIXTURES / name)


def random_chain(rng, npoints):
    """Random valid single-chain proximity structure."""
    extras = [None, None]
    for k in range(2, npoints):
        if rng.random() < SATELLITE_PROB:
            extras.append(rng.choice(satellite_targets(extras, k)))
        else:
            extras.append(None)
    return single_chain(extras[:npoints])


def random_weighted_chain(rng, max_points=6, mult_range=(0, 4)):
    npoints = rng.randint(1, max_points)
    cluster = random_chain(rng, npoints)
    mults = tuple(rng.randint(*mult_range) for _ in range(npoints))
    return WeightedCluster(cluster, mults)
