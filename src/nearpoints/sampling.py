"""Deterministic seeded randomness for experiments and general position.

Every random draw in the library goes through an rng derived from a user
seed and a string label via sha256, so runs are reproducible across
processes and platforms (no dependence on hash randomization).
"""

import random
from fractions import Fraction
from math import gcd

DEFAULT_HEIGHT = 100


def rng_from(seed, *labels):
    # imported on the first draw: hashlib loads OpenSSL, about 4 ms of a
    # cold start that never draws
    import hashlib
    digest = hashlib.sha256(
        ("nearpoints:%d:%s" % (int(seed), ":".join(map(str, labels)))).encode()
    ).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def rand_fraction(rng, height=DEFAULT_HEIGHT, nonzero=False, forbid=()):
    """Uniform-ish rational of height <= height (numerator and denominator
    bounded by height), avoiding the values in forbid."""
    while True:
        v = Fraction(rng.randint(-height, height), rng.randint(1, height))
        if nonzero and v == 0:
            continue
        if v in forbid:
            continue
        return v


def rational_count(height, nonzero=False):
    """How many distinct values `rand_fraction` can draw: 0 and +-p/q in
    lowest terms with p, q in [1, height]; 0 is left out when nonzero."""
    coprime = sum(gcd(p, q) == 1 for p in range(1, height + 1)
                  for q in range(1, height + 1))
    return 1 + 2 * coprime - bool(nonzero)


def distinct_points(rng, count, height=DEFAULT_HEIGHT):
    """Distinct integer base points (integers are height-bounded rationals;
    integral bases keep downstream matrices integral).  Only
    (2*height+1)^2 exist; asking for more is a ValueError."""
    if count > (2 * height + 1) ** 2:
        raise ValueError("%d distinct points asked for, only %d have height "
                         "<= %d" % (count, (2 * height + 1) ** 2, height))
    seen = set()
    out = []
    while len(out) < count:
        pt = (Fraction(rng.randint(-height, height)),
              Fraction(rng.randint(-height, height)))
        if pt in seen:
            continue
        seen.add(pt)
        out.append(pt)
    return out
