"""Specialization experiments: moving free points into satellite positions.

These operations realize the degenerations that drive the dimension
arguments: a free point of an embedded cluster slides to a corner of the
exceptional configuration, lengths drop or stay put, and dimensions of
linear systems move the right way.  Every experiment is seeded and returns a
plain report dictionary.
"""

from .clusters import (WeightedCluster, satellite_targets, single_chain,
                       us_chain)
from .local_algebra import EmbeddedCluster, colength, embed
from .plane_systems import stratum_ell, us_consistent, _head_system
from .sampling import DEFAULT_HEIGHT, rand_fraction, rational_count, rng_from
from .synthesis import cusp_scheme, tacnode_scheme
from .unloading import length, unload


def specialize_to_satellite(ec, i, target=None):
    """Move free point i of an embedded cluster to a satellite position of
    its step.

    The available positions are the corner with the previous exceptional
    divisor (extra proximity to i-2) and, when point i-1 is itself a
    satellite, the corner with the older divisor (extra proximity to the
    same target).  By default the corner the predecessor's own satellite
    run points at is preferred, so specializing the first free point after
    a satellite run extends the run.
    """
    extras = list(ec.extras)
    if i <= 1 or i >= ec.r:
        raise ValueError("point %d has no satellite position" % i)
    if extras[i] is not None:
        raise ValueError("point %d is already a satellite" % i)
    if target is None:
        target = extras[i - 1] if extras[i - 1] is not None else i - 2
    if target not in satellite_targets(extras, i):
        raise ValueError("no satellite position over point %d at step %d"
                         % (target, i))
    extras[i] = target
    lams = list(ec.lambdas)
    lams[i] = None
    wc = WeightedCluster(single_chain(extras), ec.mults)
    return EmbeddedCluster(wc, tuple(lams), ec.base, ec.shear)


def semicontinuity_experiment(mults, trials=20, seed=0, height=DEFAULT_HEIGHT):
    """Sample free embedded clusters and one satellite specialization each;
    the specialized scheme must never be longer."""
    if trials < 1:
        raise ValueError("trials must be at least 1, got %d" % trials)
    mults = tuple(mults)
    r = len(mults)
    if r < 3:
        raise ValueError("no satellite position on %d points: need at "
                         "least 3" % r)
    runs = []
    ok = True
    for t in range(trials):
        rng = rng_from(seed, "semicontinuity", t, mults)
        wc = WeightedCluster(single_chain([None] * r), mults)
        free = embed(wc, rng=rng, height=height)
        i = rng.randrange(2, r)
        special = specialize_to_satellite(free, i)
        cf = colength(free)
        cs = colength(special)
        runs.append({"trial": t, "point": i, "free": cf, "special": cs})
        ok = ok and cs <= cf
    return {"experiment": "semicontinuity", "mults": list(mults),
            "trials": trials, "ok": ok, "runs": runs}


def _us_lengths(s, m, i, j):
    """Scheme lengths of (m, 2^i, 1^j) on the U_s and U_{s+1} patterns."""
    mults = _head_system(m, i, j)
    if not mults:
        return 0, 0
    ls = length(WeightedCluster(us_chain(len(mults), s), mults))
    ls1 = length(WeightedCluster(us_chain(len(mults), s + 1), mults))
    return ls, ls1


def limit_identities(s, m, i, j):
    """Exact checks of the specialization identities for one (s, m, i, j).

    detected: the system is consistent in U_s and drops length into U_{s+1}
    (the operational reading of "the specialization is not flat").  When
    detected, the head must be 2s-2 with at least s double points; the
    specialized system (m+1, 2^{i-s+1}, 1^{j+s-2}) is consistent in U_{s+1}
    exactly when i <= 2s-2 and otherwise unloads to
    (m+2, 2^{i-2s+1}, 1^{j+2s-2}).
    """
    report = {"s": s, "m": m, "i": i, "j": j}
    consistent = us_consistent(s, m, i, j)
    report["consistent_in_Us"] = consistent
    if not consistent:
        report["detected"] = False
        return report
    ls, ls1 = _us_lengths(s, m, i, j)
    detected = ls1 < ls
    report["lengths"] = [ls, ls1]
    report["detected"] = detected
    if not detected:
        return report
    # part 1: the boundary head and enough doubles
    report["part1_ok"] = (m == 2 * s - 2 and i >= s)
    if not report["part1_ok"]:
        return report
    # part 3: consistency of the specialized system in U_{s+1}
    i1, j1 = i - s + 1, j + s - 2
    spec_consistent = us_consistent(s + 1, m + 1, i1, j1)
    report["part3_consistent"] = spec_consistent
    report["part3_expected_consistent"] = (i <= 2 * s - 2)
    part3_ok = spec_consistent == (i <= 2 * s - 2)
    if not spec_consistent:
        mults = _head_system(m + 1, i1, j1)
        final = unload(WeightedCluster(us_chain(len(mults), s + 1),
                                       mults)).final
        stripped = tuple(v for v in final.mults if v != 0)
        want = tuple(v for v in _head_system(m + 2, i - 2 * s + 1,
                                             j + 2 * s - 2) if v != 0)
        report["part3_delta"] = list(final.mults)
        part3_ok = part3_ok and stripped == want
    report["part3_ok"] = part3_ok
    # the two length identities behind part 1, as exact integer identities
    lhs = (m + 1) * (m + 2) // 2 + 2 * i + j - s
    rhs = m * (m + 1) // 2 + 3 * i + j
    report["identity_free_head"] = (m != s + i - 1) or (lhs == rhs)
    lhs2 = (m + 1) * (m + 2) // 2 + 3 * (i - s) + j + s
    report["identity_odd_head"] = (m != 2 * s - 1) or (lhs2 == rhs)
    report["ok"] = (report["part1_ok"] and part3_ok
                    and report["identity_free_head"]
                    and report["identity_odd_head"])
    return report


def limit_identities_sweep(s_max=5, m_max=10, i_max=12, j_max=12):
    """Sweep the identity checks over s in [2, s_max] and m, i, j from 0 up
    to their bounds; returns (cases_detected, counterexamples).  A sweep
    that detects no case, an empty range included, is a ValueError."""
    detected = 0
    bad = []
    for s in range(2, s_max + 1):
        for m in range(0, m_max + 1):
            for i in range(0, i_max + 1):
                for j in range(0, j_max + 1):
                    rep = limit_identities(s, m, i, j)
                    if rep.get("detected"):
                        detected += 1
                        if not rep.get("ok", False):
                            bad.append(rep)
    if not detected:
        raise ValueError("empty sweep: no case detected for s <= %d, m <= %d, "
                         "i <= %d, j <= %d" % (s_max, m_max, i_max, j_max))
    return detected, bad


def limit_dimension_experiment(s, i, j, d, seed=0, height=DEFAULT_HEIGHT):
    """Dimension inequality under specialization: with head m = 2s-2, the
    system of degree-d curves through a generic U_s scheme is at most as
    large as through the specialized generic U_{s+1} scheme."""
    if s < 2:
        raise ValueError("need s >= 2, got %d" % s)
    m = 2 * s - 2
    if i < s:
        raise ValueError("need i >= s")
    if i + j < s * s - 3 * s + 1:
        raise ValueError("need i + j >= s^2 - 3s + 1")
    if not us_consistent(s, m, i, j):
        raise ValueError("system not consistent in U_%d" % s)
    e1 = stratum_ell(s, _head_system(m, i, j), d, seed, height)
    e2 = stratum_ell(s + 1, _head_system(m + 1, i - s + 1, j + s - 2), d,
                     seed + 1, height)
    return {"experiment": "limit-dimension", "s": s, "m": m, "i": i, "j": j,
            "degree": d, "ell_Us": e1, "ell_Us1": e2, "ok": e1 <= e2}


def one_more_point_lengths(ec, samples=20, seed=0, height=DEFAULT_HEIGHT):
    """Lengths of the schemes obtained by adding one simple point on the
    last exceptional divisor, across sampled positions including the
    satellite corner(s); for a consistent base cluster they all agree.

    The free positions are distinct rationals of height <= height; asking
    for more than exist is a ValueError."""
    if samples < 1:
        raise ValueError("samples must be at least 1, got %d" % samples)
    rng = rng_from(seed, "one-more-point", ec.mults)
    targets = satellite_targets(ec.extras, ec.r)
    need = max(0, samples - len(targets))
    nonzero = ec.extras[ec.r - 1] is not None
    # at least 4*height - 2 values exist (+-p and +-1/p), so the exact count
    # is taken only beyond that
    if need > 4 * height - 2 and need > rational_count(height, nonzero):
        raise ValueError("%d free positions asked for, only %d rationals "
                         "have height <= %d"
                         % (need, rational_count(height, nonzero), height))
    out = []
    for tgt in targets:
        ext = ec.extend_satellite(tgt)
        out.append({"position": "satellite->%d" % tgt,
                    "colength": colength(ext)})
    seen = set()
    while need > 0:
        lam = rand_fraction(rng, height, forbid=seen, nonzero=nonzero)
        seen.add(lam)
        ext = ec.extend_free(lam)
        out.append({"position": str(lam), "colength": colength(ext)})
        need -= 1
    values = sorted({entry["colength"] for entry in out})
    return {"experiment": "one-more-point", "base_mults": list(ec.mults),
            "samples": out, "constant": len(values) == 1,
            "values": values}


def cusp_to_tacnode_chain(n, seed=0, height=DEFAULT_HEIGHT):
    """The end-to-end degeneration of an extended cusp scheme: specialize
    the extra point to the satellite over the previous free point, unload,
    and compare with the tacnode scheme of the next order."""
    ec = cusp_scheme(n, seed=seed, height=height)
    special = specialize_to_satellite(ec, ec.r - 1, target=n)
    tr = unload(special.weighted)
    stripped = tuple(v for v in tr.final.mults if v != 0)
    tac = (2,) * (n + 1)
    col_special = colength(special)
    col_tac = colength(tacnode_scheme(n + 1, seed=seed + 1, height=height))
    return {"experiment": "cusp-to-tacnode", "n": n,
            "specialized_delta": list(tr.final.mults),
            "tacnode_system": list(tac),
            "systems_agree": stripped == tac,
            "colength_special": col_special,
            "colength_tacnode": col_tac,
            "ok": stripped == tac and col_special == col_tac}
