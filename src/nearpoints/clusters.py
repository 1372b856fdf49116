"""Combinatorics of clusters of infinitely near points.

A cluster is a forest of unibranched chains.  Within a chain, point 0 is a
proper point of the plane and every later point lies on the exceptional
divisor of blowing up its predecessor.  Point k is always proximate to point
k-1; a point may in addition be proximate to one earlier point t (stored as
``extra[k] = t``, chain-local, 0-based), in which case it is a satellite.
Points proximate to a single point are free.

All indices in this module are 0-based.
"""

from dataclasses import dataclass
import re


@dataclass(frozen=True)
class Cluster:
    """Proximity structure of a forest of unibranched chains.

    chains[c][k] is the extra proximity target of point k of chain c
    (0-based within the chain) or None.  Roots and free points carry None.
    """

    chains: tuple

    def __post_init__(self):
        object.__setattr__(self, "chains",
                           tuple(tuple(ch) for ch in self.chains))

    @property
    def r(self):
        return sum(len(ch) for ch in self.chains)

    @property
    def root_count(self):
        return len(self.chains)

    def proximities(self):
        """All proximity pairs (i, j) with point i proximate to point j,
        in global (concatenated) 0-based indexing."""
        pairs = []
        off = 0
        for ch in self.chains:
            for k, extra in enumerate(ch):
                if k > 0:
                    pairs.append((off + k, off + k - 1))
                if extra is not None:
                    pairs.append((off + k, off + extra))
            off += len(ch)
        return pairs


def single_chain(extras):
    """Cluster with one chain; extras is the per-point extra-target list."""
    return Cluster((tuple(extras),))


def satellite_targets(extras, k):
    """Extra-proximity targets open to a satellite at position k >= 1 of a
    chain whose earlier points carry extras[:k]: the corner with the
    previous exceptional divisor (k-2, from k = 2 on) and, when point k-1 is
    itself a satellite, the corner with the older divisor it lies on
    (validity puts that target at or below k-3)."""
    targets = [k - 2] if k >= 2 else []
    if extras[k - 1] is not None:
        targets.append(extras[k - 1])
    return targets


def free_chain(npoints):
    """Unibranched chain with no satellites."""
    return single_chain((None,) * npoints)


def us_chain(npoints, s):
    """Chain in the open stratum U_s, with the classical 1-based labels:
    every point is proximate to its predecessor, point i is also proximate
    to the root point 1 for s >= i > 1, and there are no other proximities.
    In the 0-based storage this puts extra[k] = 0 for k = 2 .. s-1.  U_1
    and U_2 are the free chain; s < 1 names no stratum and is a
    ValueError."""
    if s < 1:
        raise ValueError("U_s needs s >= 1, got %d" % s)
    extras = [None] * npoints
    for k in range(2, min(s, npoints)):
        extras[k] = 0
    return single_chain(extras)


@dataclass(frozen=True)
class WeightedCluster:
    """A cluster with one integer multiplicity per point (global order).

    Multiplicities are signed so that intermediate unloading states and
    residual systems stay representable.
    """

    cluster: Cluster
    mults: tuple

    def __post_init__(self):
        object.__setattr__(self, "mults", tuple(int(m) for m in self.mults))
        if len(self.mults) != self.cluster.r:
            raise ValueError("multiplicity system length %d != %d points"
                             % (len(self.mults), self.cluster.r))

    @property
    def r(self):
        return self.cluster.r

    def with_mults(self, mults):
        return WeightedCluster(self.cluster, tuple(mults))


def weighted_chain(extras, mults):
    return WeightedCluster(single_chain(extras), tuple(mults))


def system(m_head, twos, ones):
    """Multiplicity tuple (m, 2^twos, 1^ones); m_head=None drops the head."""
    out = [] if m_head is None else [m_head]
    out += [2] * twos + [1] * ones
    return tuple(out)


def validate(cluster):
    """Check the proximity invariants; returns a list of violations.

    An empty list means the cluster is valid.  Each violation is a
    (chain, point, message) triple.
    """
    problems = []
    for c, ch in enumerate(cluster.chains):
        if len(ch) == 0:
            problems.append((c, 0, "empty chain"))
            continue
        if ch[0] is not None:
            problems.append((c, 0, "root point cannot carry an extra proximity"))
        if len(ch) > 1 and ch[1] is not None:
            problems.append((c, 1, "second point is proximate only to the root"))
        for k in range(2, len(ch)):
            t = ch[k]
            if t is None:
                continue
            if not (0 <= t < k - 1):
                problems.append((c, k, "extra target %r out of range" % (t,)))
                continue
            # the satellite sits on the strict transform of E_t, so the
            # previous point must be proximate to t as well, unless t = k-2
            if t != k - 2 and ch[k - 1] != t:
                problems.append((c, k,
                                 "point %d proximate to %d but %d is not" %
                                 (k, t, k - 1)))
        # proximity runs must be contiguous: the satellites of point t are
        # exactly points t+2 .. t+1+len(run)
        targets = {}
        for k in range(len(ch)):
            if ch[k] is not None:
                targets.setdefault(ch[k], []).append(k)
        for t, ks in targets.items():
            want = list(range(t + 2, t + 2 + len(ks)))
            if ks != want:
                problems.append((c, ks[0],
                                 "satellites of %d are %r, expected a run %r" %
                                 (t, ks, want)))
    return problems


def check_valid(cluster):
    problems = validate(cluster)
    if problems:
        raise ValueError("invalid cluster: %s" % (problems,))


def proximity_matrix(cluster):
    """Lower-triangular integer matrix P with unit diagonal and
    P[i][j] = -1 iff point i is proximate to point j (global indices)."""
    check_valid(cluster)
    r = cluster.r
    P = [[0] * r for _ in range(r)]
    for i in range(r):
        P[i][i] = 1
    for i, j in cluster.proximities():
        P[i][j] = -1
    return P


def excesses(wc):
    """Slack of the proximity inequality at each point:
    rho_i = m_i - sum of multiplicities of the points proximate to i.
    Equals transpose(P) @ m."""
    rho = list(wc.mults)
    for i, j in wc.cluster.proximities():
        rho[j] -= wc.mults[i]
    return rho


def is_consistent(wc):
    return min(excesses(wc), default=0) >= 0


def proximate_to(cluster, j):
    """Global indices of the points proximate to point j."""
    return [a for a, b in cluster.proximities() if b == j]


def matches_stratum(cluster, s):
    """True iff a single-chain cluster has exactly the proximities of the
    open stratum U_s, those of `us_chain` of its length; s < 1 is a
    ValueError there.
    """
    if cluster.root_count != 1:
        raise ValueError("stratum membership is defined for single chains")
    return cluster == us_chain(cluster.r, s)


def render_enriques(wc, fmt="ascii"):
    """Deterministic text rendering of the weighted Enriques diagram.

    ascii: one line per chain, points joined by '--', satellites annotated
    with their extra proximity target.  dot: a digraph with solid chain
    edges and dashed satellite edges.
    """
    if fmt == "ascii":
        lines = []
        off = 0
        for c, ch in enumerate(wc.cluster.chains):
            parts = []
            for k in range(len(ch)):
                m = wc.mults[off + k]
                if k == 0:
                    parts.append("p%d[%d]" % (k, m))
                elif ch[k] is None:
                    parts.append("p%d[%d,free]" % (k, m))
                else:
                    parts.append("p%d[%d,sat->%d]" % (k, m, ch[k]))
            lines.append("chain %d: %s" % (c, " -- ".join(parts)))
            off += len(ch)
        return "\n".join(lines) + "\n"
    if fmt == "dot":
        out = ["digraph enriques {"]
        off = 0
        for c, ch in enumerate(wc.cluster.chains):
            for k in range(len(ch)):
                m = wc.mults[off + k]
                kind = ("root" if k == 0 else
                        "free" if ch[k] is None else "satellite")
                out.append('  n%d_%d [label="%d", kind="%s"];' % (c, k, m, kind))
            for k in range(1, len(ch)):
                out.append("  n%d_%d -> n%d_%d;" % (c, k - 1, c, k))
            for k in range(len(ch)):
                if ch[k] is not None:
                    out.append("  n%d_%d -> n%d_%d [style=dashed];"
                               % (c, ch[k], c, k))
            off += len(ch)
        out.append("}")
        return "\n".join(out) + "\n"
    raise ValueError("unknown format %r" % (fmt,))


_ASCII_POINT = re.compile(r"p(\d+)\[(-?\d+)(?:,(free|sat->(\d+)))?\]$")


def parse_enriques(text):
    """Inverse of render_enriques(..., 'ascii')."""
    chains = []
    mults = []
    for line in text.strip().splitlines():
        head, _, rest = line.partition(":")
        if not head.startswith("chain"):
            raise ValueError("bad chain line %r" % (line,))
        extras = []
        for tok in rest.strip().split(" -- "):
            m = _ASCII_POINT.match(tok.strip())
            if not m:
                raise ValueError("bad point token %r" % (tok,))
            mults.append(int(m.group(2)))
            if m.group(4) is not None:
                extras.append(int(m.group(4)))
            else:
                extras.append(None)
        chains.append(tuple(extras))
    return WeightedCluster(Cluster(tuple(chains)), tuple(mults))
