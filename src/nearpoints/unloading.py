"""The unloading procedure and the invariants it computes.

A weighted cluster that violates a proximity inequality is repaired by
transferring multiplicity onto the offending point from the points proximate
to it.  Finitely many such steps reach the unique consistent system defining
the same cluster scheme; the scheme's length is then read off the consistent
representative.
"""

from .clusters import (WeightedCluster, check_valid, excesses, proximate_to,
                       record)

# Unloading terminates on every genuine multiplicity system; the cap only
# guards against bugs and pathological negative inputs.
_MAX_STEPS = 100000


@record
class UnloadingTrace:
    """Record of one unloading run: (index, amount, before, after) per step
    plus the final consistent weighted cluster."""

    steps: tuple
    final: WeightedCluster


def unload_step(wc, i):
    """One unloading step at point i (0-based global index).

    Requires excess rho_i < 0.  With q = #{points proximate to i}, the
    transferred amount is n = ceil(-rho_i / (1 + q)), the minimal integer
    making the new excess at i nonnegative; m_i grows by n and every point
    proximate to i loses n.
    """
    rho = excesses(wc)[i]
    if rho >= 0:
        raise ValueError("no unloading needed at point %d (excess %d)" % (i, rho))
    prox = proximate_to(wc.cluster, i)
    q = len(prox)
    n = (-rho + q) // (1 + q)  # ceil(-rho / (1+q))
    m = list(wc.mults)
    m[i] += n
    for j in prox:
        m[j] -= n
    return wc.with_mults(m), n


def unload(wc):
    """Unload to the equivalent consistent system.

    Deterministic: always the smallest index with negative excess.  The final
    system does not depend on the order of steps.
    """
    check_valid(wc.cluster)
    current = wc
    steps = []
    for _ in range(_MAX_STEPS):
        rho = excesses(current)
        bad = next((i for i, v in enumerate(rho) if v < 0), None)
        if bad is None:
            return UnloadingTrace(tuple(steps), current)
        before = current.mults
        current, n = unload_step(current, bad)
        steps.append((bad, n, before, current.mults))
    raise RuntimeError("unloading did not terminate within %d steps" % _MAX_STEPS)


def length(wc):
    """Length of the cluster scheme: sum m_i(m_i+1)/2 over the consistent
    representative delta(m).  Raises if the consistent system has a negative
    multiplicity (meaningless input)."""
    final = unload(wc).final
    if any(m < 0 for m in final.mults):
        raise ValueError("consistent normal form has negative multiplicities: %r"
                         % (final.mults,))
    return sum(m * (m + 1) // 2 for m in final.mults)


def _strip_trailing_zeros(wc):
    """Per chain, drop trailing points of multiplicity zero."""
    kept_chains = []
    kept_mults = []
    off = 0
    for ch in wc.cluster.chains:
        n = len(ch)
        while n > 0 and wc.mults[off + n - 1] == 0:
            n -= 1
        kept_chains.append(ch[:n])
        kept_mults.extend(wc.mults[off:off + n])
        off += len(ch)
    return tuple(kept_chains), tuple(kept_mults)


def equivalent(wc1, wc2):
    """Whether two systems on the same cluster define the same scheme:
    their consistent representatives agree up to trailing zeros."""
    if wc1.cluster != wc2.cluster:
        raise ValueError("equivalence is defined on a common cluster")
    f1 = _strip_trailing_zeros(unload(wc1).final)
    f2 = _strip_trailing_zeros(unload(wc2).final)
    return f1 == f2
