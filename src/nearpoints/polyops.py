"""Bivariate polynomials as {(a, b): coefficient} dictionaries.

Coefficients are exact (int or Fraction).  These are plain helpers; heavier
elimination work (resultants, factorization over Q) goes through sympy's
polynomial rings in `locus`.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from types import MappingProxyType


def p_clean(p):
    return {e: c for e, c in p.items() if c}

def p_mul(p, q):
    out = {}
    for (a, b), c in p.items():
        for (a2, b2), c2 in q.items():
            e = (a + a2, b + b2)
            out[e] = out.get(e, 0) + c * c2
    return p_clean(out)

def p_min_deg(p):
    """Order of vanishing at the origin (multiplicity); -1 for the zero
    polynomial."""
    return min((a + b for (a, b), c in p.items() if c), default=-1)

def p_form(p, d):
    """Homogeneous part of degree d."""
    return {e: c for e, c in p.items() if e[0] + e[1] == d}

def translated_monomials(x0, y0, shear, max_deg, bound=None):
    """Closed-form images of the plane monomials X^a Y^b, a + b <= max_deg,
    under the substitution X = x0 + x + shear*y, Y = y0 + y.

    x0, y0 and shear are written as integer numerators X0, Y0, S over their
    common denominator D, so that

        D^(a+b) X^a Y^b = (X0 + D x + S y)^a (Y0 + D y)^b,

    whose coefficient at x^j y^t is C(a, j) D^j times the coefficient at y^t
    of (X0 + S y)^(a-j) (Y0 + D y)^b.  Only local monomials of total degree
    < bound are enumerated (all of them when bound is None).  Returns
    (D, images) with images[(a, b)] the integer polynomial D^(a+b) X^a Y^b,
    zero coefficients dropped.
    """
    x0, y0, shear = Fraction(x0), Fraction(y0), Fraction(shear)
    D = 1
    for v in (x0, y0, shear):
        D = D * v.denominator // gcd(D, v.denominator)
    X0, Y0, S = (int(v * D) for v in (x0, y0, shear))
    if bound is None:
        bound = max_deg + 1
    xpow, ypow, spow, dpow = ([v ** k for k in range(max_deg + 1)]
                              for v in (X0, Y0, S, D))
    # (X0 + S y)^m and (Y0 + D y)^b as y-coefficient lists below degree bound
    ux = [[comb(m, k) * xpow[m - k] * spow[k]
           for k in range(min(m + 1, bound))] for m in range(max_deg + 1)]
    uy = [[comb(b, l) * ypow[b - l] * dpow[l]
           for l in range(min(b + 1, bound))] for b in range(max_deg + 1)]
    conv = {}
    images = {}
    for a, b in monomials(max_deg):
        img = {}
        for j in range(min(a, bound - 1) + 1):
            m = a - j
            prod = conv.get((m, b))
            if prod is None:
                p, q = ux[m], uy[b]
                prod = [sum(p[k] * q[t - k]
                            for k in range(max(0, t - len(q) + 1),
                                           min(t, len(p) - 1) + 1))
                        for t in range(min(len(p) + len(q) - 1, bound))]
                conv[(m, b)] = prod
            cj = comb(a, j) * dpow[j]
            for t in range(min(len(prod), bound - j)):
                if prod[t]:
                    img[(j, t)] = cj * prod[t]
        images[(a, b)] = img
    return D, images

def p_translate(p, x0, y0, shear=0):
    """Rewrite p in coordinates centered at (x0, y0) with an optional shear:
    substitutes X = x0 + x + shear*y, Y = y0 + y."""
    n = max((a + b for (a, b) in p), default=0)
    D, images = translated_monomials(x0, y0, shear, n)
    out = {}
    for (a, b), c in p.items():
        c = c * D ** (n - a - b)
        for e, v in images[(a, b)].items():
            out[e] = out.get(e, 0) + c * v
    if D > 1:
        out = {e: Fraction(v) / D ** n for e, v in out.items()}
    return p_clean(out)

def p_primitive(p):
    """Scale to coprime integer coefficients with positive leading value
    (graded-lex leading)."""
    if not p:
        return {}
    den = 1
    for c in p.values():
        f = Fraction(c)
        den = den * f.denominator // gcd(den, f.denominator)
    ints = {e: int(Fraction(c) * den) for e, c in p.items()}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    if g:
        ints = {e: v // g for e, v in ints.items()}
    lead = max(ints, key=lambda e: (e[0] + e[1], e[0]))
    if ints[lead] < 0:
        ints = {e: -v for e, v in ints.items()}
    return ints


@lru_cache(maxsize=None)
def monomials(max_deg):
    """Monomial order used throughout: graded, then by x-exponent descending;
    (0,0), (1,0), (0,1), (2,0), (1,1), (0,2), ...  One shared tuple per
    degree."""
    return tuple((a, d - a) for d in range(max_deg + 1)
                 for a in range(d, -1, -1))


@lru_cache(maxsize=None)
def monomial_key(e):
    """The text key "a,b" of the monomial x^a y^b in curve files and
    reports; one shared string per monomial, however many curves are kept."""
    return "%d,%d" % e


@lru_cache(maxsize=None)
def monomial_index(max_deg):
    """Monomial -> its column in `monomials(max_deg)`, as one shared
    read-only mapping per degree."""
    return MappingProxyType({e: i for i, e in enumerate(monomials(max_deg))})


def vector_of(p, max_deg):
    idx = monomial_index(max_deg)
    vec = [0] * len(idx)
    for e, c in p.items():
        if e[0] + e[1] > max_deg:
            raise ValueError("degree overflow: monomial %r beyond %d" % (e, max_deg))
        vec[idx[e]] = c
    return vec


def poly_of(vec, max_deg):
    mons = monomials(max_deg)
    return p_clean({mons[i]: c for i, c in enumerate(vec)})


# univariate helpers (lists of Fractions, index = degree)

def u_clean(u):
    while u and not u[-1]:
        u.pop()
    return u

def u_gcd(u, v):
    """Monic gcd over Q."""
    a = u_clean([Fraction(c) for c in u])
    b = u_clean([Fraction(c) for c in v])
    while b:
        a, b = b, u_mod(a, b)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a

def u_mod(a, b):
    a = [Fraction(c) for c in a]
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        f = a[-1] / lb
        shift = len(a) - 1 - db
        for i in range(db + 1):
            a[shift + i] -= f * b[i]
        a = u_clean(a)
        if not a:
            break
    return a

def u_diff(u):
    return [i * c for i, c in enumerate(u)][1:]

def u_divide_out(u, root):
    """(k, q): the multiplicity k of `root` as a zero of the univariate
    polynomial u, and the quotient q = u / (t - root)^k."""
    u = u_clean([Fraction(c) for c in u])
    k = 0
    while u:
        # synthetic division by (t - root), highest degree first
        res = []
        acc = Fraction(0)
        for c in reversed(u):
            acc = acc * root + c
            res.append(acc)
        if res[-1]:
            break
        u = u_clean(list(reversed(res[:-1])))
        k += 1
    return k, u

def u_is_squarefree(u):
    g = u_gcd(u, u_diff(list(u)))
    return len(g) <= 1
