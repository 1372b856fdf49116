"""JSON schemas for clusters, unions and curves.

Rationals travel as JSON integers or as exact ASCII strings "p" or "p/q"
(an optional minus sign, decimal digits, no spaces, underscores or plus
signs) in lowest terms with a positive denominator; anything else is
rejected.  A JSON object that repeats a key, or an integer too long for
Python to convert, is rejected when the file is read.  Cluster files look
like

    {"chains": [{"base": ["1", "-2/3"],      # embedded chains only
                 "shear": "0",                # optional
                 "points": [
                    {"kind": "root", "mult": 3},
                    {"kind": "free", "mult": 2, "lambda": "1/2"},
                    {"kind": "satellite", "mult": 1, "extra_prox": 0}]}]}

with extra_prox a 0-based index into the same chain.  A file whose chains
all carry bases (and lambdas on free points) parses as a SchemeUnion of
embedded clusters; without them it parses as a combinatorial
WeightedCluster.  Either way the proximity structure is checked as the file
is read: an extra_prox that no valid cluster allows is a SchemaError at
that point's path.  Curve files carry {"degree": d, "coefficients":
{"a,b": "p/q"}}, each key in canonical form (decimal exponents without
leading zeros or spaces), so that no two keys name the same monomial.
"""

import json
import re
from fractions import Fraction
from math import gcd

from .clusters import Cluster, WeightedCluster, validate
from .local_algebra import EmbeddedCluster
from .plane_systems import SchemeUnion
from .polyops import monomial_key
from .synthesis import PlaneCurve


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_MONOMIAL_KEY = re.compile(r"(0|[1-9][0-9]*),(0|[1-9][0-9]*)")


class SchemaError(ValueError):
    def __init__(self, path, message):
        self.path = path
        super().__init__("%s: %s" % (path, message))


# characters of a rejected value that an error message repeats
_ECHO_CHARS = 40


def _echo(value):
    """repr of a rejected value for an error message; a text (or the repr
    of a non-string) longer than _ECHO_CHARS is cut to its first characters
    and its length."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= _ECHO_CHARS:
        return repr(value)
    return "%r... (%d characters)" % (text[:_ECHO_CHARS], len(text))


def _is_int(v):
    """JSON integers only: bool is a subclass of int in Python but not a
    number in the schema."""
    return isinstance(v, int) and not isinstance(v, bool)


def _expect_object(data, path):
    if not isinstance(data, dict):
        raise SchemaError(path, "expected an object, got %s" % _echo(data))


def parse_fraction(text, path="value"):
    if _is_int(text):
        return Fraction(text)
    if not isinstance(text, str):
        raise SchemaError(path, "expected a rational string, got %s"
                          % _echo(text))
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise SchemaError(path, "malformed rational %s" % _echo(text))
    try:
        p = int(m[1])
        q = int(m[2] or 1)
    except ValueError:
        # more digits than int() converts
        raise SchemaError(path,
                          "malformed rational %s" % _echo(text)) from None
    if q == 0:
        raise SchemaError(path, "zero denominator in %s" % _echo(text))
    if gcd(abs(p), q) != 1:
        raise SchemaError(path, "rational %s is not in lowest terms"
                          % _echo(text))
    return Fraction(p, q)


def _parse_chain(obj, path):
    _expect_object(obj, path)
    pts = obj.get("points")
    if not isinstance(pts, list) or not pts:
        raise SchemaError(path + ".points", "expected a nonempty list")
    extras = []
    mults = []
    lambdas = []
    for k, p in enumerate(pts):
        pp = "%s.points[%d]" % (path, k)
        if not isinstance(p, dict):
            raise SchemaError(pp, "expected an object")
        kind = p.get("kind")
        if kind not in ("root", "free", "satellite"):
            raise SchemaError(pp + ".kind", "expected root|free|satellite")
        if (kind == "root") != (k == 0):
            raise SchemaError(pp + ".kind", "the first point and only the "
                              "first point is the root")
        if not _is_int(p.get("mult")):
            raise SchemaError(pp + ".mult", "expected an integer")
        mults.append(p["mult"])
        if kind == "satellite":
            t = p.get("extra_prox")
            if not _is_int(t):
                raise SchemaError(pp + ".extra_prox", "expected an integer")
            extras.append(t)
            if "lambda" in p:
                raise SchemaError(pp, "satellites carry no lambda")
            lambdas.append(None)
        else:
            extras.append(None)
            lam = p.get("lambda")
            lambdas.append(None if lam is None
                           else parse_fraction(lam, pp + ".lambda"))
    base = obj.get("base")
    if base is not None:
        if (not isinstance(base, list)) or len(base) != 2:
            raise SchemaError(path + ".base", "expected [x, y]")
        base = (parse_fraction(base[0], path + ".base[0]"),
                parse_fraction(base[1], path + ".base[1]"))
    shear = parse_fraction(obj.get("shear", "0"), path + ".shear")
    return extras, mults, lambdas, base, shear


def parse_cluster_data(data, path="$"):
    """Cluster JSON -> WeightedCluster (combinatorial) or SchemeUnion."""
    _expect_object(data, path)
    chains = data.get("chains")
    if not isinstance(chains, list) or not chains:
        raise SchemaError(path + ".chains", "expected a nonempty list")
    parsed = [_parse_chain(c, "%s.chains[%d]" % (path, idx))
              for idx, c in enumerate(chains)]
    cluster = Cluster(tuple(tuple(extras) for extras, _, _, _, _ in parsed))
    # a parsed chain has a root and points, so every violation is about the
    # extra proximity of a satellite
    problems = validate(cluster)
    if problems:
        c, k, message = problems[0]
        raise SchemaError("%s.chains[%d].points[%d].extra_prox"
                          % (path, c, k), message)
    if not any(base is not None for _, _, _, base, _ in parsed):
        return WeightedCluster(
            cluster, tuple(m for _, mults, _, _, _ in parsed for m in mults))
    comps = []
    bases = set()
    for idx, (extras, mults, lambdas, base, shear) in enumerate(parsed):
        p = "%s.chains[%d]" % (path, idx)
        if base is None:
            raise SchemaError(p + ".base", "all chains of a union need bases")
        if base in bases:
            raise SchemaError(p + ".base", "duplicate base point")
        bases.add(base)
        for k in range(1, len(extras)):
            if extras[k] is None and lambdas[k] is None:
                raise SchemaError("%s.points[%d].lambda" % (p, k),
                                  "free points of an embedded chain need a "
                                  "lambda")
        try:
            wc = WeightedCluster(Cluster((tuple(extras),)), tuple(mults))
            comps.append(EmbeddedCluster(wc, tuple(lambdas), base, shear))
        except ValueError as exc:
            raise SchemaError(p, str(exc)) from None
    try:
        return SchemeUnion(tuple(comps))
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


def parse_curve_data(data, path="$"):
    _expect_object(data, path)
    d = data.get("degree")
    if not _is_int(d) or d < 0:
        raise SchemaError(path + ".degree", "expected a nonnegative integer")
    co = data.get("coefficients")
    if not isinstance(co, dict):
        raise SchemaError(path + ".coefficients", "expected an object")
    coeffs = {}
    for key, val in co.items():
        kpath = "%s.coefficients[%s]" % (path, _echo(key))
        m = _MONOMIAL_KEY.fullmatch(key)
        if m is None:
            raise SchemaError(kpath, "key must be 'a,b' in canonical form")
        try:
            a, b = int(m[1]), int(m[2])
        except ValueError:
            # more digits than int() converts, so far beyond any degree
            a, b = d + 1, 0
        if a + b > d:
            raise SchemaError(kpath, "monomial outside degree %d" % d)
        coeffs[(a, b)] = parse_fraction(val, kpath)
    return PlaneCurve(d, coeffs)


def _unique_keys(pairs):
    """A JSON object as a dict; a repeated key is a ValueError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError("duplicate key %s" % _echo(key))
        obj[key] = value
    return obj


def parse_inputs(path):
    """Load a JSON file and dispatch on its shape: cluster/union files have
    "chains", curves have "degree"+"coefficients"."""
    with open(path) as fh:
        try:
            data = json.load(fh, object_pairs_hook=_unique_keys)
        except ValueError as exc:
            # malformed JSON, a repeated key, or an integer beyond the
            # interpreter's digit limit
            raise SchemaError("$", "not valid JSON: %s" % exc) from None
    _expect_object(data, "$")
    if "chains" in data:
        return parse_cluster_data(data)
    if "degree" in data and "coefficients" in data:
        return parse_curve_data(data)
    raise SchemaError("$", "unrecognized input shape")


def cluster_to_data(obj):
    """WeightedCluster | EmbeddedCluster | SchemeUnion -> JSON-ready dict."""
    if isinstance(obj, SchemeUnion):
        return {"chains": [cluster_to_data(ec)["chains"][0]
                           for ec in obj.components]}
    if isinstance(obj, EmbeddedCluster):
        chain = _chain_data(obj.weighted.cluster.chains[0],
                            obj.mults, obj.lambdas)
        chain["base"] = [str(obj.base[0]), str(obj.base[1])]
        if obj.shear:
            chain["shear"] = str(obj.shear)
        return {"chains": [chain]}
    wc = obj
    chains = []
    off = 0
    for ch in wc.cluster.chains:
        chains.append(_chain_data(ch, wc.mults[off:off + len(ch)],
                                  (None,) * len(ch)))
        off += len(ch)
    return {"chains": chains}


def _chain_data(extras, mults, lambdas):
    pts = []
    for k in range(len(extras)):
        if k == 0:
            p = {"kind": "root", "mult": mults[k]}
        elif extras[k] is None:
            p = {"kind": "free", "mult": mults[k]}
            if lambdas[k] is not None:
                p["lambda"] = str(lambdas[k])
        else:
            p = {"kind": "satellite", "mult": mults[k],
                 "extra_prox": extras[k]}
        pts.append(p)
    return {"points": pts}


def curve_to_data(curve):
    return {"degree": curve.d,
            "coefficients": {monomial_key(e): str(c)
                             for e, c in sorted(curve.coeffs.items())},
            "chart": "affine x,y"}


def jsonable(obj):
    """Recursively convert Fractions and tuples for json.dumps."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj
