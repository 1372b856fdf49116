"""Command-line interface.

One executable with subcommands; every run prints one JSON report to stdout
with a fixed field order (tool, version, command, config, results, verdict,
timings) so that identical configurations produce byte-identical reports
apart from the timings block.  Exit status: 0 when the verdict is ok, 1 when
it is fail, 2 on any error (bad input, violated precondition, unreadable
file, an option the command does not read).  There is no global option:
each command, and each kind of `experiment`, declares only the options it
reads, and `config` echoes those.

Each command imports the modules it runs, inside its branch of `run`, so a
cold start pays only for those.  `length`, `unload` and `render` load no
package module beyond `cli`, `clusters`, `io` and `unloading`; `ell` and
`maxrank` add `plane_systems` and what it imports (`linalg`,
`local_algebra`, `polyops`, `sampling`), and `ell` is `max_rank` at its
one degree; `verify` adds `synthesis` and `locus`.  No command imports
sympy: `synthesize` and `verify` certify a curve by one chain,
`synthesis.certify` (the sharpness audit, then the Tjurina count).
"""

import argparse
import json
import sys
import time

from . import __version__
from .clusters import Cluster, WeightedCluster, render_enriques
from .io import SchemaError, cluster_to_data, jsonable, parse_inputs
from .unloading import length, unload


def condition_matrix(Z, degree):
    """plane_systems.condition_matrix, imported on first call.  Nothing in
    the package calls it: it stays bound only because perfbench/spans.py
    wraps ("nearpoints.cli", "condition_matrix") by name."""
    from .plane_systems import condition_matrix
    return condition_matrix(Z, degree)


def _int_list(text):
    """Comma-separated integers; an empty value is the empty list, and an
    empty item is a ValueError, hence a usage error."""
    return [int(t) for t in text.split(",")] if text.strip() else []


class _UsageError(Exception):
    """A command line the parser rejects; command is the subcommand being
    parsed, None before one was read."""

    def __init__(self, command, message):
        super().__init__(message)
        self.command = command


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error instead of printing usage and exiting, so
    that main reports it like any other error; subparsers inherit the
    class, and their prog is "nearpoints <command> [<kind>]".  An option is
    read only under its full name: as a prefix, `--s` of limit-dimension
    would be taken for `--s-max` by limit-identities."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError((self.prog.split()[1:] or [None])[0], message)


def build_parser():
    ap = _Parser(prog="nearpoints")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("unload", help="consistent normal form of a cluster")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--trace", action="store_true")

    p = sub.add_parser("length", help="length of a cluster scheme")
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("ell", help="dimension of the system of curves")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("maxrank", help="maximal-rank audit of a union")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--all-degrees-up-to", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("catalog", help="measure the superabundant systems")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--height", type=int, default=None)

    p = sub.add_parser("synthesize", help="curve with prescribed tacnodes "
                                          "and cusps, certified")
    p.add_argument("--tacnodes", type=_int_list, default=[])
    p.add_argument("--cusps", type=_int_list, default=[])
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--curve-out", help="write the curve JSON here")

    p = sub.add_parser("verify", help="sharpness and locus certificates "
                                      "of a curve against a union")
    p.add_argument("--curve", required=True)
    p.add_argument("--union", required=True)

    p = sub.add_parser("experiment", help="seeded specialization experiments")
    kinds = p.add_subparsers(dest="kind", required=True)
    k = kinds.add_parser("semicontinuity")
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("--trials", type=int, default=20)
    k.add_argument("--mults", type=_int_list, default=[2, 2, 2])
    k.add_argument("--height", type=int, default=None)
    k = kinds.add_parser("limit-identities")
    k.add_argument("--s-max", type=int, default=5)
    k.add_argument("--m-max", type=int, default=10)
    k.add_argument("--i-max", type=int, default=12)
    k.add_argument("--j-max", type=int, default=12)
    k = kinds.add_parser("limit-dimension")
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("--s", type=int, default=2)
    k.add_argument("--i", dest="ii", type=int, default=2)
    k.add_argument("--j", dest="jj", type=int, default=1)
    k.add_argument("--degree", type=int, default=3)
    k.add_argument("--height", type=int, default=None)

    p = sub.add_parser("render", help="Enriques diagram of a cluster")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--style", choices=("ascii", "dot"), default="ascii")
    return ap


def _as_weighted(obj):
    """The weighted cluster of a cluster file; an embedded union's chains
    are merged in order, dropping their bases and lambdas."""
    if isinstance(obj, WeightedCluster):
        return obj
    from .plane_systems import SchemeUnion
    if isinstance(obj, SchemeUnion):
        chains = tuple(ec.weighted.cluster.chains[0] for ec in obj.components)
        mults = tuple(m for ec in obj.components for m in ec.mults)
        return WeightedCluster(Cluster(chains), mults)
    raise SchemaError("$", "expected a cluster file")


def _as_union(obj):
    from .plane_systems import SchemeUnion
    if isinstance(obj, SchemeUnion):
        return obj
    raise SchemaError("$", "expected an embedded union (chains need bases "
                      "and lambdas)")


def _height(args):
    """--height, or the library's default draw height when it is unset."""
    if args.height is None:
        from .sampling import DEFAULT_HEIGHT
        return DEFAULT_HEIGHT
    if args.height < 1:
        raise ValueError("--height must be at least 1, got %d" % args.height)
    return args.height


def run(args):
    """Dispatch one parsed command line; returns (results, verdict)."""
    cmd = args.command
    if cmd == "unload":
        wc = _as_weighted(parse_inputs(args.infile))
        tr = unload(wc)
        results = {"delta": list(tr.final.mults),
                   "consistent": cluster_to_data(tr.final)}
        if args.trace:
            results["steps"] = [{"point": i, "amount": n,
                                 "before": list(b), "after": list(a)}
                                for i, n, b, a in tr.steps]
        return results, "ok"
    if cmd == "length":
        wc = _as_weighted(parse_inputs(args.infile))
        return {"length": length(wc),
                "delta": list(unload(wc).final.mults)}, "ok"
    if cmd == "ell":
        from .plane_systems import max_rank
        d = args.degree
        row = max_rank(_as_union(parse_inputs(args.infile)), [d])["detail"][0]
        actual = row["actual"]
        return {"degree": d, "rank": (d + 1) * (d + 2) // 2 - 1 - actual,
                "expected": row["expected"], "actual": actual,
                "verdict": "ok", "seed": None}, "ok"
    if cmd == "maxrank":
        from .plane_systems import max_rank
        Z = _as_union(parse_inputs(args.infile))
        degrees = None
        if args.all_degrees_up_to is not None:
            degrees = range(args.all_degrees_up_to + 1)
        rep = max_rank(Z, degrees)
        rep["seed"] = args.seed
        return rep, "ok" if rep["ok"] else "fail"
    if cmd == "catalog":
        height = _height(args)
        from .plane_systems import exception_catalog
        entries = exception_catalog(seed=args.seed, height=height)
        ok = all(set(e["failures"]) == {e["expected_degree"]}
                 for e in entries)
        return {"entries": [{k: v for k, v in e.items() if k != "report"}
                            for e in entries],
                "seed": args.seed}, "ok" if ok else "fail"
    if cmd == "synthesize":
        height = _height(args)
        from .synthesis import SingularitySpec, existence_driver
        spec = SingularitySpec(tuple(args.tacnodes), tuple(args.cusps))
        rep = existence_driver(spec, seed=args.seed, height=height,
                                degree=args.degree)
        if args.curve_out:
            with open(args.curve_out, "w") as fh:
                json.dump(rep["curve"] | {"chart": "affine x,y"}, fh,
                          indent=2)
                fh.write("\n")
        return rep, rep["verdict"]
    if cmd == "verify":
        from .synthesis import PlaneCurve, certify
        curve = parse_inputs(args.curve)
        union = parse_inputs(args.union)
        if not isinstance(curve, PlaneCurve):
            raise SchemaError("$", "--curve is not a curve file")
        certs, locus_ok = certify(curve, _as_union(union))
        results = {"certificates": [c.to_data() for c in certs]}
        if locus_ok is False:
            results["locus_ok"] = False
        return results, "ok" if locus_ok else "fail"
    if cmd == "experiment":
        from .specialization import (limit_dimension_experiment,
                                     limit_identities_sweep,
                                     semicontinuity_experiment)
        if args.kind == "semicontinuity":
            rep = semicontinuity_experiment(tuple(args.mults),
                                            trials=args.trials,
                                            seed=args.seed,
                                            height=_height(args))
        elif args.kind == "limit-identities":
            detected, bad = limit_identities_sweep(args.s_max, args.m_max,
                                                   args.i_max, args.j_max)
            rep = {"experiment": "limit-identities",
                   "bounds": {"s": args.s_max, "m": args.m_max,
                              "i": args.i_max, "j": args.j_max},
                   "detected": detected,
                   "counterexamples": bad, "ok": not bad}
        else:
            rep = limit_dimension_experiment(args.s, args.ii, args.jj,
                                             args.degree, seed=args.seed,
                                             height=_height(args))
        return rep, "ok" if rep.get("ok") else "fail"
    if cmd == "render":
        wc = _as_weighted(parse_inputs(args.infile))
        return {"diagram": render_enriques(wc, args.style)}, "ok"
    raise SchemaError("$", "unknown command %r" % cmd)


def _report(command, t0, **fields):
    """A report in the fixed field order: tool, version, command, the given
    fields, timings."""
    return {"tool": "nearpoints", "version": __version__, "command": command,
            **fields, "timings": {"elapsed_s": round(time.time() - t0, 3)}}


def main(argv=None):
    t0 = time.time()
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:
            raise _UsageError(args.command, "unrecognized arguments: %s"
                              % " ".join(extra))
    except _UsageError as exc:
        return _emit(_report(exc.command, t0, error=str(exc),
                             verdict="error"), 2)
    try:
        results, verdict = run(args)
    except (SchemaError, ValueError, OSError, RuntimeError) as exc:
        return _emit(_report(args.command, t0, error=str(exc),
                             verdict="error"), 2)
    config = {k: v for k, v in sorted(vars(args).items()) if v is not None}
    return _emit(_report(args.command, t0, config=jsonable(config),
                         results=jsonable(results), verdict=verdict),
                 0 if verdict == "ok" else 1)


def _emit(report, code):
    """Print the report on stdout; returns the exit status."""
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
