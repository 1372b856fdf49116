"""Command-line interface.

One executable with subcommands; every run emits a JSON report with a fixed
field order (tool, version, command, config, results, verdict, timings) so
that identical configurations produce byte-identical reports apart from the
timings block.  Exit status: 0 when the verdict is ok, 1 when it is fail,
2 on any error (bad input, violated precondition, unreadable file).
"""

import argparse
import json
import sys
import time

from . import __version__
from .clusters import Cluster, WeightedCluster, render_enriques
from .io import SchemaError, cluster_to_data, jsonable, parse_inputs
from .plane_systems import (SchemeUnion, condition_matrix,
                            exception_catalog, expected_dimension, max_rank)
from .sampling import DEFAULT_HEIGHT
from .specialization import (limit_dimension_experiment, limit_identities_sweep,
                             semicontinuity_experiment)
from .synthesis import (PlaneCurve, SingularitySpec, existence_driver,
                        verify_sharp)
from .unloading import length, unload

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
    class, and their prog is "nearpoints <command>"."""

    def error(self, message):
        raise _UsageError(self.prog.partition(" ")[2] or None, message)


def build_parser():
    ap = _Parser(prog="nearpoints")
    ap.add_argument("--format", choices=("json", "text"), default="json")
    ap.add_argument("--out", help="also write the report to this path")
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

    p = sub.add_parser("verify", help="sharpness certificates of a curve "
                                      "against a union")
    p.add_argument("--curve", required=True)
    p.add_argument("--union", required=True)

    p = sub.add_parser("experiment", help="seeded specialization experiments")
    p.add_argument("kind", choices=("semicontinuity", "limit-identities",
                                    "limit-dimension"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--mults", type=_int_list, default=[2, 2, 2])
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--i", dest="ii", type=int, default=2)
    p.add_argument("--j", dest="jj", type=int, default=1)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--s-max", type=int, default=5)
    p.add_argument("--m-max", type=int, default=10)
    p.add_argument("--i-max", type=int, default=12)
    p.add_argument("--j-max", type=int, default=12)
    p.add_argument("--height", type=int, default=None)

    p = sub.add_parser("render", help="Enriques diagram of a cluster")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--style", choices=("ascii", "dot"), default="ascii")
    return ap


def _as_weighted(obj):
    """The weighted cluster of a cluster file; an embedded union's chains
    are merged in order, dropping their bases and lambdas."""
    if isinstance(obj, WeightedCluster):
        return obj
    if isinstance(obj, SchemeUnion):
        chains = tuple(ec.weighted.cluster.chains[0] for ec in obj.components)
        mults = tuple(m for ec in obj.components for m in ec.mults)
        return WeightedCluster(Cluster(chains), mults)
    raise SchemaError("$", "expected a cluster file")


def _as_union(obj):
    if isinstance(obj, SchemeUnion):
        return obj
    raise SchemaError("$", "expected an embedded union (chains need bases "
                      "and lambdas)")


def run(args):
    """Dispatch one parsed command line; returns (results, verdict)."""
    height = getattr(args, "height", None)
    if height is None:
        height = DEFAULT_HEIGHT
    elif height < 1:
        raise ValueError("--height must be at least 1, got %d" % height)
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
        Z = _as_union(parse_inputs(args.infile))
        mat = condition_matrix(Z.normalized(), args.degree)
        rank = mat.rank()
        return {"degree": args.degree, "rank": rank,
                "expected": expected_dimension(Z, args.degree),
                "actual": mat.ncols - 1 - rank,
                "verdict": "ok", "seed": None}, "ok"
    if cmd == "maxrank":
        Z = _as_union(parse_inputs(args.infile))
        degrees = None
        if args.all_degrees_up_to is not None:
            degrees = range(args.all_degrees_up_to + 1)
        rep = max_rank(Z, degrees)
        rep["seed"] = args.seed
        return rep, "ok" if rep["ok"] else "fail"
    if cmd == "catalog":
        entries = exception_catalog(seed=args.seed, height=height)
        ok = all(set(e["failures"]) == {e["expected_degree"]}
                 for e in entries)
        return {"entries": [{k: v for k, v in e.items() if k != "report"}
                            for e in entries],
                "seed": args.seed}, "ok" if ok else "fail"
    if cmd == "synthesize":
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
        curve = parse_inputs(args.curve)
        union = parse_inputs(args.union)
        if not isinstance(curve, PlaneCurve):
            raise SchemaError("$", "--curve is not a curve file")
        union = _as_union(union)
        certs = [verify_sharp(curve, ec) for ec in union.components]
        results = {"certificates": [{"ok": c.ok,
                                     "prescribed": list(c.prescribed),
                                     "attained": list(c.attained),
                                     "notes": list(c.notes)} for c in certs]}
        return results, "ok" if all(c.ok for c in certs) else "fail"
    if cmd == "experiment":
        if args.kind == "semicontinuity":
            rep = semicontinuity_experiment(tuple(args.mults),
                                            trials=args.trials,
                                            seed=args.seed, height=height)
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
                                             height=height)
        return rep, "ok" if rep.get("ok") else "fail"
    if cmd == "render":
        wc = _as_weighted(parse_inputs(args.infile))
        return {"diagram": render_enriques(wc, args.style)}, "ok"
    raise SchemaError("$", "unknown command %r" % cmd)


def _text_render(report):
    lines = ["%s %s: %s" % (report["tool"], report["command"],
                            report["verdict"])]
    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                walk("%s.%s" % (prefix, k) if prefix else k, v)
        elif isinstance(obj, list) and len(obj) > 6:
            lines.append("%s: [%d entries]" % (prefix, len(obj)))
        else:
            lines.append("%s: %s" % (prefix, obj))
    walk("", report.get("results", {}))
    if "error" in report:
        lines.append("error: %s" % report["error"])
    return "\n".join(lines) + "\n"


def _report(command, t0, **fields):
    """A report in the fixed field order: tool, version, command, the given
    fields, timings."""
    return {"tool": "nearpoints", "version": __version__, "command": command,
            **fields, "timings": {"elapsed_s": round(time.time() - t0, 3)}}


def main(argv=None):
    t0 = time.time()
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        sys.stdout.write(_render(_report(exc.command, t0, error=str(exc),
                                         verdict="error"), "json"))
        return 2
    try:
        results, verdict = run(args)
    except (SchemaError, ValueError, OSError, RuntimeError) as exc:
        report = _report(args.command, t0, error=str(exc), verdict="error")
        code = 2
    else:
        config = {k: v for k, v in sorted(vars(args).items())
                  if k not in ("format", "out") and v is not None}
        report = _report(args.command, t0, config=jsonable(config),
                         results=jsonable(results), verdict=verdict)
        code = 0 if verdict == "ok" else 1
    payload = _render(report, args.format)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            # the report could not be kept: say so instead of the report
            report = _report(args.command, t0,
                             error="cannot write --out: %s" % exc,
                             verdict="error")
            payload = _render(report, args.format)
            code = 2
    sys.stdout.write(payload)
    return code


def _render(report, fmt):
    return (json.dumps(report, indent=2) + "\n" if fmt == "json"
            else _text_render(report))


if __name__ == "__main__":
    sys.exit(main())
