"""The four benchmark workloads: seeded inputs, one operation, its check.

Every input is generated here from the run's seed; nothing is read from the
repository's tests.  The structural parameters of each workload (parameter
sets, singularity specs, cluster shapes) are fixed, so that every seed
measures the same amount of work; the seed draws the general-position
choices (plane points, direction parameters, combination coefficients).
Seed 0 reproduces the acceptance seeds where an acceptance test exists.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import nearpoints
import sympy
from nearpoints import local_algebra, plane_systems, synthesis, unloading
from nearpoints.io import cluster_to_data, curve_to_data

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def rng_from(seed, *labels):
    """The library's sha256-labelled draw, kept here so that a change to
    the library's sampling cannot change the benchmark's inputs."""
    h = hashlib.sha256(
        ("nearpoints:%d:%s" % (int(seed), ":".join(map(str, labels)))).encode()
    ).digest()
    return random.Random(int.from_bytes(h[:8], "big"))


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str)
                          .encode()).hexdigest()[:16]


class Workload:
    """One workload: `generate` makes the inputs from the seed, `run` does
    one operation, `check` says whether its result is right."""

    in_process = True

    def prepare(self, op):
        """Untimed work before each operation."""

    def counts(self, op, res):
        """Per-layer counters read off one result."""
        return {}

    def result_key(self, res):
        """The part of a result that must repeat exactly at one seed."""
        return res


# --------------------------------------------------------------- maxrank

def rang_parameter_sets(count):
    """The criterion-3 parameter sets (generator seed 991): unions of a head
    (m, 2^i1, 1^j1) and further chains of doubles and simples, within 60
    conditions."""
    sets = []
    trial = 0
    while len(sets) < count:
        rng = rng_from(991, "rang", trial)
        trial += 1
        m = rng.randint(2, 6)
        min_j = max(0, -((-(m * m - 4 * m - 6)) // 4))
        sum_j = rng.randint(min_j, min_j + 8)
        sum_i = rng.randint(0, 10)
        if 3 * sum_i + sum_j < 2 * m + 3:
            continue
        if m * (m + 1) // 2 + 3 * sum_i + sum_j > 60:
            continue
        if sum_j == 0 and ((m, sum_i) == (2, 4) or (m, sum_i) == (4, 6)):
            continue
        i_parts = []
        left = sum_i
        while left > 0:
            take = rng.randint(1, left)
            i_parts.append(take)
            left -= take
        j_parts = []
        left = sum_j
        while left > 0:
            take = rng.randint(1, left)
            j_parts.append(take)
            left -= take
        i1 = i_parts.pop(0) if i_parts and rng.random() < 0.7 else 0
        j1 = j_parts.pop(0) if j_parts and rng.random() < 0.5 else 0
        comps = [nearpoints.system(m, i1, j1)]
        for k in range(max(len(i_parts), len(j_parts))):
            ii = i_parts[k] if k < len(i_parts) else 0
            jj = j_parts[k] if k < len(j_parts) else 0
            comps.append(nearpoints.system(None, ii, jj))
        sets.append((trial, comps))
    return sets


# The two superabundant families: maximal rank fails by exactly one at the
# given degree, however the doubles are split into chains.
EXCEPTIONAL = (
    (101, ((2,),) * 5, {4: 1}),
    (101, ((2, 2, 2, 2, 2),), {4: 1}),
    (101, ((2, 2), (2,), (2,), (2,)), {4: 1}),
    (102, ((4,),) + ((2,),) * 6, {6: 1}),
    (102, ((4, 2, 2), (2, 2), (2, 2)), {6: 1}),
)


# The first sets of the 50 that criterion 3 sweeps; a round over them and the
# exceptional families takes about 5 s.
MAXRANK_SETS = 25


class MaxRankSweep(Workload):
    name = "maxrank_sweep"

    def generate(self, seed, workdir):
        shift = 10007 * seed
        ops = [{"comps": comps, "seed": trial + shift, "fails": {}}
               for trial, comps in rang_parameter_sets(MAXRANK_SETS)]
        ops += [{"comps": comps, "seed": s + shift, "fails": fails}
                for s, comps, fails in EXCEPTIONAL]
        return ops

    def run(self, op, tracer):
        return plane_systems.max_rank_generic(op["comps"], seed=op["seed"])

    def check(self, op, rep):
        fails = {d["degree"]: d["defect"] for d in rep["detail"]
                 if d["verdict"] != "ok"}
        return fails == op["fails"] and rep["ok"] == (not op["fails"])


# ---------------------------------------------------------- synthesis

# PIPELINE_SPECS k = 0..7 of criterion 4: quartics and quintics with
# tacnodes and cusps, 1-4 components.  The cost of the singular-locus
# certificate grows steeply with the coefficient size of the drawn curve, so
# one draw of a degree-6 or -7 spec varies two- to three-fold from seed to
# seed; several draws of the cheaper specs keep a round steady.
PIPELINE = (
    (0, (1, 1, 1), ()), (1, (3,), ()), (2, (), (2,)), (3, (4,), ()),
    (4, (2, 2), ()), (5, (1, 1, 1, 1), ()), (6, (), (3,)), (7, (), (1, 1)),
)
# Draws of every spec per round; draw 0 at seed 0 is the acceptance seed.
SYNTH_DRAWS = 3


class SynthPipeline(Workload):
    name = "synth_pipeline"

    def generate(self, seed, workdir):
        return [{"spec": synthesis.SingularitySpec(tac, cusps),
                 "seed": 31000 + k + 100 * (SYNTH_DRAWS * seed + draw)}
                for draw in range(SYNTH_DRAWS) for k, tac, cusps in PIPELINE]

    def prepare(self, op):
        # Every round repeats the same curves; sympy's cache would answer
        # the later rounds from memory, so each draw starts with it empty,
        # as a fresh synthesis would.
        sympy.core.cache.clear_cache()

    def run(self, op, tracer):
        return synthesis.existence_driver(op["spec"], seed=op["seed"])

    def check(self, op, rep):
        return (rep["verdict"] == "ok" and rep["length_check"]
                and rep["degree"] == synthesis.min_degree(op["spec"]))

    def counts(self, op, rep):
        bits = max(abs(Fraction(c).numerator).bit_length()
                   for c in rep["curve"]["coefficients"].values())
        return {"synthesis.curve_bits": bits,
                "synthesis.attempts": len(rep["attempts"])}


# ------------------------------------------------------------ local ideals

LOCAL_SHAPE_SEED = 6
LOCAL_INSTANCES = 45
LOCAL_HEIGHT = 50


def _chain_extras(rng, npoints):
    """A random valid single chain: each later point is a satellite with
    probability 0.35."""
    extras = [None, None]
    for k in range(2, npoints):
        choices = [k - 2]
        if extras[k - 1] is not None:
            choices.append(extras[k - 1])
        extras.append(rng.choice(choices) if rng.random() < 0.35 else None)
    return tuple(extras[:npoints])


def local_shapes(count):
    """Fixed single-chain shapes: (extras, mults, sub-system, basis count)
    with r <= 5 and multiplicities 0..4."""
    shapes = []
    trial = 0
    while len(shapes) < count:
        rng = rng_from(LOCAL_SHAPE_SEED, "bench-local-shape", trial)
        trial += 1
        npoints = rng.randint(1, 5)
        extras = _chain_extras(rng, npoints)
        mults = tuple(rng.randint(0, 4) for _ in range(npoints))
        sub = tuple(rng.randint(0, m) for m in mults)
        if sum(sub) == 0:
            continue
        shapes.append((extras, mults, sub, rng.randint(1, 3)))
    return shapes


class LocalIdeals(Workload):
    name = "local_ideals"

    def generate(self, seed, workdir):
        ops = []
        for idx, (extras, mults, sub, nbasis) in enumerate(
                local_shapes(LOCAL_INSTANCES)):
            rng = rng_from(seed, "bench-local-draw", idx)
            lams = [None] * len(extras)
            for k in range(1, len(extras)):
                if extras[k] is None:
                    while True:
                        v = Fraction(rng.randint(-LOCAL_HEIGHT, LOCAL_HEIGHT),
                                     rng.randint(1, LOCAL_HEIGHT))
                        if v or extras[k - 1] is None:
                            break
                    lams[k] = v
            wc = nearpoints.weighted_chain(extras, mults)
            coeffs = [rng.choice((-1, 1)) * rng.randint(1, 6)
                      for _ in range(nbasis)]
            ops.append({"ec": nearpoints.EmbeddedCluster(wc, tuple(lams)),
                        "sub": sub, "coeffs": coeffs})
        return ops

    def run(self, op, tracer):
        """Conductor/residual instance: colength == length, then
        (H : f) == ideal of the residual system for f in the sub-ideal."""
        la = local_algebra
        ec = op["ec"]
        wc = ec.weighted
        same_length = la.colength(ec) == unloading.length(wc)
        basis = la.ideal_subspace(ec.with_mults(op["sub"])).basis()
        f = {}
        for c, g in zip(op["coeffs"], basis):
            for e2, v in g.items():
                f[e2] = f.get(e2, 0) + c * v
        f = {e2: v for e2, v in f.items() if v}
        e = la.multiplicities_along(ec, f)
        residual = tuple(m - a for m, a in zip(wc.mults, e))
        trunc = max(sum(m * (m + 1) // 2 for m in wc.mults if m > 0),
                    sum(v * (v + 1) // 2 for v in residual if v > 0))
        H = la.ideal_subspace(ec, trunc)
        colon = la.colon_subspace(H, f, e=tuple(e))
        residual_ideal = la.ideal_subspace(ec.with_mults(residual), trunc)
        return {"same_length": same_length, "e": list(e),
                "colon_is_residual": colon == residual_ideal,
                "codim": colon.codim, "trunc": trunc}

    def check(self, op, res):
        return res["same_length"] and res["colon_is_residual"]


# ---------------------------------------------------------------- CLI

def cli_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _write(path, data):
    path.write_text(json.dumps(data, indent=2) + "\n")
    return str(path)


def _cli_cluster(rng):
    """A two-chain combinatorial cluster that needs unloading."""
    while True:
        chains = []
        mults = ()
        for _ in range(2):
            n = rng.randint(3, 6)
            chains.append(_chain_extras(rng, n))
            mults += tuple(rng.randint(0, 4) for _ in range(n))
        wc = nearpoints.WeightedCluster(nearpoints.Cluster(tuple(chains)),
                                        mults)
        trace = nearpoints.unload(wc)
        if trace.steps and min(trace.final.mults) >= 0:
            return wc, nearpoints.length(wc)


def _cli_curve(seed):
    """A synthesized nodal quartic and its union, re-drawn until the
    library's own sharpness audit passes, so the expected verdict is ok."""
    spec = synthesis.SingularitySpec(tacnodes=(1, 1, 1))
    for attempt in range(100):
        curve, union = synthesis.synthesize(spec, 4, seed=seed + 7919 * attempt)
        if all(synthesis.verify_sharp(curve, ec).ok for ec in union.components):
            return curve, union
    raise RuntimeError("no sharp quartic in 100 draws")


class CliCold(Workload):
    """Cold `python -m nearpoints.cli` invocations, one child at a time."""

    name = "cli_cold"
    in_process = False

    def generate(self, seed, workdir):
        rng = rng_from(seed, "bench-cli")
        wd = Path(workdir)
        wc, wc_length = _cli_cluster(rng)
        cluster = _write(wd / "cluster.json", cluster_to_data(wc))
        bases = set()
        while len(bases) < 7:
            bases.add((rng.randint(-100, 100), rng.randint(-100, 100)))
        bases = sorted(bases)
        tac = nearpoints.embed(
            nearpoints.weighted_chain((None, None), (2, 2)),
            lambdas=(None, Fraction(rng.randint(-50, 50), rng.randint(1, 50))),
            base=bases[0])
        node = nearpoints.embed(nearpoints.weighted_chain((None,), (2,)),
                                base=bases[1])
        union = nearpoints.SchemeUnion((tac, node))
        degree = 3
        union_path = _write(wd / "union.json", cluster_to_data(union))
        ell_rank = plane_systems.condition_matrix(union.normalized(),
                                                  degree).rank()
        doubles = nearpoints.SchemeUnion(tuple(
            nearpoints.embed(nearpoints.weighted_chain((None,), (2,)), base=b)
            for b in bases[2:7]))
        doubles_path = _write(wd / "doubles.json", cluster_to_data(doubles))
        curve, curve_union = _cli_curve(seed)
        curve_path = _write(wd / "curve.json", curve_to_data(curve))
        curve_union_path = _write(wd / "curve_union.json",
                                  cluster_to_data(curve_union))
        bad = {"chains": [{"base": ["0", "0"], "points": [
            {"kind": "root", "mult": 1},
            {"kind": "free", "mult": 1,
             "lambda": "%d/0" % rng.randint(1, 99)}]}]}
        bad_path = _write(wd / "malformed.json", bad)
        ops = [
            {"argv": ["length", "--in", cluster], "code": 0, "verdict": "ok",
             "results": {"length": wc_length}},
            {"argv": ["unload", "--in", cluster, "--trace"], "code": 0,
             "verdict": "ok", "results": {}},
            {"argv": ["render", "--in", cluster], "code": 0, "verdict": "ok",
             "results": {}},
            {"argv": ["ell", "--in", union_path, "--degree", str(degree)],
             "code": 0, "verdict": "ok", "results": {"rank": ell_rank}},
            {"argv": ["maxrank", "--in", doubles_path], "code": 1,
             "verdict": "fail", "results": {"ok": False}},
            {"argv": ["verify", "--curve", curve_path, "--union",
                      curve_union_path], "code": 0, "verdict": "ok",
             "results": {}},
            {"argv": ["length", "--in", bad_path], "code": 2,
             "verdict": "error", "results": {}},
        ]
        for i, op in enumerate(ops):
            op["spans"] = str(wd / ("spans-%d.json" % i))
        return ops

    def run(self, op, tracer):
        if tracer is None:
            cmd = [sys.executable, "-m", "nearpoints.cli"] + op["argv"]
            return run_child(cmd)
        cmd = [sys.executable, str(HERE / "traced_cli.py"), op["spans"]] \
            + op["argv"]
        idx = tracer.open("cli.invocation")
        try:
            res = run_child(cmd)
        finally:
            tracer.close(idx)
        with open(op["spans"]) as fh:
            tracer.adopt(json.load(fh), idx)
        os.remove(op["spans"])
        return res

    def check(self, op, res):
        if res["code"] != op["code"]:
            return False
        try:
            report = json.loads(res["stdout"])
        except ValueError:
            return False
        got = report.get("results", {})
        return (report.get("verdict") == op["verdict"]
                and all(got.get(k) == v for k, v in op["results"].items()))

    def result_key(self, res):
        """Exit code and the report without its timings, and without its
        config, which echoes the run's scratch paths."""
        try:
            report = json.loads(res["stdout"])
        except ValueError:
            return [res["code"], res["stdout"]]
        report.pop("timings", None)
        report.pop("config", None)
        return [res["code"], report]


def run_child(cmd):
    """Run one child to completion; returns its exit code, stdout and peak
    resident memory in MiB (from the child's own rusage)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=cli_env(),
                            cwd=str(ROOT))
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "stdout": out.decode(),
            "rss_mb": usage.ru_maxrss / 1024.0}


WORKLOADS = {w.name: w for w in (MaxRankSweep(), SynthPipeline(),
                                 LocalIdeals(), CliCold())}
