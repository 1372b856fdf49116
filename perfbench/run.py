"""nearpoints benchmark: four seeded workloads, end-to-end and per-layer.

Run from the repository root:

    python3 perfbench/run.py --workload maxrank_sweep --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--trace 0` measures the
end-to-end metrics; `--trace 1` runs a warm-up pass, one untraced and one
traced pass, and reports the per-layer metrics.  `--selfcheck` runs two
traced runs at the same seed in fresh processes and compares their counts
and results.  See README.md in this directory.
"""

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

WORKLOAD_NAMES = ("maxrank_sweep", "synth_pipeline", "local_ideals", "cli_cold")

# Time of `reference_unit` that wall_s and op_p50_s are scaled to; about its
# mean on the 2-vCPU VM the benchmark was written on (Python 3.11).
REFERENCE_S = 0.0016
# After each operation: one reference sample, plus one per this many
# seconds of its latency, so that the samples follow the time spent.
REFERENCE_EVERY_S = 0.05

# Fresh processes timed for setup_s; their median is reported.
SETUP_REPEATS = 5
# Cold `python -c pass` starts timed for cli.bare_python_s.
BARE_REPEATS = 5

END_TO_END = (("wall_s", "s"), ("op_p50_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB"))

# Self times of the spans of that name, then counters.
LAYER_TIMES = (
    "plane_systems.translate", "plane_systems.condition_matrix",
    "local_algebra.emit", "linalg.rank", "unloading.unload",
    "unloading.length", "synthesis.synthesize", "linalg.nullspace",
    "synthesis.verify_sharp", "local_algebra.strict_transforms",
    "synthesis.singular_locus", "locus.factor", "locus.resultant",
    "locus.gcd", "linalg.rref", "local_algebra.local_conditions",
    "local_algebra.colon", "local_algebra.ideal_subspace",
    "local_algebra.multiplicities_along", "io.parse_inputs",
)
LAYER_COUNTS = (
    "plane_systems.matrices", "plane_systems.matrix_cells",
    "linalg.rank_modp", "linalg.rank_bareiss", "linalg.rref_calls",
    "linalg.rref_cells", "synthesis.curve_bits", "synthesis.attempts",
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="compare two traced runs at the same seed")
    ap.add_argument("--setup-child", metavar="WORKDIR",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_workloads():
    for p in (str(SRC), str(HERE)):
        if p not in sys.path:
            sys.path.insert(0, p)
    import workloads
    return workloads


def reference_unit():
    """Fixed pure-Python work in the mix of the library's inner loops:
    rational sums with growing denominators and integer dict updates."""
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i % 89 + 1)
    rows = {}
    for i in range(1, 1500):
        rows[i % 97] = rows.get(i % 97, 0) * 3 + i * i
    return acc, rows


def reference_samples(count):
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        reference_unit()
        out.append(time.perf_counter() - t0)
    return out


class Pass:
    """Timings and checked results of one pass over the inputs.

    The host is a shared VM whose speed halves in spells of about 10 ms;
    the share of slow spells drifts over minutes, and identical rounds took
    from 4.0 to 7.2 s.  `reference_unit` is timed between the operations,
    and `scale` converts the pass's times to a host on which it takes
    REFERENCE_S.  Over ten seeds that cut the spread of local_ideals'
    wall_s from 0.33 to 0.05 of its median.
    """

    def __init__(self, wl, ops, tracer=None):
        self.reference = []
        self.latencies = []
        self.failed = 0
        self.keys = []
        self.counts = {}
        self.child_rss_mb = 0.0
        start = time.perf_counter()
        for op in ops:
            wl.prepare(op)
            t0 = time.perf_counter()
            raised = False
            try:
                if tracer is None:
                    res = wl.run(op, None)
                else:
                    with tracer.span("op"):
                        res = wl.run(op, tracer)
            except Exception:  # one failed operation must not end the run
                traceback.print_exc()
                raised = True
            self.latencies.append(time.perf_counter() - t0)
            self.reference += reference_samples(
                1 + int(self.latencies[-1] / REFERENCE_EVERY_S))
            if raised:
                self.failed += 1
                self.keys.append("raised")
                continue
            if not wl.check(op, res):
                print("check failed: %r" % (op,), file=sys.stderr)
                self.failed += 1
            if not wl.in_process:
                self.child_rss_mb = max(self.child_rss_mb, res["rss_mb"])
            for name, n in wl.counts(op, res).items():
                self.counts[name] = self.counts.get(name, 0) + n
            self.keys.append(wl.result_key(res))
        self.wall = time.perf_counter() - start
        self.scale = REFERENCE_S / statistics.fmean(self.reference)

    def digest(self, workloads):
        return workloads.digest(self.keys)


def setup_child(workload, seed, workdir):
    """Body of a fresh setup process: import and generate, then print the
    elapsed seconds."""
    t0 = time.perf_counter()
    workloads = load_workloads()
    workloads.WORKLOADS[workload].generate(seed, workdir)
    print(repr(time.perf_counter() - t0))


def measure_setup(workloads, args):
    """Median set-up seconds over fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        wd = tempfile.mkdtemp(dir=WORK)
        try:
            res = workloads.run_child(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--setup-child", wd])
        finally:
            shutil.rmtree(wd, ignore_errors=True)
        if res["code"] != 0:
            raise RuntimeError("setup process exited with %d" % res["code"])
        times.append(float(res["stdout"].split()[-1]))
    return statistics.median(times)


def import_times(workloads):
    """Cumulative import seconds of nearpoints and sympy, from one
    `python -X importtime` process."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import nearpoints"], capture_output=True,
                          text=True, env=workloads.cli_env(), cwd=str(ROOT),
                          check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:"):
            name = parts[2].strip()
            if name in ("nearpoints", "sympy"):
                cumulative[name] = int(parts[1]) / 1e6
    return cumulative


def bare_python_seconds(workloads):
    times = []
    for _ in range(BARE_REPEATS):
        t0 = time.perf_counter()
        workloads.run_child([sys.executable, "-c", "pass"])
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb(wl, passes):
    """Peak resident memory of this process, or of the CLI children."""
    if not wl.in_process:
        return max(p.child_rss_mb for p in passes)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workloads, args, workdir):
    """One benchmark run; returns (correct, attempted, failed, metrics,
    notes) with notes printed above the result line."""
    wl = workloads.WORKLOADS[args.workload]
    ops = wl.generate(args.seed, workdir)
    Pass(wl, ops[:1])  # warm the process: imports, first calls, file cache
    notes = []
    if not args.trace:
        # Rounds over the same inputs until the next would overrun; each
        # operation's scaled latency is its median over the rounds, so a
        # host stall in one round does not reach wall_s.
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(Pass(wl, ops))
            elapsed = time.perf_counter() - start
            if elapsed + passes[-1].wall > args.seconds:
                break
        digests = {p.digest(workloads) for p in passes}
        failed = sum(p.failed for p in passes)
        attempted = sum(len(p.latencies) for p in passes)
        scaled = [[t * p.scale for t in p.latencies] for p in passes]
        metrics = {
            "wall_s": sum(statistics.median(ts) for ts in zip(*scaled)),
            "op_p50_s": statistics.median(t for ts in scaled for t in ts),
            "setup_s": measure_setup(workloads, args),
            "peak_rss_mb": peak_rss_mb(wl, passes),
        }
        notes.append(
            "unscaled: wall_s %.6g, op_p50_s %.6g; scale %s"
            % (sum(statistics.median(ts)
                   for ts in zip(*(p.latencies for p in passes))),
               statistics.median(t for p in passes for t in p.latencies),
               " ".join("%.3f" % p.scale for p in passes)))
        notes.append("rounds %d (%s s), ops per round %d, results %s"
                     % (len(passes), " ".join("%.3f" % p.wall for p in passes),
                        len(ops), " ".join(sorted(digests))))
        notes.append("fail_frac %.6g" % (failed / attempted))
        return (len(digests) == 1 and failed == 0, attempted, failed,
                {k: (metrics[k], u) for k, u in END_TO_END}, notes)

    from spans import Tracer
    # The first full round in a fresh process runs slower than the next
    # ones, so it is left out of the traced/untraced comparison.
    Pass(wl, ops)
    plain = Pass(wl, ops)
    tracer = Tracer()
    with tracer.installed():
        traced = Pass(wl, ops, tracer)
    same = plain.digest(workloads) == traced.digest(workloads)
    failed = plain.failed + traced.failed
    attempted = len(plain.latencies) + len(traced.latencies)
    self_s = tracer.self_times()
    counts = dict(tracer.counts)
    counts.update(traced.counts)
    imports = import_times(workloads)
    metrics = {name + "_s": (self_s.get(name, 0.0), "s")
               for name in LAYER_TIMES}
    metrics.update({name: (counts.get(name, 0), "count")
                    for name in LAYER_COUNTS})
    metrics["import.nearpoints_s"] = (imports.get("nearpoints", 0.0), "s")
    metrics["import.sympy_s"] = (imports.get("sympy", 0.0), "s")
    metrics["cli.bare_python_s"] = (bare_python_seconds(workloads), "s")
    traced_wall = sum(traced.latencies)
    metrics["trace.overhead_s"] = (traced_wall - sum(plain.latencies), "s")
    metrics["trace.coverage"] = (tracer.top_level_seconds() / traced_wall,
                                 "fraction")
    out = WORK / ("spans-%s-seed%d.json" % (args.workload, args.seed))
    with open(out, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "spans": tracer.spans, "counts": counts}, fh)
    notes.append("results %s" % traced.digest(workloads))
    notes.append("untraced wall %.4f s, traced wall %.4f s, spans %d in %s"
                 % (sum(plain.latencies), traced_wall, len(tracer.spans),
                    out.relative_to(ROOT)))
    notes.append("fail_frac %.6g" % (failed / attempted))
    return same and failed == 0, attempted, failed, metrics, notes


def selfcheck(args):
    """Two traced runs at one seed in fresh processes: every count and the
    digest of the op results must agree."""
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "1"],
            capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        runs.append(({k: v["value"] for k, v in result["metrics"].items()
                      if v["unit"] == "count"},
                     next(ln for ln in lines if ln.startswith("results ")),
                     result["correct"]))
    (c1, d1, ok1), (c2, d2, ok2) = runs
    for name in sorted(c1):
        print("%-28s %12d %12d%s" % (name, c1[name], c2[name],
                                     "" if c1[name] == c2[name] else "  DIFF"))
    print("%s / %s" % (d1, d2))
    same = c1 == c2 and d1 == d2 and ok1 and ok2
    print("selfcheck %s" % ("ok" if same else "FAILED"))
    return 0 if same else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "nearpoints" / "__init__.py").is_file():
        print("perfbench: no nearpoints sources under %s; run from a "
              "repository checkout" % SRC, file=sys.stderr)
        return 2
    if args.setup_child:
        setup_child(args.workload, args.seed, args.setup_child)
        return 0
    if args.selfcheck:
        return selfcheck(args)
    WORK.mkdir(exist_ok=True)
    workloads = load_workloads()
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        correct, attempted, failed, metrics, notes = measure(
            workloads, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print("%-40s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
