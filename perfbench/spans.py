"""Span recorder for the traced run.

Spans are recorded around the call sites where one `nearpoints` module calls
into another, by replacing the module attribute the caller looks up with a
wrapper for the duration of the traced pass.  The library itself is not
edited.  Each span is `[name, start, end, parent]`, kept in memory and
written out once the run ends; a layer's self time is the duration of its
spans minus the time covered by their child spans.
"""

import contextlib
import sys
import time

# (module, attribute, span name).  A module attribute is patched where the
# caller looks it up: a name bound by `from .x import f` is patched in the
# importing module, a name called as `linalg.rank` in its own module.
SPAN_SITES = (
    ("nearpoints.plane_systems", "_translated_columns", "plane_systems.translate"),
    ("nearpoints.plane_systems", "condition_matrix", "plane_systems.condition_matrix"),
    ("nearpoints.plane_systems", "_emit_conditions", "local_algebra.emit"),
    ("nearpoints.plane_systems", "unload", "unloading.unload"),
    ("nearpoints.plane_systems", "length", "unloading.length"),
    ("nearpoints.unloading", "length", "unloading.length"),
    ("nearpoints.linalg", "rank", "linalg.rank"),
    ("nearpoints.linalg", "rref", "linalg.rref"),
    ("nearpoints.linalg", "nullspace", "linalg.nullspace"),
    ("nearpoints.local_algebra", "local_conditions", "local_algebra.local_conditions"),
    ("nearpoints.local_algebra", "ideal_subspace", "local_algebra.ideal_subspace"),
    ("nearpoints.local_algebra", "colon_subspace", "local_algebra.colon"),
    ("nearpoints.local_algebra", "multiplicities_along", "local_algebra.multiplicities_along"),
    ("nearpoints.local_algebra", "strict_transforms", "local_algebra.strict_transforms"),
    ("nearpoints.synthesis", "condition_matrix", "plane_systems.condition_matrix"),
    ("nearpoints.synthesis", "synthesize", "synthesis.synthesize"),
    ("nearpoints.synthesis", "verify_sharp", "synthesis.verify_sharp"),
    ("nearpoints.synthesis", "strict_transforms", "local_algebra.strict_transforms"),
    ("nearpoints.synthesis", "singular_locus", "synthesis.singular_locus"),
    ("nearpoints.cli", "parse_inputs", "io.parse_inputs"),
    ("nearpoints.cli", "condition_matrix", "plane_systems.condition_matrix"),
    # the sympy entry points of the singular-locus certificate
    ("sympy", "resultant", "locus.resultant"),
    ("sympy", "factor", "locus.factor"),
    ("sympy", "gcd", "locus.gcd"),
    ("sympy.Poly", "factor_list", "locus.factor"),
)

# Counters read off a timed call: span name -> ((counter, f(args, result)),).
SPAN_COUNTERS = {
    "plane_systems.condition_matrix": (
        ("plane_systems.matrices", lambda args, mat: 1),
        ("plane_systems.matrix_cells",
         lambda args, mat: len(mat.rows) * mat.ncols)),
    "linalg.rref": (
        ("linalg.rref_calls", lambda args, red: 1),
        ("linalg.rref_cells", lambda args, red: len(args[0]) * args[1])),
}

# (module, attribute, counter) for calls that are counted, not timed, so
# that the time stays with the enclosing span.
COUNT_SITES = (
    ("nearpoints.linalg", "_rank_mod", "linalg.rank_modp"),
    ("nearpoints.linalg", "_rank_bareiss", "linalg.rank_bareiss"),
)


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def adopt(self, recorded, parent):
        """Append the spans and counts a child process recorded, its
        top-level spans under `parent`.  perf_counter is the system-wide
        monotonic clock, so the child's times are comparable."""
        base = len(self.spans)
        for name, start, end, par in recorded["spans"]:
            self.spans.append([name, start, end,
                               parent if par < 0 else base + par])
        for name, n in recorded["counts"].items():
            self.count(name, n)

    def _timed(self, name, fn):
        counters = SPAN_COUNTERS.get(name, ())

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            for counter, amount in counters:
                self.count(counter, amount(args, result))
            return result
        return traced

    def _counted(self, name, fn):
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch every call site of an imported module; restore on exit."""
        saved = []
        try:
            for sites, make in ((SPAN_SITES, self._timed),
                                (COUNT_SITES, self._counted)):
                for owner_name, attr, name in sites:
                    owner = _resolve(owner_name)
                    if owner is None:
                        continue
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, make(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self):
        """Layer name -> summed self time in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out

    def top_level_seconds(self):
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)


def _resolve(dotted):
    """An already imported module, or a class inside one; None otherwise."""
    if dotted in sys.modules:
        return sys.modules[dotted]
    modname, _, attr = dotted.rpartition(".")
    owner = getattr(sys.modules.get(modname), attr, None)
    return owner if isinstance(owner, type) else None
