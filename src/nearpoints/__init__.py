"""Exact arithmetic for weighted clusters of infinitely near points.

The package computes consistent normal forms of weighted clusters
(unloading), lengths and truncated ideals of the associated zero-dimensional
schemes, dimensions and maximal-rank verdicts for linear systems of plane
curves through unions of such schemes, and synthesizes explicit curves with
prescribed tacnodes and higher-order cusps, certified by blowup.

`import nearpoints` loads no submodule: each name below is imported from
its defining module on first use (PEP 562), so a program pays only for the
modules it touches.  The command line follows the same rule: each command
imports what it runs, so `nearpoints length` loads only `cli`, `clusters`,
`io` and `unloading` (the `nearpoints.cli` docstring lists the rest).
"""

__version__ = "0.1.0"

# module -> the public names it defines
_MODULES = {
    "clusters": ("Cluster", "WeightedCluster", "excesses", "free_chain",
                 "is_consistent", "matches_stratum", "proximity_matrix",
                 "render_enriques", "single_chain", "system", "us_chain",
                 "validate", "weighted_chain"),
    "unloading": ("UnloadingTrace", "equivalent", "length", "unload",
                  "unload_step"),
    "local_algebra": ("ConditionMatrix", "EmbeddedCluster", "IdealSubspace",
                      "colength", "colon_subspace", "contains", "embed",
                      "sandwiched_ideal_point", "ideal_subspace",
                      "local_conditions", "multiplicities_along",
                      "to_local"),
    "plane_systems": ("SchemeUnion", "condition_matrix", "ell",
                      "exception_catalog", "expected_dimension",
                      "generic_union", "level_split", "max_rank",
                      "max_rank_generic", "stratum_ell", "us_consistent"),
    "synthesis": ("PlaneCurve", "SharpnessCertificate", "SingularitySpec",
                  "certify", "cusp_scheme", "dk_scheme", "existence_driver",
                  "min_degree", "synthesize", "tacnode_scheme",
                  "verify_sharp"),
    "locus": ("singular_locus", "tjurina_certificate"),
    "specialization": ("cusp_to_tacnode_chain", "limit_dimension_experiment",
                       "limit_identities", "limit_identities_sweep",
                       "one_more_point_lengths", "semicontinuity_experiment",
                       "specialize_to_satellite"),
    "io": ("parse_inputs",),
}
_EXPORTS = {name: module for module, names in _MODULES.items()
            for name in names}
__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    from importlib import import_module
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
