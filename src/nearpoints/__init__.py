"""Exact arithmetic for weighted clusters of infinitely near points.

The package computes consistent normal forms of weighted clusters
(unloading), lengths and truncated ideals of the associated zero-dimensional
schemes, dimensions and maximal-rank verdicts for linear systems of plane
curves through unions of such schemes, and synthesizes explicit curves with
prescribed tacnodes and higher-order cusps, certified by blowup.
"""

__version__ = "0.1.0"

from .clusters import (Cluster, WeightedCluster, excesses, free_chain,
                       is_consistent, matches_stratum, parse_enriques,
                       proximity_matrix, render_enriques, single_chain,
                       system, us_chain, validate, weighted_chain)
from .unloading import UnloadingTrace, equivalent, length, unload, unload_step
from .local_algebra import (ConditionMatrix, EmbeddedCluster, IdealSubspace,
                            colength, colon_subspace, contains, embed,
                            sandwiched_ideal_point, ideal_subspace,
                            local_conditions, multiplicities_along, to_local)
from .plane_systems import (SchemeUnion, condition_matrix, ell,
                            exception_catalog, expected_dimension,
                            generic_union, level_split,
                            max_rank, max_rank_generic, stratum_ell,
                            us_consistent)
from .synthesis import (PlaneCurve, SharpnessCertificate, SingularitySpec,
                        cusp_scheme, dk_scheme, existence_driver,
                        min_degree, synthesize, tacnode_scheme, verify_sharp)
from .locus import singular_locus, tjurina_certificate
from .specialization import (cusp_to_tacnode_chain, limit_dimension_experiment,
                             limit_identities, limit_identities_sweep,
                             one_more_point_lengths, semicontinuity_experiment,
                             specialize_to_satellite)
from .io import parse_inputs
