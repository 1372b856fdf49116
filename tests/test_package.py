"""The package's lazy export table: `import nearpoints` loads no submodule,
and each public name is the object its defining module binds."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import nearpoints

# the public names of the package, by defining module
EXPORTS = {
    "clusters": ["Cluster", "WeightedCluster", "excesses", "free_chain",
                 "is_consistent", "matches_stratum", "proximity_matrix",
                 "render_enriques", "single_chain", "system", "us_chain",
                 "validate", "weighted_chain"],
    "unloading": ["UnloadingTrace", "equivalent", "length", "unload",
                  "unload_step"],
    "local_algebra": ["ConditionMatrix", "EmbeddedCluster", "IdealSubspace",
                      "colength", "colon_subspace", "contains", "embed",
                      "sandwiched_ideal_point", "ideal_subspace",
                      "local_conditions", "multiplicities_along",
                      "to_local"],
    "plane_systems": ["SchemeUnion", "condition_matrix", "ell",
                      "exception_catalog", "expected_dimension",
                      "generic_union", "level_split", "max_rank",
                      "max_rank_generic", "stratum_ell", "us_consistent"],
    "synthesis": ["PlaneCurve", "SharpnessCertificate", "SingularitySpec",
                  "cusp_scheme", "dk_scheme", "existence_driver",
                  "min_degree", "synthesize", "tacnode_scheme",
                  "verify_sharp"],
    "locus": ["singular_locus", "tjurina_certificate"],
    "specialization": ["cusp_to_tacnode_chain", "limit_dimension_experiment",
                       "limit_identities", "limit_identities_sweep",
                       "one_more_point_lengths", "semicontinuity_experiment",
                       "specialize_to_satellite"],
    "io": ["parse_inputs"],
}
NAMES = [(module, name) for module, names in EXPORTS.items()
         for name in names]


def test_all_lists_the_exported_names():
    assert nearpoints.__all__ == [name for _, name in NAMES]


@pytest.mark.parametrize("module,name", NAMES,
                         ids=["%s.%s" % pair for pair in NAMES])
def test_name_is_its_defining_modules_object(module, name):
    defining = importlib.import_module("nearpoints." + module)
    assert getattr(nearpoints, name) is getattr(defining, name)
    assert name in dir(nearpoints)


def test_import_loads_no_submodule():
    src = str(Path(nearpoints.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import nearpoints; "
         "print(sorted(m for m in sys.modules "
         "if m.startswith('nearpoints.')))", src],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        nearpoints.no_such_name
    assert not hasattr(nearpoints, "no_such_name")
