"""Toolkit for self-complementary graphs: antimorphisms, guaranteed complete
minors with machine-checked witnesses, an exact minor oracle, generators for
the tight examples, and excluded-minor topology reports.

Importing the package loads none of its modules: each public name, and each
module, is imported on first access (PEP 562), so a process loads only the
modules it uses.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "graphs": (
        "DEFAULT_BUDGET",
        "CapacityError",
        "ConsistencyError",
        "Graph",
        "Graph6Error",
        "canonical_form",
        "complement",
        "complete_bipartite",
        "complete_graph",
        "cycle_graph",
        "induced_subgraph",
        "parse_graph6",
        "path_graph",
        "write_graph6",
    ),
    "antimorphism": (
        "CycleDecomposition",
        "Permutation",
        "SidePartition",
        "check_sachs",
        "cycle_decomposition",
        "cycle_side_counts",
        "find_antimorphism",
        "is_antimorphism",
        "side_partition",
    ),
    "construction": (
        "ContractionPlan",
        "CycleContraction",
        "MinorModel",
        "build_plan",
        "choose_generator",
        "cycle_matching",
        "guaranteed_minor",
        "realize_minor",
        "verify_minor_model",
    ),
    "oracle": ("HadwigerOutcome", "MinorOutcome", "hadwiger", "has_minor"),
    "generators": (
        "enumerate_sc",
        "pair_orbits",
        "permutation_with_cycle_type",
        "random_sc",
        "sachs_cycle_types",
        "sc_from_assignment",
        "sharp_4n",
        "sharp_4n_plus_1",
    ),
    "topology": (
        "CertificateSearch",
        "TopologyReport",
        "ik_certificate",
        "il_certificate",
        "is_n_apex",
        "is_outerplanar",
        "is_planar",
        "nonouterplanarity_witness",
        "nonplanarity_witness",
        "report",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = list(_HOME)


def __getattr__(name: str):
    # __import__ is the import statement's own path, which
    # ``python -X importtime`` reports; importlib.import_module is not.
    # At level 1 with no fromlist it returns the submodule itself.
    if name in _HOME:
        value = getattr(__import__(_HOME[name], globals(), None, (), 1), name)
    elif name in _SUBMODULES:
        value = __import__(name, globals(), None, (), 1)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
