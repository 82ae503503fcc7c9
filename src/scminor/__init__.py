"""Toolkit for self-complementary graphs: antimorphisms, guaranteed complete
minors with machine-checked witnesses, an exact minor oracle, generators for
the tight examples, and excluded-minor topology reports."""

from .graphs import (
    CapacityError,
    ConsistencyError,
    Graph,
    Graph6Error,
    canonical_form,
    complement,
    induced_subgraph,
    parse_graph6,
    write_graph6,
)
from .antimorphism import (
    CycleDecomposition,
    Permutation,
    SidePartition,
    check_sachs,
    cycle_decomposition,
    cycle_side_counts,
    find_antimorphism,
    is_antimorphism,
    side_partition,
)
from .construction import (
    ContractionPlan,
    CycleContraction,
    InvalidShiftError,
    MinorModel,
    build_plan,
    choose_generator,
    cycle_matching,
    guaranteed_minor,
    odd_shift_matching,
    realize_minor,
    verify_minor_model,
)
from .oracle import (
    DEFAULT_BUDGET,
    HadwigerOutcome,
    MinorOutcome,
    hadwiger,
    has_minor,
)
from .generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    enumerate_sc,
    pair_orbits,
    path_graph,
    permutation_with_cycle_type,
    random_sc,
    sachs_cycle_types,
    sc_from_assignment,
    sharp_4n,
    sharp_4n_plus_1,
)
from .topology import (
    CertificateSearch,
    TopologyReport,
    ik_certificate,
    il_certificate,
    is_n_apex,
    is_outerplanar,
    is_planar,
    nonouterplanarity_witness,
    nonplanarity_witness,
    report,
)

__version__ = "0.1.0"
