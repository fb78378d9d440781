"""Exact computation and verification of defective Ramsey numbers in
forests, cacti, bipartite graphs, split graphs and cographs."""

from .canon import (
    automorphism_generators,
    automorphism_orbit,
    canonical_form,
    canonical_labeling,
    isomorphic_bruteforce,
)
from .classes import (
    GraphClass,
    bipartition,
    blocks,
    has_induced_p4,
    is_bipartite,
    is_cactus,
    is_cograph,
    is_forest,
    is_split,
    member,
    split_partition,
)
from .defects import (
    WitnessReport,
    alpha_k,
    alpha_k_oracle,
    cactus_deforesting_matching,
    class_sparse_lower_bound,
    find_sparse_set,
    is_k_dense,
    is_k_sparse,
    ramsey_check,
    sparsity_remainder,
)
from .enumeration import (
    BudgetError,
    EnumerationReport,
    compute_ramsey_exhaustive,
    enumerate_class,
    enumerate_levels,
    verify_value,
)
from .formulas import (
    RamseyQuery,
    RamseyValue,
    bipartite_formula,
    cactus_formula,
    cg_inequality,
    cograph_formula,
    defective_ramsey,
    forest_formula,
    ramsey_value,
    split_conjecture_value,
    split_formula,
)
from .graph6 import Graph6Error, graph6_decode, graph6_encode
from .graphs import (
    DomainError,
    Graph,
    MAX_ORDER,
    bits,
    complement,
    complete_bipartite,
    complete_graph,
    components,
    cycle_graph,
    degree_in,
    disjoint_union,
    disjoint_union_all,
    empty_graph,
    induced,
    join,
    make_graph,
    mask_of,
    path_graph,
    star_graph,
)
from .hunt import hunt_witness
from .witnesses import (
    ValidationError,
    bipartite_cage,
    bipartite_witness,
    cactus_square_chain,
    cactus_triangle_chain,
    cactus_witness,
    cograph_witness,
    forest_witness,
    named_graph,
    split_small_witness,
    split_witness_diagonal,
    split_witness_general,
    witness_for,
)

__version__ = "0.1.0"
