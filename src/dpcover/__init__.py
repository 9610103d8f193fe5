"""DP-coloring (correspondence coloring) of multigraphs.

Covers and exact solving, a polynomial degree-colorability decision with
machine-checkable obstruction certificates, signed-graph coloring via
reduction, and instance generators.
"""

from .cover import (
    Cover,
    DPInstance,
    Transversal,
    Violation,
    build_cover,
    from_k_coloring,
    from_list_instance,
    induced_instance,
    is_degree_list,
    is_valid_transversal,
    restrict,
    validate,
)
from .errors import (
    ColorNotInList,
    ColorOutsideNk,
    DisconnectedGraph,
    DPCoverError,
    EmptyGraph,
    GuardExceeded,
    InvalidInstance,
    MultigraphInput,
    NotABlock,
    NotDegreeList,
    VertexNotFound,
)
from .gen import (
    BadBlockSpec,
    bad_assignment,
    bad_instance_cnt,
    bad_instance_knt,
    blow_up,
    complete_graph,
    cycle_graph,
    glue_bad,
    path_graph,
    random_matching,
)
from .multigraph import (
    CNT,
    KNT,
    OTHER,
    BlockDecomposition,
    BlockKind,
    Multigraph,
    blocks,
    cartesian_product,
    classify_block,
    edge_power,
    product_vertex,
)
from .obstruction import (
    FAT_LADDER,
    FAT_MOBIUS,
    HNT,
    BlockCertificate,
    Decision,
    ObstructionCertificate,
    PatternGraph,
    block_pattern_kind,
    certificate_failure,
    decide,
    find_certificate,
    is_degree_choosable_shape,
    make_pattern,
    pattern_adjacent,
    verify_certificate,
)
from .signed import (
    NkSet,
    SignedGraph,
    all_positive,
    is_balanced,
    is_full,
    n_k,
    signed_to_dp,
    solve_signed,
    ss_block_check,
    switch,
)
from .solver import (
    SolveResult,
    degeneracy_order,
    dp_chromatic_number_small,
    greedy_color,
    solve,
)

__version__ = "0.1.0"
