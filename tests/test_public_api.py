"""The public names of the package, pinned: removing or adding one must edit
this list, so the change shows up in review."""

from types import ModuleType

import dpcover

PUBLIC_NAMES = (
    "BadBlockSpec",
    "BlockCertificate",
    "BlockDecomposition",
    "BlockKind",
    "CNT",
    "ColorNotInList",
    "ColorOutsideNk",
    "Cover",
    "DPCoverError",
    "DPInstance",
    "Decision",
    "DisconnectedGraph",
    "EmptyGraph",
    "FAT_LADDER",
    "FAT_MOBIUS",
    "GuardExceeded",
    "HNT",
    "InvalidInstance",
    "KNT",
    "Multigraph",
    "MultigraphInput",
    "NkSet",
    "NotABlock",
    "NotDegreeList",
    "OTHER",
    "ObstructionCertificate",
    "PatternGraph",
    "SignedGraph",
    "SolveResult",
    "Transversal",
    "VertexNotFound",
    "Violation",
    "all_positive",
    "bad_assignment",
    "bad_instance_cnt",
    "bad_instance_knt",
    "block_pattern_kind",
    "blocks",
    "blow_up",
    "build_cover",
    "cartesian_product",
    "certificate_failure",
    "classify_block",
    "complete_graph",
    "cycle_graph",
    "decide",
    "degeneracy_order",
    "dp_chromatic_number_small",
    "edge_power",
    "find_certificate",
    "from_k_coloring",
    "from_list_instance",
    "glue_bad",
    "greedy_color",
    "induced_instance",
    "is_balanced",
    "is_degree_choosable_shape",
    "is_degree_list",
    "is_full",
    "is_valid_transversal",
    "make_pattern",
    "n_k",
    "path_graph",
    "pattern_adjacent",
    "product_vertex",
    "random_matching",
    "restrict",
    "signed_to_dp",
    "solve",
    "solve_signed",
    "ss_block_check",
    "switch",
    "validate",
    "verify_certificate",
)


def test_public_names_are_pinned():
    """Every name without a leading underscore that ``import dpcover``
    exposes, submodules aside."""
    exported = sorted(
        name
        for name, value in vars(dpcover).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    )
    assert exported == list(PUBLIC_NAMES)
