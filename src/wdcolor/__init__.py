"""Weak-diameter colorings and separated low-diameter partitions of finite
weighted graphs, with every produced object re-verified against its computed
bound.

The records the package returns and passes between its layers (Coloring,
VerificationReport, GuardTriple and the rest) are plain classes that name
their fields in `__slots__`.  Their base, `graph.Record`, builds each one
with a single constructor (positional arguments, then keywords, then the
class's `_defaults`), makes the fields read-only, and compares, hashes
and prints records by field; only a record that checks or derives its
fields (Coloring and two per-run tables) has an `__init__` of its own.
They are not dataclasses because every CLI call is its own process, which
compiles and imports the package before it reads a graph: `dataclasses`,
with the `inspect` it loads and the methods it generates and compiles for
each class, was about a quarter of that import.
"""

from wdcolor.graph import (
    INF,
    GraphError,
    WeightedGraph,
    as_fraction,
    neighborhood,
    parse_edge_list,
    power_graph,
    subdivision_graph,
    weak_diameter,
    write_edge_list,
)
from wdcolor.partition import (
    Coloring,
    ContractViolation,
    PartitionFamily,
    VerificationReport,
    check_weak_diameter,
    coloring_to_partition,
    measure_dilation,
    verify_partition_family,
    verify_weak_diameter,
)
from wdcolor.patching import (
    CenterCertificate,
    centered_bound,
    centered_color,
    control_radii,
    patch_bound,
    patch_colorings,
)
from wdcolor.treedec import (
    RootedTreeDecomposition,
    con_color_bound,
    condense,
    lift_condensation_coloring,
    validate_td,
)
from wdcolor.twcolor import (
    color_adhesion_construction,
    color_bounded_treewidth,
    compute_tree_decomposition,
    tree_extension_bound,
    treewidth_color_bound,
)
from wdcolor.tripods import GeodesicCertificate, bfs_geodesic_tree, tripod_decomposition
from wdcolor.geodesic import (
    ControlConstruction,
    GuardTriple,
    SlabSystem,
    centered_bags_bound,
    color_centered_bags,
    color_control_construction,
    color_layered,
    color_planar,
    combine_slab_colorings,
    control_extension_bound,
    layering_projection,
    make_slabs,
)
from wdcolor.generators import GeneratorSpec, Instance, generate

__all__ = [
    "INF",
    "GraphError",
    "WeightedGraph",
    "as_fraction",
    "neighborhood",
    "parse_edge_list",
    "power_graph",
    "subdivision_graph",
    "weak_diameter",
    "write_edge_list",
    "Coloring",
    "ContractViolation",
    "PartitionFamily",
    "VerificationReport",
    "check_weak_diameter",
    "coloring_to_partition",
    "measure_dilation",
    "verify_partition_family",
    "verify_weak_diameter",
    "CenterCertificate",
    "centered_bound",
    "centered_color",
    "control_radii",
    "patch_bound",
    "patch_colorings",
    "RootedTreeDecomposition",
    "con_color_bound",
    "condense",
    "lift_condensation_coloring",
    "validate_td",
    "color_adhesion_construction",
    "color_bounded_treewidth",
    "compute_tree_decomposition",
    "tree_extension_bound",
    "treewidth_color_bound",
    "ControlConstruction",
    "GeodesicCertificate",
    "GuardTriple",
    "SlabSystem",
    "bfs_geodesic_tree",
    "centered_bags_bound",
    "color_centered_bags",
    "color_control_construction",
    "color_layered",
    "color_planar",
    "combine_slab_colorings",
    "control_extension_bound",
    "layering_projection",
    "make_slabs",
    "tripod_decomposition",
    "GeneratorSpec",
    "Instance",
    "generate",
]

__version__ = "0.1.0"
