"""trimlat: an exact toolkit for finite lattices, their Galois-graph
representations, and rowmotion dynamics.

The core objects are :class:`~trimlat.poset.Poset` and
:class:`~trimlat.lattice.Lattice`; structural predicates live in
``trimlat.lattice``, the extremal representation theory in
``trimlat.galois``, cover labellings in ``trimlat.labelling``, rowmotion
in ``trimlat.rowmotion``, simplicial complexes in ``trimlat.complexes``,
and the example families in ``trimlat.generators``.
"""

from .errors import (
    CycleDetected,
    InputError,
    NotACongruence,
    NotACover,
    NotALattice,
    NotALinearExtension,
    NotComparable,
    NotDescriptive,
    NotExtremal,
    NotLeftModular,
    NotSemidistributive,
    NotTrim,
    SizeLimitExceeded,
    ThreeWayMismatch,
    TrimlatError,
)
from .poset import (
    DEFAULT_MAX_ELEMENTS,
    Poset,
    antichains,
    canonical_extension,
    ideal_masks,
    linear_extensions,
    order_ideals,
    poset_from_relations,
)
from .lattice import (
    Chain,
    Congruence,
    Lattice,
    all_congruences,
    congruence,
    interval,
    is_distributive,
    is_extremal,
    is_graded,
    is_left_modular_element,
    is_left_modular_lattice,
    is_semidistributive,
    is_trim,
    is_trim_definitional,
    lattice_from_poset,
    length,
    maximal_length_chain,
    quotient,
    spine,
)
from .galois import (
    GaloisGraph,
    IrreducibleIndexing,
    MaxOrthPair,
    decompose,
    element_pair,
    galois_graph,
    galois_poset,
    index_irreducibles,
    is_overlapping,
    lattice_from_graph,
    max_orth_pairs,
    overlap_label,
)
from .labelling import (
    CoverLabelling,
    LabelSets,
    SemidistributiveLabelling,
    canonical_join_rep,
    canonical_meet_rep,
    down_up_labels,
    is_EL,
    is_descriptive,
    is_interpolating,
    left_modular_labelling,
    semidistributive_labelling,
)
from .rowmotion import (
    LatticePermutation,
    flip,
    ideal_rowmotion,
    ideal_rowmotion_map,
    orbits,
    rowmotion_global,
    rowmotion_slow,
    slow_trace,
)
from .complexes import (
    SimpleGraph,
    SimplicialComplex,
    canonical_join_graph,
    complement_check,
    independence_complex,
    independent_sets,
    is_flag,
    undirected,
)
from .generators import (
    FamilySpec,
    boolean,
    build_family,
    chain_product,
    fixture,
    fixture_lattice,
    fixture_names,
    rational_dyck,
    rational_dyck_poset,
    root_ideals,
    root_poset_A,
    tamari,
    weak_order_S,
)
from .figures import verify_figures

__all__ = [
    "CycleDetected", "InputError", "NotACongruence", "NotACover",
    "NotALattice", "NotALinearExtension", "NotComparable", "NotDescriptive",
    "NotExtremal", "NotLeftModular", "NotSemidistributive", "NotTrim",
    "SizeLimitExceeded", "ThreeWayMismatch", "TrimlatError",
    "DEFAULT_MAX_ELEMENTS", "Poset", "antichains", "canonical_extension",
    "ideal_masks", "linear_extensions", "order_ideals",
    "poset_from_relations",
    "Chain", "Congruence", "Lattice", "all_congruences", "congruence",
    "interval", "is_distributive", "is_extremal", "is_graded",
    "is_left_modular_element", "is_left_modular_lattice",
    "is_semidistributive", "is_trim", "is_trim_definitional",
    "lattice_from_poset", "length", "maximal_length_chain", "quotient",
    "spine",
    "GaloisGraph", "IrreducibleIndexing", "MaxOrthPair", "decompose",
    "element_pair", "galois_graph", "galois_poset", "index_irreducibles",
    "is_overlapping", "lattice_from_graph", "max_orth_pairs",
    "overlap_label",
    "CoverLabelling", "LabelSets", "SemidistributiveLabelling",
    "canonical_join_rep", "canonical_meet_rep", "down_up_labels", "is_EL",
    "is_descriptive", "is_interpolating", "left_modular_labelling",
    "semidistributive_labelling",
    "LatticePermutation", "flip", "ideal_rowmotion", "ideal_rowmotion_map",
    "orbits", "rowmotion_global", "rowmotion_slow", "slow_trace",
    "SimpleGraph", "SimplicialComplex", "canonical_join_graph",
    "complement_check", "independence_complex", "independent_sets",
    "is_flag", "undirected",
    "FamilySpec", "boolean", "build_family", "chain_product", "fixture",
    "fixture_lattice", "fixture_names", "rational_dyck",
    "rational_dyck_poset", "root_ideals", "root_poset_A", "tamari",
    "weak_order_S",
    "verify_figures",
]

__version__ = "0.1.0"
