"""trimlat: an exact toolkit for finite lattices, their Galois-graph
representations, and rowmotion dynamics.

The core objects are :class:`~trimlat.poset.Poset` and
:class:`~trimlat.lattice.Lattice`; structural predicates live in
``trimlat.lattice``, the extremal representation theory in
``trimlat.galois``, cover labellings in ``trimlat.labelling``, rowmotion
in ``trimlat.rowmotion``, simplicial complexes in ``trimlat.complexes``,
and the example families in ``trimlat.generators``.

Importing the package loads no submodule.  Every public name is listed
once, under its submodule, in ``_EXPORTS``; ``__all__`` is derived from
it, and reading a name imports its submodule the first time (PEP 562), so
``from trimlat import Poset`` does not load numpy.  No submodule is
exported by name.
"""

from importlib import import_module

_EXPORTS = {
    "errors": "CycleDetected InputError NotACongruence NotALattice "
              "NotALinearExtension NotComparable NotDescriptive NotExtremal "
              "NotLeftModular NotSemidistributive NotTrim SizeLimitExceeded "
              "ThreeWayMismatch TrimlatError",
    "poset": "DEFAULT_MAX_ELEMENTS Poset antichains ideal_masks "
             "linear_extensions order_ideals poset_from_relations",
    "lattice": "Chain Congruence Lattice congruence interval "
               "is_distributive is_extremal is_left_modular_element "
               "is_left_modular_lattice is_semidistributive is_trim "
               "is_trim_definitional lattice_from_poset length "
               "maximal_length_chain quotient spine",
    "galois": "GaloisGraph IrreducibleIndexing MaxOrthPair decompose element_pair "
              "galois_graph galois_poset index_irreducibles lattice_from_graph "
              "max_orth_pairs",
    "labelling": "CoverLabelling LabelSets SemidistributiveLabelling "
                 "canonical_join_rep canonical_meet_rep down_up_labels is_EL "
                 "is_descriptive is_interpolating left_modular_labelling "
                 "semidistributive_labelling",
    "rowmotion": "LatticePermutation flip ideal_rowmotion ideal_rowmotion_map orbits "
                 "rowmotion_global rowmotion_slow slow_trace",
    "complexes": "SimpleGraph SimplicialComplex canonical_join_graph complement_check "
                 "independence_complex independent_sets is_flag undirected",
    "generators": "FamilySpec boolean build_family chain_product fixture "
                  "fixture_lattice rational_dyck rational_dyck_poset "
                  "root_ideals root_poset_A tamari weak_order_S",
    "figures": "verify_figures",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
