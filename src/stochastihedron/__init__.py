"""Exact combinatorics of contingency matrices with variable margins.

The library enumerates contingency matrices of fixed weight, builds their
contraction poset (whose order complex is the stochastihedron), verifies
by integral homology that every lower interval is a sphere, evaluates the
meta-matrix counting identities in exact arithmetic, classifies rational
point configurations into four compatible stratifications of the n-th
symmetric product of the plane, and checks constructibility criteria for
representations of the poset.

Importing the package loads none of its modules: each public name is
looked up in its defining module on first access, so a run pays only for
the modules it uses.
"""

import importlib

# defining module -> the public names it gives the package
_EXPORTS = {
    "errors": ("CapacityError", "DomainError", "StructuralError"),
    "limits": ("HORIZONTAL", "VERTICAL"),
    "partitions": (
        "OrderedPartition",
        "contract_partition",
        "enumerate_ordered_partitions",
        "partition_to_subset",
        "refines",
        "subset_to_partition",
    ),
    "contingency": (
        "CmPoset",
        "ContingencyMatrix",
        "build_poset",
        "contract",
        "count_cm",
        "enumerate_cm",
        "is_anodyne",
        "margins",
    ),
    "topology": ("FinitePoset", "HomologyProfile", "lower_interval", "verify_sphericity"),
    "counting": (
        "MetaMatrix",
        "f_vector",
        "fubini",
        "metamatrix",
        "stirling_first",
        "stirling_second",
        "total_count",
    ),
    "identities": ("det_metamatrix", "total_positivity", "verify_factorizations"),
    "strata": (
        "FnfLabel",
        "MultiplicityPartition",
        "PointConfiguration",
        "anodyne_classes",
        "classify",
        "compress",
        "contingency_label",
        "fnf_closure_leq",
        "fnf_label",
        "ifnf_label",
        "meet_check",
        "multiplicity_partition",
    ),
    "sheaf": (
        "PosetRepresentation",
        "constant_sheaf",
        "is_constructible",
        "validate",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    """Resolve a public name on first access and keep it in the package."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
