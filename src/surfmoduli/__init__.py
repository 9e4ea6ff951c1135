"""surfmoduli: exact searches and invariant calculators around surfaces
isogenous to a product, bidouble covers, branch-set equivalence, and braid
monodromy factorizations.

The package is organized as:

* :mod:`surfmoduli.groups`    finite permutation-group arithmetic
* :mod:`surfmoduli.catalog`   built-in groups, names, and the group file format
* :mod:`surfmoduli.triangles` generating triples as triangle curves
* :mod:`surfmoduli.beauville` Beauville structures, searches and scans
* :mod:`surfmoduli.invariants` numerical invariants of surfaces
* :mod:`surfmoduli.bidouble`  bidouble/abc types, diffeo and non-deformation tests
* :mod:`surfmoduli.moebius`   rational Moebius equivalence of branch sets
* :mod:`surfmoduli.braids`    braid words, Hurwitz moves, node pairs, orbits
* :mod:`surfmoduli.cli`       the ``surfmoduli`` command-line tool

The names of :mod:`~surfmoduli.bidouble`, :mod:`~surfmoduli.moebius` and
:mod:`~surfmoduli.braids` are resolved on first access (PEP 562), and the
CLI imports each of them only inside the ``abc``, ``hyperell`` and
``braid`` commands, so a group search, from Python or the command line,
does not pay for importing them.
"""

from importlib import import_module as _import_module

from .beauville import (
    BeauvilleStructure,
    ScanRow,
    count_structures,
    is_beauville_pair,
    isogenous_invariants,
    scan,
    search,
    structure_invariants,
)
from .catalog import (
    abelian_catalog,
    alternating,
    builtin,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    from_file,
    psl2,
    resolve,
    symmetric,
    to_file,
)
from .errors import (
    AutBoundExceeded,
    BudgetExceeded,
    CancelMismatch,
    DegreeMismatch,
    ExcludedParameter,
    GroupMismatch,
    NonIntegralChi,
    NonIntegralGenus,
    OrderBoundExceeded,
    PositionOutOfRange,
    SizeMismatch,
    StrandMismatch,
    SurfModuliError,
)
from .groups import (
    ConjugacyClass,
    GroupMap,
    PermGroup,
    Permutation,
    close,
)
from .invariants import SurfaceInvariants
from .triangles import (
    SphericalTriple,
    TripleType,
    branch_permutation_orbit,
    enumerate_triples,
    genus,
    is_hyperbolic,
    sigma_set,
    triples_equivalent,
)

__version__ = "0.1.0"

_LAZY = {
    "bidouble": (
        "AbcType",
        "BidoubleInvariants",
        "BidoubleType",
        "NondefReport",
        "TypeClassification",
        "abc_invariants",
        "bidouble_invariants",
        "diffeo_equivalent",
        "diffeo_step",
        "enumerate_types",
        "nondef_predicate",
    ),
    "braids": (
        "BraidWord",
        "Factorization",
        "OrbitResult",
        "braid_equal",
        "canonical_key",
        "hurwitz_move",
        "hurwitz_move_inverse",
        "hurwitz_orbit",
        "m_equivalence_orbit",
        "node_pair_move",
        "product",
        "simultaneous_conjugation",
    ),
    "moebius": (
        "BranchSet",
        "MoebiusMap",
        "ProjPoint",
        "apply_map",
        "family_branch_set",
        "moebius_equivalent",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in (module, *names)}

__all__ = sorted(
    [name for name in globals() if not name.startswith("_")]
    + list(_HOME)
)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
