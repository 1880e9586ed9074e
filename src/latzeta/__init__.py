"""Probabilistic zeta functions of finite lattices.

For a finite lattice L with at least two elements, P(L, s) is the
Dirichlet-like series

    P(L, s) = sum over x > bottom of  mu(x, top) / [J : J_x]^s,

where J is the set of join-irreducible elements of L and J_x those lying
below x.  The package computes the series exactly, classifies lattices
as strongly / weakly coset-like, provides closed forms for classical
families (Boolean, divisor, subspace, partition, d-divisible partition),
builds coset lattices of finite groups and checks the identities that
hold there, and can exhaustively search all small lattices by
isomorphism class.
"""

from .dirichlet import DirichletSeries
from .errors import (
    BottomHasNoIrreducibles,
    BudgetExceeded,
    CatalogCorrupt,
    LatZetaError,
    MismatchDetected,
    NotALattice,
    NotCoprimeOrders,
    SingularInput,
    UnknownFixture,
    UsageError,
)
from .lattice import (
    Lattice,
    is_isomorphic,
    lower_reduced_product,
)
from .zeta import (
    OracleCheck,
    ZetaReport,
    verify_series_against_oracle,
    zeta_series,
)
from .families import (
    boolean_lattice,
    boolean_zeta_closed,
    chain,
    chain_zeta_closed,
    d_divisible_j_count,
    d_divisible_partition_lattice,
    ddiv_zeta_closed,
    divisibility_lattice,
    divisibility_zeta_closed,
    partition_lattice,
    partition_zeta_closed,
    q_to_one_limit_check,
    subspace_lattice,
    subspace_zeta_closed,
)
from .groups import (
    FiniteGroup,
    coset_lattice,
    cyclic,
    dihedral,
    direct_product,
    group_zeta,
    subgroup_lattice,
    symmetric,
    verify_brown_identity,
    verify_coprime_product,
)
from .cosetlike import (
    Classification,
    central_binomial_check,
    classify,
    coatom_criterion,
    ddiv_strong_check,
    load_fixture,
    mainthm_threshold,
    mainthm_witness,
    nagura_prime,
    partition_strong_check,
)
from .search import (
    CatalogStore,
    enumerate_lattices,
    find_weak_not_strong,
    lattice_count,
)

__version__ = "0.1.0"

__all__ = [
    "DirichletSeries",
    "LatZetaError",
    "NotALattice",
    "MismatchDetected",
    "BottomHasNoIrreducibles",
    "BudgetExceeded",
    "CatalogCorrupt",
    "NotCoprimeOrders",
    "SingularInput",
    "UnknownFixture",
    "UsageError",
    "Lattice",
    "is_isomorphic",
    "lower_reduced_product",
    "ZetaReport",
    "OracleCheck",
    "zeta_series",
    "verify_series_against_oracle",
    "boolean_lattice",
    "chain",
    "divisibility_lattice",
    "subspace_lattice",
    "partition_lattice",
    "d_divisible_partition_lattice",
    "d_divisible_j_count",
    "boolean_zeta_closed",
    "chain_zeta_closed",
    "divisibility_zeta_closed",
    "subspace_zeta_closed",
    "partition_zeta_closed",
    "ddiv_zeta_closed",
    "q_to_one_limit_check",
    "FiniteGroup",
    "cyclic",
    "symmetric",
    "dihedral",
    "direct_product",
    "coset_lattice",
    "group_zeta",
    "subgroup_lattice",
    "verify_brown_identity",
    "verify_coprime_product",
    "Classification",
    "classify",
    "coatom_criterion",
    "partition_strong_check",
    "ddiv_strong_check",
    "central_binomial_check",
    "nagura_prime",
    "mainthm_witness",
    "mainthm_threshold",
    "load_fixture",
    "enumerate_lattices",
    "lattice_count",
    "find_weak_not_strong",
    "CatalogStore",
    "__version__",
]
