"""Exact computation and verification of span-relative pullbacks, induced
monoid structures and relative (internal) categories over two fully computable
base categories: finite sets and finite-dimensional coalgebras."""

from .catcore import (
    BaseCategory,
    Check,
    Report,
    Span,
    check_monoidal_instance,
    check_post_instance,
    check_pre_instance,
    check_unital_instance,
    legs_in_class,
    split_epi_class_facts,
)
from .coalg import (
    Coalgebra,
    CoalgCategory,
    CoalgMap,
    class_S_witness,
    check_coalg_map,
    check_coalgebra,
    coalg_equalizer,
    compare_cotensor_pullback,
    cotensor,
    grouplike,
    path_coalgebra,
    tensor_coalgebra,
    trivial,
)
from .fields import GF, QQ
from .finset import (
    FINSET,
    FinFun,
    FinSetCategory,
    FinSetObj,
    finset_monoid_check,
    linearize_fun,
    linearize_obj,
)
from .linalg import (
    Matrix,
    kron,
    solve,
    swap_map,
)
from .monoids import (
    DistLaw,
    MonoidMorphism,
    MonoidObj,
    check_dist_law,
    check_monoid,
    check_monoid_morphism,
    factor_through,
    factorization_dlaw,
    induced_q,
    morphism_from_pair,
    pair_from_morphism,
    product_monoid,
)
from .relcat import (
    RelativeCategory,
    RelativeFunctor,
    SmallCategory,
    SpanOverB,
    check_relative_category,
    check_relative_functor,
    from_small_category,
    linearize_relcat,
    span_tensor,
)
from .relpull import (
    RelPullback,
    assoc_iso,
    box,
    check_reflection_instance,
    coherence_pentagon,
    coherence_triangle,
    monoid_on_pullback,
    relative_pullback,
    unit_isos,
    universal_factor,
)

__all__ = [name for name in dir() if not name.startswith("_")]
