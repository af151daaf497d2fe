"""Exact toolkit for Loewy structure and rigidity of tilting modules over
quasi-hereditary path algebras, with a character-level block calculator."""

from .linalg import Field, Mat, Subspace, kernel_basis, rank, rref, solve
from .quiver import FinDimAlgebra, Quiver, Relation, build_algebra, load_alg, parse_alg_text
from .modules import (
    Morphism,
    Representation,
    SubFamily,
    direct_sum,
    ext1,
    hom_space,
    is_rigid,
    load_rep,
    projective_rep,
    radical_profile,
    radical_series,
    simple_rep,
    socle_profile,
    socle_series,
    spin_submodule,
    subquotient,
)
from .highest_weight import (
    DeltaFiltration,
    StandardSystem,
    WeightPoset,
    check_bgg,
    check_quasihereditary,
    check_radical_respecting,
    find_delta_filtration,
    ringel_tilting,
)
from .rigidity import (
    detect_stretched,
    filtered_ext1_delta,
    rigidity_pipeline,
    stretched_subquotients_bruteforce,
)
from .characters import (
    BlockData,
    Character,
    bgg_symmetry_check,
    hom_dim,
    layers_from_placement,
    load_block,
    projective_layers,
    solve_placement,
    wall_cross,
)
from .coeffquiver import CoefficientQuiver, extract, lemma_prune, render

__version__ = "0.1.0"
