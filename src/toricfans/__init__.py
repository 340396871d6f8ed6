"""toricfans: primitive collections, fan surgery and second-Chern-character
screening for smooth proper toric varieties."""

from .fan import LatticeFan, Ray, faces_of_dim, is_projective, locate, spans_cone, star_subdivision, validate
from .primitive import (
    CurveClass,
    PrimitiveRelation,
    bundle_locus,
    decompose_relation,
    is_fano,
    minimal_p_dimension,
    opponents,
    primitive_collections,
    primitive_relation,
    primitive_relations,
    relevant_collections,
)
from .birational import BlowdownSpec, FlipSpec, blowup, contract, flip, is_contractible, multi_flip
from .chern import (
    anticanonical_degree,
    candidate_bound_predicate,
    ch2_dot_invariant_surface,
    divisor_dot_orbit,
    screen_2fano,
)
from .pipeline import detect_exceptional, diagnose_m3, replay, run_step1, verify_output
from .certificate import build_certificate, check_certificate, evaluate_certificate

__version__ = "0.1.0"

__all__ = [
    "LatticeFan",
    "Ray",
    "faces_of_dim",
    "is_projective",
    "locate",
    "spans_cone",
    "star_subdivision",
    "validate",
    "CurveClass",
    "PrimitiveRelation",
    "bundle_locus",
    "decompose_relation",
    "is_fano",
    "minimal_p_dimension",
    "opponents",
    "primitive_collections",
    "primitive_relation",
    "primitive_relations",
    "relevant_collections",
    "BlowdownSpec",
    "FlipSpec",
    "blowup",
    "contract",
    "flip",
    "is_contractible",
    "multi_flip",
    "anticanonical_degree",
    "candidate_bound_predicate",
    "ch2_dot_invariant_surface",
    "divisor_dot_orbit",
    "screen_2fano",
    "detect_exceptional",
    "diagnose_m3",
    "replay",
    "run_step1",
    "verify_output",
    "build_certificate",
    "check_certificate",
    "evaluate_certificate",
]
