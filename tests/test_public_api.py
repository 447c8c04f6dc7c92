"""The package's public names, as a literal: adding, removing or
renaming one must change this list too."""

import catdistort

PUBLIC = [
    "Alphabet", "BallRecord", "BlockParams", "CellDecomposition",
    "DistortionCurve", "Exact", "Gen", "GirthReport", "GluingReport",
    "GroupSpec", "InjectivityCertificate", "LengthExpr", "LinkGraph",
    "PairReport", "PositiveEndomorphism", "ReductionTrace", "Relator",
    "SeparationReport", "StallingsGraph", "Tower", "alphabet_of", "ball",
    "britton_reduce", "build_block", "build_chain", "build_double",
    "build_link", "certify_injective", "check_chain_gluing",
    "check_large_link", "check_pair_uniqueness", "check_separation", "chop",
    "decompose_cell", "equal", "expand_length", "expr_cmp", "fold",
    "free_group", "free_reduce", "invert", "is_positive", "is_reduced",
    "is_trivial", "lower_bound_curve", "measure_distortion", "membership",
    "normalize", "rank", "rewrite_preimage", "rose_from_words", "sigma",
    "spec_from_json", "spec_to_json", "to_base", "upper_bound_audit",
    "verify_retraction", "witness_block", "witness_chain", "witness_tower",
]


def test_public_surface_is_pinned():
    assert sorted(catdistort.__all__) == PUBLIC
