"""Tests of the package's public surface."""

from __future__ import annotations

import entrobox

# Every name the package exported before its export list was built from the
# modules' own ``__all__``; a name may not drop out silently.
EXPORTED = {
    "__version__",
    # errors
    "EntroboxError",
    "NegativeProbabilityError",
    "ProbabilitySumError",
    "ShrinkForbiddenError",
    "ShapeMismatchError",
    "BadAxisError",
    "BadOrderError",
    "NotHermitianError",
    "NotPositiveError",
    "BadTraceError",
    "NotUnitaryError",
    "DimMismatchError",
    "BadAngleError",
    # reports
    "InequalityReport",
    "GAP_TOLERANCE",
    "IDENTITY_TOLERANCE",
    # simplex
    "ProbVec",
    "ProbTable",
    "EntropyValue",
    "ConditionalSplit",
    "validate_prob_vec",
    "normalized_prob_vec",
    "pad",
    "reshape",
    "marginal2",
    "marginal3",
    "shannon",
    "tsallis",
    "subadditivity_gap",
    "strong_subadditivity_gap",
    "conditional_pair",
    "conditional_entropy",
    "conditional_tsallis",
    "tsallis_monotonicity_check",
    "minimal_padded_dim",
    "admissible_shapes",
    # qstate
    "DensityMatrix",
    "Spectrum",
    "ReductionPlan",
    "validate_density",
    "pad_density",
    "reduce",
    "spectrum",
    "von_neumann",
    "quantum_subadditivity",
    "quantum_strong_subadditivity",
    "qutrit_reductions",
    # tomography
    "UnitaryMatrix",
    "Tomogram",
    "DiscordReport",
    "validate_unitary",
    "eigenbasis_unitary",
    "tomogram",
    "tomographic_entropy",
    "minimize_tomographic_entropy",
    "minimize_entropy_batch",
    "marginal_tomograms",
    "tomographic_information",
    "discord",
    "discord_unitary_sweep",
    "spin_tomogram_axis",
}


def test_all_has_no_duplicates():
    assert len(entrobox.__all__) == len(set(entrobox.__all__))


def test_all_is_the_exported_set():
    assert len(EXPORTED) == 62
    assert set(entrobox.__all__) == EXPORTED


def test_every_exported_name_resolves():
    for name in entrobox.__all__:
        assert getattr(entrobox, name) is not None, name
