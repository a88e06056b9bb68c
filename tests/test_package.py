"""Tests of the package's public surface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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


def test_importing_the_package_and_its_command_line_leaves_scipy_out():
    # a new interpreter, so no other test's imports count; it finds the
    # package where this one did
    src = str(Path(entrobox.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = (
        "import sys, entrobox, entrobox.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
