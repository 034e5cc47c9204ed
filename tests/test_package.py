"""The package's public surface: what ``stagecraft`` exports and from where."""

import importlib

import pytest

import stagecraft

# names exported before the export list was built from the module lists
FROZEN_EXPORTS = [
    "BUILTIN_FACTORIES", "BudgetError", "BuiltinSystem", "CertificateInvalidError",
    "ChoiceRejectedError", "ConfigError", "ControlSystem", "ConverseResult",
    "CostLimit", "DEFAULT_R_GRID", "DEFAULT_T_GRID", "DecompositionError",
    "DomainError", "EnvelopeError", "FiniteSystem", "InteractionRejectedError",
    "InteractionSpec", "InvariantViolation", "InversionError", "KInfFn", "KLFn",
    "KLValidityError", "MonotoneInputError", "NonContractionError", "NonnegFn",
    "NuCurve", "ParameterError", "PolicyError", "PolicyOracle", "SampledKL",
    "SeparableKL", "SettlingSchedule", "SimulationError", "StageCost",
    "StagecraftError", "SynthesisResult", "Trajectory", "TransientData",
    "TransientSplit", "UACCert", "UBgECCert", "UCCCert", "UVCCert", "ValueTable",
    "VerificationReport", "admissible_wrapper", "admit_interaction",
    "as_state_certificate", "assemble_state_bound", "brute_force_values",
    "build_builtin", "cert_to_json", "certify_ucc", "combine", "compose", "const_fn",
    "converse_pipeline", "discretize_scalar", "excursion_bound", "extract_ucc",
    "fn_from_json", "greedy_policy", "identity", "inverse_of", "joint_bound_merge",
    "joint_bound_split", "kl_decompose", "kl_from_json", "kl_grid_violations", "linear",
    "pointwise_min", "power", "reaches_core", "relay_bound", "rollout", "sample_kl",
    "scale", "scale_kl", "settle_horizon", "settling_schedule", "stage_costs",
    "stitch_controls", "stitched_policy", "strict_table", "synthesize", "table_fn",
    "to_ucc_cert", "total_bound", "total_cost", "total_cost_limit",
    "transient_partition", "transient_split", "transient_split_bound", "uvc_to_ubgec",
    "value_iterate", "verify", "weak_triangle_split", "write_trajectory_csv",
    "zero_cost_core",
]

MODULES = (
    "cmpfn", "system", "certificates", "synthesis", "converse", "oracle", "library", "errors",
)


def test_frozen_exports_still_resolve():
    missing = [name for name in FROZEN_EXPORTS if name not in stagecraft.__all__]
    assert missing == []
    assert [name for name in FROZEN_EXPORTS if not hasattr(stagecraft, name)] == []


def test_export_list_has_no_duplicates():
    assert len(stagecraft.__all__) == len(set(stagecraft.__all__))


@pytest.mark.parametrize("module_name", MODULES)
def test_module_exports_exist_and_reach_the_package(module_name):
    module = importlib.import_module(f"stagecraft.{module_name}")
    for name in module.__all__:
        assert hasattr(module, name), name
        assert getattr(stagecraft, name) is getattr(module, name), name
        assert name in stagecraft.__all__, name


def test_package_exports_only_module_names():
    modules = [importlib.import_module(f"stagecraft.{m}") for m in MODULES]
    assert set(stagecraft.__all__) == {name for m in modules for name in m.__all__}
