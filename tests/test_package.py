"""The package's public surface: what ``stagecraft`` exports and from where."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import stagecraft

# every name the package exports, sorted; a name can neither appear nor vanish
# without an edit here
EXPORTS = [
    "BUILTIN_FACTORIES", "BudgetError", "BuiltinSystem", "CertificateInvalidError",
    "ChoiceRejectedError", "ConfigError", "ControlSystem", "ConverseResult", "DEFAULT_R_GRID",
    "DEFAULT_T_GRID", "DecompositionError", "DomainError", "EnvelopeError", "FiniteSystem",
    "InteractionRejectedError", "InteractionSpec", "InversionError", "KInfFn", "KLFn",
    "KLValidityError", "MarginRow", "MonotoneInputError", "NonContractionError", "NonnegFn",
    "ParameterError", "PolicyOracle", "SampledKL", "SeparableKL",
    "SettlingSchedule", "SimulationError", "StageCost", "StagecraftError", "StitchResult",
    "SynthesisResult", "Trajectory", "TransientData", "TransientSplit", "UACCert", "UBgECCert",
    "UCCCert", "UVCCert", "ValueTable", "VerificationReport", "admissible_wrapper",
    "admit_interaction", "as_state_certificate", "assemble_state_bound", "build_builtin",
    "certify_ucc", "combine", "compose", "const_fn", "converse_pipeline", "discretize_scalar",
    "excursion_bound", "extract_ucc", "finite_chain", "fn_from_json", "greedy_policy", "identity",
    "inverse_of", "joint_bound_merge", "joint_bound_split", "kl_decompose", "kl_from_json",
    "linear", "pointwise_min", "power", "reaches_core", "relay_bound", "rollout", "rollout_all",
    "saturating_scalar", "scalar_linear", "scale", "scale_kl", "settle_horizon",
    "settling_schedule", "stage_costs", "stitch_controls", "strict_table", "synthesize",
    "table_fn", "to_ucc_cert", "total_bound", "transient_split", "two_state_linear",
    "uvc_to_ubgec", "value_iterate", "verify", "zero_cost_core",
]

MODULES = (
    "cmpfn", "system", "certificates", "synthesis", "converse", "oracle", "library", "errors",
)


def _traced_targets():
    """The ``FUNCTIONS`` and ``METHODS`` tables of ``bench/tracing.py``, read, not imported."""
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "tracing.py").read_text())
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("FUNCTIONS", "METHODS")
    }


TRACED = _traced_targets()


def test_frozen_exports_still_resolve():
    assert sorted(stagecraft.__all__) == EXPORTS
    assert [name for name in EXPORTS if not hasattr(stagecraft, name)] == []


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


@pytest.mark.parametrize("span", sorted(TRACED["FUNCTIONS"]))
def test_traced_function_resolves(span):
    module_name, attr = TRACED["FUNCTIONS"][span]
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("span", sorted(TRACED["METHODS"]))
def test_traced_methods_resolve(span):
    module_name, cls_name, methods = TRACED["METHODS"][span]
    cls = getattr(importlib.import_module(module_name), cls_name)
    # the tracer replaces each method in the class's own namespace
    assert [m for m in methods if not callable(vars(cls).get(m))] == []


# the parameters that the tracer's hooks bind by name, per span
BOUND_PARAMETERS = {
    "converse.schedule": ("radius",),
    "certificates.verify": ("samples", "horizon"),
    "cmpfn.decompose": ("beta",),
}


def test_traced_hooks_find_what_they_bind():
    for span, names in BOUND_PARAMETERS.items():
        module_name, attr = TRACED["FUNCTIONS"][span]
        function = getattr(importlib.import_module(module_name), attr)
        missing = [name for name in names if name not in inspect.signature(function).parameters]
        assert missing == [], span
    # the "oracle.value_iterate" hook reads the returned table's sweep count and values
    finite = stagecraft.finite_chain().finite
    cost = stagecraft.StageCost(state_cost=stagecraft.identity(), input_cost=stagecraft.identity())
    table = stagecraft.value_iterate(finite, cost)
    assert isinstance(table.iterations, int)
    assert table.values.shape == (finite.num_states,)
