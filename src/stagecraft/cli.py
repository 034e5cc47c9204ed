"""Batch front end: one JSON config in, reports and artifacts out.

Subcommands mirror the library pipelines.  ``synthesize`` builds a
stage cost from a certificate and checks the certified policy pays
for it; ``verify`` replays a certificate's own inequalities;
``converse`` rebuilds an energy-budget certificate from a total-cost
one; ``oracle`` runs value iteration on a finite system.

Exit codes: 0 pass, 1 a verification report failed, 2 bad config or
unmet precondition, 3 numeric or internal failure.  Identical config
and seed produce byte-identical CSV artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional

import numpy as np

from .cmpfn import fn_from_json, identity, scale, scale_kl
from .certificates import UBgECCert, as_state_certificate, cert_to_json, uvc_to_ubgec, verify
from .converse import converse_pipeline
from .errors import (
    ChoiceRejectedError,
    ConfigError,
    InteractionRejectedError,
    ParameterError,
    StagecraftError,
)
from .library import BuiltinSystem, build_builtin
from .oracle import (
    DEFAULT_MAX_ITER,
    FiniteSystem,
    ValueTable,
    discretize_scalar,
    extract_ucc,
    value_iterate,
)
from .synthesis import InteractionSpec, admit_interaction, certify_ucc, synthesize, to_ucc_cert
from .system import StageCost, _fmt

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fp:
            config = json.load(fp)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


def _build_system(config: dict):
    """Returns (BuiltinSystem or None, ControlSystem, FiniteSystem or None)."""
    spec = config.get("system")
    if not isinstance(spec, dict):
        raise ConfigError("config needs a 'system' object")
    if "builtin" in spec:
        builtin = build_builtin(spec["builtin"], spec.get("params"))
        return builtin, builtin.system, builtin.finite
    if "finite" in spec:
        finite = FiniteSystem.from_json(spec["finite"])
        return None, finite.to_control_system(), finite
    if "discretize" in spec:
        inner = spec["discretize"]
        builtin = build_builtin(inner["builtin"], inner.get("params"))
        finite = discretize_scalar(
            builtin.system.transition,
            np.asarray(inner["state_grid"], dtype=float),
            np.asarray(inner["input_grid"], dtype=float),
        )
        return None, finite.to_control_system(), finite
    raise ConfigError("system must name a 'builtin', 'finite', or 'discretize' source")


def _builtin_certificate(
    builtin: Optional[BuiltinSystem], config: dict, kind: Optional[str] = None
) -> UBgECCert:
    if builtin is None:
        raise ConfigError("this command needs a builtin system with bundled certificates")
    if kind is None:
        kind = config.get("certificate", {}).get("kind", "ubgec")
    if kind == "ubgec":
        return builtin.ubgec
    if kind == "uvc":
        decay = config.get("certificate", {}).get("decay", builtin.natural_decay)
        return uvc_to_ubgec(builtin.uvc, decay=float(decay))
    raise ConfigError(f"unsupported certificate kind {kind!r} here (use 'ubgec' or 'uvc')")


_CROSS_FORMS = {
    "zero": lambda s, r: 0.0,
    "product": lambda s, r: s * r,
}


def _interaction_from_config(spec: dict) -> InteractionSpec:
    form = spec.get("form", "zero")
    if form not in _CROSS_FORMS:
        raise ConfigError(f"unknown interaction form {form!r}; known: {sorted(_CROSS_FORMS)}")
    base = _CROSS_FORMS[form]
    factor = float(spec.get("scale", 1.0))
    gain = spec.get("gain")
    return InteractionSpec(
        cross=lambda s, r: factor * base(s, r),
        c_state=float(spec.get("c_state", 0.0)),
        c_input=float(spec.get("c_input", 0.0)),
        c_cross=float(spec.get("c_cross", 0.0)),
        gain=None if gain is None else fn_from_json(gain),
    )


def _draw_samples(builtin, sys, finite, config: dict, seed: int) -> list:
    spec = config.get("samples", {})
    count = int(spec.get("count", 16))
    if count < 0:
        raise ConfigError(f"sample count must be nonnegative, got {count}")
    mode = spec.get("mode", "default")
    if mode == "default":
        if builtin is not None:
            return builtin.samples(count)
        if finite is not None:
            return [int(i % finite.num_states) for i in range(count)]
        raise ConfigError("no default samples for this system; use random mode")
    if mode == "random":
        rng = np.random.default_rng(seed)
        if finite is not None:
            return [int(v) for v in rng.integers(0, finite.num_states, size=count)]
        if builtin is not None and builtin.name == "two_state_linear":
            angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
            mags = 10.0 ** rng.uniform(-2.0, 2.0, size=count)
            return [
                m * np.array([np.cos(a), np.sin(a)]) for a, m in zip(angles, mags)
            ]
        signs = rng.choice([-1.0, 1.0], size=count)
        mags = 10.0 ** rng.uniform(-2.0, 2.0, size=count)
        return [float(s * m) for s, m in zip(signs, mags)]
    raise ConfigError(f"unknown sample mode {mode!r}")


def _write_json(payload: dict, out_dir: str, name: str) -> None:
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)
        fp.write("\n")


def _write_report(report, out_dir: str, name: str = "report.csv") -> None:
    with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="") as fp:
        report.to_csv(fp)


def _finish(report, out_dir: str) -> int:
    _write_report(report, out_dir)
    if report.vacuous:
        print("warning: no inequalities were checked (empty sample set)", file=sys.stderr)
        print("PASS (vacuous)")
        return EXIT_PASS
    worst = report.worst()
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{verdict} worst margin {worst.margin:.3g} ({worst.inequality}, sample {worst.sample})")
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_synthesize(config: dict, out_dir: str, seed: int) -> int:
    builtin, sys_, finite = _build_system(config)
    cert = _builtin_certificate(builtin, config)
    params = config.get("synthesis", {})
    decay = float(params.get("decay", builtin.natural_decay))
    result = synthesize(
        cert,
        decay=decay,
        state_coeff=float(params.get("state_coeff", 1.0)),
        input_coeff=float(params.get("input_coeff", 1.0)),
        state_cost=None
        if "state_cost" not in params
        else fn_from_json(params["state_cost"]),
        input_cost=None
        if "input_cost" not in params
        else fn_from_json(params["input_cost"]),
    )
    bound_scale = float(params.get("cost_bound_scale", 1.0))
    if bound_scale != 1.0:
        result = dataclasses.replace(result, cost_bound=scale(bound_scale, result.cost_bound))
    if "interaction" in config:
        result = admit_interaction(_interaction_from_config(config["interaction"]), result, cert)
    samples = _draw_samples(builtin, sys_, finite, config, seed)
    report = certify_ucc(
        result,
        cert,
        sys_,
        samples,
        horizon=int(config.get("horizon", 64)),
        slack=float(config.get("slack", 1e-9)),
    )
    _write_json(result.to_json(), out_dir, "synthesis.json")
    return _finish(report, out_dir)


def cmd_verify(config: dict, out_dir: str, seed: int) -> int:
    builtin, sys_, finite = _build_system(config)
    kind = config.get("certificate", {}).get("kind", "ubgec")
    if builtin is None:
        raise ConfigError("verify needs a builtin system with bundled certificates")
    if kind == "uvc":
        cert = builtin.uvc
    elif kind == "ubgec":
        cert = builtin.ubgec
    elif kind == "uac":
        cert = as_state_certificate(builtin.uvc)
    else:
        raise ConfigError(f"unsupported certificate kind {kind!r}")
    scale_factor = float(config.get("certificate", {}).get("state_bound_scale", 1.0))
    if scale_factor != 1.0:
        cert = dataclasses.replace(cert, state_bound=scale_kl(cert.state_bound, scale_factor))
    samples = _draw_samples(builtin, sys_, finite, config, seed)
    report = verify(
        cert,
        sys_,
        samples,
        horizon=int(config.get("horizon", 64)),
        slack=float(config.get("slack", 1e-9)),
    )
    _write_json(cert_to_json(cert), out_dir, "certificate.json")
    return _finish(report, out_dir)


def _oracle_values(config: dict, finite: FiniteSystem) -> ValueTable:
    """Value iteration on ``finite`` under the config's ``oracle`` section."""
    params = config.get("oracle", {})
    cost_spec = params.get("stage_cost", {})
    cost = StageCost(
        state_cost=identity()
        if "state_cost" not in cost_spec
        else fn_from_json(cost_spec["state_cost"]),
        input_cost=identity()
        if "input_cost" not in cost_spec
        else fn_from_json(cost_spec["input_cost"]),
    )
    return value_iterate(
        finite,
        cost,
        tol=float(params.get("tol", 1e-10)),
        max_iter=int(params.get("max_iter", DEFAULT_MAX_ITER)),
    )


def _ucc_from_config(config: dict, builtin, sys_, finite):
    spec = config.get("certificate", {})
    kind = spec.get("kind", "synthesize")
    if kind == "oracle":
        if finite is None:
            raise ConfigError("oracle-built certificates need a finite system")
        margin = float(config.get("oracle", {}).get("margin", 1.5))
        return extract_ucc(_oracle_values(config, finite), finite, margin=margin)
    if kind == "synthesize":
        cert = _builtin_certificate(builtin, config, kind=spec.get("base", "ubgec"))
        params = config.get("synthesis", {})
        result = synthesize(
            cert,
            decay=float(params.get("decay", builtin.natural_decay)),
            state_coeff=float(params.get("state_coeff", 1.0)),
            input_coeff=float(params.get("input_coeff", 1.0)),
        )
        invariant = bool(spec.get("forward_invariant", True))
        return to_ucc_cert(result, cert, forward_invariant=invariant)
    raise ConfigError(f"unsupported certificate kind {kind!r} for converse")


def cmd_converse(config: dict, out_dir: str, seed: int) -> int:
    builtin, sys_, finite = _build_system(config)
    ucc = _ucc_from_config(config, builtin, sys_, finite)
    samples = _draw_samples(builtin, sys_, finite, config, seed)
    params = config.get("converse", {})
    result = converse_pipeline(
        ucc,
        sys_,
        samples,
        horizon=int(config.get("horizon", 64)),
        depth=int(params.get("depth", 16)),
        nu_depth=int(params.get("nu_depth", 48)),
        eps_tilde_factor=float(params.get("eps_tilde_factor", 0.5)),
        slack=float(config.get("slack", 1e-9)),
        policy_length=int(params.get("policy_length", 4096)),
    )
    _write_json(result.to_json(), out_dir, "converse.json")
    bound = result.cert.state_bound
    with open(os.path.join(out_dir, "beta_grid.csv"), "w", encoding="utf-8", newline="") as fp:
        header = "r," + ",".join(_fmt(t) for t in bound.t_grid)
        fp.write(header + "\r\n")
        for r, row in zip(bound.r_grid, bound.values):
            fp.write(_fmt(r) + "," + ",".join(_fmt(v) for v in row) + "\r\n")
    with open(os.path.join(out_dir, "schedules.csv"), "w", encoding="utf-8", newline="") as fp:
        result.schedule_csv(fp)
    with open(os.path.join(out_dir, "nu.csv"), "w", encoding="utf-8", newline="") as fp:
        result.nu_csv(fp)
    return _finish(result.report, out_dir)


def cmd_oracle(config: dict, out_dir: str, seed: int) -> int:
    builtin, sys_, finite = _build_system(config)
    if finite is None:
        raise ConfigError("oracle runs need a finite or discretized system")
    table = _oracle_values(config, finite)
    with open(os.path.join(out_dir, "value_table.csv"), "w", encoding="utf-8", newline="") as fp:
        table.to_csv(finite, fp)
    _write_json(
        {
            "kind": "oracle",
            "iterations": table.iterations,
            "residual": table.residual,
            "converged": table.converged,
            "finite_values": int(np.sum(np.isfinite(table.values))),
            "states": finite.num_states,
        },
        out_dir,
        "oracle.json",
    )
    if not table.converged:
        print(f"FAIL value iteration stalled at residual {table.residual:.3g}")
        return EXIT_NUMERIC
    print(f"PASS value iteration converged in {table.iterations} sweeps")
    return EXIT_PASS


_COMMANDS = {
    "synthesize": cmd_synthesize,
    "verify": cmd_verify,
    "converse": cmd_converse,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stagecraft",
        description="certificate verification, stage-cost synthesis, and converse runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to the experiment JSON")
        cmd.add_argument("--out", default="stagecraft-out", help="output directory")
        cmd.add_argument("--seed", type=int, default=0, help="RNG seed for random samples")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](config, args.out, args.seed)
    except (ParameterError, ChoiceRejectedError, InteractionRejectedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StagecraftError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
