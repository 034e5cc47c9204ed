"""Batch front end: one JSON config in, reports and artifacts out.

Subcommands mirror the library pipelines.  ``synthesize`` builds a
stage cost from a certificate and checks the certified policy pays
for it; ``verify`` replays a certificate's own inequalities;
``converse`` rebuilds an energy-budget certificate from a total-cost
one; ``oracle`` solves a finite system exactly: shortest-path values
confirmed by one Bellman sweep.

Exit codes: 0 pass, 1 a verification report failed, 2 bad config or
unmet precondition, 3 numeric or internal failure.  Identical config
and seed produce byte-identical CSV artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from typing import Optional

import numpy as np

from .cmpfn import fn_from_json, identity, scale, scale_kl
from .certificates import UVCCert, as_state_certificate, cert_to_json, uvc_to_ubgec, verify
from .converse import converse_pipeline
from .errors import (
    ChoiceRejectedError,
    ConfigError,
    InteractionRejectedError,
    ParameterError,
    StagecraftError,
)
from .library import BuiltinSystem, build_builtin
from .oracle import FiniteSystem, ValueTable, discretize_scalar, extract_ucc, value_iterate
from .synthesis import InteractionSpec, admit_interaction, certify_ucc, synthesize, to_ucc_cert
from .system import StageCost, _write_csv

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

DEFAULT_HORIZON = 64


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


def _read(config: dict, *path: str, **convert) -> dict:
    """The keys named in ``convert`` of the section at ``path``, converted.

    Every section on the path must be a JSON object; an absent one reads
    as empty.  Absent keys are left out of the result, so the callee's
    own defaults apply to them.  A value its converter rejects raises
    ConfigError naming the key.
    """
    spec = config
    for depth, key in enumerate(path):
        spec = spec.get(key, {})
        if not isinstance(spec, dict):
            raise ConfigError(f"config key {'.'.join(path[:depth + 1])!r} must be a JSON object")
    out = {}
    for key, converter in convert.items():
        if key in spec:
            try:
                out[key] = converter(spec[key])
            except (TypeError, ValueError) as exc:
                name = ".".join(path + (key,))
                raise ConfigError(
                    f"bad value {spec[key]!r} for config key {name!r}: {exc}"
                ) from None
    return out


def _grid(values) -> np.ndarray:
    return np.asarray(values, dtype=float)


def _integer(value) -> int:
    """A JSON integer, or a float with an integral value."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError("expected an integer")


def _boolean(value) -> bool:
    if type(value) is not bool:
        raise ValueError("expected true or false")
    return value


def _build_system(config: dict):
    """Returns (BuiltinSystem or None, ControlSystem, FiniteSystem or None)."""
    spec = config.get("system")
    if not isinstance(spec, dict):
        raise ConfigError("config needs a 'system' object")
    if "builtin" in spec:
        name = _read(config, "system", builtin=str)["builtin"]
        builtin = build_builtin(name, spec.get("params"))
        return builtin, builtin.system, builtin.finite
    if "finite" in spec:
        finite = FiniteSystem.from_json(spec["finite"])
        return None, finite.to_control_system(), finite
    if "discretize" in spec:
        inner = _read(
            config, "system", "discretize", builtin=str, state_grid=_grid, input_grid=_grid
        )
        missing = sorted({"builtin", "state_grid", "input_grid"} - inner.keys())
        if missing:
            raise ConfigError(f"system.discretize needs {', '.join(map(repr, missing))}")
        builtin = build_builtin(inner["builtin"], spec["discretize"].get("params"))
        finite = discretize_scalar(
            builtin.system.transition, inner["state_grid"], inner["input_grid"]
        )
        return None, finite.to_control_system(), finite
    raise ConfigError("system must name a 'builtin', 'finite', or 'discretize' source")


# the certificates a builtin bundles, by the config's ``certificate.kind``
_CERTIFICATES = {
    "ubgec": lambda builtin: builtin.ubgec,
    "uvc": lambda builtin: builtin.uvc,
    "uac": lambda builtin: as_state_certificate(builtin.uvc),
}


def _certificate(builtin: Optional[BuiltinSystem], kind: str, kinds=tuple(_CERTIFICATES)):
    if builtin is None:
        raise ConfigError("this command needs a builtin system with bundled certificates")
    if kind not in kinds:
        known = " or ".join(repr(k) for k in kinds)
        raise ConfigError(f"unsupported certificate kind {kind!r} here (use {known})")
    return _CERTIFICATES[kind](builtin)


_CROSS_FORMS = {
    "zero": lambda s, r: 0.0,
    "product": lambda s, r: s * r,
}


def _interaction(config: dict) -> InteractionSpec:
    spec = _read(config, "interaction", form=str, scale=float, c_state=float, c_input=float,
                 c_cross=float, gain=lambda g: None if g is None else fn_from_json(g))
    form = spec.pop("form", "zero")
    if form not in _CROSS_FORMS:
        raise ConfigError(f"unknown interaction form {form!r}; known: {sorted(_CROSS_FORMS)}")
    base, factor = _CROSS_FORMS[form], spec.pop("scale", 1.0)
    return InteractionSpec(cross=lambda s, r: factor * base(s, r), **spec)


def _synthesis(config: dict, builtin: Optional[BuiltinSystem], kind: str):
    """Stage cost synthesized on the builtin's certificate ``kind`` from the
    ``synthesis`` and ``interaction`` keys; returns (result, energy certificate)."""
    cert = _certificate(builtin, kind, ("ubgec", "uvc"))
    if isinstance(cert, UVCCert):
        decay = _read(config, "certificate", decay=float).get("decay", builtin.natural_decay)
        cert = uvc_to_ubgec(cert, decay=decay)
    params = _read(config, "synthesis", decay=float, state_coeff=float, input_coeff=float,
                   state_cost=fn_from_json, input_cost=fn_from_json, cost_bound_scale=float)
    bound_scale = params.pop("cost_bound_scale", 1.0)
    result = synthesize(cert, **{"decay": builtin.natural_decay, **params})
    if bound_scale != 1.0:
        result = dataclasses.replace(result, cost_bound=scale(bound_scale, result.cost_bound))
    if "interaction" in config:
        result = admit_interaction(_interaction(config), result, cert)
    return result, cert


def _draw_samples(builtin, finite, config: dict, seed: int) -> list:
    spec = _read(config, "samples", count=_integer, mode=str)
    count, mode = spec.get("count", 16), spec.get("mode", "default")
    if count < 0:
        raise ConfigError(f"sample count must be nonnegative, got {count}")
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


def _replay(config: dict) -> dict:
    """``horizon`` and ``slack`` of a run; the horizon has no library default."""
    return {"horizon": DEFAULT_HORIZON, **_read(config, horizon=_integer, slack=float)}


def _artifact(out_dir: str, name: str):
    return open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="")


def _write_json(payload: dict, out_dir: str, name: str) -> None:
    with _artifact(out_dir, name) as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)
        fp.write("\n")


def _finish(report, out_dir: str) -> int:
    with _artifact(out_dir, "report.csv") as fp:
        report.to_csv(fp)
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
    kind = _read(config, "certificate", kind=str).get("kind", "ubgec")
    result, cert = _synthesis(config, builtin, kind)
    samples = _draw_samples(builtin, finite, config, seed)
    report = certify_ucc(result, cert, sys_, samples, **_replay(config))
    _write_json(result.to_json(), out_dir, "synthesis.json")
    return _finish(report, out_dir)


def cmd_verify(config: dict, out_dir: str, seed: int) -> int:
    builtin, sys_, finite = _build_system(config)
    spec = _read(config, "certificate", kind=str, state_bound_scale=float)
    cert = _certificate(builtin, spec.get("kind", "ubgec"))
    scale_factor = spec.get("state_bound_scale", 1.0)
    if scale_factor != 1.0:
        cert = dataclasses.replace(cert, state_bound=scale_kl(cert.state_bound, scale_factor))
    samples = _draw_samples(builtin, finite, config, seed)
    report = verify(cert, sys_, samples, **_replay(config))
    _write_json(cert_to_json(cert), out_dir, "certificate.json")
    return _finish(report, out_dir)


def _oracle_values(config: dict, finite: FiniteSystem) -> ValueTable:
    """Exact values on ``finite`` under the stage cost of the config's ``oracle`` section."""
    cost = _read(config, "oracle", "stage_cost", state_cost=fn_from_json, input_cost=fn_from_json)
    stage_cost = StageCost(**{"state_cost": identity(), "input_cost": identity(), **cost})
    return value_iterate(finite, stage_cost)


def _ucc_from_config(config: dict, builtin, finite):
    spec = _read(config, "certificate", kind=str, base=str, forward_invariant=_boolean)
    kind = spec.get("kind", "synthesize")
    if kind == "oracle":
        if finite is None:
            raise ConfigError("oracle-built certificates need a finite system")
        margin = _read(config, "oracle", margin=float)
        return extract_ucc(_oracle_values(config, finite), finite, **margin)
    if kind == "synthesize":
        result, cert = _synthesis(config, builtin, spec.get("base", "ubgec"))
        return to_ucc_cert(result, cert, forward_invariant=spec.get("forward_invariant", True))
    raise ConfigError(f"unsupported certificate kind {kind!r} for converse")


def cmd_converse(config: dict, out_dir: str, seed: int) -> int:
    builtin, sys_, finite = _build_system(config)
    ucc = _ucc_from_config(config, builtin, finite)
    samples = _draw_samples(builtin, finite, config, seed)
    params = _read(config, "converse", depth=_integer, nu_depth=_integer,
                   eps_tilde_factor=float, policy_length=_integer)
    result = converse_pipeline(ucc, sys_, samples, **_replay(config), **params)
    _write_json(result.to_json(), out_dir, "converse.json")
    bound = result.cert.state_bound
    with _artifact(out_dir, "beta_grid.csv") as fp:
        rows = ([r, *row] for r, row in zip(bound.r_grid.tolist(), bound.values.tolist()))
        _write_csv(fp, [["r", *bound.t_grid.tolist()], *rows])
    with _artifact(out_dir, "schedules.csv") as fp:
        result.schedule_csv(fp)
    with _artifact(out_dir, "nu.csv") as fp:
        result.nu_csv(fp)
    return _finish(result.report, out_dir)


def cmd_oracle(config: dict, out_dir: str, seed: int) -> int:
    builtin, sys_, finite = _build_system(config)
    if finite is None:
        raise ConfigError("oracle runs need a finite or discretized system")
    table = _oracle_values(config, finite)
    with _artifact(out_dir, "value_table.csv") as fp:
        table.to_csv(finite, fp)
    _write_json(
        {
            "kind": "oracle",
            "iterations": table.iterations,
            # value_iterate raises unless its one sweep leaves every value in place
            "residual": 0.0,
            "converged": True,
            "finite_values": int(np.sum(np.isfinite(table.values))),
            "states": finite.num_states,
        },
        out_dir,
        "oracle.json",
    )
    print(f"PASS value iteration converged in {table.iterations} sweeps")
    return EXIT_PASS


_COMMANDS = {
    "synthesize": cmd_synthesize,
    "verify": cmd_verify,
    "converse": cmd_converse,
    "oracle": cmd_oracle,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later ``main`` calls."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

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
