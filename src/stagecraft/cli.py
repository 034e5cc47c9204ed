"""Batch front end: one JSON config in, reports and artifacts out.

Subcommands mirror the library pipelines.  ``synthesize`` builds a
stage cost from a certificate and checks the certified policy pays
for it; ``verify`` replays a certificate's own inequalities;
``converse`` rebuilds an energy-budget certificate from a total-cost
one; ``oracle`` solves a finite system exactly: shortest-path values
confirmed by one Bellman sweep.

Exit codes: 0 pass, 1 a verification report failed, 2 bad config or
unmet precondition, 3 numeric or internal failure.  Identical config
and seed produce byte-identical CSV and JSON artifacts.  This module
writes every artifact, through ``_write_json`` and ``_write_csv``; the
library returns values and opens no file.  Config numbers are read by
the JSON codec's readers ``cmpfn._real`` and ``cmpfn._grid``, the rule
every expression node, decay bound and finite measure table follows.
"""

from __future__ import annotations

import argparse
import array
import dataclasses
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Optional

import numpy as np

from .cmpfn import _grid, _real, fn_from_json, identity, scale, scale_kl
from .certificates import MarginRow, UVCCert, as_state_certificate, uvc_to_ubgec, verify
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
from .system import StageCost

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
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path!r} is not UTF-8 text: {exc}") from None
    except RecursionError:
        raise ConfigError(f"config {path!r} nests too deeply to read") from None
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


def _read(config: dict, *path: str, **convert) -> dict:
    """The keys named in ``convert`` of the section at ``path``, converted.

    Every section on the path must be a JSON object; an absent one reads
    as empty.  Absent keys are left out of the result, so the callee's
    own defaults apply to them.  A value its converter rejects raises
    ConfigError naming the key, and so does a value nested too deeply to
    convert.
    """
    spec = config
    for depth, key in enumerate(path):
        spec = spec.get(key, {})
        if not isinstance(spec, dict):
            raise ConfigError(f"config key {'.'.join(path[:depth + 1])!r} must be a JSON object")
    out = {}
    for key, converter in convert.items():
        if key in spec:
            name = ".".join(path + (key,))
            try:
                out[key] = converter(spec[key])
            except (TypeError, ValueError, OverflowError, ParameterError) as exc:
                raise ConfigError(
                    f"bad value {spec[key]!r} for config key {name!r}: {exc}"
                ) from None
            except RecursionError:
                raise ConfigError(f"config key {name!r} nests too deeply to read") from None
    return out


def _integer(value) -> int:
    """A JSON integer, or a float with an integral value."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError("expected an integer")


# the numeric params of the builtins that take any, by builtin name
_PARAMS = {
    "scalar_linear": {"a": _real, "b": _real, "gain": lambda g: None if g is None else _real(g)},
    "finite_chain": {"length": _integer},
}


def _builtin(config: dict, *path: str) -> BuiltinSystem:
    """The builtin named by the section at ``path``, built from its ``params``."""
    name = _read(config, *path, builtin=str)["builtin"]
    numbers = _read(config, *path, "params", **_PARAMS.get(name, {}))
    params = functools.reduce(dict.get, path, config).get("params", {})
    return build_builtin(name, {**params, **numbers})


def _build_system(config: dict):
    """Returns (BuiltinSystem or None, ControlSystem, FiniteSystem or None)."""
    spec = config.get("system")
    if not isinstance(spec, dict):
        raise ConfigError("config needs a 'system' object")
    if "builtin" in spec:
        builtin = _builtin(config, "system")
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
        builtin = _builtin(config, "system", "discretize")
        # the grids step as one array, so the builtin must be vectorized with scalar states
        if not builtin.system.vectorized or np.ndim(builtin.samples(1)[0]):
            raise ConfigError(
                f"config key 'system.discretize.builtin' names {builtin.name!r}, "
                "which is not a vectorized system with a scalar state"
            )
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
    spec = _read(config, "interaction", form=str, scale=_real, c_state=_real, c_input=_real,
                 c_cross=_real, gain=lambda g: None if g is None else fn_from_json(g))
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
        decay = _read(config, "certificate", decay=_real).get("decay", builtin.natural_decay)
        cert = uvc_to_ubgec(cert, decay=decay)
    params = _read(config, "synthesis", decay=_real, state_coeff=_real, input_coeff=_real,
                   state_cost=fn_from_json, input_cost=fn_from_json, cost_bound_scale=_real)
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
    if mode not in ("default", "random"):
        raise ConfigError(f"unknown sample mode {mode!r}")
    if mode == "random" and seed < 0:
        raise ConfigError(f"--seed must be nonnegative for random samples, got {seed}")
    rng = np.random.default_rng(seed) if mode == "random" else None
    return (builtin or finite).samples(count, rng)


def _replay(config: dict) -> dict:
    """``horizon`` and ``slack`` of a run; the horizon has no library default."""
    return {"horizon": DEFAULT_HORIZON, **_read(config, horizon=_integer, slack=_real)}


def _artifact(out_dir: str, name: str):
    path = os.path.join(out_dir, name)
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write artifact {path!r}: {exc}") from None


def _json_text(value, pad: str, formatted: dict) -> str:
    """The text ``json.dumps(value, indent=2, sort_keys=True)`` gives ``value``,
    every key a string, nested at indent ``pad``: the layout is built here, the
    numbers by the C encoder, a float list in one call.  ``formatted`` keeps
    each float list's item text under the list's exact bytes (-0.0 == 0.0, but
    their text differs), so a list that repeats at any depth is formatted once."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        items = [f"{encode_basestring_ascii(key)}: {_json_text(item, inner, formatted)}"
                 for key, item in sorted(value.items())]
        brackets = "{}"
    elif isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) == {float}:
            key = array.array("d", value).tobytes()
            if key not in formatted:
                formatted[key] = json.dumps(value)[1:-1].split(", ")
            items = formatted[key]
        else:
            items = [_json_text(item, inner, formatted) for item in value]
        brackets = "[]"
    else:
        return json.dumps(value)
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def _write_json(payload: dict, out_dir: str, name: str) -> None:
    """Writes ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline,
    formatting each repeated float list of the file once."""
    # the memo is an argument, not a closure: a nested recursive function is a
    # reference cycle that would keep each file's memo until the cycle collector runs
    with _artifact(out_dir, name) as fp:
        fp.write(_json_text(payload, "", {}) + "\n")


@functools.cache
def _row_format(types: tuple) -> str:
    """The ``%`` format of a CSV line whose cells have these types."""
    cells = ("%.17g" if issubclass(kind, (float, np.floating)) else "%s" for kind in types)
    return ",".join(cells) + "\r\n"


def _write_csv(out_dir: str, name: str, header, rows) -> None:
    """Writes ``header`` and then each of ``rows`` as one CSV line ending in CRLF.

    Floats, numpy floats included, take 17 significant digits, enough to
    round-trip a double; any other value is written with ``str``.  Each
    line is one ``%`` with the format of its tuple of cell types, and the
    file is written in one call.
    """
    rows = [tuple(row) for row in (header, *rows)]
    text = "".join(_row_format(tuple(map(type, row))) % row for row in rows)
    with _artifact(out_dir, name) as fp:
        fp.write(text)


_MARGIN_COLUMNS = tuple(field.name for field in dataclasses.fields(MarginRow))


def _finish(report, out_dir: str) -> int:
    rows = map(attrgetter(*_MARGIN_COLUMNS), report.rows)
    _write_csv(out_dir, "report.csv", _MARGIN_COLUMNS, rows)
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
    spec = _read(config, "certificate", kind=str, state_bound_scale=_real)
    cert = _certificate(builtin, spec.get("kind", "ubgec"))
    scale_factor = spec.get("state_bound_scale", 1.0)
    if scale_factor != 1.0:
        cert = dataclasses.replace(cert, state_bound=scale_kl(cert.state_bound, scale_factor))
    samples = _draw_samples(builtin, finite, config, seed)
    report = verify(cert, sys_, samples, **_replay(config))
    _write_json(cert.to_json(), out_dir, "certificate.json")
    return _finish(report, out_dir)


def _oracle_values(config: dict, finite: FiniteSystem) -> ValueTable:
    """Exact values on ``finite`` under the stage cost of the config's ``oracle`` section."""
    cost = _read(config, "oracle", "stage_cost", state_cost=fn_from_json, input_cost=fn_from_json)
    stage_cost = StageCost(**{"state_cost": identity(), "input_cost": identity(), **cost})
    return value_iterate(finite, stage_cost)


def _ucc_from_config(config: dict, builtin, finite):
    spec = _read(config, "certificate", kind=str, base=str)
    kind = spec.get("kind", "synthesize")
    if kind == "oracle":
        if finite is None:
            raise ConfigError("oracle-built certificates need a finite system")
        margin = _read(config, "oracle", margin=_real)
        return extract_ucc(_oracle_values(config, finite), finite, **margin)
    if kind == "synthesize":
        result, cert = _synthesis(config, builtin, spec.get("base", "ubgec"))
        return to_ucc_cert(result, cert, forward_invariant=True)
    raise ConfigError(f"unsupported certificate kind {kind!r} for converse")


def cmd_converse(config: dict, out_dir: str, seed: int) -> int:
    builtin, sys_, finite = _build_system(config)
    ucc = _ucc_from_config(config, builtin, finite)
    samples = _draw_samples(builtin, finite, config, seed)
    params = _read(config, "converse", depth=_integer, nu_depth=_integer)
    result = converse_pipeline(ucc, sys_, samples, **_replay(config), **params)
    _write_json(result.to_json(), out_dir, "converse.json")
    bound = result.cert.state_bound
    _write_csv(out_dir, "beta_grid.csv", ["r", *bound.t_grid.tolist()],
               ([r, *row] for r, row in zip(bound.r_grid.tolist(), bound.values.tolist())))
    rounds, nu = [], []
    for s in result.schedules:
        levels = zip(s.eps_levels, s.eps_targets, s.round_horizons, s.cum_horizons)
        rounds += ((s.radius, m, *level) for m, level in enumerate(levels, 1))
        # nine points of the smoothed settling-time curve, from just above twice its floor
        lo = 2.0 * s.floor * 1.05
        nu += ((s.radius, eps, s.value(eps)) for eps in np.geomspace(lo, max(4.0, 4.0 * lo), 9))
    _write_csv(out_dir, "schedules.csv",
               ("radius", "round", "eps_level", "eps_target", "round_horizon", "cum_horizon"), rounds)
    _write_csv(out_dir, "nu.csv", ("radius", "eps", "nu"), nu)
    return _finish(result.report, out_dir)


def cmd_oracle(config: dict, out_dir: str, seed: int) -> int:
    builtin, sys_, finite = _build_system(config)
    if finite is None:
        raise ConfigError("oracle runs need a finite or discretized system")
    table = _oracle_values(config, finite)
    rows = zip(range(finite.num_states), finite.state_measure.tolist(), table.values.tolist(),
               table.greedy.tolist())
    _write_csv(out_dir, "value_table.csv", ("state", "sigma", "value", "greedy"), rows)
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
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {args.out!r}: {exc}") from None
        return _COMMANDS[args.command](config, args.out, args.seed)
    except (ParameterError, ChoiceRejectedError, InteractionRejectedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StagecraftError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
