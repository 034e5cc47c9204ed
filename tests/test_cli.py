"""End-to-end runs of the command line front end."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stagecraft import build_builtin, fn_from_json, linear, synthesize, uvc_to_ubgec
from stagecraft import cli
from stagecraft.cli import _parser, _write_csv, _write_json, main


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def kinf(expr):
    """The JSON of a strictly increasing unbounded function with tree ``expr``."""
    return {"kind": "kinf", "expr": expr}


def run(tmp_path, command, payload, seed=0, outname="out"):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / outname
    rc = main([command, "--config", cfg, "--out", str(out), "--seed", str(seed)])
    return rc, out


class TestVerifyCommand:
    def test_passing_run_exits_zero(self, tmp_path, capsys):
        rc, out = run(
            tmp_path,
            "verify",
            {"system": {"builtin": "scalar_linear"}, "samples": {"count": 6}},
        )
        assert rc == 0
        assert capsys.readouterr().out.startswith("PASS")
        assert (out / "report.csv").exists()
        assert (out / "certificate.json").exists()

    def test_report_uses_crlf(self, tmp_path):
        rc, out = run(
            tmp_path,
            "verify",
            {"system": {"builtin": "scalar_linear"}, "samples": {"count": 4}},
        )
        assert rc == 0
        raw = (out / "report.csv").read_bytes()
        assert raw.count(b"\r\n") == raw.count(b"\n")

    def test_shrunken_bound_exits_one(self, tmp_path, capsys):
        rc, _ = run(
            tmp_path,
            "verify",
            {
                "system": {"builtin": "scalar_linear"},
                "certificate": {"kind": "uvc", "state_bound_scale": 0.5},
                "samples": {"count": 4},
            },
        )
        assert rc == 1
        assert capsys.readouterr().out.startswith("FAIL")

    def test_uac_projection_kind(self, tmp_path):
        rc, _ = run(
            tmp_path,
            "verify",
            {
                "system": {"builtin": "saturating_scalar"},
                "certificate": {"kind": "uac"},
                "samples": {"count": 4},
            },
        )
        assert rc == 0

    def test_vacuous_run_warns_but_passes(self, tmp_path, capsys):
        rc, _ = run(
            tmp_path,
            "verify",
            {"system": {"builtin": "scalar_linear"}, "samples": {"count": 0}},
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "PASS (vacuous)" in captured.out
        assert "no inequalities" in captured.err

    def test_finite_system_has_no_bundled_certificate(self, tmp_path, capsys):
        rc, _ = run(
            tmp_path,
            "verify",
            {
                "system": {
                    "finite": {
                        "successor": [[0, 0], [1, 0]],
                        "state_measure": [0.0, 1.0],
                        "input_measure": [0.0, 1.0],
                    }
                }
            },
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestConfigErrors:
    def test_missing_system_block(self, tmp_path):
        rc, _ = run(tmp_path, "verify", {"samples": {"count": 4}})
        assert rc == 2

    def test_unknown_builtin(self, tmp_path):
        rc, _ = run(tmp_path, "verify", {"system": {"builtin": "cartpole"}})
        assert rc == 2

    def test_unreadable_config(self, tmp_path):
        rc = main(["verify", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        rc = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        rc = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2

    SCALAR = {"builtin": "scalar_linear"}
    CHAIN_ORACLE = {"system": {"builtin": "finite_chain"}, "certificate": {"kind": "oracle"}}
    SHRUNK = {
        "system": SCALAR,
        "certificate": {"state_bound_scale": 0.5},
        "samples": {"count": 1},
    }
    GRIDS = {"state_grid": [-1.0, 0.0, 1.0], "input_grid": [-1.0, 0.0, 1.0]}

    @pytest.mark.parametrize(
        "command, payload, needle",
        [
            ("verify", {"system": SCALAR, "certificate": "uvc"}, "'certificate'"),
            ("verify", {"system": SCALAR, "samples": 5}, "'samples'"),
            ("verify", {"system": SCALAR, "horizon": "long"}, "'horizon'"),
            ("synthesize", {"system": SCALAR, "synthesis": {"decay": "fast"}}, "'synthesis.decay'"),
            ("converse", {**CHAIN_ORACLE, "converse": {"depth": None}}, "'converse.depth'"),
            (
                "oracle",
                {"system": {"discretize": {"builtin": "saturating_scalar", "input_grid": [0.0]}}},
                "'state_grid'",
            ),
            (
                "oracle",
                {"system": {"finite": {"successor": [[0]], "input_measure": [0.0]}}},
                "'state_measure'",
            ),
            # a two-dimensional state cannot step on a scalar grid
            (
                "oracle",
                {"system": {"discretize": {**GRIDS, "builtin": "two_state_linear"}}},
                "'system.discretize.builtin'",
            ),
            # a finite system's transition would cast the grid's -1.0 to an index
            (
                "oracle",
                {"system": {"discretize": {**GRIDS, "builtin": "finite_chain"}}},
                "'system.discretize.builtin'",
            ),
            (
                "converse",
                {
                    "system": SCALAR,
                    "certificate": {"kind": "synthesize"},
                    "interaction": {"scale": "big"},
                },
                "'interaction.scale'",
            ),
            (
                "verify",
                {"system": SCALAR, "certificate": {"state_bound_scale": 0.01}, "slack": math.inf},
                "slack must be finite",
            ),
            (
                "verify",
                {"system": SCALAR, "certificate": {"state_bound_scale": 0.01}, "slack": math.nan},
                "slack must be finite",
            ),
            ("verify", {"system": SCALAR, "horizon": 2.7}, "'horizon'"),
            ("verify", {"system": SCALAR, "horizon": math.inf}, "'horizon'"),
            ("verify", {"system": SCALAR, "samples": {"count": True}}, "'samples.count'"),
            # the default slack fails this scaled bound; slack 1.0 would pass it
            ("verify", {**SHRUNK, "slack": True}, "'slack'"),
            ("verify", {**SHRUNK, "slack": "1"}, "'slack'"),
            # a JSON integer too large for a float
            ("verify", {"system": SCALAR, "slack": 10 ** 400}, "'slack'"),
            ("verify", {"system": {**SCALAR, "params": {"a": "x"}}}, "'system.params.a'"),
            # each of these ran verify or oracle to PASS when read with float() or np.asarray
            ("verify", {"system": {**SCALAR, "params": {"a": "0.5"}}}, "'system.params.a'"),
            ("verify", {"system": {**SCALAR, "params": {"b": True}}}, "'system.params.b'"),
            (
                "verify",
                {"system": {**SCALAR, "params": {"a": 1.2, "b": 1.0, "gain": "-0.7"}}},
                "'system.params.gain'",
            ),
            (
                "verify",
                {"system": {"builtin": "finite_chain", "params": {"length": 12.5}}},
                "'system.params.length'",
            ),
            (
                "oracle",
                {"system": {"discretize": {**GRIDS, "builtin": "saturating_scalar",
                                           "state_grid": ["-1", "0", True]}}},
                "'system.discretize.state_grid'",
            ),
            (
                "oracle",
                {"system": {"discretize": {**GRIDS, "builtin": "saturating_scalar",
                                           "input_grid": [-1.0, False, 1.0]}}},
                "'system.discretize.input_grid'",
            ),
            ("converse", {**CHAIN_ORACLE, "oracle": {"margin": math.nan}}, "margin"),
            ("converse", {**CHAIN_ORACLE, "oracle": {"margin": math.inf}}, "margin"),
            (
                "oracle",
                {
                    "system": {
                        "finite": {
                            "successor": [[0, 0], [1, 0.7]],
                            "state_measure": [0.0, 1.0],
                            "input_measure": [0.0, 1.0],
                        }
                    }
                },
                "successor entries must be integers",
            ),
            # each of these ran to PASS when the expression codec read numbers with float()
            # or np.asarray, and the finite system read its measures with np.asarray
            (
                "synthesize",
                {"system": SCALAR, "synthesis": {"state_cost": kinf({"op": "linear", "c": "0.5"})}},
                "'synthesis.state_cost'",
            ),
            (
                "synthesize",
                {"system": SCALAR, "interaction": {"gain": kinf({"op": "linear", "c": True})}},
                "'interaction.gain'",
            ),
            (
                "oracle",
                {
                    "system": {"builtin": "finite_chain"},
                    "oracle": {"stage_cost": {"state_cost": kinf(
                        {"op": "table", "x": ["0", "1", "2"], "y": [0.0, 1.0, 2.0]})}},
                },
                "'oracle.stage_cost.state_cost'",
            ),
            (
                "oracle",
                {
                    "system": {
                        "finite": {
                            "successor": [[0, 0], [1, 0]],
                            "state_measure": ["0", "1"],
                            "input_measure": [0.0, 1.0],
                        }
                    }
                },
                "malformed finite system JSON",
            ),
            # an expression that is not an object is named in the message
            (
                "synthesize",
                {"system": SCALAR, "synthesis": {"state_cost": {"kind": "kinf", "expr": "linear"}}},
                "unknown expression op None in 'linear'",
            ),
            # each of these exited 3 once the first state became non-finite
            ("verify", {"system": {**SCALAR, "params": {"b": math.nan}}}, "'b' must be finite"),
            (
                "synthesize",
                {"system": {**SCALAR, "params": {"b": math.inf}}},
                "'b' must be finite",
            ),
            (
                "converse",
                {"system": {**SCALAR, "params": {"a": 1.2, "b": 1.0, "gain": math.nan}},
                 "certificate": {"kind": "synthesize"}},
                "'gain' must be finite",
            ),
        ],
        ids=[
            "certificate_not_object",
            "samples_not_object",
            "horizon_not_int",
            "decay_not_float",
            "depth_null",
            "discretize_without_state_grid",
            "finite_without_state_measure",
            "discretize_two_state_linear",
            "discretize_finite_chain",
            "converse_interaction_scale_not_float",
            "slack_infinite",
            "slack_nan",
            "horizon_fractional",
            "horizon_infinite",
            "count_bool",
            "slack_bool",
            "slack_string",
            "slack_huge_integer",
            "builtin_param_not_float",
            "builtin_param_string",
            "builtin_param_bool",
            "builtin_gain_string",
            "chain_length_fractional",
            "state_grid_strings_and_bool",
            "input_grid_bool",
            "margin_nan",
            "margin_infinite",
            "successor_fractional",
            "state_cost_string",
            "gain_bool",
            "oracle_table_strings",
            "finite_measure_strings",
            "state_cost_expr_not_object",
            "b_nan",
            "b_infinite",
            "gain_nan",
        ],
    )
    def test_malformed_config_exits_two(self, tmp_path, capsys, command, payload, needle):
        rc, _ = run(tmp_path, command, payload)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:")
        assert needle in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, kind, known",
        [
            ("verify", "oracle", "'ubgec' or 'uvc' or 'uac'"),
            ("synthesize", "uac", "'ubgec' or 'uvc'"),
        ],
    )
    def test_unsupported_certificate_kind_names_the_known_ones(self, tmp_path, capsys, command,
                                                               kind, known):
        rc, _ = run(tmp_path, command, {"system": self.SCALAR, "certificate": {"kind": kind}})
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: unsupported certificate kind {kind!r} here (use {known})\n"
        )

    def test_integral_floats_are_integers(self, tmp_path):
        payload = {"system": self.SCALAR, "samples": {"count": 3}, "horizon": 8}
        rc, out = run(tmp_path, "verify", payload)
        assert rc == 0
        payload = {"system": self.SCALAR, "samples": {"count": 3.0}, "horizon": 8.0}
        rc, again = run(tmp_path, "verify", payload, outname="again")
        assert rc == 0
        assert (again / "report.csv").read_bytes() == (out / "report.csv").read_bytes()

    def test_shrunken_bound_fails_at_the_default_slack(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "verify", self.SHRUNK)
        assert rc == 1
        assert capsys.readouterr().out.startswith("FAIL")

    @pytest.mark.parametrize("key, value", [("depth", 0), ("depth", -3), ("nu_depth", 0)])
    def test_converse_depth_below_one_exits_two(self, tmp_path, capsys, key, value):
        # the one sample is state 0, whose measure is zero: no round ever runs
        payload = {**self.CHAIN_ORACLE, "samples": {"count": 1}, "converse": {key: value}}
        rc, _ = run(tmp_path, "converse", payload)
        assert rc == 2
        assert f"error: {key} must be at least 1, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("system", [SCALAR, {"builtin": "finite_chain"}],
                             ids=["scalar", "chain"])
    @pytest.mark.parametrize("samples, message", [
        ({"mode": "bogus"}, "error: unknown sample mode 'bogus'"),
        ({"count": -1, "mode": "random"}, "error: sample count must be nonnegative, got -1"),
    ], ids=["mode", "count"])
    def test_bad_samples_exit_two(self, tmp_path, capsys, system, samples, message):
        rc, _ = run(tmp_path, "verify", {"system": system, "samples": samples})
        assert rc == 2
        assert capsys.readouterr().err == message + "\n"

    def test_negative_seed_with_random_samples_exits_two(self, tmp_path, capsys):
        payload = {"system": self.SCALAR, "samples": {"count": 2, "mode": "random"}}
        rc, _ = run(tmp_path, "verify", payload, seed=-1)
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: --seed must be nonnegative for random samples, got -1\n"
        )
        # the default spread draws nothing, so it takes any seed
        rc, _ = run(tmp_path, "verify", {"system": self.SCALAR, "samples": {"count": 2}}, seed=-1)
        assert rc == 0

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under_file"])
    def test_out_that_is_a_file_exits_two(self, tmp_path, capsys, below):
        blocker = tmp_path / "taken"
        blocker.write_text("", encoding="utf-8")
        out = str(blocker / below) if below else str(blocker)
        cfg = write_config(tmp_path, {"system": self.SCALAR, "samples": {"count": 2}})
        rc = main(["verify", "--config", cfg, "--out", out])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: cannot create output directory {out!r}: ")
        assert err.count("\n") == 1

    def test_config_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        rc = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: config {str(path)!r} is not UTF-8 text: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_artifact_path_that_is_a_directory_exits_two(self, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "report.csv").mkdir(parents=True)
        cfg = write_config(tmp_path, {"system": self.SCALAR, "samples": {"count": 2}})
        rc = main(["verify", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: cannot write artifact {str(out / 'report.csv')!r}: ")
        assert err.count("\n") == 1

    def test_config_nested_too_deeply_exits_two(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"a":' * 100_000 + "1" + "}" * 100_000, encoding="utf-8")
        rc = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: config {str(path)!r} nests too deeply to read\n"

    @pytest.mark.parametrize("depth, code", [(300, 0), (600, 2)])
    def test_expression_nested_too_deeply_exits_two(self, tmp_path, capsys, depth, code):
        # json.load reads 600 nested compose nodes; rebuilding them recurses past the limit
        node = {"op": "identity"}
        for _ in range(depth):
            node = {"op": "compose", "outer": {"op": "identity"}, "inner": node}
        payload = {"system": self.SCALAR, "samples": {"count": 2},
                   "synthesis": {"state_cost": {"kind": "kinf", "expr": node}}}
        rc, _ = run(tmp_path, "synthesize", payload)
        err = capsys.readouterr().err
        assert rc == code
        if code == 2:
            assert err == "error: config key 'synthesis.state_cost' nests too deeply to read\n"

    def test_bad_value_message_names_the_key(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "converse", {**self.CHAIN_ORACLE, "converse": {"nu_depth": "deep"}})
        assert rc == 2
        assert "'converse.nu_depth'" in capsys.readouterr().err


class TestSynthesizeCommand:
    def test_default_synthesis_passes(self, tmp_path):
        rc, out = run(
            tmp_path,
            "synthesize",
            {"system": {"builtin": "scalar_linear"}, "samples": {"count": 6}},
        )
        assert rc == 0
        payload = json.loads((out / "synthesis.json").read_text(encoding="utf-8"))
        assert payload["kind"] == "synthesis"

    def test_decomposed_outer_is_written_small(self, tmp_path):
        # natural rate 0.7; the 64 x 65 default grid gives 4,161 distinct cloud abscissae
        rc, out = run(
            tmp_path,
            "synthesize",
            {"system": {"builtin": "two_state_linear"}, "synthesis": {"decay": 0.3}, "samples": {"count": 2}},
        )
        assert rc == 0
        payload = json.loads((out / "synthesis.json").read_text(encoding="utf-8"))
        outer = fn_from_json(payload["provenance"]["outer"]).expr
        gauge = fn_from_json(payload["stage_cost"]["state_cost"]).expr.inner
        assert np.array_equal(outer.x, gauge.x) and np.array_equal(outer.y, gauge.y)
        assert len(outer.x) < 500

    def test_underfunded_bound_fails_verification(self, tmp_path, capsys):
        rc, _ = run(
            tmp_path,
            "synthesize",
            {
                "system": {"builtin": "scalar_linear"},
                "synthesis": {"cost_bound_scale": 0.001},
                "samples": {"count": 6},
            },
        )
        assert rc == 1
        assert capsys.readouterr().out.startswith("FAIL")

    def test_oversized_gauge_choice_exits_two(self, tmp_path, capsys):
        rc, _ = run(
            tmp_path,
            "synthesize",
            {
                "system": {"builtin": "scalar_linear"},
                "synthesis": {"state_cost": linear(100.0).to_json()},
                "samples": {"count": 4},
            },
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "state_cost",
        [{"kind": "kinf"}, {"kind": "kinf", "expr": {"op": "power", "p": "two"}}],
        ids=["missing_expr", "unconvertible_field"],
    )
    def test_malformed_stage_cost_exits_two(self, tmp_path, capsys, state_cost):
        rc, _ = run(
            tmp_path,
            "synthesize",
            {
                "system": {"builtin": "scalar_linear"},
                "synthesis": {"state_cost": state_cost},
                "samples": {"count": 4},
            },
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_product_interaction_passes(self, tmp_path):
        rc, _ = run(
            tmp_path,
            "synthesize",
            {
                "system": {"builtin": "scalar_linear"},
                "interaction": {
                    "form": "product",
                    "scale": 0.5,
                    "c_state": 0.0,
                    "c_input": 0.0,
                    "c_cross": 1.0,
                    "gain": linear(1.0).to_json(),
                },
                "samples": {"count": 6},
                "horizon": 48,
            },
        )
        assert rc == 0

    @pytest.mark.parametrize("decay", [None, 0.9])
    def test_uvc_certificate_takes_its_decay(self, tmp_path, decay):
        # without certificate.decay the bundled UVC converts at the natural rate
        certificate = {"kind": "uvc"} if decay is None else {"kind": "uvc", "decay": decay}
        payload = {"system": {"builtin": "scalar_linear"}, "certificate": certificate,
                   "samples": {"count": 4}}
        rc, out = run(tmp_path, "synthesize", payload)
        assert rc == 0
        b = build_builtin("scalar_linear", None)
        cert = uvc_to_ubgec(b.uvc, decay=b.natural_decay if decay is None else decay)
        expected = synthesize(cert, decay=b.natural_decay).to_json()
        written = json.loads((out / "synthesis.json").read_text(encoding="utf-8"))
        assert written == json.loads(json.dumps(expected))

    def test_gauge_coefficients_reach_the_design(self, tmp_path):
        payload = {"system": {"builtin": "scalar_linear"},
                   "synthesis": {"state_coeff": 2.0, "input_coeff": 3.0}, "samples": {"count": 4}}
        rc, out = run(tmp_path, "synthesize", payload)
        assert rc == 0
        b = build_builtin("scalar_linear", None)
        expected = synthesize(b.ubgec, decay=b.natural_decay, state_coeff=2.0, input_coeff=3.0)
        written = json.loads((out / "synthesis.json").read_text(encoding="utf-8"))
        assert written == json.loads(json.dumps(expected.to_json()))
        provenance = written["provenance"]
        assert (provenance["state_coeff"], provenance["input_coeff"]) == (2.0, 3.0)


class TestConverseCommand:
    def test_chain_oracle_converse_passes(self, tmp_path, capsys):
        rc, out = run(
            tmp_path,
            "converse",
            {
                "system": {"builtin": "finite_chain"},
                "certificate": {"kind": "oracle"},
                "samples": {"count": 6},
                "horizon": 32,
                "converse": {"depth": 8, "nu_depth": 12},
            },
        )
        assert rc == 0
        for artifact in ("converse.json", "beta_grid.csv", "schedules.csv", "nu.csv", "report.csv"):
            assert (out / artifact).exists(), artifact
        grid = (out / "beta_grid.csv").read_text(encoding="utf-8")
        assert grid.startswith("r,")
        schedules = (out / "schedules.csv").read_text(encoding="utf-8")
        assert schedules.startswith("radius,round,")

    def test_synthesized_converse_on_scalar_loop(self, tmp_path):
        rc, out = run(
            tmp_path,
            "converse",
            {
                "system": {"builtin": "scalar_linear", "params": {"a": 0.5}},
                "certificate": {"kind": "synthesize"},
                "samples": {"count": 4},
                "horizon": 32,
                "converse": {"depth": 8, "nu_depth": 12},
            },
        )
        assert rc == 0
        payload = json.loads((out / "converse.json").read_text(encoding="utf-8"))
        assert payload["passed"] is True

    def test_policy_length_key_is_ignored(self, tmp_path, capsys):
        # the key is ignored: the stitched policy plans every control the
        # horizon asks for, and cut at 10 controls the open loop (1.2) diverges
        rc, _ = run(
            tmp_path,
            "converse",
            {
                "system": {"builtin": "scalar_linear", "params": {"a": 1.2, "b": 1.0, "gain": -0.7}},
                "certificate": {"kind": "synthesize"},
                "samples": {"count": 4},
                "horizon": 400,
                "converse": {"depth": 4, "nu_depth": 6, "policy_length": 10},
            },
        )
        assert rc == 0
        assert capsys.readouterr().out.startswith("PASS")

    SYNTHESIZED = {
        "system": {"builtin": "scalar_linear", "params": {"a": 0.5}},
        "certificate": {"kind": "synthesize"},
        "samples": {"count": 4},
        "horizon": 32,
        "converse": {"depth": 8, "nu_depth": 12},
    }

    def test_synthesized_certificate_honours_cost_bound_scale(self, tmp_path, capsys):
        # the same keys make `synthesize` fail; the converse refuses the certificate
        payload = {**self.SYNTHESIZED, "synthesis": {"cost_bound_scale": 0.001}}
        rc, _ = run(tmp_path, "converse", payload)
        assert rc == 2
        assert "fails verification" in capsys.readouterr().err

    def test_synthesized_certificate_honours_interaction(self, tmp_path, capsys):
        interaction = {
            "form": "product",
            "scale": 0.5,
            "c_cross": 1.0,
            "gain": linear(1.0).to_json(),
        }
        rc, _ = run(tmp_path, "converse", {**self.SYNTHESIZED, "interaction": interaction})
        assert rc == 2
        assert "cross term" in capsys.readouterr().err

    CHAIN = {
        "system": {"builtin": "finite_chain"},
        "certificate": {"kind": "oracle"},
        "samples": {"count": 3},
        "converse": {"depth": 8, "nu_depth": 12},
    }

    def test_eps_tilde_factor_key_is_ignored(self, tmp_path):
        # each round scans for the excursion level of half its target, whatever the config says
        def schedules(name, **converse):
            payload = {**self.CHAIN, "converse": {**self.CHAIN["converse"], **converse}}
            rc, out = run(tmp_path, "converse", payload, outname=name)
            assert rc == 0
            return (out / "schedules.csv").read_bytes()

        assert schedules("quarter", eps_tilde_factor=0.25) == schedules("default")

    FINITE = {"finite": {"successor": [[0, 0], [1, 0], [2, 1], [3, 2]],
                         "state_measure": [0.0, 1.0, 2.0, 3.0], "input_measure": [0.0, 1.0]}}
    GRID = [-1.0, -0.5, 0.0, 0.5, 1.0]
    DISCRETIZE = {"discretize": {"builtin": "saturating_scalar", "state_grid": GRID,
                                 "input_grid": GRID}}

    @pytest.mark.parametrize("mode", ["default", "random"])
    @pytest.mark.parametrize("system, states", [(FINITE, 4), (DISCRETIZE, 5)],
                             ids=["finite", "discretize"])
    def test_samples_on_finite_systems_are_state_indices(self, tmp_path, monkeypatch, mode,
                                                         system, states):
        drawn = []
        pipeline = cli.converse_pipeline
        monkeypatch.setattr(cli, "converse_pipeline",
                            lambda ucc, sys_, samples, **kw: drawn.append(samples)
                            or pipeline(ucc, sys_, samples, **kw))
        payload = {"system": system, "certificate": {"kind": "oracle"},
                   "samples": {"count": 7, "mode": mode}, "converse": {"depth": 4, "nu_depth": 6}}
        rc, _ = run(tmp_path, "converse", payload, seed=3)
        assert rc == 0
        if mode == "default":
            expected = [i % states for i in range(7)]
        else:
            expected = np.random.default_rng(3).integers(0, states, size=7).tolist()
        assert drawn == [expected]
        assert all(type(x) is int for x in drawn[0])


class TestOracleCommand:
    def chain_config(self, **extra):
        payload = {"system": {"builtin": "finite_chain"}}
        payload.update(extra)
        return payload

    def test_chain_values_converge(self, tmp_path, capsys):
        rc, out = run(tmp_path, "oracle", self.chain_config())
        assert rc == 0
        assert "PASS" in capsys.readouterr().out
        table = (out / "value_table.csv").read_bytes()
        assert table.startswith(b"state,sigma,value,greedy\r\n")
        meta = json.loads((out / "oracle.json").read_text(encoding="utf-8"))
        assert meta["converged"] is True
        assert meta["states"] == 10

    def test_chain_at_the_state_limit_converges_by_default(self, tmp_path, capsys):
        # the shortest-path warm start is the fixed point, so one sweep confirms it
        payload = {"system": {"builtin": "finite_chain", "params": {"length": 10000}}}
        rc, out = run(tmp_path, "oracle", payload)
        assert rc == 0
        assert capsys.readouterr().out == "PASS value iteration converged in 1 sweeps\n"
        meta = json.loads((out / "oracle.json").read_text(encoding="utf-8"))
        assert meta["converged"] is True
        assert meta["iterations"] == 1
        rows = (out / "value_table.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 10000
        for row in rows:
            state, _, value, _ = row.split(",")
            x = int(state)
            # stepping down from x pays k + 1 at every level k = x..1
            assert float(value) == x * (x + 1) / 2 + x

    def test_discretized_builtin(self, tmp_path):
        rc, _ = run(
            tmp_path,
            "oracle",
            {
                "system": {
                    "discretize": {
                        "builtin": "saturating_scalar",
                        "state_grid": [-1.0, -0.5, 0.0, 0.5, 1.0],
                        "input_grid": [-1.0, -0.5, 0.0, 0.5, 1.0],
                    }
                }
            },
        )
        assert rc == 0

    def test_non_finite_system_rejected(self, tmp_path):
        rc, _ = run(tmp_path, "oracle", {"system": {"builtin": "scalar_linear"}})
        assert rc == 2


def _stdlib_layout(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _reject_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def test_json_artifacts_are_strict_json(tmp_path):
    stranded = {"successor": [[0, 0], [1, 1]], "state_measure": [0.0, 1.0],
                "input_measure": [0.0, 1.0]}
    readme_chain = {
        "system": {"builtin": "finite_chain", "params": {"length": 10}},
        "certificate": {"kind": "oracle"},
        "samples": {"count": 10},
        "converse": {"depth": 8, "nu_depth": 12},
    }
    runs = [
        ("verify", {"system": {"builtin": "scalar_linear"}, "samples": {"count": 4}},
         "certificate.json"),
        ("synthesize", {"system": {"builtin": "scalar_linear"}, "samples": {"count": 4}},
         "synthesis.json"),
        # a decomposed outer table sits in provenance.outer and inside stage_cost.state_cost
        ("synthesize", {"system": {"builtin": "two_state_linear"}, "synthesis": {"decay": 0.3},
                        "samples": {"count": 2}}, "synthesis.json"),
        ("converse", readme_chain, "converse.json"),
        ("oracle", {"system": {"finite": stranded}}, "oracle.json"),
    ]
    for index, (command, payload, name) in enumerate(runs):
        rc, out = run(tmp_path, command, payload, outname=f"{index}-{command}")
        assert rc == 0, command
        text = (out / name).read_text(encoding="utf-8")
        # strict JSON, laid out as the stdlib lays it out
        assert text == _stdlib_layout(json.loads(text, parse_constant=_reject_constant)), index
    # the stranded state's infinite value stays in the CSV, out of oracle.json
    rows = (out / "value_table.csv").read_text(encoding="utf-8").splitlines()
    assert rows[2].split(",")[2] == "inf"


def _written(tmp_path, payload) -> str:
    _write_json(payload, str(tmp_path), "payload.json")
    return (tmp_path / "payload.json").read_text(encoding="utf-8")


_TEXT = st.one_of(
    st.text(alphabet=st.sampled_from(["a", "Z", ",", " ", "\n", '"', "\\", "é", "☃", "\x00"]),
            max_size=5),
    st.sampled_from([", ", "a, b\n"]),
)
_FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1.0, 2.0, 1e300]))
_FLOAT_LISTS = st.lists(_FLOATS, max_size=5)
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-10 ** 20, 10 ** 20), _FLOATS, _TEXT,
                    _FLOAT_LISTS)
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_TEXT, kids, max_size=4),
    ),
    max_leaves=24,
)


@st.composite
def _payloads(draw):
    """A tree, with lists whose values are equal and whose text is not, and one
    float list at two depths."""
    shared = draw(_FLOAT_LISTS)
    whole = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    zeros = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=3))
    return {
        "tree": draw(_TREES),
        "shared": shared,
        "deep": {"deeper": [tuple(shared), draw(_TREES)]},
        "ints": whole,
        "floats": [float(v) for v in whole],
        "zeros": [zeros, [abs(z) for z in zeros], [-abs(z) for z in zeros]],
        "empty": [{}, [], ()],
    }


class TestJsonWriter:
    """``_write_json`` writes the stdlib's ``indent=2, sort_keys=True`` text."""

    @settings(max_examples=200, deadline=None)
    @given(_payloads())
    def test_matches_the_stdlib(self, tmp_path_factory, payload):
        tmp_path = tmp_path_factory.mktemp("json")
        assert _written(tmp_path, payload) == _stdlib_layout(payload)

    def test_equal_values_keep_their_own_text(self, tmp_path):
        # -0.0 == 0.0 and 1 == 1.0: a memo keyed on values would hand one list the other's text
        payload = {"a": [0.0, 1.0], "b": [-0.0, 1.0], "c": [[1, 2], [1.0, 2.0]],
                   "e": [0.5, 1]}
        text = _written(tmp_path, payload)
        assert text == _stdlib_layout(payload)
        assert '"b": [\n    -0.0,' in text

    def test_a_repeated_float_list_is_formatted_once(self, tmp_path, monkeypatch):
        # the same numbers at depths 1, 2 and 4: one C-encoder call formats them all
        shared = [0.1, -0.0, 1e300, math.nan]
        payload = {"a": shared, "b": [tuple(shared)], "c": {"d": {"e": list(shared)}}}
        expected = _stdlib_layout(payload)
        calls = []
        dumps = json.dumps
        monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append(a) or dumps(*a, **k))
        assert _written(tmp_path, payload) == expected
        assert len(calls) == 1


class TestCsvWriter:
    """``_write_csv`` writes every CSV artifact: ``%.17g`` floats, ``str`` otherwise, CRLF."""

    @staticmethod
    def written(tmp_path, header, rows) -> bytes:
        _write_csv(str(tmp_path), "table.csv", header, rows)
        return (tmp_path / "table.csv").read_bytes()

    def test_write_csv_formats_each_type(self, tmp_path):
        row = (1.5, np.float64(0.1), np.float32(0.1), math.inf, -math.inf, math.nan, -0.0, 1e22,
               7, np.int64(8), "s")
        assert self.written(tmp_path, ("a", "b"), [row]) == (
            b"a,b\r\n1.5,0.10000000000000001,0.10000000149011612,inf,-inf,nan,-0,1e+22,7,8,s\r\n"
        )

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_write_csv_float_is_the_format_spec(self, tmp_path_factory, x):
        tmp_path = tmp_path_factory.mktemp("csv")
        text = self.written(tmp_path, ("a", "b"), [(x, np.float64(x))]).decode()
        assert text == f"a,b\r\n{x:.17g},{x:.17g}\r\n"

    CELLS = st.one_of(
        st.integers(), st.floats(), st.floats().map(np.float64), st.text("abc,-.0123456789"),
    )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(CELLS, st.integers()), min_size=1, max_size=8))
    def test_a_column_may_change_type_between_rows(self, tmp_path_factory, rows):
        # rows of one table may differ in their tuple of cell types: each row is
        # written by the rule of its own cells, one cell at a time
        tmp_path = tmp_path_factory.mktemp("csv")
        rows = [(1, 0), (2.5, 0), (np.float64(0.1), 0), ("x", 0), *rows]
        cell = lambda v: "%.17g" % v if isinstance(v, (float, np.floating)) else str(v)
        expected = "".join(",".join(map(cell, row)) + "\r\n" for row in [("a", "b"), *rows])
        assert self.written(tmp_path, ("a", "b"), rows) == expected.encode()


class TestDeterminism:
    RANDOM = {
        "system": {"builtin": "scalar_linear"},
        "samples": {"count": 8, "mode": "random"},
    }

    def test_same_seed_same_bytes(self, tmp_path):
        rc1, out1 = run(tmp_path, "verify", self.RANDOM, seed=7, outname="a")
        rc2, out2 = run(tmp_path, "verify", self.RANDOM, seed=7, outname="b")
        assert rc1 == rc2 == 0
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()

    def test_different_seed_different_samples(self, tmp_path):
        _, out1 = run(tmp_path, "verify", self.RANDOM, seed=1, outname="a")
        _, out2 = run(tmp_path, "verify", self.RANDOM, seed=2, outname="b")
        assert (out1 / "report.csv").read_bytes() != (out2 / "report.csv").read_bytes()

    def test_random_mode_on_plane_system(self, tmp_path):
        rc, _ = run(
            tmp_path,
            "verify",
            {
                "system": {"builtin": "two_state_linear"},
                "samples": {"count": 6, "mode": "random"},
            },
            seed=11,
        )
        assert rc == 0


class TestParser:
    def test_parser_is_built_once(self):
        assert _parser() is _parser()

    def test_back_to_back_commands_keep_their_own_arguments(self, tmp_path, capsys):
        cfg = str(tmp_path / "random.json")
        with open(cfg, "w", encoding="utf-8") as fp:
            json.dump(TestDeterminism.RANDOM, fp)

        def verify(name, *seed):
            out = tmp_path / name
            assert main(["verify", "--config", cfg, "--out", str(out), *seed]) == 0
            return (out / "report.csv").read_bytes()

        seeded = verify("a", "--seed", "7")
        rc, out = run(tmp_path, "oracle", {"system": {"builtin": "finite_chain"}})
        assert rc == 0 and (out / "oracle.json").exists()
        # the default seed is 0 again after a call that set it
        assert verify("b") == verify("c", "--seed", "0") != seeded
        assert verify("d", "--seed", "7") == seeded
        assert capsys.readouterr().out.splitlines()[1] == "PASS value iteration converged in 1 sweeps"

    @pytest.mark.parametrize(
        "argv", [[], ["nope"], ["verify"], ["oracle", "--config", "c.json", "--seed", "x"]]
    )
    def test_bad_argv_exits_two(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: stagecraft" in capsys.readouterr().err
        rc, _ = run(tmp_path, "oracle", {"system": {"builtin": "finite_chain"}})
        assert rc == 0


class TestModuleEntry:
    def test_python_dash_m_invocation(self, tmp_path):
        cfg = write_config(
            tmp_path, {"system": {"builtin": "scalar_linear"}, "samples": {"count": 2}}
        )
        proc = subprocess.run(
            [sys.executable, "-m", "stagecraft", "verify", "--config", cfg,
             "--out", str(tmp_path / "out"), "--seed", "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("PASS")
