"""End-to-end runs of the command line front end."""

import json
import math
import subprocess
import sys

import pytest

from stagecraft import fn_from_json, linear
from stagecraft.cli import _parser, main


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


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
            (
                "converse",
                {"system": SCALAR, "certificate": {"forward_invariant": "false"}},
                "'certificate.forward_invariant'",
            ),
            ("verify", {"system": SCALAR, "horizon": 2.7}, "'horizon'"),
            ("verify", {"system": SCALAR, "horizon": math.inf}, "'horizon'"),
            ("verify", {"system": SCALAR, "samples": {"count": True}}, "'samples.count'"),
            ("converse", {**CHAIN_ORACLE, "converse": {"policy_length": "64"}},
             "'converse.policy_length'"),
            ("verify", {"system": {**SCALAR, "params": {"a": "x"}}}, "'scalar_linear'"),
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
        ],
        ids=[
            "certificate_not_object",
            "samples_not_object",
            "horizon_not_int",
            "decay_not_float",
            "depth_null",
            "discretize_without_state_grid",
            "finite_without_state_measure",
            "converse_interaction_scale_not_float",
            "slack_infinite",
            "slack_nan",
            "forward_invariant_string",
            "horizon_fractional",
            "horizon_infinite",
            "count_bool",
            "policy_length_string",
            "builtin_param_not_float",
            "margin_nan",
            "margin_infinite",
            "successor_fractional",
        ],
    )
    def test_malformed_config_exits_two(self, tmp_path, capsys, command, payload, needle):
        rc, _ = run(tmp_path, command, payload)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:")
        assert needle in err
        assert "Traceback" not in err

    def test_integral_floats_are_integers(self, tmp_path):
        payload = {"system": self.SCALAR, "samples": {"count": 3}, "horizon": 8}
        rc, out = run(tmp_path, "verify", payload)
        assert rc == 0
        payload = {"system": self.SCALAR, "samples": {"count": 3.0}, "horizon": 8.0}
        rc, again = run(tmp_path, "verify", payload, outname="again")
        assert rc == 0
        assert (again / "report.csv").read_bytes() == (out / "report.csv").read_bytes()

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
        assert (outer.x, outer.y) == (gauge.x, gauge.y)
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
                "converse": {"depth": 8, "nu_depth": 12, "policy_length": 512},
            },
        )
        assert rc == 0
        payload = json.loads((out / "converse.json").read_text(encoding="utf-8"))
        assert payload["passed"] is True

    SYNTHESIZED = {
        "system": {"builtin": "scalar_linear", "params": {"a": 0.5}},
        "certificate": {"kind": "synthesize"},
        "samples": {"count": 4},
        "horizon": 32,
        "converse": {"depth": 8, "nu_depth": 12, "policy_length": 512},
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
        ("converse", readme_chain, "converse.json"),
        ("oracle", {"system": {"finite": stranded}}, "oracle.json"),
    ]
    for command, payload, name in runs:
        rc, out = run(tmp_path, command, payload, outname=command)
        assert rc == 0, command
        json.loads((out / name).read_text(encoding="utf-8"), parse_constant=_reject_constant)
    # the stranded state's infinite value stays in the CSV, out of oracle.json
    rows = (tmp_path / "oracle" / "value_table.csv").read_text(encoding="utf-8").splitlines()
    assert rows[2].split(",")[2] == "inf"


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
