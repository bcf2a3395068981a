import json
import math
import time

import numpy as np
import pytest

from proxsamp.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParams:
    def test_semismooth_table(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "target": {"name": "l1", "dim": 1, "params": {"scale": 0.5}},
                    "regime": {"kind": "semi-smooth", "eps": 0.2},
                }
            )
        )
        code, out, _ = run_cli(["params", "--config", str(cfg)], capsys)
        assert code == 0
        # scale 0.5 declares l_alpha = 1, so the step rule gives 0.25 and
        # the gap rule gives 1
        assert "eta" in out and "0.25" in out
        assert "delta" in out
        assert "rejection_bound" in out

    def test_composite_table(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "target": {"name": "gaussian", "dim": 10, "params": {"diag_precision": [1.0] * 10}},
                    "regime": {"kind": "composite"},
                }
            )
        )
        code, out, _ = run_cli(["params", "--config", str(cfg)], capsys)
        assert code == 0
        assert "0.1" in out

    def test_strongly_convex_echoes_lambda(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "target": {"name": "gaussian", "dim": 2, "params": {"diag_precision": [2.0, 3.0]}},
                    "regime": {"kind": "strongly-convex"},
                }
            )
        )
        code, out, _ = run_cli(["params", "--config", str(cfg)], capsys)
        assert code == 0
        assert "mu" in out
        assert "lambda" in out and "2" in out

    @staticmethod
    def budget_row(out):
        return next(line for line in out.splitlines() if line.startswith("n_iters (theorem)"))

    def test_strongly_convex_budget_contracts_at_lambda(self, capsys, tmp_path):
        # gaussian, unit precision, d = 5: eta = 1/(l_one d) = 0.2 under both
        # kinds; composite bounds KL by d/(K eta), strongly-convex contracts
        # it by (1 + lambda eta)^2 per step from d down to eps^2/2
        rows = {}
        for kind in ("composite", "strongly-convex"):
            cfg = tmp_path / f"{kind}.json"
            cfg.write_text(
                json.dumps(
                    {
                        "target": {"name": "gaussian", "dim": 5, "params": {"diag_precision": [1.0] * 5}},
                        "regime": {"kind": kind, "eps": 0.2},
                    }
                )
            )
            code, out, _ = run_cli(["params", "--config", str(cfg)], capsys)
            assert code == 0
            rows[kind] = self.budget_row(out).split()
        assert rows["composite"][2:4] == ["125", "[w2-over-k-eta:"]
        assert rows["strongly-convex"][2:4] == ["16", "[kl-contraction:"]
        assert 16 == math.ceil(math.log(5 / 0.02) / (2 * math.log(1.2)))

    def test_strongly_convex_needs_lambda(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "target": {"name": "l1", "dim": 1, "params": {"scale": 1.0}},
                    "regime": {"kind": "strongly-convex"},
                }
            )
        )
        code, _, err = run_cli(["params", "--config", str(cfg)], capsys)
        assert code == 2
        assert "lambda_strong" in err and "regime.kind" in err

    def test_invalid_target_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"target": {"name": "nope", "dim": 1}}))
        code, _, err = run_cli(["params", "--config", str(cfg)], capsys)
        assert code == 2
        assert "available" in err

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"target": {"name": "l1", "bogus": 1}}))
        code, _, err = run_cli(["params", "--config", str(cfg)], capsys)
        assert code == 2

    @pytest.mark.parametrize("command", ["params", "sample"])
    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("mu", -1.0, "mu must be finite and >= 0, got -1.0"),
            ("eps", 0, "eps must be finite and > 0, got 0.0"),
            ("mu", math.inf, "mu must be finite and >= 0, got inf"),
            ("eps", math.inf, "eps must be finite and > 0, got inf"),
        ],
        ids=["mu", "eps", "mu-inf", "eps-inf"],
    )
    def test_rejected_regime_value_is_usage_error(self, capsys, tmp_path, command, key, value, message):
        # both commands resolve the parameters through the same checks
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"regime": {"kind": "semi-smooth", "eps": 0.2, key: value}}))
        out_dir = tmp_path / "o"
        extra = ["--out-dir", str(out_dir)] if command == "sample" else []
        code, out, err = run_cli([command, "--config", str(cfg), *extra], capsys)
        assert code == 2
        assert message in err and f"regime.{key} in the config" in err
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["params", "sample"])
    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("eta", math.nan, "eta must be finite and > 0"),
            ("eta", math.inf, "eta must be finite and > 0"),
            ("delta", math.nan, "delta must be finite and > 0"),
            ("delta", math.inf, "delta must be finite and > 0"),
        ],
        ids=["eta-nan", "eta-inf", "delta-nan", "delta-inf"],
    )
    def test_non_finite_step_setting_is_usage_error(self, capsys, tmp_path, command, key, value, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"regime": {"kind": "semi-smooth", "eps": 0.2, "rgo_mode": "bundle", key: value}}))
        out_dir = tmp_path / "o"
        extra = ["--out-dir", str(out_dir)] if command == "sample" else []
        code, out, err = run_cli([command, "--config", str(cfg), *extra], capsys)
        assert code == 2
        assert message in err and f"regime.{key}" in err
        assert out == ""
        assert not out_dir.exists()

    @staticmethod
    def hinge_config(tmp_path, normals, **regime):
        planes = [[list(a), -0.5] for a in normals]
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "target": {"name": "hinge_sum", "dim": len(normals[0]), "params": {"planes": planes}},
                    "regime": {"kind": "semi-smooth", "eps": 0.2, **regime},
                }
            )
        )
        return cfg

    def test_hinge_without_analytic_m4_needs_mu(self, capsys, tmp_path):
        # the proper d = 5 set of planes (+-e_i, -1/2) has no analytic M4 and
        # quadrature stops at d = 2, so mu must come from the config
        normals = [s * e for e in np.eye(5) for s in (1.0, -1.0)]
        code, _, err = run_cli(["params", "--config", str(self.hinge_config(tmp_path, normals))], capsys)
        assert code == 2
        assert "regime.mu" in err
        cfg = self.hinge_config(tmp_path, normals, mu=0.01)
        code, out, _ = run_cli(["params", "--config", str(cfg)], capsys)
        assert code == 0
        assert "hinge_sum (d=5)" in out and "rejection_bound" in out

    def test_gap_rule_underflow_names_the_rule(self, capsys, tmp_path):
        # at alpha = 0.999, d = 20 the gap rule d^(-(alpha+1)/(1-alpha))
        # underflows to 0: a usage error naming the rule, unless regime.delta
        # is set, when the rule does not run
        cfg = tmp_path / "c.json"
        config = {"target": {"name": "power_norm", "dim": 20, "params": {"alpha": 0.999}},
                  "regime": {"mu": 0.1}}
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(["params", "--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        assert "gap rule delta = d^(-(alpha+1)/(1-alpha))" in err and "regime.delta" in err
        assert "alpha = 0.999, d = 20" in err
        config["regime"]["delta"] = 0.1
        cfg.write_text(json.dumps(config))
        code, out, _ = run_cli(["params", "--config", str(cfg)], capsys)
        assert code == 0
        assert "delta" in out and "0.1" in out

    def test_off_axis_hinge_needs_mu(self, capsys, tmp_path):
        # the slow direction (1, -1) lies off the coordinate axes, so the
        # quadrature lattice bracketed on them misses mass (true M4 1,056,136
        # against the lattice's 220,402): refused with exit 2, not a wrong mu
        normals = [(1.0, 1.0), (-1.0, -1.0), (0.05, -0.05), (-0.05, 0.05)]
        code, out, err = run_cli(["params", "--config", str(self.hinge_config(tmp_path, normals))], capsys)
        assert code == 2
        assert "regime.mu" in err and "budget" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["params", "sample"])
    def test_exact_mode_without_prox_is_usage_error(self, capsys, tmp_path, command):
        normals = [s * e for e in np.eye(2) for s in (1.0, -1.0)]
        cfg = self.hinge_config(tmp_path, normals, rgo_mode="exact", mu=0.1)
        out_dir = tmp_path / "o"
        extra = ["--out-dir", str(out_dir)] if command == "sample" else []
        code, out, err = run_cli([command, "--config", str(cfg), *extra], capsys)
        assert code == 2
        assert "'hinge_sum' has no closed-form prox for exact mode" in err
        assert "(regime.rgo_mode in the config)" in err
        assert out == ""
        assert not out_dir.exists()

    def test_target_without_params_takes_its_family_defaults(self, capsys, tmp_path):
        # the default params are empty, so none of them is foreign to gaussian
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"target": {"name": "gaussian", "dim": 2}, "regime": {"kind": "composite"}}))
        code, out, _ = run_cli(["params", "--config", str(cfg)], capsys)
        assert code == 0
        assert "gaussian (d=2)" in out

    @pytest.mark.parametrize("command", ["params", "sample"])
    def test_unknown_target_param_is_usage_error(self, capsys, tmp_path, command):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"target": {"name": "l1", "dim": 1, "params": {"sacle": 5.0}}}))
        out_dir = tmp_path / "o"
        extra = ["--out-dir", str(out_dir)] if command == "sample" else []
        code, out, err = run_cli([command, "--config", str(cfg), *extra], capsys)
        assert code == 2
        assert "unknown params ['sacle'] for 'l1'; it reads scale (target in the config)" in err
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["params", "sample"])
    @pytest.mark.parametrize(
        "target, regime, message",
        [
            ({"name": "l1", "params": {"scale": math.nan}}, {"eta": 0.1, "mu": 0}, "scale must be finite and > 0, got nan"),
            ({"name": "l1", "params": {"scale": math.nan}}, {"mu": 0}, "scale must be finite and > 0, got nan"),
            ({"name": "gaussian", "dim": 2, "params": {"diag_precision": [1.0, math.nan]}}, {"kind": "composite"},
             "diag_precision must be finite, got [1.0, nan]"),
            ({"name": "l1", "dim": 1, "params": ["scale"]}, {}, "params must be a dict (a JSON object), got ['scale']"),
            ({"name": "l1", "dim": 1, "params": []}, {}, "params must be a dict (a JSON object), got []"),
        ],
        ids=["nan-scale", "nan-scale-no-eta", "nan-precision", "params-list", "params-empty-list"],
    )
    def test_bad_target_params_are_usage_errors(self, capsys, tmp_path, command, target, regime, message):
        # the target is refused before any step rule reads it, so the error
        # names target, not the regime key that would trip over it later
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"target": target, "regime": regime}))
        out_dir = tmp_path / "o"
        extra = ["--out-dir", str(out_dir)] if command == "sample" else []
        code, out, err = run_cli([command, "--config", str(cfg), *extra], capsys)
        assert code == 2
        assert f"{message} (target in the config)" in err
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"regime": {"eta": True}}, "eta must be a number, got True (regime.eta in the config)"),
            ({"regime": {"eta": "0.1"}}, "eta must be a number, got '0.1' (regime.eta in the config)"),
            ({"regime": {"delta": True}}, "delta must be a number, got True (regime.delta in the config)"),
            ({"regime": {"eps": True}}, "eps must be a number, got True (regime.eps in the config)"),
            ({"regime": {"mu": True}}, "mu must be a number, got True (regime.mu in the config)"),
            ({"target": {"name": "l1", "dim": 1, "params": {"scale": True}}},
             "scale must be a real number, got True (target in the config)"),
            ({"target": {"name": "power_norm", "dim": 2, "params": {"alpha": True}}},
             "alpha must be in [0, 1], got True (target in the config)"),
            ({"regime": {"eta": 10**400}}, "int too large to convert to float (regime.eta, "),
            ({"target": {"name": "gaussian", "dim": 1, "params": {"diag_precision": [True]}}},
             "diag_precision must hold real numbers, got [True] (target in the config)"),
            ({"target": {"name": "gaussian", "dim": 1, "params": {"diag_precision": ["2"]}}},
             "diag_precision must hold real numbers, got ['2'] (target in the config)"),
            ({"target": {"name": "quad_plus_l1", "dim": 2, "params": {"q_diagonal": [1.0, False]}}},
             "q_diagonal must hold real numbers, got [1.0, False] (target in the config)"),
            ({"target": {"name": "l1", "dim": 10**16}},
             "for an array with shape (10000000000000000,) and data type float64 (target in the config)"),
        ],
        ids=["eta-bool", "eta-string", "delta-bool", "eps-bool", "mu-bool", "scale-bool", "alpha-bool",
             "eta-huge-int", "precision-bool", "precision-string", "q-diagonal-bool", "dim-huge-int"],
    )
    def test_bool_string_or_huge_number_is_usage_error(self, capsys, tmp_path, config, message):
        # true and "0.1" are not JSON numbers: read as 1 and 0.1 they would
        # run a chain nobody asked for; an integer beyond float range must
        # not end in a traceback either
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(["params", "--config", str(cfg)], capsys)
        assert code == 2
        assert message in err
        assert out == ""

    @pytest.mark.parametrize(
        "config, code, messages",
        [
            ({"target": {"name": "quad_plus_l1", "dim": 1, "params": {"scale": 172529}}}, 0, []),
            ({"target": {"name": "quad_plus_l1", "dim": 1, "params": {"scale": 1e300}}}, 2,
             ["semi-smooth step rule leaves float range", "l_alpha = 2e+300", "(target, regime.kind in the config)"]),
            ({"regime": {"eps": 1e-320}}, 2,
             ["KL-contraction budget", "eps = 1e-320", "(regime.mu, regime.eps in the config)"]),
            ({"target": {"name": "l1", "dim": 1, "params": {"scale": 1e-200}}}, 2,
             ["semi-smooth step rule leaves float range", "l_alpha = 2e-200", "(target, regime.kind in the config)"]),
            ({"target": {"name": "l1", "dim": 1, "params": {"scale": 1e-200}}, "regime": {"mu": 0.5}}, 2,
             ["semi-smooth step rule leaves float range", "l_alpha = 2e-200", "(target, regime.kind in the config)"]),
            ({"target": {"name": "l1", "dim": 1, "params": {"scale": 1e80}}}, 2,
             ["mu rule needs the fourth moment of l1", "set mu explicitly", "(regime.mu, regime.eps in the config)"]),
            ({"target": {"name": "l1", "dim": 1, "params": {"scale": 1e200}}}, 2,
             ["semi-smooth step rule leaves float range", "l_alpha = 2e+200", "(target, regime.kind in the config)"]),
            ({"target": {"name": "power_norm", "dim": 1, "params": {"alpha": 0.5, "c": 1e300}}}, 2,
             ["semi-smooth step rule leaves float range", "(target, regime.kind in the config)"]),
            ({"target": {"name": "power_norm", "dim": 1, "params": {"alpha": 1.0, "c": 1e300}}}, 2,
             ["mu rule needs the fourth moment of power_norm", "(regime.mu, regime.eps in the config)"]),
            ({"target": {"name": "l1", "dim": 1}, "regime": {"delta": 1000}}, 2,
             ["the proposal bound 2 exp(delta) leaves float range", "delta = 1000.0", "(regime.delta in the config)"]),
            ({"target": {"name": "l1", "dim": 1}, "regime": {"delta": 700}}, 0, []),
            ({"target": {"name": "hinge_sum", "dim": 1, "params": {"planes": [[[1e-9], 0.0]]}}}, 2,
             ["exp(-f) is not a probability density (target in the config)"]),
            ({"target": {"name": "hinge_sum", "dim": 1, "params": {"planes": [[[1e-73], 0.0], [[-1e-73], 0.0]]}}}, 2,
             ["could not bracket the density support: f is too flat or not integrable: set mu explicitly",
              "(regime.mu, regime.eps in the config)"]),
        ],
        ids=["quad_l1-scale-172529", "quad_l1-scale-1e300", "eps-1e-320", "l1-scale-1e-200", "l1-scale-1e-200-mu",
             "l1-scale-1e80", "l1-scale-1e200", "power_norm-c-1e300", "power_norm-alpha-1-c-1e300",
             "l1-delta-1000", "l1-delta-700", "hinge-normal-1e-9", "hinge-pair-1e-73"],
    )
    def test_rule_out_of_float_range_is_usage_error(self, capsys, tmp_path, config, code, messages):
        # extreme but finite inputs under- or overflow a moment, step,
        # budget or bound rule, or fall below a solver's tolerance or the
        # quadrature box: the error names the rule and its config keys, never
        # a bare ZeroDivisionError or "(34, 'Numerical result out of range')"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        got, out, err = run_cli(["params", "--config", str(cfg)], capsys)
        assert got == code
        for message in messages:
            assert message in err
        assert "Numerical result" not in err
        assert (out == "") == (code == 2)

    def test_unknown_regime_kind_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"regime": {"kind": "smooth"}}))
        code, out, err = run_cli(["params", "--config", str(cfg)], capsys)
        assert code == 2
        assert "unknown regime kind 'smooth' (regime.kind in the config)" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["params", "sample"])
    @pytest.mark.parametrize(
        "value, message",
        [(2.5, "dim must be an integer, got 2.5"), (True, "dim must be an integer, got True"),
         ("2", "dim must be an integer, got '2'"), (0, "dim must be >= 1, got 0")],
        ids=["fraction", "bool", "string", "zero"],
    )
    def test_non_integral_dim_is_usage_error(self, capsys, tmp_path, command, value, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"target": {"name": "l1", "dim": value, "params": {}}}))
        out_dir = tmp_path / "o"
        extra = ["--out-dir", str(out_dir)] if command == "sample" else []
        code, out, err = run_cli([command, "--config", str(cfg), *extra], capsys)
        assert code == 2
        assert f"{message} (target.dim in the config)" in err
        assert out == ""
        assert not out_dir.exists()

    def test_improper_hinge_set_is_usage_error(self, capsys, tmp_path):
        # f = 0 on the quadrant x <= 1/2: exp(-f) has infinite mass
        cfg = self.hinge_config(tmp_path, np.eye(2))
        code, _, err = run_cli(["params", "--config", str(cfg)], capsys)
        assert code == 2
        assert "positively span" in err


class TestSample:
    def make_config(self, tmp_path, n_chains=3, workers=1, n_iters=40):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "target": {"name": "l1", "dim": 1, "params": {"scale": 1.0}},
                    "regime": {"kind": "semi-smooth", "eps": 0.2, "rgo_mode": "bundle"},
                    "chain": {"n_iters": n_iters, "n_chains": n_chains, "seed": 3, "workers": workers},
                }
            )
        )
        return cfg

    def test_writes_expected_files(self, capsys, tmp_path):
        cfg = self.make_config(tmp_path)
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(["sample", "--config", str(cfg), "--out-dir", str(out_dir)], capsys)
        assert code == 0
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == ["chain_000.csv", "chain_001.csv", "chain_002.csv", "manifest.json", "summary.json"]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seeds"] == [3, 4, 5]
        assert "csv_columns" in manifest
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["n_chains"] == 3
        assert summary["mean_proposals_per_step"] >= 1.0

    def test_byte_identical_reruns(self, capsys, tmp_path):
        cfg = self.make_config(tmp_path, n_chains=2)
        d1 = tmp_path / "r1"
        d2 = tmp_path / "r2"
        assert run_cli(["sample", "--config", str(cfg), "--out-dir", str(d1)], capsys)[0] == 0
        assert run_cli(["sample", "--config", str(cfg), "--out-dir", str(d2)], capsys)[0] == 0
        for name in ("chain_000.csv", "chain_001.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_worker_pool_matches_serial(self, capsys, tmp_path):
        cfg_serial = self.make_config(tmp_path, n_chains=2, workers=1)
        d1 = tmp_path / "serial"
        assert run_cli(["sample", "--config", str(cfg_serial), "--out-dir", str(d1)], capsys)[0] == 0
        cfg_par = tmp_path / "p.json"
        data = json.loads(cfg_serial.read_text())
        data["chain"]["workers"] = 2
        cfg_par.write_text(json.dumps(data))
        d2 = tmp_path / "par"
        assert run_cli(["sample", "--config", str(cfg_par), "--out-dir", str(d2)], capsys)[0] == 0
        for name in ("chain_000.csv", "chain_001.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    # sha256 of each chain CSV, recorded with numpy 2.4.6: a change that
    # keeps the sampler's bits keeps these files' bytes.  power_norm at
    # d = 20 runs two bundle iterations and a two-plane model QP per sweep,
    # l1 in exact mode runs two worker processes, and gaussian at d = 5 with
    # delta = 1e-6 takes up to 5 bundle iterations, so the active-set QP.
    CSV_DIGESTS = {
        "power_norm": (
            {"name": "power_norm", "dim": 20, "params": {"alpha": 0.5}},
            {"kind": "semi-smooth", "eps": 0.2, "mu": 0.0, "rgo_mode": "bundle"},
            {"n_iters": 300, "n_chains": 2, "seed": 3, "workers": 1},
            ["7392922c4ca84d984e9fcd42b0d977e5097ff414658fb2aefe68be89d5d7d470",
             "36905c240ad55eb42ca4061707baaf45561c7e5e93b74bcc42bf461869a2b828"],
        ),
        "l1-exact": (
            {"name": "l1", "dim": 1},
            {"kind": "semi-smooth", "eps": 0.2, "rgo_mode": "exact"},
            {"n_iters": 200, "n_chains": 3, "seed": 5, "workers": 2},
            ["adc2f272a79e8cd025244221196f6b33cfa372965ce1be9db5c5166df8ec85da",
             "7b5dfd8d8adeebd09acd8b444db2540d716a9a0b61bd55adf0908a3546b96581",
             "cc452d3ccbbcabaca179a105facb598fd8d3335d5d6e7237a4540c000d33416a"],
        ),
        "gaussian": (
            {"name": "gaussian", "dim": 5},
            {"kind": "composite", "mu": 0.3, "delta": 1e-6, "rgo_mode": "bundle"},
            {"n_iters": 200, "n_chains": 2, "seed": 4},
            ["b671483e83b3adab24e4fea9fc6e1286f9e41f5184dc8f17215622355fe9a64f",
             "f565c8d80cb3317937ff8536bbf5c03fb45d9657013025d12479815626caa21a"],
        ),
    }

    @pytest.mark.parametrize("case", sorted(CSV_DIGESTS))
    def test_chain_csv_bytes_are_pinned(self, capsys, tmp_path, case):
        import hashlib

        target, regime, chain, digests = self.CSV_DIGESTS[case]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"target": target, "regime": regime, "chain": chain}))
        out_dir = tmp_path / "out"
        assert run_cli(["sample", "--config", str(cfg), "--out-dir", str(out_dir)], capsys)[0] == 0
        files = sorted(out_dir.glob("chain_*.csv"))
        assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in files] == digests

    def test_wall_clock_includes_csv_writing(self, capsys, tmp_path, monkeypatch):
        from proxsamp.chain import ChainTrace

        spent = []
        write = ChainTrace.to_csv

        def slow_to_csv(trace, path):
            t0 = time.perf_counter()
            write(trace, path)
            time.sleep(0.2)
            spent.append(time.perf_counter() - t0)

        monkeypatch.setattr(ChainTrace, "to_csv", slow_to_csv)
        cfg = self.make_config(tmp_path, n_chains=2)
        out_dir = tmp_path / "out"
        assert run_cli(["sample", "--config", str(cfg), "--out-dir", str(out_dir)], capsys)[0] == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len(spent) == 2
        assert summary["wall_clock_s"] >= sum(spent)
        assert manifest["wall_clock_s"] == summary["wall_clock_s"]
        assert summary["seconds_per_step"] == summary["wall_clock_s"] / (2 * 40)

    def test_summary_distribution_and_bound(self, capsys, tmp_path):
        from proxsamp import ENVELOPE_VERSION, RgoConfig, make_l1, rejection_bound, select_mu, select_params_semismooth
        from proxsamp.chain import moment_estimate

        cfg = self.make_config(tmp_path, n_chains=3)
        out_dir = tmp_path / "out"
        assert run_cli(["sample", "--config", str(cfg), "--out-dir", str(out_dir)], capsys)[0] == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        summary = json.loads((out_dir / "summary.json").read_text(), parse_constant=reject)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["envelope"] == ENVELOPE_VERSION
        # per chain and step: proposals, bundle iterations, subgradient calls
        per_chain = []
        for i in range(3):
            rows = (out_dir / f"chain_{i:03d}.csv").read_text().splitlines()[2:]
            per_chain.append(np.array([[int(v) for v in r.split(",")[-3:]] for r in rows]) + [1, 0, 0])
        per_step = np.concatenate(per_chain)
        assert summary["mean_proposals_per_step"] == pytest.approx(per_step[:, 0].mean())
        for col, name in enumerate(["proposals", "bundle_iters", "subgrad_calls"]):
            values = per_step[:, col]
            assert summary[f"p50_{name}_per_step"] == np.percentile(values, 50)
            assert summary[f"p99_{name}_per_step"] == np.percentile(values, 99)
            assert summary[f"max_{name}_per_step"] == values.max()
        # the bound at the resolved parameters: l1, semi-smooth, bundle mode
        pot = make_l1(1, 1.0)
        eta, delta = select_params_semismooth(pot.profile, 1)
        mu = select_mu(0.2, moment_estimate(pot))
        bound = rejection_bound(RgoConfig(eta=eta, delta=delta, mode="bundle"), pot.profile, 1, mu=mu)
        assert summary["rejection_bound"] == bound == 2.0 * math.exp(1.0)
        assert summary["rejection_bound_condition_ok"] is True
        means = [float(np.mean(c[:, 0])) for c in per_chain]
        assert summary["chain_mean_proposals_per_step"] == pytest.approx(means)
        assert summary["chain_mean_under_bound"] == [m <= bound for m in means]

    @pytest.mark.filterwarnings("ignore:step size exceeds the guard")
    @pytest.mark.parametrize("cap", ["max_rejections", "max_iter", "envelope"])
    def test_sampler_failure_reports_context(self, capsys, tmp_path, monkeypatch, cap):
        import functools

        import proxsamp.bundle as bundle
        import proxsamp.rejection as rejection

        if cap == "max_rejections":
            # a step size far above the guard with one proposal allowed
            regime = {"kind": "semi-smooth", "eps": 0.2, "eta": 50.0}
            target = {"name": "l1", "dim": 1, "params": {"scale": 1.0}}
            monkeypatch.setattr(rejection, "MAX_REJECTIONS", 1)
            error = "RejectionLimitError"
        elif cap == "envelope":
            # a prox that returns y: the envelope rises above g_y^eta
            regime = {"kind": "semi-smooth", "eps": 0.2, "rgo_mode": "exact"}
            target = {"name": "l1", "dim": 1, "params": {"scale": 1.0}}
            monkeypatch.setattr(rejection, "prox_of_target", lambda obj: obj.y.copy())
            error = "EnvelopeViolationError"
        else:
            # a gap tolerance that one bundle iteration cannot reach
            regime = {"kind": "semi-smooth", "eps": 0.2, "delta": 1e-12}
            target = {"name": "power_norm", "dim": 5, "params": {"alpha": 0.5}}
            monkeypatch.setattr(rejection, "prox_bundle", functools.partial(bundle.prox_bundle, max_iter=1))
            error = "BundleLimitError"
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps({"target": target, "regime": regime, "chain": {"n_iters": 50, "n_chains": 2, "seed": 3}})
        )
        code, _, err = run_cli(["sample", "--config", str(cfg), "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 3
        assert err.startswith(f"error: {error}: ")
        assert "(chain 0, step " in err and ", seed 3, y [" in err
        assert "Traceback" not in err

    # f overflows at the far point, as it should
    @pytest.mark.filterwarnings("ignore:overflow encountered in (multiply|matmul):RuntimeWarning")
    @pytest.mark.parametrize(
        "target, regime, x_init, where",
        [
            ({"name": "gaussian", "dim": 1}, {"kind": "composite"}, 1e200, "at y = [1e+200]"),
            ({"name": "gaussian", "dim": 1}, {"kind": "composite", "rgo_mode": "exact"}, 1e200,
             "at the prox point of y = [1e+200]"),
            ({"name": "power_norm", "dim": 1, "params": {"alpha": 0.5}}, {"rgo_mode": "exact"}, 1e300,
             "at the prox point of y = [1e+300]"),
        ],
        ids=["gaussian-bundle", "gaussian-exact", "power_norm-exact"],
    )
    def test_far_finite_x_init_is_a_sampler_failure(self, capsys, tmp_path, target, regime, x_init, where):
        # f overflows to inf at a finite start: exit 3 with the chain, the
        # step, the seed and y, not a traceback
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"target": target, "regime": regime, "chain": {"n_iters": 3, "x_init": [x_init]}}))
        code, _, err = run_cli(["sample", "--config", str(cfg), "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 3
        assert err.startswith(f"error: NonFiniteObjectiveError: g_y^eta is inf {where} (chain 0, step 0, seed 0, y [")
        assert "Traceback" not in err

    def test_wrong_x_init_length_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "target": {"name": "l1", "dim": 2, "params": {"scale": 1.0}},
                    "regime": {"kind": "semi-smooth", "eps": 0.2},
                    "chain": {"n_iters": 5, "n_chains": 2, "x_init": [0.0, 1.0, 2.0]},
                }
            )
        )
        out_dir = tmp_path / "o"
        code, _, err = run_cli(["sample", "--config", str(cfg), "--out-dir", str(out_dir)], capsys)
        assert code == 2
        assert "chain.x_init" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("x_init", [[math.nan], [math.inf]], ids=["nan", "inf"])
    def test_non_finite_x_init_is_usage_error(self, capsys, tmp_path, x_init):
        cfg = self.make_config(tmp_path, n_chains=1)
        data = json.loads(cfg.read_text())
        data["chain"]["x_init"] = x_init
        cfg.write_text(json.dumps(data))
        out_dir = tmp_path / "o"
        code, _, err = run_cli(["sample", "--config", str(cfg), "--out-dir", str(out_dir)], capsys)
        assert code == 2
        assert "x_init must be finite" in err and "chain.x_init" in err
        assert not out_dir.exists()

    def test_x_init_of_bools_or_strings_is_usage_error(self, capsys, tmp_path):
        cfg = self.make_config(tmp_path, n_chains=1)
        data = json.loads(cfg.read_text())
        data["target"]["dim"] = 2
        data["chain"]["x_init"] = [True, "0.5"]
        cfg.write_text(json.dumps(data))
        out_dir = tmp_path / "o"
        code, _, err = run_cli(["sample", "--config", str(cfg), "--out-dir", str(out_dir)], capsys)
        assert code == 2
        assert "x_init must hold real numbers, got [True, '0.5'] (chain.x_init in the config)" in err
        assert not out_dir.exists()

    def test_exact_mode_far_start_runs(self, capsys, tmp_path):
        # g_y^eta is about 2e7 near y = 9e3: rounding of that size once broke
        # an absolute 1e-9 envelope guard at step 4
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "chain": {"n_chains": 2, "n_iters": 30, "x_init": [10000.0]},
                    "regime": {"mu": 0.5, "rgo_mode": "exact"},
                    "target": {"name": "l1", "dim": 1},
                }
            )
        )
        code, _, err = run_cli(["sample", "--config", str(cfg), "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 0, err

    @pytest.mark.parametrize(
        "key,value",
        [("n_chains", -2), ("n_chains", 0), ("workers", 0), ("workers", -1), ("n_iters", 0), ("n_iters", -1)],
    )
    def test_chain_count_below_one_is_usage_error(self, capsys, tmp_path, key, value):
        cfg = self.make_config(tmp_path, **{key: value})
        out_dir = tmp_path / "o"
        code, out, err = run_cli(["sample", "--config", str(cfg), "--out-dir", str(out_dir)], capsys)
        assert code == 2
        assert f"{key} must be >= 1" in err and f"chain.{key} in the config" in err
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("seed", -1, "seed must be >= 0, got -1"),
            ("seed", 1.7, "seed must be an integer, got 1.7"),
            ("n_iters", 10.7, "n_iters must be an integer, got 10.7"),
            ("n_chains", 1.5, "n_chains must be an integer, got 1.5"),
            ("workers", 2.5, "workers must be an integer, got 2.5"),
            ("n_chains", True, "n_chains must be an integer, got True"),
            ("n_iters", None, "n_iters must be an integer, got None"),
        ],
        ids=["seed-negative", "seed-fraction", "n_iters-fraction", "n_chains-fraction",
             "workers-fraction", "n_chains-bool", "n_iters-null"],
    )
    def test_non_integral_chain_value_is_usage_error(self, capsys, tmp_path, key, value, message):
        cfg = self.make_config(tmp_path)
        data = json.loads(cfg.read_text())
        data["chain"][key] = value
        cfg.write_text(json.dumps(data))
        out_dir = tmp_path / "o"
        code, out, err = run_cli(["sample", "--config", str(cfg), "--out-dir", str(out_dir)], capsys)
        assert code == 2
        assert f"{message} (chain.{key} in the config)" in err
        assert out == ""
        assert not out_dir.exists()

    def test_integral_float_counts_run_as_ints(self, capsys, tmp_path):
        cfg = self.make_config(tmp_path, n_chains=2.0, n_iters=5.0)
        data = json.loads(cfg.read_text())
        data["chain"]["seed"] = 3.0
        cfg.write_text(json.dumps(data))
        out_dir = tmp_path / "o"
        code, _, _ = run_cli(["sample", "--config", str(cfg), "--out-dir", str(out_dir)], capsys)
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seeds"] == [3, 4]
        assert len((out_dir / "chain_001.csv").read_text().splitlines()) == 7  # header + K+1 rows

    def test_value_error_in_a_chain_is_not_a_usage_error(self, tmp_path, monkeypatch):
        import proxsamp.cli as cli

        def broken(*args, **kwargs):
            raise ValueError("broken inside the chain")

        monkeypatch.setattr(cli, "run_chain", broken)
        cfg = self.make_config(tmp_path, n_chains=1)
        with pytest.raises(ValueError, match="broken inside the chain"):
            cli.main(["sample", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])

    def test_env_var_default_dir(self, capsys, tmp_path, monkeypatch):
        cfg = self.make_config(tmp_path, n_chains=1)
        monkeypatch.setenv("PROXSAMP_OUT", str(tmp_path / "envdir"))
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(["sample", "--config", str(cfg)], capsys)
        assert code == 0
        assert (tmp_path / "envdir" / "chain_000.csv").exists()


class TestVerify:
    def test_prop_key_suite_passes(self, capsys, tmp_path):
        report_path = tmp_path / "rep.json"
        code, out, _ = run_cli(["verify", "prop-key", "--out", str(report_path)], capsys)
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["passed"] is True
        assert payload["suites"][0]["name"] == "prop-key"

    def test_report_is_strict_json(self, capsys, tmp_path, monkeypatch):
        import proxsamp.cli as cli
        from proxsamp.checks import CheckReport

        def fake_suites(names):
            details = {
                "bound": math.inf,
                "low": np.float64(-math.inf),
                "undefined": math.nan,
                "values": np.array([1.5, math.inf]),
                "count": np.int64(3),
            }
            return [CheckReport(name="fake", passed=True, details=details)]

        monkeypatch.setattr(cli, "run_suites", fake_suites)
        report_path = tmp_path / "rep.json"
        code, out, _ = run_cli(["verify", "all", "--out", str(report_path)], capsys)
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        for text in (report_path.read_text(), out):
            payload = json.loads(text, parse_constant=reject)
            details = payload["suites"][0]["details"]
            assert details == {
                "bound": "inf",
                "low": "-inf",
                "undefined": "nan",
                "values": [1.5, "inf"],
                "count": 3,
            }

    def test_unknown_suite_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "not-a-suite"])
        assert exc.value.code == 2


class TestConfig:
    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("config", "[1]", "must be a JSON object, got list"),
            ("params", "null", "must be a JSON object, got NoneType"),
            ("params", "3", "must be a JSON object, got int"),
            ("sample", '{"output": {"dir": 5}}', "dir must be a string, got 5 (output.dir in the config)"),
        ],
        ids=["list", "null", "number", "output-dir"],
    )
    def test_malformed_config_shape_is_usage_error(self, capsys, tmp_path, monkeypatch, command, text, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli([command, "--config", str(cfg)], capsys)
        assert code == 2
        assert message in err
        assert out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_defaults_json(self, capsys):
        code, out, _ = run_cli(["config", "--defaults"], capsys)
        assert code == 0
        cfg = json.loads(out)
        assert set(cfg) == {"target", "regime", "chain", "output"}

    def test_merged_echo(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"chain": {"seed": 99}}))
        code, out, _ = run_cli(["config", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["chain"]["seed"] == 99
