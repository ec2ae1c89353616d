import json

import pytest

from matweight.cli import main, parse_config, parse_weight
from matweight.errors import ConfigError


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config({"weight": "identity", "p": 2}, "apdim")
        assert cfg["p"] == 2.0 and cfg["seed"] == 0

    def test_negative_p_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"p": -1}, "norms")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"p": 2, "bogus": True}, "apdim")

    def test_divergent_power_rejected(self):
        with pytest.raises(ConfigError):
            parse_weight({"kind": "power_log", "a": -1.0, "n": 1})

    def test_space_validation(self):
        with pytest.raises(ConfigError):
            parse_config({"p": 2, "space": {"p": -2}}, "norms")
        cfg = parse_config({"p": 2, "space": {"q": "inf"}}, "norms")
        assert cfg["space"]["q"] == float("inf")

    def test_bad_tier(self):
        with pytest.raises(ConfigError):
            parse_config({"tier": "everything"}, "verify")


class TestMain:
    def test_config_error_exit_code(self, capsys):
        assert main(["verify", "--config", '{"bogus": 1}']) == 2

    def test_quadrature_keys_outside_apdim_schema_rejected(self, capsys):
        # base_depth, grade_depth, sup_depth and sup_grade are the only mesh keys
        for key in ("emit_depth", "order", "grade_step"):
            cfg = json.dumps({"weight": "identity", "p": 2, "apdim": {key: 2}})
            assert main(["apdim", "--config", cfg]) == 2

    def test_filters_subcommand(self, tmp_path):
        rc = main(["filters", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "filters_report.json").read_text())
        assert report["calderon_defect"] <= 1e-12
        assert (tmp_path / "filters.json").exists()

    def test_reduce_subcommand(self, tmp_path):
        cfg = json.dumps({"weight": {"kind": "power_log", "a": -0.4}, "p": 2.0,
                          "window": {"j_min": 1, "j_max": 3}})
        rc = main(["reduce", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "reduce_report.json").read_text())
        lo, hi = report["worst_bracket"]
        assert 0.1 <= lo <= hi <= 10.0

    @pytest.mark.parametrize("bad", [{"method": "bogus"}, {"method": "exact_p2", "p": 1.5},
                                     {"directions": "abc"}, {"directions": -1},
                                     {"directions": -5}])
    def test_reduce_bad_method_or_directions_is_config_error(self, tmp_path, bad):
        cfg = json.dumps({"weight": {"kind": "power_log", "a": -0.4}, **bad})
        assert main(["reduce", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_apdim_subcommand(self, tmp_path):
        cfg = json.dumps({
            "weight": {"kind": "power_log", "a": -0.5}, "p": 2.0,
            "apdim": {"i_max": 6, "domain_half": 64.0,
                      "window_levels": [-1, 0], "abut_levels": [-1, 10]},
        })
        rc = main(["apdim", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "apdim_report.json").read_text())
        assert 0.35 <= report["d_hat"] <= 0.65
        assert (tmp_path / "a_sequence.csv").exists()
        assert report["code_version"]

    def test_norms_subcommand(self, tmp_path):
        cfg = json.dumps({"weight": "identity", "p": 2.0, "draws": 2,
                          "window": {"j_min": 2, "j_max": 4},
                          "filters": {"grid_level": 8}})
        rc = main(["norms", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "norms_report.json").read_text())
        assert report["sequence_norms"]["mean"] > 0

    def test_norms_constant_weight_uses_its_operators(self, tmp_path):
        # diag(4, 9) at p = 2 reduces to diag(2, 3): both norm means sit
        # between 2 and 3 times those of the 2 x 2 identity weight
        def means(matrix):
            cfg = json.dumps({"weight": {"kind": "constant", "matrix": matrix},
                              "p": 2.0, "draws": 2, "window": {"j_min": 2, "j_max": 4},
                              "filters": {"grid_level": 8}})
            assert main(["norms", "--config", cfg, "--out", str(tmp_path)]) == 0
            report = json.loads((tmp_path / "norms_report.json").read_text())
            return report["sequence_norms"]["mean"], report["function_norms"]["mean"]

        diag = means([[[4.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [9.0, 0.0]]])
        eye = means([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
        for d, e in zip(diag, eye):
            assert 2.0 <= d / e <= 3.0

    def test_verify_exact_tier_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "v1", tmp_path / "v2"
        rc1 = main(["verify", "--tier", "exact", "--seed", "7",
                    "--out", str(out1)])
        rc2 = main(["verify", "--tier", "exact", "--seed", "7",
                    "--out", str(out2)])
        assert rc1 == 0 and rc2 == 0
        b1 = (out1 / "verify_report.json").read_bytes()
        b2 = (out2 / "verify_report.json").read_bytes()
        assert b1 == b2
