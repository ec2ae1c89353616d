import json
import math
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matweight import reducing
from matweight.cli import main, parse_config, parse_weight
from matweight.errors import ConfigError, InvalidWeightError
from matweight.weights import weight_from_descriptor

README = Path(__file__).resolve().parents[1] / "README.md"


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

    def test_long_inline_config(self):
        branch = {"kind": "power_log", "n": 1, "m": 1, "a": -0.4, "b": 0.0, "scale": 1.0}
        cfg = json.dumps({"weight": {"kind": "conjugated_block", "branch1": branch,
                                     "branch2": dict(branch, a=0.3)}, "p": 2.0,
                          "apdim": {"window_levels": [-2, -1], "abut_levels": [-2, 14]}})
        assert len(cfg) > 255 and parse_config(cfg, "apdim")["p"] == 2.0

    def test_bad_tier(self):
        with pytest.raises(ConfigError):
            parse_config({"tier": "everything"}, "verify")

    def test_criteria_names(self):
        cfg = parse_config({"criteria": ["determinism", "doubling"]}, "verify")
        assert cfg["criteria"] == ["determinism", "doubling"]

    def test_seed_override_is_validated(self):
        assert parse_config({"seed": 3}, "filters", seed=5)["seed"] == 5
        with pytest.raises(ConfigError):
            parse_config({}, "filters", seed=-1)


class TestMain:
    def test_config_error_exit_code(self, capsys):
        assert main(["verify", "--config", '{"bogus": 1}']) == 2
        assert main(["verify", "--config", "no-such-config.json"]) == 2

    def test_quadrature_keys_outside_apdim_schema_rejected(self, capsys):
        # base_depth and grade_depth are the only mesh keys
        for key in ("emit_depth", "order", "grade_step", "sup_depth", "sup_grade"):
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

    @pytest.mark.parametrize("bad", [
        {"apdim": {"base_depth": "a"}}, {"apdim": {"grade_depth": 2.5}},
        {"apdim": {"window_levels": 3}}, {"apdim": {"abut_levels": [4, 2]}},
        {"apdim": {"i_max": -1}}, {"apdim": {"fit_skip": 50}},
        {"apdim": {"domain_half": -4}}, {"reverse_holder_grid": "x"},
        {"reverse_holder_grid": []}, {"window": {"j_min": "a"}},
        {"window": {"j_min": 5}}, {"window": {"half_side": 0}},
        {"weight": {"kind": "power_log", "a": "x"}},
        {"weight": {"kind": "two_singularity", "dtilde": 0.3, "p": 2.0}}])
    def test_apdim_malformed_value_is_config_error(self, tmp_path, bad):
        cfg = json.dumps({"weight": {"kind": "power_log", "a": -0.4}, **bad})
        assert main(["apdim", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_apdim_growth_fit_without_points_is_numerical_error(self, tmp_path, capsys):
        cfg = json.dumps({"weight": {"kind": "power_log", "a": -0.5},
                          "apdim": {"i_max": 12, "fit_skip": 8, "domain_half": 4.0,
                                    "window_levels": [1, 2], "abut_levels": [1, 4]}})
        assert main(["apdim", "--config", cfg, "--out", str(tmp_path)]) == 4
        err = json.loads(capsys.readouterr().err)  # the whole of stderr is one JSON object
        assert err["warnings"] == ["i_max reduced from 12 to 6 to fit the domain"]
        assert err["error"] == "numerical"
        assert "fit_skip = 8" in err["message"] and "i_max is 6" in err["message"]

    def test_reduce_fit_failure_is_numerical_error_naming_its_box(self, tmp_path, capsys,
                                                                  monkeypatch):
        monkeypatch.setattr(reducing, "_MVEE_MAX_ITER", 2)
        cfg = json.dumps({"weight": {"kind": "power_log", "a": -0.4}, "p": 1.5})
        assert main(["reduce", "--config", cfg, "--out", str(tmp_path)]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "numerical", "message": "box [[-0.5], [0.0]] at p = 1.5: "
                       "ellipsoid fit not converged after 2 iterations"}
        assert not any(tmp_path.iterdir())

    def test_two_dimensional_default_apdim_is_refused_before_quadrature(self, tmp_path, capsys):
        cfg = '{"weight": {"kind": "power_log", "a": -0.8, "n": 2}}'
        start = time.perf_counter()
        assert main(["apdim", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert time.perf_counter() - start < 10.0
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical" and "590364 boxes" in err["message"]
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("weight", [
        {"kind": "power_log", "a": -0.5, "b": "x"},
        {"kind": "power_log", "a": -0.5, "scale": "x"},
        {"kind": "power_log", "a": -0.5, "m": 0},
        {"kind": "conjugated_block", "branch1": {"a": "x"}},
        {"kind": "conjugated_block", "branch1": {"a": -1.5}},
        {"kind": "conjugated_block", "branch1": {"a": -0.4, "bogus": 1}},
        # specs whose families were all NaN, or that crashed
        {"kind": "power_log", "a": -0.5, "scale": 0},
        {"kind": "power_log", "a": -0.5, "scale": -1},
        {"kind": "power_log", "a": -0.5, "scale": math.inf},
        {"kind": "power_log", "a": math.nan},
        {"kind": "power_log", "a": -0.5, "b": math.nan},
        {"kind": "power_log", "a": 10 ** 400},
        {"kind": "product_power", "centers": [[0.0]], "exponents": [math.nan]},
        {"kind": "product_power", "centers": [[math.nan]], "exponents": [-0.5]},
        {"kind": "constant", "matrix": [[[math.nan, 0.0]]]},
        # |x|^-1.5 is not integrable, whichever kind spells it
        {"kind": "power_log", "a": -1.5},
        {"kind": "product_power", "centers": [[0.0]], "exponents": [-1.5]},
        {"kind": "two_singularity", "d": 1.2, "dtilde": 0.3, "p": 2.0},
        {"kind": "conjugated_block",
         "branch1": {"kind": "product_power", "centers": [[0.0]], "exponents": [-1.5]}},
        # specs that built another weight than the one written, or crashed
        {"kind": "product_power", "centers": [[0.0]], "exponents": [-0.4, 0.3]},
        {"kind": "product_power", "centers": [[0.0], [0.5]], "exponents": [-0.4]},
        {"kind": "product_power", "centers": [[0.0, 0.5]], "exponents": [-0.4]},
        {"kind": "product_power", "n": 2, "centers": [[0.0, 0.5, 1.0]], "exponents": [-0.4]},
        {"kind": "two_singularity", "d": 0.4, "dtilde": 0.3, "p": 2.0, "x0": [0.25, 3, 1]},
        {"kind": "constant", "matrix": [[[2, 0], [1, 0]], [[0, 0], [2, 0]]]},
        {"kind": "constant", "matrix": [[[2, 0], [1, 0]]]},
        {"kind": "constant", "matrix": [[[1, 0], [2, 0]], [[2, 0], [1, 0]]]},
        {"kind": "power_log", "a": -0.4, "centers": [[0.0]]},
        {"kind": "conjugated_block", "m": 3, "branch1": {"a": -0.4}},
        {"kind": "conjugated_block", "n": True, "branch1": {"a": -0.4}},
        {"kind": "product_power", "centers": [[0.0], [0.5]], "exponents": [-0.4, True]},
        {"kind": "constant", "m": 3, "matrix": [[[2, 0], [0, 0]], [[0, 0], [2, 0]]]}])
    def test_reduce_bad_weight_spec_is_config_error(self, tmp_path, capsys, weight):
        branch = {"kind": "power_log", "n": 1, "m": 1, "a": 0.3}
        if "branch1" in weight:
            weight = dict(weight, branch1={**branch, **weight["branch1"]}, branch2=branch)
        cfg = json.dumps({"weight": weight, "p": 1.5, "window": {"j_min": 1, "j_max": 2}})
        assert main(["reduce", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("branch1, message", [
        ({"a": -1.5}, "a power exponent <= -n at a singular point makes the weight "
                      "non-integrable"),
        ({"a": math.nan}, "weight a must be finite, got nan")])
    def test_bad_branch_reports_its_own_error(self, tmp_path, capsys, branch1, message):
        weight = {"kind": "conjugated_block", "branch1": branch1, "branch2": {"a": 0.3}}
        cfg = json.dumps({"weight": weight, "p": 1.5, "window": {"j_min": 1, "j_max": 2}})
        assert main(["reduce", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "config", "message": message}

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
        assert report["code_version"] and report["warnings"] == []

    def test_apdim_warnings_go_into_the_report(self, tmp_path, capsys):
        cfg = json.dumps({"weight": {"kind": "power_log", "a": -0.5},
                          "apdim": {"i_max": 12, "domain_half": 4.0,
                                    "window_levels": [1, 2], "abut_levels": [1, 4]}})
        assert main(["apdim", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "apdim_report.json").read_text())
        assert report["warnings"] == ["i_max reduced from 12 to 6 to fit the domain"]
        assert capsys.readouterr().err == ""

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

    def test_verify_exact_tier_and_determinism(self, verify_exact_pair):
        (rc1, b1), (rc2, b2) = verify_exact_pair
        assert rc1 == 0 and rc2 == 0
        assert b1 is not None and b1 == b2

    @pytest.mark.parametrize("cfg", [{"criteria": ["bogus"]}, {"criteria": []},
                                     {"criteria": "determinism"}, {"criteria": [["doubling"]]},
                                     {"tier": "exact", "criteria": ["ratio_suites"]}])
    def test_verify_without_a_criterion_to_run_is_config_error(self, tmp_path, capsys, cfg):
        # a run that checks nothing must not report all_passed
        assert main(["verify", "--config", json.dumps(cfg), "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not (tmp_path / "verify_report.json").exists()

    @pytest.mark.parametrize("argv", [
        ["filters", "--config", '{"seed": "x"}'], ["filters", "--config", '{"seed": -1}'],
        ["filters", "--seed", "-1"], ["norms", "--config", '{"draws": 0}'],
        ["norms", "--config", '{"draws": -1}'], ["norms", "--config", '{"draws": "x"}'],
        ["norms", "--config", '{"draws": 2.5}'], ["norms", "--config", '{"filters": 5}'],
        ["norms", "--config", '{"filters": {"grid_level": "x"}}'],
        ["norms", "--config", '{"filters": {"bogus": 1}}'],
        ["norms", "--config", '{"filters": {"n": 2}}'],
        ["filters", "--config", '{"filters": {"n": "a"}}'],
        ["filters", "--config", '{"filters": {"n": 0}}'],
        ["filters", "--config", '{"filters": {"smoothness": 0}}'],
        ["filters", "--config", '{"filters": {"half_side": "x"}}'],
        # at p = infinity W^(1/p) = I, so the weight drops out of every A_p quantity
        ["apdim", "--config", '{"weight": {"kind": "power_log", "a": -0.4, "m": 2}, "p": Infinity}'],
        ["reduce", "--config", '{"p": Infinity}'],
        ["norms", "--config", '{"p": Infinity, "draws": 1}'],
        # a two-singularity weight's exponents are -d and (p - 1) dtilde
        ["apdim", "--config", '{"weight": {"kind": "two_singularity", "d": 0.4, '
                              '"dtilde": 0.3, "p": Infinity}, "p": 2}'],
        ["apdim", "--config", '{"weight": {"kind": "two_singularity", "d": 0.4, '
                              '"dtilde": 0.3, "p": 0.5}, "p": 2}'],
        ["apdim", "--config", '{"weight": {"kind": "two_singularity", "d": 0.4, '
                              '"dtilde": 0.3, "p": -1}, "p": 2}'],
        ["apdim", "--config", '{"weight": {"kind": "two_singularity", "d": "x", '
                              '"dtilde": 0.3, "p": 2}, "p": 2}'],
        ["apdim", "--config", '{"weight": {"kind": "two_singularity", "d": 0.4, '
                              '"dtilde": NaN, "p": 2}, "p": 2}'],
        # a window or filter grid the lattice cannot hold, and window levels the filters lack
        ["reduce", "--config", '{"window": {"half_side": 0.3}}'],
        ["reduce", "--config", '{"window": {"j_min": -3, "j_max": 0}}'],
        ["apdim", "--config", '{"window": {"half_side": 0.3}}'],
        ["norms", "--config", '{"window": {"half_side": 0.3}, "draws": 1}'],
        ["filters", "--config", '{"filters": {"grid_level": 2}}'],
        ["filters", "--config", '{"filters": {"half_side": 0.3}}'],
        ["norms", "--config", '{"filters": {"grid_level": 3}, "draws": 1}'],
        ["norms", "--config", '{"window": {"j_min": 1, "j_max": 3}, "draws": 1}']])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and err["message"]
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("space", ['{"s": "x"}', '{"tau": "x"}', '{"kind": "Z"}',
                                       '{"tau": -1}', '{"s": NaN}',
                                       '{"kind": "F", "p": Infinity}', '{"p": Infinity}'])
    def test_malformed_space_is_config_error(self, tmp_path, capsys, space):
        cfg = f'{{"space": {space}, "draws": 1}}'
        assert main(["norms", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "space" in err["message"]
        assert not (tmp_path / "norms_report.json").exists()


def test_readme_weight_specs_parse():
    block = README.read_text().split("A weight spec is")[1].split("```json\n")[1]
    specs = [json.loads(line) for line in block.split("```")[0].splitlines()]
    kinds = {parse_weight(spec).descriptor()["kind"] for spec in specs}
    assert len(specs) == 5 and kinds == {"power_log", "product_power", "constant",
                                         "conjugated_block"}


_REAL = st.floats(-0.9, 0.9)
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _pairs(W):
    return [[[z.real, z.imag] for z in row] for row in W]


@st.composite
def _rejected_weight_specs(draw):
    """A weight spec from one of the classes of values that the weight
    classes refuse, with every key its kind needs."""
    rejected = draw(st.sampled_from(["non_finite", "scale", "center", "matrix_shape",
                                     "indefinite", "non_hermitian", "p"]))
    n = draw(st.integers(1, 3))
    power_log = {"kind": "power_log", "n": n, "a": draw(_REAL), "b": draw(_REAL)}
    product = {"kind": "product_power", "n": n, "centers": [[0.0] * n, [0.25] * n],
               "exponents": [draw(_REAL), draw(_REAL)]}
    two_sing = {"kind": "two_singularity", "n": n, "d": 0.4, "dtilde": 0.3, "p": 2.0}
    a, b, c = draw(st.floats(0.5, 2.0)), draw(st.floats(-0.4, 0.4)), draw(st.floats(0.5, 2.0))
    if rejected == "non_finite":
        bad = draw(_NON_FINITE)
        spec = draw(st.sampled_from([
            dict(power_log, **{draw(st.sampled_from(["a", "b", "scale"])): bad}),
            dict(product, exponents=[-0.4, bad]), dict(product, centers=[[0.0] * n, [bad] * n]),
            dict(two_sing, **{draw(st.sampled_from(["d", "dtilde", "p"])): bad}),
            {"kind": "constant", "matrix": _pairs([[a, b], [b, bad]])}]))
    elif rejected == "scale":
        spec = dict(draw(st.sampled_from([power_log, product])),
                    scale=draw(st.floats(max_value=0.0, allow_nan=False)))
    elif rejected == "center":  # a center of neither 1 nor n coordinates, or one exponent too few
        k = draw(st.sampled_from([0, 2, 3, 4]).filter(lambda k: k != n))
        spec = draw(st.sampled_from([dict(product, centers=[[0.0] * n, [0.25] * k]),
                                     dict(product, exponents=[-0.4]),
                                     dict(two_sing, x0=[0.25] * k)]))
    elif rejected == "matrix_shape":
        spec = {"kind": "constant", "matrix": draw(st.sampled_from([
            [[[a, 0.0], [b, 0.0]]], [[[a, 0.0], [b, 0.0]], [[b, 0.0]]], [[[a, 0.0, 0.0]]],
            [[a, b]], []]))}
    elif rejected == "indefinite":  # |W_01|^2 >= W_00 W_11
        off = math.sqrt(a * c) * (1.0 + draw(st.floats(0.0, 1.0)))
        phase = complex(math.cos(b), math.sin(b))
        spec = {"kind": "constant", "matrix": _pairs([[a, off * phase],
                                                      [off * phase.conjugate(), c]])}
    elif rejected == "non_hermitian":
        skew = draw(st.floats(1e-6, 1.0)) * draw(st.sampled_from([1, -1, 1j, -1j]))
        spec = {"kind": "constant", "matrix": _pairs([[a, b + skew], [b, c]])}
    else:
        spec = dict(two_sing, p=draw(st.floats(-4.0, 1.0)))
    return spec


@settings(max_examples=80, deadline=None)
@given(spec=_rejected_weight_specs())
def test_rejected_weight_values_exit_2_and_raise_invalid_weight(tmp_path_factory, spec):
    out = tmp_path_factory.getbasetemp() / "rejected_weights"
    cfg = json.dumps({"weight": spec, "p": 1.5, "window": {"j_min": 1, "j_max": 2}})
    assert main(["reduce", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    with pytest.raises(InvalidWeightError):
        weight_from_descriptor(spec)
