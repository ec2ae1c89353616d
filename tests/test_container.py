import json

import numpy as np
import pytest

from matweight.container import load_family_json, save_family_json, save_filters_json
from matweight.errors import CoverageError, DegenerateMatrixError
from matweight.geometry import CubeWindow, cube_box
from matweight.reducing import build_family
from matweight.transform import build_filters
from matweight.weights import PowerLogWeight


def test_family_roundtrip(tmp_path):
    W = PowerLogWeight(1, 1, -0.5)
    window = CubeWindow(1, 1, 3)
    fam = build_family(W, 2.0, window, method="exact_p2")
    path = tmp_path / "family.json"
    save_family_json(path, fam)
    back = load_family_json(path)
    for Q in window.cubes():
        assert np.allclose(back.matrix(Q), fam.matrix(Q))
        assert back.bracket(Q) == pytest.approx(fam.bracket(Q))


def _written_family(tmp_path):
    fam = build_family(PowerLogWeight(1, 1, -0.5), 2.0, CubeWindow(1, 1, 3), method="exact_p2")
    path = tmp_path / "family.json"
    save_family_json(path, fam)
    return path, json.loads(path.read_text())


def test_family_missing_cube_raises_coverage_error(tmp_path):
    path, payload = _written_family(tmp_path)
    del payload["cubes"]["(2,1)"]
    path.write_text(json.dumps(payload))
    with pytest.raises(CoverageError, match=r"no entry for cube \(2,1\)"):
        load_family_json(path)


def test_family_matrix_shape_mismatch_raises_coverage_error(tmp_path):
    path, payload = _written_family(tmp_path)
    payload["m"] = 2
    path.write_text(json.dumps(payload))
    with pytest.raises(CoverageError, match=r"\(1, 1\) matrix, but the family's m is 2"):
        load_family_json(path)


def test_family_singular_matrix_raises_degenerate_matrix_error(tmp_path):
    path, payload = _written_family(tmp_path)
    payload["cubes"]["(2,1)"]["matrix"] = [[[0.0, 0.0]]]
    path.write_text(json.dumps(payload))
    with pytest.raises(DegenerateMatrixError, match="singular matrix at level 2"):
        load_family_json(path)


def test_family_entry_without_bracket_raises_coverage_error(tmp_path):
    path, payload = _written_family(tmp_path)
    del payload["cubes"]["(2,1)"]["bracket"]
    path.write_text(json.dumps(payload))
    with pytest.raises(CoverageError, match=r"cube \(2,1\) holds a malformed entry \(KeyError"):
        load_family_json(path)


def test_family_matrix_entry_without_imaginary_part_raises_coverage_error(tmp_path):
    path, payload = _written_family(tmp_path)
    payload["cubes"]["(2,1)"]["matrix"] = [[[1.0]]]
    path.write_text(json.dumps(payload))
    with pytest.raises(CoverageError, match=r"cube \(2,1\) holds a malformed entry \(ValueError"):
        load_family_json(path)


def test_family_without_a_top_level_key_raises_coverage_error(tmp_path):
    path, payload = _written_family(tmp_path)
    del payload["window"]
    path.write_text(json.dumps(payload))
    with pytest.raises(CoverageError, match="key 'window' is missing or ill-typed"):
        load_family_json(path)


@pytest.mark.parametrize("key,value", [("m", "1"), ("cubes", []), ("window", {"n": 1})])
def test_family_ill_typed_top_level_key_raises_coverage_error(tmp_path, key, value):
    path, payload = _written_family(tmp_path)
    payload[key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(CoverageError, match=f"key '{key}' is"):
        load_family_json(path)


def test_family_unparsable_cube_key_raises_coverage_error(tmp_path):
    path, payload = _written_family(tmp_path)
    payload["cubes"]["bad"] = payload["cubes"]["(2,1)"]
    path.write_text(json.dumps(payload))
    with pytest.raises(CoverageError, match="unparsable cube key 'bad'"):
        load_family_json(path)


def test_filters_export(tmp_path):
    flt = build_filters(cube_box(1), 10)
    path = tmp_path / "filters.json"
    save_filters_json(path, flt)
    payload = json.loads(path.read_text())
    assert payload["descriptor"]["grid_level"] == 10
    assert len(payload["phi_hat"]) == len(payload["radial_grid"])
