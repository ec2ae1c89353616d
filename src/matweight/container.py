"""Shared serialization: grid containers, coefficient fields, reducing families.

Grid data travels either as a self-describing JSON container (header with
dimensions, then row-major [re, im] entries) or as an npz archive with the
same header fields; coefficient fields use "(j,k)" cube keys in a
deterministic order.
"""

import json

import numpy as np

from .dyadic import GridFunction
from .geometry import Box, CubeWindow, DyadicCube
from .spaces import CoefficientField
from .weights import GridSampledWeight


def _complex_to_lists(arr):
    flat = np.asarray(arr, dtype=complex).ravel()
    return [[float(v.real), float(v.imag)] for v in flat]


def _lists_to_complex(data, shape):
    flat = np.array([complex(re, im) for re, im in data])
    return flat.reshape(shape)


def save_grid_function_json(path, gf):
    header = {
        "n": gf.n,
        "m": gf.m,
        "grid_shape": list(gf.shape),
        "box_lo": list(gf.box.lo),
        "box_hi": list(gf.box.hi),
        "level": gf.level,
        "periodic": gf.periodic,
        "vector": gf.vector,
    }
    payload = {"header": header, "data": _complex_to_lists(gf.values)}
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_grid_function_json(path):
    with open(path) as fh:
        payload = json.load(fh)
    h = payload["header"]
    box = Box(tuple(h["box_lo"]), tuple(h["box_hi"]))
    shape = tuple(h["grid_shape"])
    full = (h["m"],) + shape if h["vector"] else shape
    values = _lists_to_complex(payload["data"], full)
    if not h["vector"]:
        values = values.real if np.all(values.imag == 0) else values
    return GridFunction(box, h["level"], values, h["periodic"])


def save_grid_function_npz(path, gf):
    np.savez(path, values=gf.values, box_lo=np.asarray(gf.box.lo),
             box_hi=np.asarray(gf.box.hi), level=gf.level,
             periodic=gf.periodic, vector=gf.vector)


def load_grid_function_npz(path):
    z = np.load(path, allow_pickle=False)
    box = Box(tuple(z["box_lo"]), tuple(z["box_hi"]))
    return GridFunction(box, int(z["level"]), z["values"], bool(z["periodic"]))


def save_grid_weight_json(path, weight):
    header = {
        "n": weight.n,
        "m": weight.m,
        "grid_shape": list(weight.samples.shape[: weight.n]),
        "box_lo": list(weight.box.lo),
        "box_hi": list(weight.box.hi),
    }
    payload = {"header": header, "data": _complex_to_lists(weight.samples)}
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_grid_weight_json(path):
    with open(path) as fh:
        payload = json.load(fh)
    h = payload["header"]
    box = Box(tuple(h["box_lo"]), tuple(h["box_hi"]))
    shape = tuple(h["grid_shape"]) + (h["m"], h["m"])
    samples = _lists_to_complex(payload["data"], shape)
    return GridSampledWeight(box, samples)


def _cube_key(Q):
    return f"({Q.j},{','.join(str(k) for k in Q.k)})"


def _parse_cube_key(key):
    body = key.strip("()")
    j_str, k_str = body.split(",", 1)
    return DyadicCube(int(j_str), tuple(int(v) for v in k_str.split(",")))


def save_coefficient_field_json(path, t):
    cubes = {}
    for j in t.window.levels():
        for Q in t.window.cubes_at_level(j):
            vec = t.cube_value(Q)
            cubes[_cube_key(Q)] = [[float(v.real), float(v.imag)] for v in vec]
    payload = {"window": t.window.descriptor(), "m": t.m, "cubes": cubes}
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_coefficient_field_json(path):
    with open(path) as fh:
        payload = json.load(fh)
    wd = payload["window"]
    window = CubeWindow(wd["n"], wd["j_min"], wd["j_max"],
                        Box(tuple(wd["box_lo"]), tuple(wd["box_hi"])))
    t = CoefficientField(window, payload["m"])
    for key, vec in payload["cubes"].items():
        Q = _parse_cube_key(key)
        t.set_cube(Q, np.array([complex(re, im) for re, im in vec]))
    return t


def save_family_json(path, family):
    from .reducing import ReducingFamily  # noqa: F401  (type of `family`)

    cubes = {}
    for j in family.window.levels():
        for Q in family.window.cubes_at_level(j):
            lo, hi = family.bracket(Q)
            cubes[_cube_key(Q)] = {
                "matrix": [[[float(v.real), float(v.imag)] for v in row]
                           for row in family.matrix(Q)],
                "bracket": [lo, hi],
            }
    payload = {"window": family.window.descriptor(), "p": family.p,
               "method": family.method, "m": family.m, "cubes": cubes}
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_family_json(path):
    from .reducing import ReducingFamily

    with open(path) as fh:
        payload = json.load(fh)
    wd = payload["window"]
    window = CubeWindow(wd["n"], wd["j_min"], wd["j_max"],
                        Box(tuple(wd["box_lo"]), tuple(wd["box_hi"])))
    m = payload["m"]
    mats, invs, brackets = {}, {}, {}
    for j in window.levels():
        counts = tuple(window.counts_at_level(j))
        mats[j] = np.zeros(counts + (m, m), dtype=complex)
        brackets[j] = (np.ones(counts), np.ones(counts))
    for key, entry in payload["cubes"].items():
        Q = _parse_cube_key(key)
        idx = window.index(Q)
        mats[Q.j][idx] = np.array([[complex(re, im) for re, im in row]
                                   for row in entry["matrix"]])
        brackets[Q.j][0][idx], brackets[Q.j][1][idx] = entry["bracket"]
    for j in window.levels():
        invs[j] = np.linalg.inv(mats[j])
    return ReducingFamily(window, payload["p"], payload["method"], mats, invs,
                          brackets, m)


def save_filters_json(path, filters):
    """Frequency-sample table of the filter pair (radial profiles per level)."""
    ts = np.linspace(0.25, 4.0, 513)
    from .transform import bump_profile, psi_profile

    payload = {
        "descriptor": filters.descriptor(),
        "radial_grid": [float(v) for v in ts],
        "phi_hat": [float(v) for v in bump_profile(ts, filters.smoothness)],
        "psi_hat": [float(v) for v in psi_profile(ts, filters.smoothness)],
        "safe_band": list(filters.safe_band),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
