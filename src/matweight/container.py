"""Shared serialization: reducing families and filter-pair tables.

A family is JSON with "(j,k)" cube keys in a deterministic order, each
holding its matrix as row-major [re, im] entries and its bracket.
"""

import json

import numpy as np

from .errors import CoverageError
from .geometry import Box, CubeWindow, DyadicCube
from .reducing import ReducingFamily
from .transform import bump_profile, psi_profile


_FAMILY_KEY_TYPES = {"window": dict, "p": (int, float), "method": str, "m": int, "cubes": dict}


def _cube_key(Q):
    return f"({Q.j},{','.join(str(k) for k in Q.k)})"


def _parse_cube_key(key):
    try:
        j_str, k_str = key.strip("()").split(",", 1)
        return DyadicCube(int(j_str), tuple(int(v) for v in k_str.split(",")))
    except ValueError:
        raise CoverageError(f"the family file holds an unparsable cube key {key!r}") from None


def save_family_json(path, family):
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
    with open(path) as fh:
        payload = json.load(fh)
    for key, kind in _FAMILY_KEY_TYPES.items():
        if not isinstance(payload, dict) or not isinstance(payload.get(key), kind):
            raise CoverageError(f"the family file's key {key!r} is missing or ill-typed")
    wd = payload["window"]
    try:
        window = CubeWindow(wd["n"], wd["j_min"], wd["j_max"],
                            Box(tuple(wd["box_lo"]), tuple(wd["box_hi"])))
    except (KeyError, TypeError, ValueError) as exc:
        raise CoverageError(f"the family file's key 'window' is ill-typed ({exc!r})") from None
    m = payload["m"]
    cubes = {_parse_cube_key(key): entry for key, entry in payload["cubes"].items()}
    missing = [Q for Q in window.cubes() if Q not in cubes]
    if missing:
        raise CoverageError(f"the family file has no entry for cube {_cube_key(missing[0])}")
    mats, brackets = {}, {}
    for j in window.levels():
        counts = tuple(window.counts_at_level(j))
        mats[j] = np.zeros(counts + (m, m), dtype=complex)
        brackets[j] = (np.ones(counts), np.ones(counts))
    for Q, entry in cubes.items():
        idx = window.index(Q)
        try:
            mat = np.array([[complex(re, im) for re, im in row] for row in entry["matrix"]])
            lo, hi = map(float, entry["bracket"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CoverageError(f"cube {_cube_key(Q)} holds a malformed entry "
                                f"({type(exc).__name__}: {exc})") from None
        if mat.shape != (m, m):
            raise CoverageError(f"cube {_cube_key(Q)} holds a {mat.shape} matrix, "
                                f"but the family's m is {m}")
        mats[Q.j][idx] = mat
        brackets[Q.j][0][idx], brackets[Q.j][1][idx] = lo, hi
    return ReducingFamily(window, payload["p"], payload["method"], mats, brackets)


def save_filters_json(path, filters):
    """Frequency-sample table of the filter pair (radial profiles per level)."""
    ts = np.linspace(0.25, 4.0, 513)
    payload = {
        "descriptor": filters.descriptor(),
        "radial_grid": [float(v) for v in ts],
        "phi_hat": [float(v) for v in bump_profile(ts, filters.smoothness)],
        "psi_hat": [float(v) for v in psi_profile(ts, filters.smoothness)],
        "safe_band": list(filters.safe_band),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
