"""Batch experiment driver.

Subcommands: apdim (dimension report), norms (sequence/function norms),
verify (acceptance suite), filters (build/export a filter pair), reduce
(build/export a reducing family). Configs are strict JSON; reports are JSON
plus CSV plot tables and never contain timestamps, so a fixed seed gives
byte-identical outputs. Exit codes: 0 pass, 2 config error, 3 verification
failure, 4 numerical failure.
"""

import argparse
import csv
import hashlib
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import apdim, verify
from .container import save_family_json, save_filters_json
from .errors import ConfigError, InvalidWeightError, MatweightError, ResolutionError
from .geometry import CubeWindow, cube_box
from .reducing import build_family
from .spaces import CoefficientField, SpaceParams, classify, seq_norm
from .transform import build_filters, filter_scales, function_norm, random_band_limited
from .weights import weight_from_descriptor


def code_version():
    """Content hash of the package sources, embedded in every report."""
    pkg = Path(__file__).parent
    h = hashlib.sha256()
    for path in sorted(pkg.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# per weight kind, the keys a spec must give and the keys it may give
_WEIGHT_KINDS = {
    "power_log": ({"a"}, {"n", "m", "b", "scale"}),
    "product_power": ({"centers", "exponents"}, {"n", "m", "scale"}),
    "two_singularity": ({"d", "dtilde", "p"}, {"n", "m", "x0"}),
    "constant": ({"matrix"}, {"n", "m"}),
    "conjugated_block": ({"branch1", "branch2"}, {"n", "m"}),
}

_SCHEMA = {
    "apdim": {"weight", "p", "apdim", "seed", "window", "reverse_holder_grid"},
    "norms": {"weight", "p", "space", "window", "seed", "draws", "filters"},
    "verify": {"tier", "seed", "criteria"},
    "filters": {"filters", "seed"},
    "reduce": {"weight", "p", "window", "method", "directions", "seed"},
}

_APDIM_KEYS = {"i_max", "domain_half", "window_levels", "abut_levels",
               "base_depth", "grade_depth", "fit_skip"}

# the window levels and filter grid level each subcommand uses when the
# config leaves them out
_WINDOW_LEVELS = {"apdim": (1, 4), "norms": (2, 6), "reduce": (1, 4)}
_GRID_LEVEL = {"norms": 10, "filters": 12}


def _check_keys(d, allowed, where):
    _check(isinstance(d, dict), f"{where} must be an object", d)
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def _check(ok, what, value):
    if not ok:
        raise ConfigError(f"{what}, got {value!r}")


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_positive(v):
    return _is_number(v) and v > 0


def _is_levels(v):
    return (isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_int, v))
            and v[0] <= v[1])


def _weight_descriptor(spec):
    """The descriptor of a spec whose keys, and its branches' keys, fit its kind."""
    if spec is None or spec == "identity":
        return {"kind": "constant", "matrix": [[[1.0, 0.0]]]}
    _check(isinstance(spec, dict), "weight spec must be 'identity' or an object", spec)
    kind = spec.get("kind", "power_log")
    _check(isinstance(kind, str) and kind in _WEIGHT_KINDS,
           f"weight kind must be one of {sorted(_WEIGHT_KINDS)}", kind)
    required, optional = _WEIGHT_KINDS[kind]
    _check_keys(spec, {"kind"} | required | optional, f"{kind} weight")
    _check(required <= set(spec), f"a {kind} weight needs the keys {sorted(required)}",
           sorted(spec))
    branches = required & {"branch1", "branch2"}
    return {**spec, "kind": kind, **{key: _weight_descriptor(spec[key]) for key in branches}}


def _check_fixed(desc, weight):
    """A given n or m must be the one the weight fixes (a constant matrix its
    m, a conjugated block its n from the branches and m = 2), branches too."""
    for key in ("n", "m"):
        built = getattr(weight, key)
        given = desc.get(key, built)
        _check(_is_int(given) and given == built,
               f"weight {key} must be {built} for this {desc['kind']} weight", given)
    for key in {"branch1", "branch2"} & set(desc):
        _check_fixed(desc[key], getattr(weight, key))


def parse_weight(spec):
    """The weight of a spec: its keys are checked here, its values by the weight classes."""
    desc = _weight_descriptor(spec)
    try:
        weight = weight_from_descriptor(desc)
    except InvalidWeightError as exc:
        raise ConfigError(str(exc)) from exc
    _check_fixed(desc, weight)
    if any(weight.norm_exponent(s, 1.0) <= -weight.n for s in weight.singular_points):
        raise ConfigError("a power exponent <= -n at a singular point makes the weight "
                          "non-integrable")
    return weight


def parse_config(path_or_inline, subcommand, seed=None):
    """The validated config of a subcommand; seed, when given, overrides the config's."""
    if isinstance(path_or_inline, dict):
        cfg = dict(path_or_inline)
    else:
        text = path_or_inline
        if not text.lstrip().startswith("{"):  # a path; inline JSON may exceed path limits
            try:
                text = Path(text).read_text()
            except OSError as exc:
                raise ConfigError(f"config is not inline JSON or a readable file: {exc}") from exc
        try:
            cfg = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys(cfg, _SCHEMA[subcommand], f"{subcommand} config")
    if seed is not None:
        cfg["seed"] = seed
    cfg.setdefault("seed", 0)
    _check(_is_int(cfg["seed"]) and cfg["seed"] >= 0, "seed must be an integer >= 0", cfg["seed"])
    draws = cfg.get("draws", 1)
    _check(_is_int(draws) and draws >= 1, "draws must be a positive integer", draws)
    names = cfg.get("criteria", list(verify.CRITERIA))
    _check(isinstance(names, list) and names
           and all(isinstance(c, str) and c in verify.CRITERIA for c in names),
           f"criteria must be a non-empty list of names from {sorted(verify.CRITERIA)}", names)
    if "filters" in cfg:
        f = cfg["filters"]
        _check_keys(f, {"grid_level", "smoothness"}
                    | ({"half_side", "n"} if subcommand == "filters" else set()), "filters")
        _check(_is_int(f.get("grid_level", 0)), "filters grid_level must be an integer", f)
        for key in ("smoothness", "n"):
            _check(_is_int(f.get(key, 1)) and f.get(key, 1) >= 1,
                   f"filters {key} must be an integer >= 1", f)
        _check(_is_positive(f.get("half_side", 0.5)), "filters half_side must be positive", f)
    p = cfg.get("p", 2.0)
    _check(_is_positive(p) and math.isfinite(p), "p must be a finite positive number", p)
    cfg["p"] = float(p)
    if "apdim" in cfg:
        _check_keys(cfg["apdim"], _APDIM_KEYS, "apdim options")
        c = {**vars(apdim.ApDimConfig()), **cfg["apdim"]}
        for key in ("base_depth", "grade_depth", "fit_skip"):
            _check(_is_int(c[key]) and c[key] >= 0, f"apdim {key} must be an integer >= 0", c[key])
        _check(_is_int(c["i_max"]) and c["i_max"] >= c["fit_skip"] + 2,
               "apdim i_max must be an integer >= fit_skip + 2", c["i_max"])
        _check(_is_positive(c["domain_half"]), "apdim domain_half must be positive",
               c["domain_half"])
        for key in ("window_levels", "abut_levels"):
            _check(_is_levels(c[key]), f"apdim {key} must be two integers lo <= hi", c[key])
    if "reverse_holder_grid" in cfg:
        grid = cfg["reverse_holder_grid"]
        _check(isinstance(grid, list) and grid and all(map(_is_positive, grid)),
               "reverse_holder_grid must be a non-empty list of positive numbers", grid)
    if "space" in cfg:
        sp = cfg["space"]
        _check_keys(sp, {"s", "tau", "p", "q", "kind"}, "space")
        q = sp.get("q", 2.0)
        cfg["space"] = {"s": sp.get("s", 0.0), "tau": sp.get("tau", 0.0),
                        "p": sp.get("p", cfg["p"]),
                        "q": float("inf") if q in ("inf", None) else q,
                        "kind": sp.get("kind", "B")}
        s, tau, kind = (cfg["space"][k] for k in ("s", "tau", "kind"))
        _check(_is_positive(cfg["space"]["p"]) and math.isfinite(cfg["space"]["p"])
               and _is_positive(cfg["space"]["q"]),
               "space p must be a finite positive number and q a positive number", sp)
        _check(_is_number(s) and math.isfinite(s), "space s must be a finite number", sp)
        _check(_is_number(tau) and tau >= 0, "space tau must be a number >= 0", sp)
        _check(kind in ("B", "F"), 'space kind must be "B" or "F"', sp)
    if "window" in cfg:
        w = cfg["window"]
        _check_keys(w, {"j_min", "j_max", "half_side"}, "window")
        lo, hi = _WINDOW_LEVELS[subcommand]
        _check(_is_levels([w.get("j_min", lo), w.get("j_max", hi)]),
               "window j_min <= j_max must be integers", w)
        _check(_is_positive(w.get("half_side", 0.5)), "window half_side must be positive", w)
    _check(cfg.get("tier", "all") in ("exact", "paper", "ratio", "all"), "unknown tier",
           cfg.get("tier"))
    _check(cfg.get("method", "auto") in ("auto", "exact_p2", "mvee"), "unknown method",
           cfg.get("method"))
    _check(cfg.get("method") != "exact_p2" or cfg["p"] == 2.0, "method exact_p2 requires p = 2",
           cfg["p"])
    K = cfg.get("directions", 256)
    _check(_is_int(K) and K >= 1, "directions must be a positive integer", K)
    _check_grids(cfg, subcommand)
    return cfg


def _check_grids(cfg, subcommand):
    """Raise ConfigError unless the window tiles its box, the filter grid
    holds an annulus, and the norms window levels are scales the filters
    resolve. The window and the grid are cubic, so one axis decides."""
    where = "window"
    try:
        if subcommand in _WINDOW_LEVELS:
            window = _window_from_config(cfg, 1, subcommand)
        if subcommand in _GRID_LEVEL:
            where = "filters"
            f = cfg.get("filters", {})
            box = window.box if subcommand == "norms" else cube_box(1, f.get("half_side", 0.5))
            _, j_min, j_max = filter_scales(box, f.get("grid_level", _GRID_LEVEL[subcommand]))
    except ResolutionError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if subcommand == "norms":
        _check(j_min <= window.j_min and window.j_max <= j_max,
               f"window levels must lie in the filters' resolvable scales [{j_min}, {j_max}]",
               [window.j_min, window.j_max])


def _window_from_config(cfg, n, subcommand):
    w = cfg.get("window", {})
    lo, hi = _WINDOW_LEVELS[subcommand]
    return CubeWindow(n, w.get("j_min", lo), w.get("j_max", hi),
                      cube_box(n, w.get("half_side", 0.5)))


def _messages(caught):
    """The distinct messages of the recorded warnings, in order."""
    return list(dict.fromkeys(str(w.message) for w in caught))


def _write_report(out_dir, name, cfg, payload, caught):
    """Write the report: the config, the source hash, the payload and the
    messages of the warnings recorded so far."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.json"
    with open(path, "w") as fh:
        json.dump({"config": cfg, "code_version": code_version(), **payload,
                   "warnings": _messages(caught)}, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def _write_csv(out_dir, name, header, rows):
    path = Path(out_dir) / f"{name}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def cmd_apdim(cfg, out_dir, caught):
    weight = parse_weight(cfg.get("weight"))
    p = cfg["p"]
    opts = cfg.get("apdim", {})
    config = apdim.ApDimConfig(**{k: tuple(v) if isinstance(v, list) else v
                                  for k, v in opts.items()})
    dims, est = apdim.estimate_dimensions(weight, p, config)
    window = _window_from_config(cfg, weight.n, "apdim")
    beta = apdim.doubling_exponent(weight, p, window)
    r_grid = cfg.get("reverse_holder_grid", [1.25, 1.5, 1.75, 2.0])
    r_hat, r_table = apdim.reverse_holder_probe(weight, p, window, r_grid)
    fam = build_family(weight, p, window, method="auto", K=64)
    padded = apdim.ApDimensions(dims.d + 0.1, dims.dtilde + 0.1,
                                dims.delta + 0.2, dims.n)
    env_ratio, witness, pairs = apdim.growth_envelope_check(fam, padded)
    report = {
        "p": p,
        "weight": weight.descriptor(),
        "a_table": {str(i): float(v) for i, v in zip(est.i_values, est.a_values)},
        "d_hat": dims.d,
        "dtilde_hat": dims.dtilde,
        "delta_hat": dims.delta,
        "log_coeff": est.log_coeff,
        "beta_hat": beta,
        "r_hat": None if not np.isfinite(r_hat) else r_hat,
        "reverse_holder_table": {str(k): (None if not np.isfinite(v) else v)
                                 for k, v in r_table.items()},
        "envelope_max_ratio": env_ratio,
        "envelope_witness": [str(witness[0]), str(witness[1])],
        "envelope_pairs": pairs,
        "flags": dims.flags,
        "num_base_cubes": est.num_base_cubes,
    }
    path = _write_report(out_dir, "apdim_report", cfg, report, caught)
    _write_csv(out_dir, "a_sequence",
               ["i", "a_i", "log2_a_i"],
               [[int(i), float(v), float(np.log2(v))]
                for i, v in zip(est.i_values, est.a_values)])
    print(f"apdim report written to {path}")
    print(f"d_hat = {dims.d:.4f}  dtilde_hat = {dims.dtilde:.4f} "
          f"delta_hat = {dims.delta:.4f}  beta_hat = {beta:.4f}")
    return 0


def cmd_norms(cfg, out_dir, caught):
    weight = parse_weight(cfg.get("weight"))
    sp = cfg.get("space", {"s": 0.0, "tau": 0.0, "p": cfg["p"], "q": 2.0,
                           "kind": "B"})
    params = SpaceParams(sp["s"], sp["tau"], sp["p"], sp["q"], sp["kind"])
    window = _window_from_config(cfg, weight.n, "norms")
    rng = np.random.default_rng(cfg["seed"])
    draws = cfg.get("draws", 20)
    fam = build_family(weight, params.p, window, method="auto", K=64)
    seq_vals, fun_vals = [], []
    for _ in range(draws):
        t = CoefficientField.random(window, weight.m, rng)
        seq_vals.append(seq_norm(t, params, fam).value)
    fcfg = cfg.get("filters", {})
    flt = build_filters(window.box, fcfg.get("grid_level", _GRID_LEVEL["norms"]),
                        fcfg.get("smoothness", 6))
    for _ in range(draws):
        f = random_band_limited(flt, weight.m, rng)
        fun_vals.append(function_norm(f, flt, params, fam, window=window).value)
    report = {
        "space": {"s": params.s, "tau": params.tau, "p": params.p,
                  "q": "inf" if np.isinf(params.q) else params.q,
                  "kind": params.kind},
        "criticality": classify(params),
        **{key: {"mean": float(np.mean(v)), "min": float(np.min(v)), "max": float(np.max(v))}
           for key, v in (("sequence_norms", seq_vals), ("function_norms", fun_vals))},
        "draws": draws,
    }
    path = _write_report(out_dir, "norms_report", cfg, report, caught)
    _write_csv(out_dir, "norms", ["draw", "sequence_norm", "function_norm"],
               [[i, s, f] for i, (s, f) in enumerate(zip(seq_vals, fun_vals))])
    print(f"norms report written to {path}")
    return 0


def cmd_verify(cfg, out_dir, caught):
    tier = cfg.get("tier", "all")
    names = cfg.get("criteria")
    results = verify.run_suite(tier, cfg["seed"], names)
    if not results:
        raise ConfigError(f"no criterion of {names} is in tier {tier!r}")
    all_pass = all(r.passed for r in results)
    report = {
        "tier": tier,
        "criteria": {r.name: {"tier": r.tier, "passed": r.passed,
                              "details": _jsonable(r.details)} for r in results},
        "all_passed": all_pass,
    }
    path = _write_report(out_dir, "verify_report", cfg, report, caught)
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name} ({r.tier}, {r.seconds:.1f}s)",
              file=sys.stderr)
    print(f"verify report written to {path}")
    return 0 if all_pass else 3


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else str(v)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj if isinstance(obj, (str, type(None))) else str(obj)


def cmd_filters(cfg, out_dir, caught):
    fcfg = cfg.get("filters", {})
    n = fcfg.get("n", 1)
    flt = build_filters(cube_box(n, fcfg.get("half_side", 0.5)),
                        fcfg.get("grid_level", _GRID_LEVEL["filters"]), fcfg.get("smoothness", 6))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_filters_json(out_dir / "filters.json", flt)
    table = json.loads((out_dir / "filters.json").read_text())
    _write_csv(out_dir, "filters",
               ["radial_xi", "phi_hat", "psi_hat"],
               list(zip(table["radial_grid"], table["phi_hat"], table["psi_hat"])))
    report = {
        "resolvable_scales": [flt.j_min, flt.j_max],
        "safe_band": list(flt.safe_band),
        "calderon_defect": flt.calderon_defect(),
        "annulus_lower_bound_phi": flt.annulus_lower_bound("phi"),
        "annulus_lower_bound_psi": flt.annulus_lower_bound("psi"),
    }
    path = _write_report(out_dir, "filters_report", cfg, report, caught)
    print(f"filter pair written to {out_dir / 'filters.json'}; report {path}")
    return 0


def cmd_reduce(cfg, out_dir, caught):
    weight = parse_weight(cfg.get("weight"))
    window = _window_from_config(cfg, weight.n, "reduce")
    fam = build_family(weight, cfg["p"], window, method=cfg.get("method", "auto"),
                       K=cfg.get("directions", 256))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_family_json(out_dir / "family.json", fam)
    lo, hi = fam.worst_bracket()
    report = {
        "weight": weight.descriptor(),
        "num_cubes": window.num_cubes(),
        "worst_bracket": [lo, hi],
        "method": fam.method,
    }
    path = _write_report(out_dir, "reduce_report", cfg, report, caught)
    print(f"family written to {out_dir / 'family.json'}; report {path}")
    return 0


_COMMANDS = {"apdim": cmd_apdim, "norms": cmd_norms, "verify": cmd_verify,
             "filters": cmd_filters, "reduce": cmd_reduce}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="matweight",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("subcommand", choices=list(_COMMANDS))
    parser.add_argument("--config", default="{}",
                        help="path to a JSON config or inline JSON")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default="out")
    parser.add_argument("--tier", choices=["exact", "paper", "ratio", "all"],
                        default=None)
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, args.subcommand, args.seed)
        if args.tier is not None and args.subcommand == "verify":
            cfg["tier"] = args.tier
    except ConfigError as exc:
        return _error(2, "config", exc, ())
    # warnings go into the report or the JSON error, so stderr holds at most one JSON object
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return _COMMANDS[args.subcommand](cfg, args.out, caught)
        except ConfigError as exc:
            return _error(2, "config", exc, caught)
        except MatweightError as exc:
            return _error(4, "numerical", exc, caught)


def _error(code, kind, exc, caught):
    err = {"error": kind, "message": str(exc)}
    if caught:
        err["warnings"] = _messages(caught)
    print(json.dumps(err), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
