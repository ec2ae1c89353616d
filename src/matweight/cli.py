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
import sys
from pathlib import Path

import numpy as np

from . import apdim, verify
from .container import save_family_json, save_filters_json
from .errors import ConfigError, MatweightError
from .geometry import CubeWindow, cube_box
from .reducing import build_family
from .spaces import CoefficientField, SpaceParams, classify, seq_norm
from .transform import build_filters, function_norm, random_band_limited
from .weights import PowerLogWeight, identity_weight, weight_from_descriptor


def code_version():
    """Content hash of the package sources, embedded in every report."""
    pkg = Path(__file__).parent
    h = hashlib.sha256()
    for path in sorted(pkg.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


_WEIGHT_KEYS = {"kind", "n", "m", "a", "b", "scale", "centers", "exponents",
                "matrix", "branch1", "branch2", "d", "dtilde", "p", "x0"}

_SCHEMA = {
    "apdim": {"weight", "p", "apdim", "seed", "window", "reverse_holder_grid"},
    "norms": {"weight", "p", "space", "window", "seed", "draws", "filters"},
    "verify": {"tier", "seed", "criteria"},
    "filters": {"filters", "seed"},
    "reduce": {"weight", "p", "window", "method", "directions", "seed"},
}

_APDIM_KEYS = {"i_max", "domain_half", "window_levels", "abut_levels",
               "base_depth", "grade_depth", "sup_depth", "sup_grade", "fit_skip"}


def _check_keys(d, allowed, where):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def parse_weight(spec):
    if spec is None or spec == "identity":
        return identity_weight(1, 1)
    if not isinstance(spec, dict):
        raise ConfigError(f"weight spec must be 'identity' or an object, got {spec!r}")
    _check_keys(spec, _WEIGHT_KEYS, "weight")
    kind = spec.get("kind", "power_log")
    if kind == "two_singularity":
        from .weights import two_singularity

        return two_singularity(spec["d"], spec["dtilde"], spec["p"],
                               spec.get("x0"), spec.get("n", 1), spec.get("m", 1))
    desc = dict(spec)
    desc.setdefault("kind", kind)
    desc.setdefault("n", 1)
    desc.setdefault("m", 1)
    try:
        weight = weight_from_descriptor(desc)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad weight spec: {exc}") from exc
    if isinstance(weight, PowerLogWeight) and weight.a <= -weight.n:
        raise ConfigError(
            f"power exponent a = {weight.a} <= -n makes the weight non-integrable")
    return weight


def parse_config(path_or_inline, subcommand):
    if isinstance(path_or_inline, dict):
        cfg = dict(path_or_inline)
    else:
        text = path_or_inline
        p = Path(text)
        if p.exists():
            text = p.read_text()
        try:
            cfg = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, _SCHEMA[subcommand], f"{subcommand} config")
    cfg.setdefault("seed", 0)
    p = cfg.get("p", 2.0)
    if not (isinstance(p, (int, float)) and p > 0):
        raise ConfigError(f"p must be a positive number, got {p!r}")
    cfg["p"] = float(p)
    if "apdim" in cfg:
        _check_keys(cfg["apdim"], _APDIM_KEYS, "apdim options")
    if "space" in cfg:
        sp = cfg["space"]
        _check_keys(sp, {"s", "tau", "p", "q", "kind"}, "space")
        q = sp.get("q", 2.0)
        cfg["space"] = {"s": sp.get("s", 0.0), "tau": sp.get("tau", 0.0),
                        "p": sp.get("p", cfg["p"]),
                        "q": float("inf") if q in ("inf", None) else q,
                        "kind": sp.get("kind", "B")}
        if cfg["space"]["p"] <= 0 or cfg["space"]["q"] <= 0:
            raise ConfigError("space exponents must be positive")
    if "window" in cfg:
        _check_keys(cfg["window"], {"j_min", "j_max", "half_side"}, "window")
    if "tier" in cfg and cfg["tier"] not in ("exact", "paper", "ratio", "all"):
        raise ConfigError(f"unknown tier {cfg['tier']!r}")
    if cfg.get("method", "auto") not in ("auto", "exact_p2", "mvee"):
        raise ConfigError(f"unknown method {cfg['method']!r}")
    if cfg.get("method") == "exact_p2" and cfg["p"] != 2.0:
        raise ConfigError("method exact_p2 requires p = 2")
    K = cfg.get("directions", 256)
    if isinstance(K, bool) or not isinstance(K, int) or K < 1:
        raise ConfigError(f"directions must be a positive integer, got {K!r}")
    return cfg


def _window_from_config(cfg, n=1, default=(1, 5)):
    w = cfg.get("window", {})
    half = w.get("half_side", 0.5)
    return CubeWindow(n, w.get("j_min", default[0]), w.get("j_max", default[1]),
                      cube_box(n, half))


def _write_report(out_dir, name, payload):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def _write_csv(out_dir, name, header, rows):
    path = Path(out_dir) / f"{name}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def cmd_apdim(cfg, out_dir):
    weight = parse_weight(cfg.get("weight"))
    p = cfg["p"]
    opts = cfg.get("apdim", {})
    config = apdim.ApDimConfig(**{k: tuple(v) if isinstance(v, list) else v
                                  for k, v in opts.items()})
    dims, ests = apdim.estimate_dimensions(weight, p, config)
    est = ests["direct"]
    window = _window_from_config(cfg, weight.n, (1, 4))
    beta = apdim.doubling_exponent(weight, p, window)
    r_grid = cfg.get("reverse_holder_grid", [1.25, 1.5, 1.75, 2.0])
    r_hat, r_table = apdim.reverse_holder_probe(weight, p, window, r_grid)
    fam = build_family(weight, p, window, method="auto", K=64)
    padded = apdim.ApDimensions(dims.d + 0.1, dims.dtilde + 0.1,
                                dims.delta + 0.2, dims.n)
    env_ratio, witness, pairs = apdim.growth_envelope_check(fam, padded)
    report = {
        "config": cfg,
        "code_version": code_version(),
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
    path = _write_report(out_dir, "apdim_report", report)
    _write_csv(out_dir, "a_sequence",
               ["i", "a_i", "log2_a_i"],
               [[int(i), float(v), float(np.log2(v))]
                for i, v in zip(est.i_values, est.a_values)])
    print(f"apdim report written to {path}")
    print(f"d_hat = {dims.d:.4f}  dtilde_hat = {dims.dtilde:.4f} "
          f"delta_hat = {dims.delta:.4f}  beta_hat = {beta:.4f}")
    return 0


def cmd_norms(cfg, out_dir):
    weight = parse_weight(cfg.get("weight"))
    sp = cfg.get("space", {"s": 0.0, "tau": 0.0, "p": cfg["p"], "q": 2.0,
                           "kind": "B"})
    params = SpaceParams(sp["s"], sp["tau"], sp["p"], sp["q"], sp["kind"])
    window = _window_from_config(cfg, weight.n, (2, 6))
    rng = np.random.default_rng(cfg["seed"])
    draws = int(cfg.get("draws", 20))
    fam = build_family(weight, params.p, window, method="auto", K=64)
    seq_vals, fun_vals = [], []
    for _ in range(draws):
        t = CoefficientField.random(window, weight.m, rng)
        seq_vals.append(seq_norm(t, params, fam).value)
    fcfg = cfg.get("filters", {})
    flt = build_filters(window.box, fcfg.get("grid_level", 10),
                        fcfg.get("smoothness", 6))
    fwin = window
    for _ in range(draws):
        f = random_band_limited(flt, weight.m, rng)
        fun_vals.append(function_norm(f, flt, params, fam, window=fwin).value)
    report = {
        "config": cfg,
        "code_version": code_version(),
        "space": {"s": params.s, "tau": params.tau, "p": params.p,
                  "q": "inf" if np.isinf(params.q) else params.q,
                  "kind": params.kind},
        "criticality": classify(params).cls,
        "sequence_norms": {"mean": float(np.mean(seq_vals)),
                           "min": float(np.min(seq_vals)),
                           "max": float(np.max(seq_vals))},
        "function_norms": {"mean": float(np.mean(fun_vals)),
                           "min": float(np.min(fun_vals)),
                           "max": float(np.max(fun_vals))},
        "draws": draws,
    }
    path = _write_report(out_dir, "norms_report", report)
    _write_csv(out_dir, "norms", ["draw", "sequence_norm", "function_norm"],
               [[i, s, f] for i, (s, f) in enumerate(zip(seq_vals, fun_vals))])
    print(f"norms report written to {path}")
    return 0


def cmd_verify(cfg, out_dir):
    tier = cfg.get("tier", "all")
    names = cfg.get("criteria")
    results = verify.run_suite(tier, cfg["seed"], names)
    all_pass = all(r.passed for r in results)
    report = {
        "config": cfg,
        "code_version": code_version(),
        "tier": tier,
        "criteria": {r.name: {"tier": r.tier, "passed": r.passed,
                              "details": _jsonable(r.details)} for r in results},
        "all_passed": all_pass,
    }
    path = _write_report(out_dir, "verify_report", report)
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


def cmd_filters(cfg, out_dir):
    fcfg = cfg.get("filters", {})
    _check_keys(fcfg, {"grid_level", "smoothness", "half_side", "n"}, "filters")
    n = fcfg.get("n", 1)
    flt = build_filters(cube_box(n, fcfg.get("half_side", 0.5)),
                        fcfg.get("grid_level", 12), fcfg.get("smoothness", 6))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_filters_json(out_dir / "filters.json", flt)
    table = json.loads((out_dir / "filters.json").read_text())
    _write_csv(out_dir, "filters",
               ["radial_xi", "phi_hat", "psi_hat"],
               list(zip(table["radial_grid"], table["phi_hat"], table["psi_hat"])))
    report = {
        "config": cfg,
        "code_version": code_version(),
        "resolvable_scales": [flt.j_min, flt.j_max],
        "safe_band": list(flt.safe_band),
        "calderon_defect": flt.calderon_defect(),
        "annulus_lower_bound_phi": flt.annulus_lower_bound("phi"),
        "annulus_lower_bound_psi": flt.annulus_lower_bound("psi"),
    }
    path = _write_report(out_dir, "filters_report", report)
    print(f"filter pair written to {out_dir / 'filters.json'}; report {path}")
    return 0


def cmd_reduce(cfg, out_dir):
    weight = parse_weight(cfg.get("weight"))
    window = _window_from_config(cfg, weight.n, (1, 4))
    fam = build_family(weight, cfg["p"], window, method=cfg.get("method", "auto"),
                       K=cfg.get("directions", 256))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_family_json(out_dir / "family.json", fam)
    lo, hi = fam.worst_bracket()
    report = {
        "config": cfg,
        "code_version": code_version(),
        "weight": weight.descriptor(),
        "num_cubes": window.num_cubes(),
        "worst_bracket": [lo, hi],
        "method": fam.method,
    }
    path = _write_report(out_dir, "reduce_report", report)
    print(f"family written to {out_dir / 'family.json'}; report {path}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="matweight",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("subcommand",
                        choices=["apdim", "norms", "verify", "filters", "reduce"])
    parser.add_argument("--config", default="{}",
                        help="path to a JSON config or inline JSON")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default="out")
    parser.add_argument("--tier", choices=["exact", "paper", "ratio", "all"],
                        default=None)
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, args.subcommand)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.tier is not None and args.subcommand == "verify":
            cfg["tier"] = args.tier
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    try:
        if args.subcommand == "apdim":
            return cmd_apdim(cfg, args.out)
        if args.subcommand == "norms":
            return cmd_norms(cfg, args.out)
        if args.subcommand == "verify":
            return cmd_verify(cfg, args.out)
        if args.subcommand == "filters":
            return cmd_filters(cfg, args.out)
        if args.subcommand == "reduce":
            return cmd_reduce(cfg, args.out)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except MatweightError as exc:
        print(json.dumps({"error": "numerical", "message": str(exc)}), file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
