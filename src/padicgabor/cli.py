"""Command-line front end: density, frame, stft, norms, and verify.

Configs are JSON documents; group elements appear in their text form
(`3/2^2` carry, `[-2]102` modular).  All structured output is JSON with
sorted keys, exact rationals as "a/b" strings and complex numbers as
[re, im] pairs, so a fixed config and seed reproduce byte-identical bytes.
Exit codes: 0 success, 1 failed verification or violated internal identity,
2 configuration or usage errors.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

from .density import (
    InvariantViolation,
    PointSet,
    automorphism_invariance_check,
    density_profile,
    finite_density_check,
    is_uniformly_separated,
    separated_decomposition,
)
from .gabor import build, frame_bounds
from .geometry import section
from .linalg import ConvergenceError
from .localfield import CARRY, GroupParams, parse_element
from .model import (
    ModelFunction,
    ModelSpace,
    ResolutionError,
    indicator,
    modulation_norm,
    stft,
    wiener_norm,
    wiener_norm_amalgam,
)
from .verify import DEFAULT_SEED, run_suite


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the violated constraint."""


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")


def _require(doc: dict, key: str, where: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, got {doc!r}")
    if key not in doc:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return doc[key]


def _parse_group(doc: dict) -> GroupParams:
    group = _require(doc, "group", "config")
    p = _require(group, "p", "group")
    mode = group.get("mode", CARRY)
    try:
        return GroupParams(p, mode)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _parse_model(doc: dict, params: GroupParams) -> ModelSpace:
    model = _require(doc, "model", "config")
    m = _require(model, "m", "model")
    k = _require(model, "k", "model")
    if not (_is_int(m) and m >= 0):
        raise ConfigError(f"model extent m must be an integer >= 0, got {m!r}")
    if not (_is_int(k) and k >= 0):
        raise ConfigError(f"model resolution k must be an integer >= 0, got {k!r}")
    return ModelSpace(params, m, k)


def _parse_function(doc: dict, space: ModelSpace, role: str) -> ModelFunction:
    kind = _require(doc, "type", role)
    try:
        if kind in ("indicator", "scaled-indicator"):
            set_scale = doc.get("set_scale", 0)
            if not _is_int(set_scale):
                raise ConfigError(f"{role} set_scale must be an integer, got {set_scale!r}")
            shift_text = doc.get("shift")
            shift = parse_element(space.params, shift_text) if shift_text is not None else None
            fn = indicator(space, set_scale=set_scale, shift=shift)
            if kind == "scaled-indicator":
                fn = fn.scaled(float(space.params.p) ** (-set_scale / 2.0))
            return fn
        if kind == "coeffs":
            values = [complex(re, im) for re, im in _require(doc, "values", role)]
            if not all(map(cmath.isfinite, values)):
                raise ConfigError(f"{role} values must be finite (no NaN or Infinity)")
            fn = ModelFunction(space, values)
            if fn.is_zero():
                raise ConfigError(f"{role} must be nonzero")
            return fn
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad {role}: {exc}")
    raise ConfigError(f"unknown {role} type {kind!r}")


def _parse_points(doc: dict, params: GroupParams) -> PointSet:
    kind = _require(doc, "type", "lambda")
    if kind == "union":
        part_docs = _require(doc, "parts", "lambda")
        if not isinstance(part_docs, list):
            raise ConfigError(f"union lambda parts must be a list, got {part_docs!r}")
        parts = [_parse_points(part, params) for part in part_docs]
        if not parts:
            raise ConfigError("union lambda needs at least one part")
        ambient = parts[0].ambient
        if any(p.ambient != ambient for p in parts):
            raise ConfigError("union lambda mixes group and phase parts")
        return PointSet(ambient, tuple(pt for p in parts for pt in p.points), params)
    ambient = doc.get("ambient", "phase")
    if ambient not in ("group", "phase"):
        raise ConfigError(f"lambda ambient must be 'group' or 'phase', got {ambient!r}")
    try:
        if kind == "explicit":
            points = _require(doc, "points", "lambda")
            if ambient == "group":
                pts = tuple(parse_element(params, t) for t in points)
                return PointSet.group(pts, params)
            pts = tuple(
                (parse_element(params, tx), parse_element(params, txi)) for tx, txi in points
            )
            return PointSet.phase(pts, params)
        if kind == "product-sections":
            xs = _section_elements(_require(doc, "x", "lambda"), params, "lambda.x")
            if ambient == "group":
                return PointSet.group(xs, params)
            xis = _section_elements(_require(doc, "xi", "lambda"), params, "lambda.xi")
            return PointSet.phase(tuple((x, xi) for x in xs for xi in xis), params)
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad lambda: {exc}")
    raise ConfigError(f"unknown lambda type {kind!r}")


def _section_elements(doc: dict, params: GroupParams, where: str):
    outer, inner = _require(doc, "outer", where), _require(doc, "inner", where)
    if not (_is_int(outer) and _is_int(inner)):
        raise ConfigError(f"{where} outer and inner must be integers, got {outer!r}, {inner!r}")
    return section(params, outer, inner).elements


def _dumps(doc) -> str:
    """Strict JSON: a NaN or infinity in a result (say, from overflow) is an input error."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ConfigError(f"result is not finite ({exc}); the inputs are too large")


def _emit(doc, args, table_text: str | None = None) -> None:
    if getattr(args, "table", False) and table_text is not None:
        payload = table_text + "\n"
    else:
        payload = _dumps(doc)
    if args.out:
        _write_out(args.out, payload)
    else:
        sys.stdout.write(payload)


def _write_out(path: str, payload: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {path}: {exc}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _task_int(task: dict, key: str, default: int | None = None, lo: int | None = None,
              hi: int | None = None) -> int:
    value = task.get(key, default)
    if value is None:
        raise ConfigError(f"missing required key {key!r} in task")
    if not _is_int(value):
        raise ConfigError(f"task {key} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"task {key} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"task {key} {value} exceeds region {hi}")
    return value


def cmd_density(args) -> int:
    config = _load_config(args.config)
    params = _parse_group(config)
    lam = _parse_points(_require(config, "lambda", "config"), params)
    task = config.get("task", {})
    if not isinstance(task, dict):
        raise ConfigError("task must be an object")
    region = _task_int(task, "region")
    n_range = task.get("n_range", [0, region])
    if not (isinstance(n_range, list) and len(n_range) == 2 and all(map(_is_int, n_range))
            and n_range[0] <= n_range[1] <= region):
        raise ConfigError(f"task n_range must be integers [lo, hi], lo <= hi <= region "
                          f"{region}, got {n_range!r}")
    checks = task.get("checks", [])
    if not isinstance(checks, list):
        raise ConfigError(f"task checks must be a list, got {checks!r}")
    # each check's key is read, and validated, only when that check runs
    sep_scale = _task_int(task, "separation_scale", 0, hi=region) if "separation" in checks else 0
    fin_scale = _task_int(task, "finite_scale", 0, hi=region) if "finite" in checks else 0
    power = _task_int(task, "automorphism_power", 2, lo=1) if "automorphism" in checks else 1
    try:
        prof = density_profile(lam, (n_range[0], n_range[1]), region)
    except ValueError as exc:
        raise ConfigError(str(exc))
    doc = {"profile": prof.to_json_dict()}
    if "separation" in checks:
        parts = separated_decomposition(lam, sep_scale, region) if lam.ambient == "group" else None
        doc["uniformly_separated"] = {
            "scale": sep_scale,
            "separated": is_uniformly_separated(lam, sep_scale),
        }
        if parts is not None:
            doc["decomposition"] = {
                "scale": sep_scale,
                "parts": [
                    {
                        "label": part.label,
                        "c0_index": part.c0_index,
                        "points": [pt.text() for pt in part.points.points],
                    }
                    for part in parts
                ],
            }
    if "finite" in checks:
        rep = finite_density_check(lam, fin_scale, region)
        doc["finite_density"] = {
            "scale": rep.n,
            "max_per_ball": rep.max_per_ball,
            "rows": [
                {"m": m, "measured": measured, "bound": bound}
                for m, measured, bound in rep.rows
            ],
        }
    if "automorphism" in checks:
        rep = automorphism_invariance_check(
            lam, power, (n_range[0], min(n_range[1], region // power)), region
        )
        doc["automorphism_invariance"] = {
            "power": rep.r,
            "all_equal": rep.all_equal,
            "rows": [
                {
                    "coarse_scale": row.coarse_scale,
                    "fine_scale": row.fine_scale,
                    "max_count": row.max_count,
                    "ratio": f"{row.ratio_under_a.numerator}/{row.ratio_under_a.denominator}",
                }
                for row in rep.rows
            ],
        }
    _emit(doc, args, table_text=prof.table())
    return 0


def cmd_frame(args) -> int:
    config = _load_config(args.config)
    params = _parse_group(config)
    space = _parse_model(config, params)
    window = _parse_function(_require(config, "window", "config"), space, "window")
    lam = _parse_points(_require(config, "lambda", "config"), params)
    try:
        report = frame_bounds(build(window, lam))
    except (ResolutionError, ValueError) as exc:
        raise ConfigError(str(exc))
    _emit(report.to_json_dict(), args)
    return 0


def _function_pair(config: dict, space: ModelSpace) -> tuple[ModelFunction, ModelFunction]:
    window = _parse_function(_require(config, "window", "config"), space, "window")
    if "function" in config:
        f = _parse_function(config["function"], space, "function")
    else:
        f = window
    return f, window


def cmd_stft(args) -> int:
    config = _load_config(args.config)
    params = _parse_group(config)
    space = _parse_model(config, params)
    f, window = _function_pair(config, space)
    grid = stft(f, window)
    _emit(grid.to_json_dict(), args)
    return 0


def cmd_norms(args) -> int:
    config = _load_config(args.config)
    params = _parse_group(config)
    space = _parse_model(config, params)
    f, window = _function_pair(config, space)
    task = config.get("task", {})
    if not isinstance(task, dict):
        raise ConfigError("task must be an object")
    p_exp = task.get("p_exp", 2)
    if p_exp == "inf":
        p_exp = math.inf
    elif isinstance(p_exp, bool) or not isinstance(p_exp, (int, float)):
        raise ConfigError(f'task p_exp must be a number >= 1 or "inf", got {p_exp!r}')
    try:
        grid = stft(f, window)
        mod = modulation_norm(grid, p_exp)
        wie = wiener_norm(grid, p_exp)
        wie_l = wiener_norm_amalgam(grid, p_exp)
    except ValueError as exc:
        raise ConfigError(str(exc))
    lhs = grid.l2_norm()
    rhs = f.norm() * window.norm()
    mod2 = modulation_norm(grid, 2)
    wie2 = wiener_norm(grid, 2)
    cells = space.params.p ** (space.m + space.k)
    doc = {
        "l2": f.norm(),
        "p_exp": "inf" if math.isinf(p_exp) else p_exp,
        "modulation_p": mod,
        "wiener_p": wie,
        "wiener_p_integral_route": wie_l,
        "orthogonality_check": {
            "lhs": lhs,
            "rhs": rhs,
            "rel_err": abs(lhs - rhs) / rhs if rhs else 0.0,
        },
        "wiener_vs_modulation": {
            "cells": cells,
            "wiener_2": wie2,
            "modulation_2": mod2,
            "trivial_lower_bound": mod2 / math.sqrt(cells),
            "satisfied": wie2 >= mod2 / math.sqrt(cells) - 1e-12,
            "ratio": (wie2 / mod2) if mod2 else None,
        },
    }
    _emit(doc, args)
    return 0


def cmd_verify(args) -> int:
    if args.suite != "paper":
        raise ConfigError(f"unknown suite {args.suite!r}; available: paper")
    try:
        p_list = tuple(int(tok) for tok in args.p.split(",")) if args.p else (2, 3)
    except ValueError:
        raise ConfigError(f"--p expects a comma-separated list of primes, got {args.p!r}")
    unsupported = sorted(set(p_list) - {2, 3})
    if unsupported:
        raise ConfigError(f"suite configurations cover p in {{2, 3}}; got {unsupported}")
    results = run_suite(p_list=p_list, size=args.sizes, seed=args.seed)
    for result in results:
        sys.stdout.write(result.line() + "\n")
    passed = sum(r.passed for r in results)
    sys.stdout.write(f"{passed}/{len(results)} checks passed\n")
    if args.out:
        doc = [
            {
                "name": r.name,
                "passed": r.passed,
                "measured": r.measured,
                "tolerance": r.tolerance,
                "configs": r.configs,
            }
            for r in results
        ]
        _write_out(args.out, _dumps(doc))
    return 0 if passed == len(results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicgabor",
        description="Exact desk-scale Gabor analysis on p-adic and Laurent-series groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", required=True, help="experiment config (JSON)")
        sp.add_argument("--out", help="write output to this path instead of stdout")

    sp = sub.add_parser("density", help="density profile and counting checks")
    add_common(sp)
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--json", dest="table", action="store_false", default=False)
    group.add_argument("--table", dest="table", action="store_true")

    sp = sub.add_parser("frame", help="frame bounds and classification")
    add_common(sp)

    sp = sub.add_parser("stft", help="full transform grid")
    add_common(sp)

    sp = sub.add_parser("norms", help="L2, modulation and amalgam norms")
    add_common(sp)

    sp = sub.add_parser("verify", help="run the built-in verification suite")
    sp.add_argument("--suite", default="paper")
    sp.add_argument("--p", default="2,3", help="comma-separated primes")
    sp.add_argument("--sizes", default="full", choices=("small", "full"))
    sp.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    sp.add_argument("--out", help="also write JSON results to this path")
    return parser


COMMANDS = {
    "density": cmd_density,
    "frame": cmd_frame,
    "stft": cmd_stft,
    "norms": cmd_norms,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except InvariantViolation as exc:
        sys.stderr.write(f"internal invariant violated: {exc}\n")
        return 1
    except ConvergenceError as exc:
        sys.stderr.write(f"eigensolver failed: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
