"""Command-line front end: density, frame, stft, norms, and verify.

Configs are JSON documents; group elements appear in their text form
(`3/2^2` carry, `[-2]102` modular).  Every config value is read through
`_get`, and every size a config sets is bounded from its exponents before
anything is built (MAX_ENTRIES, MAX_FRAME_DIM, MAX_POINTS, MAX_P, MAX_SCALE
below).  All structured output is JSON with sorted keys, exact rationals as
"a/b" strings and complex numbers as [re, im] pairs, so a fixed config and
seed reproduce byte-identical bytes; `--out` is opened before the command runs.
`_dumps` writes it: json.dumps(indent=2) for the document, and one
numpy-aware writer for complex arrays (the stft grid) that gives the same
bytes, with an np.isfinite test in place of allow_nan.
Exit codes: 0 success, 1 failed verification or violated internal identity,
2 configuration or usage errors (every ValueError, TypeError or
OverflowError, the library's input checks included, and a result that
overflows or turns NaN, which numpy raises under the command's errstate).
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import dataclasses
import io
import json
import math
import sys

import numpy as np

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
from .localfield import CARRY, GroupElement, GroupParams, parse_element
from .model import (
    ModelFunction,
    ModelSpace,
    indicator,
    modulation_norm,
    stft,
    wiener_norm,
    wiener_norm_amalgam,
)
from .verify import DEFAULT_SEED, run_suite

MAX_ENTRIES = 2**22  # complex entries of any array a command builds: 64 MiB, dim <= 2048
MAX_FRAME_DIM = 2**8  # dim of a frame model: its O(dim^3) Jacobi takes seconds at 256
MAX_POINTS = 2**20  # points a lambda lists or generates
MAX_P = 2**16  # the prime
MAX_SCALE = 64  # density scales and powers, |valuation| of a config element

_MISSING = object()
_JSON_NAMES = {int: "an integer", (int, float): "a number", str: "a string", list: "a list",
               dict: "an object"}


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
    except RecursionError:
        raise ConfigError(f"config {path} is nested too deeply")


def _get(doc, key: str, where: str, kind=None, default=_MISSING, lo=None, hi=None):
    """doc[key], checked: doc is an object, the key is present or defaulted, the
    value has JSON type kind (a bool is not a number) and lies in [lo, hi]."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, got {doc!r:.80}")
    value = doc.get(key, default)
    if value is _MISSING:
        raise ConfigError(f"missing required key {key!r} in {where}")
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise ConfigError(f"{where} {key} must be {_JSON_NAMES[kind]}, got {value!r:.80}")
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"<= {hi}" if lo is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"{where} {key} must be {bound}, got {value!r:.80}")
    return value


def _power_at_most(p: int, exp: int, limit: int, what: str) -> int:
    """p**exp (p >= 2), refused before it is formed when it exceeds limit."""
    if exp > limit.bit_length() or p**exp > limit:
        raise ConfigError(f"{what} {p}^{exp} exceeds the limit {limit}")
    return p**exp


def _element(params: GroupParams, text, where: str) -> GroupElement:
    """A config element; a nonzero one must have |valuation| <= MAX_SCALE.

    Below that range it lies outside every region and model the bounds
    allow; above it, it shares the ball of 0 at every scale they allow.
    """
    x = parse_element(params, text)
    if not x.is_zero() and abs(x.valuation()) > MAX_SCALE:
        raise ConfigError(f"{where} {text!r:.80} has valuation {x.valuation()} outside "
                          f"[-{MAX_SCALE}, {MAX_SCALE}]")
    return x


def _parse_group(doc: dict) -> GroupParams:
    group = _get(doc, "group", "config")
    return GroupParams(_get(group, "p", "group", int, hi=MAX_P),
                       _get(group, "mode", "group", default=CARRY))


def _parse_model(doc: dict, params: GroupParams, max_dim: int | None = None) -> ModelSpace:
    model = _get(doc, "model", "config")
    m = _get(model, "m", "model", int, lo=0)
    k = _get(model, "k", "model", int, lo=0)
    # the stft grid, the norms and the frame operator hold dim**2 entries
    _power_at_most(params.p, 2 * (m + k), MAX_ENTRIES, "model entries dim^2 =")
    if max_dim is not None:
        _power_at_most(params.p, m + k, max_dim, "frame model dim =")
    return ModelSpace(params, m, k)


def _parse_function(doc: dict, space: ModelSpace, role: str) -> ModelFunction:
    kind = _get(doc, "type", role)
    if kind in ("indicator", "scaled-indicator"):
        set_scale = _get(doc, "set_scale", role, int, default=0)
        shift = _get(doc, "shift", role, default=None)
        if shift is not None:
            shift = _element(space.params, shift, f"{role} shift")
        fn = indicator(space, set_scale=set_scale, shift=shift)
        if kind == "scaled-indicator":
            fn = fn.scaled(float(space.params.p) ** (-set_scale / 2.0))
        return fn
    if kind == "coeffs":
        values = [complex(re, im) for re, im in _get(doc, "values", role, list)]
        if not all(map(cmath.isfinite, values)):
            raise ConfigError(f"{role} values must be finite (no NaN or Infinity)")
        fn = ModelFunction(space, values)
        if fn.is_zero():
            raise ConfigError(f"{role} must be nonzero")
        return fn
    raise ConfigError(f"unknown {role} type {kind!r:.80}")


def _parse_points(doc: dict, params: GroupParams, budget: int = MAX_POINTS) -> PointSet:
    """The lambda of a config, with at most budget points, counted before any is built."""
    kind = _get(doc, "type", "lambda")
    if kind == "union":
        parts = []
        for part in _get(doc, "parts", "lambda", list):
            parts.append(_parse_points(part, params, budget))
            budget -= len(parts[-1])
        if not parts:
            raise ConfigError("union lambda needs at least one part")
        ambient = parts[0].ambient
        if any(p.ambient != ambient for p in parts):
            raise ConfigError("union lambda mixes group and phase parts")
        return PointSet(ambient, tuple(pt for p in parts for pt in p.points), params)
    ambient = _get(doc, "ambient", "lambda", default="phase")
    if ambient not in ("group", "phase"):
        raise ConfigError(f"lambda ambient must be 'group' or 'phase', got {ambient!r:.80}")
    if kind == "explicit":
        points = _get(doc, "points", "lambda", list)
        if len(points) > budget:
            raise ConfigError(f"lambda lists {len(points)} points, more than the {budget} allowed")
        if ambient == "group":
            return PointSet.group((_element(params, t, "lambda point") for t in points), params)
        pts = []
        for pair in points:
            if not (isinstance(pair, list) and len(pair) == 2):  # a 2-char text would unpack
                raise ConfigError(f"a phase lambda point must be a pair [x, xi], got {pair!r:.80}")
            pts.append(tuple(_element(params, text, "lambda point") for text in pair))
        return PointSet.phase(pts, params)
    if kind == "product-sections":
        x = _section_scales(_get(doc, "x", "lambda"), "lambda.x")
        xi = (0, 0)  # a group lambda has no xi axis
        if ambient == "phase":
            xi = _section_scales(_get(doc, "xi", "lambda"), "lambda.xi")
        _power_at_most(params.p, x[0] - x[1] + xi[0] - xi[1], budget, "lambda points")
        xs = section(params, *x)
        if ambient == "group":
            return PointSet.group(xs, params)
        xis = section(params, *xi)
        return PointSet.phase(tuple((a, b) for a in xs for b in xis), params)
    raise ConfigError(f"unknown lambda type {kind!r:.80}")


def _section_scales(doc: dict, where: str) -> tuple[int, int]:
    """(outer, inner) of a canonical section of A^outer H / A^inner H."""
    outer = _get(doc, "outer", where, int, lo=-MAX_SCALE, hi=MAX_SCALE)
    return outer, _get(doc, "inner", where, int, lo=-MAX_SCALE, hi=outer)


def _not_finite(why) -> ConfigError:
    return ConfigError(f"result is not finite ({why}); the inputs are too large")


def _dumps(doc) -> str:
    """Strict JSON: a NaN or infinity in a result (say, from overflow) is an input error.

    A complex ndarray in doc is written as its [re, im] pairs, the bytes that
    json.dumps gives for the pairs as lists, straight from its float64 view:
    one np.isfinite test, then one %r template per pair at the array's indent.
    The rest goes through json.dumps, whose indent=2 encoder is pure Python.
    """
    arrays = []

    def hole(value):
        if not (isinstance(value, np.ndarray) and value.dtype == complex):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        arrays.append(value)
        return f"\0{len(arrays) - 1}"  # written "\u0000<i>", which no result string holds

    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False, default=hole)
    except ValueError as exc:
        raise _not_finite(exc)
    # the whole text is built before the caller writes any of it
    for i, arr in enumerate(arrays):
        fl = arr.reshape(-1).view(np.float64)
        if not np.isfinite(fl).all():
            raise _not_finite("the array holds NaN or infinity")
        head, _, tail = text.partition(f'"\\u0000{i}"')
        line = head[head.rfind("\n") + 1:]
        i0 = line[:len(line) - len(line.lstrip(" "))]
        i1, i2 = i0 + "  ", i0 + "    "
        pair = f"[\n{i2}%r,\n{i2}%r\n{i1}]"
        body = (",\n" + i1).join([pair] * (fl.size // 2)) % tuple(fl.tolist())
        text = f"{head}[\n{i1}{body}\n{i0}]{tail}" if fl.size else f"{head}[]{tail}"
    return text + "\n"


def cmd_density(args, out) -> int:
    config = _load_config(args.config)
    params = _parse_group(config)
    task = _get(config, "task", "config", dict, default={})
    region = _get(task, "region", "task", int, lo=-MAX_SCALE, hi=MAX_SCALE)
    lo_hi = _get(task, "n_range", "task", list, default=[0, region])
    n_range = dict(zip(("lo", "hi"), lo_hi)) if len(lo_hi) == 2 else {}
    n_hi = _get(n_range, "hi", "task n_range [lo, hi]", int, lo=-MAX_SCALE, hi=region)
    n_lo = _get(n_range, "lo", "task n_range [lo, hi]", int, lo=-MAX_SCALE, hi=n_hi)
    checks = _get(task, "checks", "task", list, default=[])
    for name in checks:
        if name not in ("separation", "finite", "automorphism"):
            raise ConfigError(f"unknown density check {name!r:.80}; the checks are "
                              f"separation, finite and automorphism")
    # each check's key is read, and validated, only when that check runs
    sep_scale, fin_scale, power = 0, 0, 1
    if "separation" in checks:
        sep_scale = _get(task, "separation_scale", "task", int, default=0, lo=-MAX_SCALE,
                         hi=region)
    if "finite" in checks:
        fin_scale = _get(task, "finite_scale", "task", int, default=0, lo=-MAX_SCALE, hi=region)
    if "automorphism" in checks:
        # its rows count at the scales power * n for n >= n_lo, which stay >= -MAX_SCALE
        power = _get(task, "automorphism_power", "task", int, default=2, lo=1,
                     hi=MAX_SCALE // max(1, -n_lo))
    lam = _parse_points(_get(config, "lambda", "config"), params)
    prof = density_profile(lam, (n_lo, n_hi), region)
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
        rep = automorphism_invariance_check(lam, power, (n_lo, min(n_hi, region // power)), region)
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
    out.write(prof.table() + "\n" if args.table else _dumps(doc))
    return 0


def cmd_frame(args, out) -> int:
    config = _load_config(args.config)
    params = _parse_group(config)
    space = _parse_model(config, params, MAX_FRAME_DIM)
    window = _parse_function(_get(config, "window", "config"), space, "window")
    # the system's dim x count vector matrix holds at most MAX_ENTRIES entries
    budget = min(MAX_POINTS, MAX_ENTRIES // space.dim)
    lam = _parse_points(_get(config, "lambda", "config"), params, budget)
    out.write(_dumps(frame_bounds(build(window, lam)).to_json_dict()))
    return 0


def _function_pair(config: dict, space: ModelSpace) -> tuple[ModelFunction, ModelFunction]:
    window = _parse_function(_get(config, "window", "config"), space, "window")
    if "function" in config:
        f = _parse_function(config["function"], space, "function")
    else:
        f = window
    return f, window


def cmd_stft(args, out) -> int:
    config = _load_config(args.config)
    params = _parse_group(config)
    space = _parse_model(config, params)
    f, window = _function_pair(config, space)
    out.write(_dumps(stft(f, window).to_json_dict()))
    return 0


def cmd_norms(args, out) -> int:
    config = _load_config(args.config)
    params = _parse_group(config)
    space = _parse_model(config, params)
    f, window = _function_pair(config, space)
    task = _get(config, "task", "config", dict, default={})
    p_exp = _get(task, "p_exp", "task", default=2)
    p_exp = math.inf if p_exp == "inf" else _get(task, "p_exp", "task", (int, float), default=2)
    grid = stft(f, window)
    mod = modulation_norm(grid, p_exp)
    wie = wiener_norm(grid, p_exp)
    wie_l = wiener_norm_amalgam(grid, p_exp)
    lhs = grid.l2_norm()
    rhs = f.norm() * window.norm()
    mod2 = modulation_norm(grid, 2)
    wie2 = wiener_norm(grid, 2)
    cells = space.dim
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
    out.write(_dumps(doc))
    return 0


def cmd_verify(args, out) -> int:
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
    out.write(_dumps([dataclasses.asdict(r) for r in results]))
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


def _open_out(args):
    """The stream a command writes its result to, opened before anything is computed."""
    if args.out:
        try:
            return open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write --out {args.out}: {exc}")
    # verify prints its report lines either way; its JSON goes to --out only
    return contextlib.nullcontext(io.StringIO() if args.command == "verify" else sys.stdout)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # a float overflow or NaN in a result raises instead of warning on stderr
        with _open_out(args) as out, np.errstate(over="raise", invalid="raise"):
            return COMMANDS[args.command](args, out)
    except FloatingPointError as exc:
        sys.stderr.write(f"config error: {_not_finite(exc)}\n")
        return 2
    # ConfigError, ResolutionError and the library's input checks; OverflowError is
    # a config number too large for a float
    except (ValueError, TypeError, OverflowError) as exc:
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
