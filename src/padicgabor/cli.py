"""Command-line front end: density, frame, stft, norms, and verify.

Configs are JSON documents; group elements appear in their text form
(`3/2^2` carry, `[-2]102` modular), and a lambda's points are parsed
straight to the integer keys of a density.PointSet, its explicit texts in
one localfield.parse_rationals call.  Every config value is read through
`_get`, and every size a config sets is bounded from its exponents before
anything is built (MAX_ENTRIES, MAX_FRAME_DIM, MAX_POINTS, MAX_P, MAX_SCALE
below).  All structured output is JSON with sorted keys, exact rationals as
"a/b" strings and complex numbers as [re, im] pairs, so a fixed config and
seed reproduce byte-identical bytes; `--out` is opened before the command
runs, and a file there is replaced only by a whole result.  `_dump` writes
it: json.dumps(indent=2), and the same bytes without that pure-Python
encoder for complex arrays (the stft grid, its floats written by orjson)
and for the decomposition's point texts, made from the keys by one
localfield.rational_texts call per CHUNK keys as they go to `--out` CHUNK
items at a time.  `norms` reads only |V_g f| and never holds the complex
grid (model.stft_magnitudes).
numpy loads on first use (padicgabor._lazy): the numeric commands load it, and
density, which counts exactly, never does.  So do the layers below the cli:
the import runs localfield alone, and each command the layers it uses
(density: density; stft and norms: model; frame: gabor, model, density and
linalg; verify: all of them).
Exit codes: 0 success, 1 failed verification or violated internal identity,
2 configuration or usage errors (every ValueError, TypeError or
OverflowError, the library's input checks included, and a result that
overflows or turns NaN, which numpy raises under the errstate main sets for
the numeric commands) and output that cannot be written (one stderr line;
none when the reader closed the pipe).  A process started with stderr closed
exits with the same codes, without that line.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import dataclasses
import errno
import functools
import io
import json
import math
import os
import stat
import sys
import tempfile
from itertools import chain, islice, product

from ._lazy import _lazy, np, ran
from .localfield import (CARRY, GroupElement, GroupParams, parse_rational, parse_rationals,
                         rational_texts)

# the layers some command never uses run on first use, as numpy does (_lazy)
density = _lazy("padicgabor.density")
gabor = _lazy("padicgabor.gabor")
model = _lazy("padicgabor.model")
verify = _lazy("padicgabor.verify")

MAX_ENTRIES = 2**22  # complex entries of any array a command builds: 64 MiB, dim <= 2048
MAX_FRAME_DIM = 2**9  # dim of a frame model: the spectrum's reduction costs O(dim^3); S no more
MAX_POINTS = 2**20  # points a lambda lists or generates
MAX_P = 2**16  # the prime
MAX_SCALE = 64  # density scales and powers, |valuation| of a config element

CHUNK = 4096  # list items per write: [re, im] pairs of a complex array, texts of a map

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
        if key not in doc:
            raise ConfigError(f"{where} {key} is unset, and its default {value!r} does not fit: "
                              f"it must be {bound}")
        raise ConfigError(f"{where} {key} must be {bound}, got {value!r:.80}")
    return value


def _power_at_most(p: int, exp: int, limit: int, what: str) -> int:
    """p**exp (p >= 2), refused before it is formed when it exceeds limit."""
    if exp > limit.bit_length() or p**exp > limit:
        raise ConfigError(f"{what} {p}^{exp} exceeds the limit {limit}")
    return p**exp


def _rational(params: GroupParams, text, where: str) -> tuple[int, int]:
    """A config element as its normal form (num, vexp); a nonzero one needs |vexp| <= MAX_SCALE.

    Below that range it lies outside every region and model the bounds
    allow; above it, it shares the ball of 0 at every scale they allow.
    """
    num, vexp = parse_rational(params, text)
    if num and abs(vexp) > MAX_SCALE:
        raise ConfigError(f"{where} {text!r:.80} has valuation {-vexp} outside "
                          f"[-{MAX_SCALE}, {MAX_SCALE}]")
    return num, vexp


def _rationals(params: GroupParams, texts: list, where: str) -> list[tuple[int, int]]:
    """[_rational(params, t, where) for t in texts] from one parse_rationals call; on any bad
    text that list is made, so the first bad text names the error, whatever its kind."""
    try:
        coords = parse_rationals(params, texts)
        if max(map(abs, {vexp for _, vexp in coords}), default=0) <= MAX_SCALE:  # zero is (0, 0)
            return coords
    except ValueError:
        pass
    return [_rational(params, text, where) for text in texts]


def _parse_group(doc: dict) -> GroupParams:
    group = _get(doc, "group", "config")
    return GroupParams(_get(group, "p", "group", int, hi=MAX_P),
                       _get(group, "mode", "group", default=CARRY))


def _parse_model(doc: dict, params: GroupParams, max_dim: int | None = None) -> model.ModelSpace:
    sizes = _get(doc, "model", "config")
    m = _get(sizes, "m", "model", int, lo=0)
    k = _get(sizes, "k", "model", int, lo=0)
    # the stft grid, the norms and the frame operator hold dim**2 entries
    _power_at_most(params.p, 2 * (m + k), MAX_ENTRIES, "model entries dim^2 =")
    if max_dim is not None:
        _power_at_most(params.p, m + k, max_dim, "frame model dim =")
    return model.ModelSpace(params, m, k)


def _parse_function(doc: dict, space: model.ModelSpace, role: str) -> model.ModelFunction:
    kind = _get(doc, "type", role)
    if kind in ("indicator", "scaled-indicator"):
        set_scale = _get(doc, "set_scale", role, int, default=0)
        shift = _get(doc, "shift", role, default=None)
        if shift is not None:
            shift = GroupElement(space.params, *_rational(space.params, shift, f"{role} shift"))
        fn = model.indicator(space, set_scale=set_scale, shift=shift)
        if kind == "scaled-indicator":
            fn = fn.scaled(float(space.params.p) ** (-set_scale / 2.0))
        return fn
    if kind == "coeffs":
        pairs = _get(doc, "values", role, list)
        num = (int, float)  # as in _get, a bool is not a number
        try:
            values = [complex(re, im) for re, im in pairs if type(re) in num and type(im) in num]
        except (TypeError, ValueError):  # an entry that is not two values
            values = ()
        except OverflowError:  # an integer past the float range
            raise ConfigError(f"{role} values must fit in a float: a number is too large") from None
        if len(values) != len(pairs):
            raise ConfigError(f"{role} values must be [re, im] pairs of numbers")
        if not all(map(cmath.isfinite, values)):
            raise ConfigError(f"{role} values must be finite (no NaN or Infinity)")
        fn = model.ModelFunction(space, values)
        if fn.is_zero():
            raise ConfigError(f"{role} must be nonzero")
        return fn
    raise ConfigError(f"unknown {role} type {kind!r:.80}")


def _parse_points(doc: dict, params: GroupParams, budget: int = MAX_POINTS) -> density.PointSet:
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
        anchor = max(p.anchor for p in parts)
        return density.PointSet(ambient, params, anchor,
                                tuple(k for p in parts for k in p.keys_at(anchor)))
    ambient = _get(doc, "ambient", "lambda", default="phase")
    if ambient not in ("group", "phase"):
        raise ConfigError(f"lambda ambient must be 'group' or 'phase', got {ambient!r:.80}")
    if kind == "explicit":
        points = _get(doc, "points", "lambda", list)
        if len(points) > budget:
            raise ConfigError(f"lambda lists {len(points)} points, more than the {budget} allowed")
        if ambient == "group":
            return density.PointSet.rationals(ambient, _rationals(params, points, "lambda point"),
                                              params)
        # a 2-char text would unpack; the texts of the pairs before a bad one are read first
        bad = next((i for i, pair in enumerate(points)
                    if not (isinstance(pair, list) and len(pair) == 2)), len(points))
        coords = _rationals(params, [text for pair in points[:bad] for text in pair],
                            "lambda point")
        if bad < len(points):
            raise ConfigError(f"a phase lambda point must be a pair [x, xi], got "
                              f"{points[bad]!r:.80}")
        return density.PointSet.rationals(ambient, coords, params)
    if kind == "product-sections":
        x = _section_scales(_get(doc, "x", "lambda"), "lambda.x")
        xi = (0, 0)  # a group lambda has no xi axis
        if ambient == "phase":
            xi = _section_scales(_get(doc, "xi", "lambda"), "lambda.xi")
        _power_at_most(params.p, x[0] - x[1] + xi[0] - xi[1], budget, "lambda points")
        xs, xis = (density.PointSet("group", params, outer,
                                    tuple(range(params.p ** (outer - inner))))
                   for outer, inner in (x, xi))  # member a is a * p^-outer, as in geometry.section
        if ambient == "group":
            return xs
        anchor = max(x[0], xi[0])
        return density.PointSet(ambient, params, anchor, tuple(product(xs.keys_at(anchor),
                                                                       xis.keys_at(anchor))))
    raise ConfigError(f"unknown lambda type {kind!r:.80}")


def _section_scales(doc: dict, where: str) -> tuple[int, int]:
    """(outer, inner) of a canonical section of A^outer H / A^inner H."""
    outer = _get(doc, "outer", where, int, lo=-MAX_SCALE, hi=MAX_SCALE)
    return outer, _get(doc, "inner", where, int, lo=-MAX_SCALE, hi=outer)


def _not_finite(why) -> ConfigError:
    return ConfigError(f"result is not finite ({why}); the inputs are too large")


def _dump(doc, out) -> None:
    """Write doc to out as strict JSON: a NaN or infinity in a result (say, from overflow) is an
    input error, and a refused result writes nothing.

    A complex ndarray in doc (its [re, im] pairs) and a map or chain of strings (their JSON texts;
    _texts makes one from keys) get the bytes json.dumps gives them as lists, without its
    pure-Python encoder: json.dumps writes the rest with a hole for each, every array passes one
    np.isfinite test before the first write, and then each hole's items go out CHUNK at a time, an
    array's through one %s template per pair.
    orjson, which writes an array's floats, is loaded then too: a command that writes no array
    never loads it, and a missing orjson fails before anything is written.
    """
    holes = []

    def hole(value):
        if not (isinstance(value, (map, chain)) or
                isinstance(value, np.ndarray) and value.dtype == complex):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        holes.append(value)
        return f"\0{len(holes) - 1}"  # written "\u0000<i>", which no result string holds

    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False, default=hole)
    except ValueError as exc:
        raise _not_finite(exc)
    arrays = [value for value in holes if not isinstance(value, (map, chain))]  # no numpy for texts
    if not all(np.isfinite(_floats(value)).all() for value in arrays):
        raise _not_finite("the array holds NaN or infinity")
    if arrays:
        import orjson  # noqa: F401  not with the cli, but before the first write: see _chunks
    for i, value in enumerate(holes):
        head, _, text = text.partition(f'"\\u0000{i}"')
        out.write(head)
        line = head[head.rfind("\n") + 1:]
        i0 = line[:len(line) - len(line.lstrip(" "))]
        i1 = i0 + "  "
        sep = ",\n" + i1
        lead, close = f"[\n{i1}", "[]"
        for chunk in _chunks(value, sep, f"[\n{i1}  %s,\n{i1}  %s\n{i1}]"):
            out.write(lead + chunk)
            lead, close = sep, f"\n{i0}]"
        out.write(close)
    out.write(text + "\n")


def _texts(params: GroupParams, keys: tuple, anchor: int) -> chain:
    """The texts of keys at anchor for a hole of _dump, made by one rational_texts call per CHUNK
    keys as they are written."""
    starts = range(0, len(keys), CHUNK)
    return chain.from_iterable(rational_texts(params, keys[i:i + CHUNK], anchor) for i in starts)


def _floats(value: np.ndarray) -> np.ndarray:
    """The re, im, re, im, ... floats of a complex array."""
    return value.reshape(-1).view(np.float64)


def _chunks(value, sep: str, pair: str):
    """The items of a hole's list as texts of up to CHUNK items joined by sep; pair is the
    template of one [re, im] item.  An array's floats are orjson's texts, whose shortest
    round-trip digits (Ryu) are repr's, and so is their notation but for a decimal exponent
    of -9 to -5 or of 16 up (1e-9 <= |x| < 1e-4, |x| >= 1e16): there orjson writes 1e-9,
    0.00001 and 1e16 for 1e-09, 1e-05 and 1e+16, and those floats are written with repr."""
    if isinstance(value, (map, chain)):
        texts = map(json.encoder.encode_basestring_ascii, value)
        yield from iter(lambda: sep.join(islice(texts, CHUNK)), "")  # no item text is empty
        return
    import orjson  # loaded by _dump before its first write
    fl = _floats(value)
    for start in range(0, fl.size, 2 * CHUNK):
        part = fl[start:start + 2 * CHUNK]
        texts = orjson.dumps(part, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
        mag = np.abs(part)
        at = np.flatnonzero((1e-9 <= mag) & (mag < 1e-4) | (mag >= 1e16))
        for i, x in zip(at.tolist(), part[at].tolist()):
            texts[i] = repr(x)
        yield sep.join([pair] * (len(texts) // 2)) % tuple(texts)


def cmd_density(args, out) -> int:
    config = _load_config(args.config)
    params = _parse_group(config)
    task = _get(config, "task", "config", dict, default={})
    region = _get(task, "region", "task", int, lo=-MAX_SCALE, hi=MAX_SCALE)
    lo_hi = _get(task, "n_range", "task", list, default=[0, region])
    n_range = dict(zip(("lo", "hi"), lo_hi)) if len(lo_hi) == 2 else {}
    where = ("task n_range [lo, hi]" if "n_range" in task else
             f"task n_range is unset, and its default {lo_hi} does not fit: its")
    n_hi = _get(n_range, "hi", where, int, lo=-MAX_SCALE, hi=region)
    n_lo = _get(n_range, "lo", where, int, lo=-MAX_SCALE, hi=n_hi)
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
    prof = density.density_profile(lam, (n_lo, n_hi), region)
    doc = {"profile": prof.to_json_dict()}
    if "separation" in checks:
        parts = (density.separated_decomposition(lam, sep_scale, region)
                 if lam.ambient == "group" else None)
        doc["uniformly_separated"] = {
            "scale": sep_scale,
            "separated": density.is_uniformly_separated(lam, sep_scale),
        }
        if parts is not None:
            doc["decomposition"] = {
                "scale": sep_scale,
                "parts": [
                    {
                        "label": part.label,
                        "c0_index": part.c0_index,
                        "points": _texts(params, part.points.keys, part.points.anchor),
                    }
                    for part in parts
                ],
            }
    if "finite" in checks:
        rep = density.finite_density_check(lam, fin_scale, region)
        doc["finite_density"] = {
            "scale": rep.n,
            "max_per_ball": rep.max_per_ball,
            "rows": [
                {"m": m, "measured": measured, "bound": bound}
                for m, measured, bound in rep.rows
            ],
        }
    if "automorphism" in checks:
        rep = density.automorphism_invariance_check(lam, power,
                                                    (n_lo, min(n_hi, region // power)), region)
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
    del lam  # its keys and last count are not needed to write the result
    if args.table:
        out.write(prof.table() + "\n")
    else:
        _dump(doc, out)
    return 0


def cmd_frame(args, out) -> int:
    config = _load_config(args.config)
    params = _parse_group(config)
    space = _parse_model(config, params, MAX_FRAME_DIM)
    window = _parse_function(_get(config, "window", "config"), space, "window")
    # as many points as a dim x count vector matrix of MAX_ENTRIES entries has columns, although
    # only the einsum route for small counts forms it (gabor.frame_operator)
    budget = min(MAX_POINTS, MAX_ENTRIES // space.dim)
    lam = _parse_points(_get(config, "lambda", "config"), params, budget)
    _dump(gabor.frame_bounds(gabor.build(window, lam)).to_json_dict(), out)
    return 0


def _function_pair(config: dict,
                   space: model.ModelSpace) -> tuple[model.ModelFunction, model.ModelFunction]:
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
    _dump(model.stft(f, window).to_json_dict(), out)
    return 0


def cmd_norms(args, out) -> int:
    config = _load_config(args.config)
    params = _parse_group(config)
    space = _parse_model(config, params)
    f, window = _function_pair(config, space)
    task = _get(config, "task", "config", dict, default={})
    p_exp = _get(task, "p_exp", "task", default=2)
    p_exp = math.inf if p_exp == "inf" else _get(task, "p_exp", "task", (int, float), default=2)
    grid = model.stft_magnitudes(f, window)
    wie2 = model.wiener_norm(grid, 2)
    if p_exp != 2:
        mod, wie = model.modulation_norm(grid, p_exp), model.wiener_norm(grid, p_exp)
    lhs, mod2 = grid.l2_norms()  # the last: it squares |V| in place
    if p_exp == 2:
        mod, wie = mod2, wie2
    rhs = f.norm() * window.norm()
    cells = space.dim
    doc = {
        "l2": f.norm(),
        "p_exp": "inf" if math.isinf(p_exp) else p_exp,
        "modulation_p": mod,
        "wiener_p": wie,
        "wiener_p_integral_route": wie,  # unit cells have measure 1: the same sum
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
    _dump(doc, out)
    return 0


def cmd_verify(args, out) -> int:
    if args.suite != "paper":
        raise ConfigError(f"unknown suite {args.suite!r}; available: paper")
    try:
        p_list = tuple(int(tok) for tok in args.p.split(","))
    except ValueError:
        raise ConfigError(f"--p expects a comma-separated list of primes, got {args.p!r}")
    unsupported = sorted(set(p_list) - {2, 3})
    if unsupported:
        raise ConfigError(f"suite configurations cover p in {{2, 3}}; got {unsupported}")
    # read here, not as the parser's default, which would run verify for every command
    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    results = verify.run_suite(p_list=p_list, size=args.sizes, seed=seed)
    for result in results:
        sys.stdout.write(result.line() + "\n")
    passed = sum(r.passed for r in results)
    sys.stdout.write(f"{passed}/{len(results)} checks passed\n")
    _dump([dataclasses.asdict(r) for r in results], out)
    return 0 if passed == len(results) else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first main call and shared by the later ones."""
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
    sp.add_argument("--seed", type=lambda s: int(s, 0))  # None: verify.DEFAULT_SEED
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
    """The stream a command writes its result to, opened before anything is computed.  A file
    this process may replace, or a missing one, is written through _replacing; anything else
    (/dev/full, a FIFO, a symlink such as /dev/stdout, a read-only file) is opened in place."""
    # verify prints its report lines either way; its JSON goes to --out only
    if sys.stdout is None and (args.command == "verify" or not args.out):  # started with >&-
        raise OSError(errno.EBADF, "stdout is closed")
    if not args.out:
        return contextlib.nullcontext(io.StringIO() if args.command == "verify" else sys.stdout)
    try:
        old = os.lstat(args.out) if os.path.lexists(args.out) else None
        folder = os.path.dirname(args.out) or "."
        if old is not None and not (stat.S_ISREG(old.st_mode) and os.access(args.out, os.W_OK)
                                    and os.access(folder, os.W_OK)):
            return open(args.out, "w", encoding="utf-8")
        fd, tmp = tempfile.mkstemp(dir=folder)
        umask = os.umask(0o022)
        os.umask(umask)
        os.fchmod(fd, stat.S_IMODE(old.st_mode) if old is not None else 0o666 & ~umask)
    except OSError as exc:  # a temporary file's name would only confuse
        raise ConfigError(f"cannot write --out {args.out}: {exc.strerror or exc}")
    return _replacing(os.fdopen(fd, "w", encoding="utf-8"), tmp, args.out)


@contextlib.contextmanager
def _replacing(fh, tmp: str, path: str):
    """Yield fh, open on tmp beside path; then replace path by tmp, or remove tmp on any failure."""
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _flush_stdout() -> None:
    if sys.stdout is not None:  # None when started with stdout closed: see _open_out
        sys.stdout.flush()


def _complain(line: str) -> None:
    """One line on stderr, which a process started with it closed (2>&-) may lack: sys.stderr
    is then None, or a stream whose writes fail."""
    if sys.stderr is None:
        return
    try:
        sys.stderr.write(line + "\n")
    except OSError:  # what it holds goes to devnull, so that the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # in a numeric command a float overflow or NaN in a result raises instead of warning on
    # stderr; density counts exactly and never loads numpy
    guard = (contextlib.nullcontext() if args.command == "density" else
             np.errstate(over="raise", invalid="raise"))
    try:
        with _open_out(args) as out, guard:
            code = COMMANDS[args.command](args, out)
        _flush_stdout()  # a failed write to stdout fails here, not at exit
        return code
    except OSError as exc:  # a failed write: reading a config and opening --out raise ConfigError
        if not isinstance(exc, BrokenPipeError):  # a reader that left ends the command quietly
            _complain(f"output error: {exc}")
        try:
            _flush_stdout()
        except OSError:  # stdout failed: what it holds goes to devnull, so that the flush at
            # exit cannot fail again (Python's note on SIGPIPE)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except FloatingPointError as exc:
        _complain(f"config error: {_not_finite(exc)}")
        return 2
    # ConfigError, ResolutionError and the library's input checks; OverflowError is
    # a config number too large for a float
    except (ValueError, TypeError, OverflowError) as exc:
        _complain(f"config error: {exc}")
        return 2
    # an InvariantViolation exists only once density has run, so a density that has not run is
    # not asked, which would run it
    except Exception as exc:
        if not (ran(density) and isinstance(exc, density.InvariantViolation)):
            raise
        _complain(f"internal invariant violated: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
