"""The benchmark's workloads: seeded CLI ops and the oracles that check them.

A workload is a fixed list of ops; one op is one ``padicgabor.cli.main`` call.
Every random input (windows, functions, point sets, the verify seed) is drawn
from ``random.Random`` seeded with the workload name and the run seed, and
element texts (``a/p^v``, ``[lo]digits``) are written straight from integers,
so padicgabor only ever sees config files.  The oracles recompute the expected
values from the benchmark's own inputs; none of them calls padicgabor.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

VERIFY_CHECKS = 15
ENERGY_TOL = 1e-10   # STFT energy identity, as in the paper suite
FRAME_TOL = 1e-9     # tight-frame constant, as in the paper suite


@dataclass
class Op:
    """One CLI call: arguments, its config document, and its output oracle.

    ``check`` returns None for a correct output, else a one-line reason.
    """

    name: str
    argv: list[str]
    config: dict | None
    check: Callable[[str], str | None]
    config_path: Path | None = field(default=None, repr=False)

    def config_bytes(self) -> bytes:
        return json.dumps(self.config, sort_keys=True).encode()

    def args(self) -> list[str]:
        if self.config_path is None:
            return list(self.argv)
        return [*self.argv, "--config", str(self.config_path)]


def write_configs(ops: list[Op], workdir: Path) -> None:
    """Write each op's config to workdir; the op then passes its path."""
    for op in ops:
        if op.config is not None:
            op.config_path = workdir / f"{op.name}.json"
            op.config_path.write_bytes(op.config_bytes())


def _ratio(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _elem(p: int, mode: str, index: int, outer: int, width: int) -> str:
    """Text of member `index` of the canonical section of A^outer H / A^(outer-width) H."""
    if mode == "carry":
        return f"{index}/{p}^{outer}"
    return f"[{-outer}]" + "".join(str(index // p**j % p) for j in range(width))


def _coeffs(rng: random.Random, n: int) -> list[list[float]]:
    return [[rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)] for _ in range(n)]


def _sq_norm(coeffs, p: int, k: int) -> float:
    """||f||^2 of a model function: coset measure p^-k times the coefficient energy."""
    return float(p) ** -k * math.fsum(re * re + im * im for re, im in coeffs)


# -- paper-verify ----------------------------------------------------------------


def _verify_check(out: str) -> str | None:
    lines = out.splitlines()
    want = f"{VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed"
    if not lines or lines[-1] != want:
        return f"last line {lines[-1] if lines else ''!r}, want {want!r}"
    passed = sum(line.startswith("PASS ") for line in lines)
    if passed != VERIFY_CHECKS:
        return f"{passed} PASS lines, want {VERIFY_CHECKS}"
    return None


def paper_verify(rng: random.Random) -> list[Op]:
    seed = str(rng.getrandbits(32))
    argv = ["verify", "--suite", "paper", "--sizes", "full", "--p", "2,3", "--seed", seed]
    return [Op("verify-paper-full", argv, None, _verify_check)]


# -- tf-analysis -------------------------------------------------------------------

# (p, mode, m, k): stft and norms on each; dims 128, 256, 81, 243
TF_SPACES = ((2, "carry", 4, 3), (2, "modular", 4, 4), (3, "carry", 2, 2), (3, "modular", 3, 2))
# norms only: the 1024 x 1024 grid working set
TF_NORMS_ONLY = ((2, "modular", 5, 5),)


def _stft_check(p, mode, m, k, f, g):
    dim = p ** (m + k)
    want = _sq_norm(f, p, k) * _sq_norm(g, p, k)

    def check(out: str) -> str | None:
        doc = json.loads(out)
        head = (doc["p"], doc["mode"], doc["m"], doc["k"], doc["dim"])
        if head != (p, mode, m, k, dim):
            return f"header {head}"
        values = doc["values"]
        if len(values) != dim * dim:
            return f"{len(values)} grid values, want {dim * dim}"
        energy = float(p) ** -(m + k) * math.fsum(re * re + im * im for re, im in values)
        err = abs(energy - want) / want
        return None if err <= ENERGY_TOL else f"energy identity rel err {err:.3e}"

    return check


def _norms_check(f, g, p, k):
    l2 = math.sqrt(_sq_norm(f, p, k))
    rhs = l2 * math.sqrt(_sq_norm(g, p, k))

    def check(out: str) -> str | None:
        doc = json.loads(out)
        ortho = doc["orthogonality_check"]
        if not ortho["rel_err"] <= ENERGY_TOL:
            return f"orthogonality rel_err {ortho['rel_err']}"
        if doc["wiener_vs_modulation"]["satisfied"] is not True:
            return "wiener_vs_modulation not satisfied"
        if abs(doc["l2"] - l2) > 1e-12 * l2 or abs(ortho["rhs"] - rhs) > 1e-12 * rhs:
            return f"l2 {doc['l2']} / rhs {ortho['rhs']}, want {l2} / {rhs}"
        return None

    return check


def tf_analysis(rng: random.Random) -> list[Op]:
    ops = []
    for p, mode, m, k in TF_SPACES + TF_NORMS_ONLY:
        dim = p ** (m + k)
        g, f = _coeffs(rng, dim), _coeffs(rng, dim)
        config = {
            "group": {"p": p, "mode": mode},
            "model": {"m": m, "k": k},
            "window": {"type": "coeffs", "values": g},
            "function": {"type": "coeffs", "values": f},
        }
        tag = f"p{p}-{mode}-{dim}"
        if (p, mode, m, k) in TF_SPACES:
            ops.append(Op(f"stft-{tag}", ["stft"], config, _stft_check(p, mode, m, k, f, g)))
        ops.append(Op(f"norms-{tag}", ["norms"], config, _norms_check(f, g, p, k)))
    return ops


# -- frame-diagnostics ---------------------------------------------------------------

# tight lattice: every translation of the index group times every modulation
FRAME_LATTICE = (2, "carry", 3, 2)
# (p, mode, m, k, points): random explicit systems with a random window
FRAME_RANDOM = ((2, "carry", 3, 3, 256), (2, "modular", 3, 3, 256), (3, "carry", 2, 2, 243))


def _lattice_check(dim: int):
    # S = dim * ||w||^2 * I for the full lattice and ||w|| = 1
    def check(out: str) -> str | None:
        doc = json.loads(out)
        if (doc["dim"], doc["count"]) != (dim, dim * dim):
            return f"dim/count {doc['dim']}/{doc['count']}"
        if doc["classification"] != "TightFrame":
            return f"classification {doc['classification']}"
        if not abs(doc["c"] - dim) <= FRAME_TOL * dim:
            return f"tight constant {doc['c']}, want {dim}"
        return None

    return check


def _random_frame_check(dim: int, count: int):
    def check(out: str) -> str | None:
        doc = json.loads(out)
        if (doc["dim"], doc["count"]) != (dim, count):
            return f"dim/count {doc['dim']}/{doc['count']}"
        if doc["rank"] != dim:
            return f"rank {doc['rank']} < dim {dim}"
        if not 0.0 < doc["lower"] <= doc["upper"]:
            return f"bounds {doc['lower']}, {doc['upper']}"
        return None

    return check


def frame_diagnostics(rng: random.Random) -> list[Op]:
    p, mode, m, k = FRAME_LATTICE
    dim = p ** (m + k)
    lattice = {
        "group": {"p": p, "mode": mode},
        "model": {"m": m, "k": k},
        "window": {"type": "scaled-indicator", "set_scale": -k},
        "lambda": {
            "ambient": "phase", "type": "product-sections",
            "x": {"outer": m, "inner": -k}, "xi": {"outer": k, "inner": -m},
        },
    }
    ops = [Op(f"frame-lattice-p{p}-{mode}-{dim}", ["frame"], lattice, _lattice_check(dim))]
    for p, mode, m, k, count in FRAME_RANDOM:
        dim = p ** (m + k)
        points = [
            [_elem(p, mode, rng.randrange(dim), m, m + k),
             _elem(p, mode, rng.randrange(dim), k, m + k)]
            for _ in range(count)
        ]
        config = {
            "group": {"p": p, "mode": mode},
            "model": {"m": m, "k": k},
            "window": {"type": "coeffs", "values": _coeffs(rng, dim)},
            "lambda": {"ambient": "phase", "type": "explicit", "points": points},
        }
        ops.append(Op(f"frame-random-p{p}-{mode}-{dim}", ["frame"], config,
                      _random_frame_check(dim, count)))
    return ops


# -- density-counting -----------------------------------------------------------------

CHECKS = ["separation", "finite", "automorphism"]
POWER = 2  # automorphism_power
# (p, mode, region): canonical section of A^region H, group ambient
DENSITY_SECTIONS = ((2, "carry", 13), (2, "modular", 12))
# (p, mode, region): A^region H x A^region H product lattice, phase ambient
DENSITY_PHASE = (2, "carry", 6)
# (p, region, extra digits, points): seeded multiset a / p^region, 0 <= a < p^(region + extra)
DENSITY_MULTISET = (3, 8, 2, 8000)


def _task(region: int, lo: int) -> dict:
    return {"region": region, "n_range": [lo, region], "checks": CHECKS,
            "separation_scale": 0, "finite_scale": 0, "automorphism_power": POWER}


def _density_rows(doc: dict, region: int, lo: int, expect) -> str | None:
    """Check every row against expect(n) = (max count, min count, upper, lower ratio)."""
    rows = doc["profile"]["rows"]
    if [r["n"] for r in rows] != list(range(lo, region + 1)):
        return f"profile scales {[r['n'] for r in rows]}"
    for r in rows:
        mx, mn, up, low = expect(r["n"])
        got = (r["max_count"], r["min_count"], r["upper_ratio"], r["lower_ratio"])
        if got != (mx, mn, up, low):
            return f"profile row n={r['n']}: {got}, want {(mx, mn, up, low)}"
    auto = doc["automorphism_invariance"]["rows"]
    want_j = list(range(lo, region // POWER + 1))
    if [r["coarse_scale"] for r in auto] != want_j:
        return f"automorphism scales {[r['coarse_scale'] for r in auto]}"
    for r in auto:
        mx, _, up, _ = expect(POWER * r["coarse_scale"])
        if (r["max_count"], r["ratio"]) != (mx, up):
            return f"automorphism row j={r['coarse_scale']}: {r['max_count']} {r['ratio']}"
    fd = doc["finite_density"]
    max0 = expect(0)[0]
    if fd["max_per_ball"] != max0:
        return f"max_per_ball {fd['max_per_ball']}, want {max0}"
    if [r["m"] for r in fd["rows"]] != list(range(1, region + 1)):
        return "finite-density scales"
    for r in fd["rows"]:
        if r["measured"] != expect(r["m"])[0]:
            return f"finite-density row m={r['m']}: {r['measured']}"
    if doc["uniformly_separated"]["separated"] is not (max0 <= 1):
        return f"separated {doc['uniformly_separated']['separated']}"
    return None


def _lattice_density_check(p: int, region: int, d: int):
    # a lattice puts exactly p^(d n) points in every scale-n ball of the region
    def expect(n):
        return p ** (d * n), p ** (d * n), "1/1", "1/1"

    def check(out: str) -> str | None:
        doc = json.loads(out)
        if "decomposition" in doc:
            parts = doc["decomposition"]["parts"]
            if sum(len(part["points"]) for part in parts) != p ** (d * region):
                return "decomposition does not cover the section"
        return _density_rows(doc, region, 0, expect)

    return check


def _multiset_check(p: int, region: int, lo: int, ints: list[int]):
    def expect(n):
        counts = Counter(a % p ** (region - n) for a in ints)
        mx = max(counts.values())
        mn = min(counts.values()) if len(counts) == p ** (region - n) else 0
        measure = Fraction(p) ** n
        return mx, mn, _ratio(mx / measure), _ratio(mn / measure)

    def check(out: str) -> str | None:
        doc = json.loads(out)
        parts = doc["decomposition"]["parts"]
        if sum(len(part["points"]) for part in parts) != len(ints):
            return "decomposition does not cover the multiset"
        return _density_rows(doc, region, lo, expect)

    return check


def density_counting(rng: random.Random) -> list[Op]:
    ops = []
    for p, mode, region in DENSITY_SECTIONS:
        config = {
            "group": {"p": p, "mode": mode},
            "lambda": {"ambient": "group", "type": "product-sections",
                       "x": {"outer": region, "inner": 0}},
            "task": _task(region, 0),
        }
        ops.append(Op(f"density-section-p{p}-{mode}-{region}", ["density"], config,
                      _lattice_density_check(p, region, 1)))
    p, region, extra, count = DENSITY_MULTISET
    ints: list[int] = []
    while len(ints) < count:
        repeat = ints and rng.random() < 0.2
        ints.append(rng.choice(ints) if repeat else rng.randrange(p ** (region + extra)))
    config = {
        "group": {"p": p, "mode": "carry"},
        "lambda": {"ambient": "group", "type": "explicit",
                   "points": [_elem(p, "carry", a, region, 0) for a in ints]},
        "task": _task(region, -extra),
    }
    ops.append(Op(f"density-multiset-p{p}-carry-{count}", ["density"], config,
                  _multiset_check(p, region, -extra, ints)))
    p, mode, region = DENSITY_PHASE
    config = {
        "group": {"p": p, "mode": mode},
        "lambda": {"ambient": "phase", "type": "product-sections",
                   "x": {"outer": region, "inner": 0}, "xi": {"outer": region, "inner": 0}},
        "task": _task(region, 0),
    }
    ops.append(Op(f"density-phase-p{p}-{mode}-{region}", ["density"], config,
                  _lattice_density_check(p, region, 2)))
    return ops


WORKLOADS = {
    "paper-verify": paper_verify,
    "tf-analysis": tf_analysis,
    "frame-diagnostics": frame_diagnostics,
    "density-counting": density_counting,
}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The ops of one pass; a fixed (workload, seed) gives byte-identical configs."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
