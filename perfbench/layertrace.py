"""Per-layer spans and work counts, installed around padicgabor from outside.

The tracer patches every name a caller looks up: the class attribute for a
method, and every ``padicgabor`` module attribute bound to a traced function
(so ``padicgabor.gabor.modulate`` and ``padicgabor.verify.stft`` are both
caught).  ``verify.CHECKS`` is rebound to wrapped checks.  Each span records
(name, start, end, parent span, op id, pass); spans stay in memory until
the run ends.  Hot fine-grained functions are counted, not spanned.

Layers are the modules: cli, verify, model, gabor, linalg, density, geometry,
localfield.  A span's self time is its duration minus that of its children.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "verify", "model", "gabor", "linalg", "density", "geometry", "localfield")

VERIFY_CHECK_NAMES = (
    "onb-gram-identity", "tight-frame-constant", "section-trichotomy",
    "section-density-one", "product-lattice-density", "stft-energy-identity",
    "sample-sum-amalgam-bound", "wiener-two-route-equality", "transform-unitarity",
    "dual-reconstruction", "repeated-point-bound-growth", "separated-decomposition",
    "scale-propagation-bound", "automorphism-invariance", "frame-density-necessity",
)

# span name -> (module, attribute path, work counted per call from (bound args, result))
SPANNED = {
    "cli.main": ("cli", "main", None),
    "verify.run_suite": ("verify", "run_suite", None),
    "model.raw_dual_sums": ("model", "ModelSpace.raw_dual_sums",
                            lambda a, r: {"model.transform.points": len(a["vec"])}),
    "model.stft": ("model", "stft",
                   lambda a, r: {"model.stft.grid_bytes": 16 * a["f"].space.dim ** 2}),
    "model.fourier": ("model", "fourier", None),
    "model.translate": ("model", "translate", None),
    "model.modulate": ("model", "modulate", None),
    "model.ModelSpace.char_values": ("model", "ModelSpace.char_values", None),
    "model.ModelSpace.init": ("model", "ModelSpace.__init__", None),
    "model.indicator": ("model", "indicator", None),
    "model.modulation_norm": ("model", "modulation_norm", None),
    "model.wiener_norm": ("model", "wiener_norm", None),
    "gabor.build": ("gabor", "build", lambda a, r: {"gabor.build.vectors": len(a["lam"])}),
    "gabor.GaborSystem.vector_matrix": ("gabor", "GaborSystem.vector_matrix", None),
    "gabor.gram": ("gabor", "gram",
                   lambda a, r: {"gabor.gram.macs": a["sys"].dim * a["sys"].count ** 2}),
    "gabor.frame_operator": ("gabor", "frame_operator",
                             lambda a, r: {"gabor.frame_operator.macs":
                                           a["sys"].dim ** 2 * a["sys"].count}),
    "gabor.frame_bounds": ("gabor", "frame_bounds", None),
    "gabor.canonical_dual": ("gabor", "canonical_dual", None),
    "gabor.riesz_check": ("gabor", "riesz_check", None),
    "gabor.bessel_chain_check": ("gabor", "bessel_chain_check", None),
    "gabor.bessel_stress": ("gabor", "bessel_stress", None),
    "linalg.hermitian_eigs": ("linalg", "hermitian_eigs",
                              lambda a, r: {"linalg.hermitian_eigs.n3": a["matrix"].dim ** 3,
                                            "linalg.hermitian_eigs.max_residual": r[1]}),
    "linalg.solve_hermitian": ("linalg", "solve_hermitian", None),
    "density.density_profile": ("density", "density_profile",
                                lambda a, r: {"density.points_x_scales": len(a["lam"])
                                              * (a["n_range"][1] - a["n_range"][0] + 1)}),
    "density.PointSet.buckets": ("density", "PointSet.buckets",
                                 lambda a, r: {"density.PointSet.buckets.points":
                                               len(a["self"].points)}),
    "density.finite_density_check": ("density", "finite_density_check", None),
    "density.separated_decomposition": ("density", "separated_decomposition", None),
    "density.automorphism_invariance_check": ("density", "automorphism_invariance_check", None),
    "density.is_uniformly_separated": ("density", "is_uniformly_separated", None),
    "geometry.section": ("geometry", "section",
                         lambda a, r: {"geometry.section.elements": len(r)}),
    "localfield.parse_element": ("localfield", "parse_element", None),
}

# hot calls: counted, not spanned
COUNTED = {
    "geometry.coset_rep": ("geometry", "coset_rep"),
    "localfield.pairing_phase": ("localfield", "pairing_phase"),
    "localfield.Phase.complex_value": ("localfield", "Phase.complex_value"),
}


def _self(name: str) -> tuple:
    return (f"{name}.self_s", "s", "lower")


def _calls(name: str) -> tuple:
    return (f"{name}.calls", "count", "lower")


def _count(name: str) -> tuple:
    return (name, "count", "lower")


# (metric, unit, better): every metric a traced run reports, in report order
PER_LAYER = (
    _self("cli.main"), ("cli.output_bytes", "bytes", "lower"),
    ("verify.run_suite.s", "s", "lower"),
    *((f"verify.{c}.s", "s", "lower") for c in VERIFY_CHECK_NAMES),
    _calls("model.raw_dual_sums"), _self("model.raw_dual_sums"),
    _count("model.transform.points"), ("model.transform.ns_per_point", "ns", "lower"),
    _calls("model.stft"), _self("model.stft"), ("model.stft.grid_bytes", "bytes", "lower"),
    _self("model.fourier"),
    _calls("model.translate"), _self("model.translate"),
    _calls("model.modulate"), _self("model.modulate"),
    _calls("model.ModelSpace.char_values"), _self("model.ModelSpace.char_values"),
    _calls("model.ModelSpace.init"), _self("model.ModelSpace.init"),
    _self("model.indicator"), _self("model.modulation_norm"), _self("model.wiener_norm"),
    _calls("gabor.build"), _self("gabor.build"), _count("gabor.build.vectors"),
    _calls("gabor.GaborSystem.vector_matrix"),
    _calls("gabor.gram"), _self("gabor.gram"), _count("gabor.gram.macs"),
    _self("gabor.frame_operator"), _count("gabor.frame_operator.macs"),
    _self("gabor.frame_bounds"), _self("gabor.canonical_dual"), _self("gabor.riesz_check"),
    _self("gabor.bessel_chain_check"), _self("gabor.bessel_stress"),
    _calls("linalg.hermitian_eigs"), _self("linalg.hermitian_eigs"),
    _count("linalg.hermitian_eigs.n3"), ("linalg.hermitian_eigs.max_residual", "1", "lower"),
    _calls("linalg.solve_hermitian"), _self("linalg.solve_hermitian"),
    _calls("density.density_profile"), _self("density.density_profile"),
    _count("density.points_x_scales"),
    _calls("density.PointSet.buckets"), _self("density.PointSet.buckets"),
    _count("density.PointSet.buckets.points"),
    _self("density.finite_density_check"), _self("density.separated_decomposition"),
    _self("density.automorphism_invariance_check"), _self("density.is_uniformly_separated"),
    _calls("geometry.section"), _self("geometry.section"), _count("geometry.section.elements"),
    _calls("geometry.coset_rep"),
    _calls("localfield.parse_element"), _self("localfield.parse_element"),
    _calls("localfield.pairing_phase"), _calls("localfield.Phase.complex_value"),
    *(_self(layer) for layer in LAYERS),
    ("trace.layer_span_share", "1", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
)


def _resolve(owner, path: str):
    """(object holding the last attribute, attribute name, current value)."""
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Spans and counts for one traced loop; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, op id, pass]
        self.stack: list[int] = []
        self.counts: dict[int, defaultdict] = defaultdict(lambda: defaultdict(float))
        self.op_walls: dict[int, float] = {}
        self.op_bytes: dict[int, int] = {}
        self.op_pass: dict[int, int] = {}
        self.op = 0
        self.pass_index = 0
        self._saved: list[tuple] = []

    # -- op bookkeeping, called by the measuring loop ---------------------------

    def begin_op(self, op: int, pass_index: int) -> None:
        self.op, self.pass_index = op, pass_index
        self.op_pass[op] = pass_index

    def end_op(self, wall: float, output_bytes: int) -> None:
        self.op_walls[self.op] = wall
        self.op_bytes[self.op] = output_bytes

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, name: str, fn, work):
        signature = inspect.signature(fn) if work else None
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, self.pass_index]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if work:
                bound = signature.bind(*args, **kwargs).arguments
                tally = counts[self.pass_index]
                for key, amount in work(bound, result).items():
                    if ".max_" in key:
                        tally[key] = max(tally[key], amount)
                    else:
                        tally[key] += amount
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        key = f"{name}.calls"
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[self.pass_index][key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch(self, module: str, path: str, make) -> None:
        owner, attr, fn = _resolve(sys.modules[f"padicgabor.{module}"], path)
        wrapper = make(fn)
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return
        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "padicgabor"]:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, name, wrapper)

    def install(self) -> None:
        import padicgabor.cli  # noqa: F401  (loads every layer)

        for name, (module, path, work) in SPANNED.items():
            self._patch(module, path, lambda fn, n=name, w=work: self._span_wrapper(n, fn, w))
        for name, (module, path) in COUNTED.items():
            self._patch(module, path, lambda fn, n=name: self._count_wrapper(n, fn))
        verify = sys.modules["padicgabor.verify"]
        checks = tuple(
            self._span_wrapper(
                "verify." + fn.__name__.removeprefix("check_").replace("_", "-"), fn, None)
            for fn in verify.CHECKS
        )
        self._set(verify, "CHECKS", checks)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- reduction ---------------------------------------------------------------

    def per_pass(self) -> dict[int, dict]:
        """Per traced pass: calls, self and inclusive seconds per span, plus counts."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[int, defaultdict] = {
            p: defaultdict(float) for p in sorted(set(self.op_pass.values()))}
        covered: dict[int, float] = defaultdict(float)
        for i, (name, start, end, parent, op, pass_index) in enumerate(self.spans):
            row = out[pass_index]
            own = end - start - child[i]
            row[f"{name}.calls"] += 1
            row[f"{name}.self_s"] += own
            row[f"{name}.s"] += end - start
            row[f"{name.split('.')[0]}.self_s"] += own
            if parent is not None and self.spans[parent][3] is None:
                covered[pass_index] += end - start   # direct child of the op's root span
        for pass_index, row in out.items():
            row.update(self.counts.get(pass_index, {}))
            ops = [op for op, p in self.op_pass.items() if p == pass_index]
            wall = sum(self.op_walls[op] for op in ops)
            row["cli.output_bytes"] = sum(self.op_bytes[op] for op in ops)
            row["trace.layer_span_share"] = covered[pass_index] / wall if wall else 0.0
            points = row.get("model.transform.points", 0)
            row["model.transform.ns_per_point"] = (
                1e9 * row.get("model.raw_dual_sums.self_s", 0.0) / points if points else 0.0)
        return out

    def metrics(self, untraced_pass_s: list[float], traced_pass_s: list[float]) -> dict[str, dict]:
        """Every PER_LAYER metric: the median over traced passes, with its unit.

        The overhead is the median over (untraced, traced) pairs of passes run
        back to back, so slow drifts in machine speed cancel.
        """
        passes = list(self.per_pass().values())
        pairs = list(zip(untraced_pass_s, traced_pass_s))
        out = {}
        for name, unit, _ in PER_LAYER:
            if name == "trace.overhead_s":
                value = statistics.median(t - u for u, t in pairs)
            elif name == "trace.overhead_ratio":
                value = statistics.median(t / u for u, t in pairs) - 1.0
            else:
                value = statistics.median(row.get(name, 0) for row in passes)
            out[name] = {"value": float(value), "unit": unit}
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, pass_index in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "pass": pass_index}) + "\n")
