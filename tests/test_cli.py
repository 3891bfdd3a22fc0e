"""Command-line behavior: outputs, determinism, and exit codes."""

import hashlib
import importlib.util
import inspect
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from padicgabor import cli, gabor, linalg, verify
from padicgabor.cli import main
from padicgabor.density import PointSet
from padicgabor.geometry import anchored_int, section
from padicgabor.localfield import CARRY, MAX_BODY_DIGITS, MODULAR, GroupParams, parse_element
from padicgabor.model import (ModelFunction, ModelSpace, StftGrid, modulation_norm, stft,
                              stft_magnitudes, wiener_norm)
from padicgabor.rng import SplitMix64
from padicgabor.verify import run_suite
from test_linalg import cyclic_jacobi

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


DENSITY_SECTION = {
    "group": {"p": 2, "mode": "carry"},
    "lambda": {
        "ambient": "group",
        "type": "product-sections",
        "x": {"outer": 3, "inner": 0},
    },
    "task": {"region": 3, "n_range": [0, 3]},
}

FRAME_ONB = {
    "group": {"p": 2, "mode": "carry"},
    "model": {"m": 2, "k": 2},
    "window": {"type": "indicator", "set_scale": 0},
    "lambda": {
        "ambient": "phase",
        "type": "product-sections",
        "x": {"outer": 2, "inner": 0},
        "xi": {"outer": 2, "inner": 0},
    },
}

FRAME_TIGHT = {
    "group": {"p": 2, "mode": "carry"},
    "model": {"m": 1, "k": 1},
    "window": {"type": "scaled-indicator", "set_scale": -1},
    "lambda": {
        "ambient": "phase",
        "type": "product-sections",
        "x": {"outer": 1, "inner": -1},
        "xi": {"outer": 1, "inner": -1},
    },
}

NORMS_CHI = {
    "group": {"p": 2, "mode": "carry"},
    "model": {"m": 1, "k": 1},
    "window": {"type": "indicator", "set_scale": 0},
    "task": {"p_exp": 2},
}


def test_density_section_all_ones(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", DENSITY_SECTION)
    assert main(["density", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(row["upper_ratio"] == "1/1" for row in doc["profile"]["rows"])
    assert all(row["lower_ratio"] == "1/1" for row in doc["profile"]["rows"])


def test_density_table_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", DENSITY_SECTION)
    assert main(["density", "--config", cfg, "--table"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("n  max_count")


def test_density_empty_lambda(tmp_path, capsys):
    doc = {
        "group": {"p": 2, "mode": "carry"},
        "lambda": {"ambient": "group", "type": "explicit", "points": []},
        "task": {"region": 2, "n_range": [0, 2]},
    }
    cfg = write_config(tmp_path, "d.json", doc)
    assert main(["density", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert all(row["max_count"] == 0 for row in out["profile"]["rows"])


def test_density_phase_lattice(tmp_path, capsys):
    doc = {
        "group": {"p": 2, "mode": "carry"},
        "lambda": {
            "ambient": "phase",
            "type": "product-sections",
            "x": {"outer": 1, "inner": -1},
            "xi": {"outer": 1, "inner": -1},
        },
        "task": {"region": 1, "n_range": [-1, 1]},
    }
    cfg = write_config(tmp_path, "p.json", doc)
    assert main(["density", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert all(row["upper_ratio"] == "4/1" for row in out["profile"]["rows"])


def test_frame_onb_report(tmp_path, capsys):
    cfg = write_config(tmp_path, "f.json", FRAME_ONB)
    assert main(["frame", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["classification"] == "ONB"
    assert abs(doc["lower"] - 1) <= 1e-9 and abs(doc["upper"] - 1) <= 1e-9


def test_frame_tight_report(tmp_path, capsys):
    cfg = write_config(tmp_path, "f.json", FRAME_TIGHT)
    assert main(["frame", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["classification"] == "TightFrame"
    assert abs(doc["c"] - 4.0) <= 1e-9


def test_frame_incomplete_report_is_success(tmp_path, capsys):
    doc = dict(FRAME_ONB)
    doc["lambda"] = {
        "ambient": "phase",
        "type": "product-sections",
        "x": {"outer": 2, "inner": 0},
        "xi": {"outer": 2, "inner": 1},
    }
    cfg = write_config(tmp_path, "f.json", doc)
    assert main(["frame", "--config", cfg]) == 0  # classification is data, not an error
    out = json.loads(capsys.readouterr().out)
    assert out["classification"] == "Incomplete"


def test_norms_output(tmp_path, capsys):
    cfg = write_config(tmp_path, "n.json", NORMS_CHI)
    assert main(["norms", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["l2"] == 1.0
    assert doc["modulation_p"] == 1.0
    assert doc["wiener_p"] == doc["wiener_p_integral_route"] == 1.0
    assert doc["orthogonality_check"]["rel_err"] <= 1e-10
    assert doc["wiener_vs_modulation"]["satisfied"] is True


def test_stft_grid_output(tmp_path, capsys):
    cfg = write_config(tmp_path, "s.json", NORMS_CHI)
    assert main(["stft", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 4
    assert len(doc["values"]) == 16
    assert doc["values"][0] == [1.0, 0.0]
    # a point window, so the grid keeps the function's magnitudes, 1e-30 to 1e17: the bytes
    # json.dumps writes for the same floats
    spread = [[(i % 7 - 3) / 7 * 10.0 ** (i % 29 - 9), (i % 5 - 2) / 3 * 10.0 ** (i % 31 - 13)]
              for i in range(81)]
    cfg = write_config(tmp_path, "spread.json", {
        "group": {"p": 3, "mode": "modular"}, "model": {"m": 2, "k": 2},
        "window": {"type": "coeffs", "values": [[1, 0]] + [[0, 0]] * 80},
        "function": {"type": "coeffs", "values": spread}})
    assert main(["stft", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_readme_frame_example(tmp_path, capsys):
    # the first json block of README.md is the config its frame example reports on
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("```json\n", 1)[1].split("```", 1)[0]
    cfg = tmp_path / "readme.json"
    cfg.write_text(block)
    assert main(["frame", "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["c"] == 4.000000000000001
    assert doc["classification"] == "TightFrame"
    assert (doc["count"], doc["dim"]) == (16, 4) and "sweeps" not in doc


def test_output_deterministic(tmp_path):
    cfg = write_config(tmp_path, "f.json", FRAME_TIGHT)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["frame", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["frame", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_main_builds_its_parser_once(tmp_path, capsys):
    # not at import: a fresh process that imports the cli has built no parser
    probe = "import padicgabor.cli as c; print(c._parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": SRC}
    assert subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True).stdout == "0\n"
    cfg = write_config(tmp_path, "n.json", NORMS_CHI)
    assert main(["norms", "--config", cfg]) == 0
    first = capsys.readouterr().out
    assert cli._parser() is cli._parser()
    for argv in (["norms"], ["nosuch"], ["stft", "--config", cfg, "--bad"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: padicgabor")
    assert main(["norms", "--config", cfg]) == 0
    assert capsys.readouterr().out == first


def test_stft_out_never_holds_the_grid_text(tmp_path):
    # dim 256: the grid is 1 MiB and its text about 5.5 MB; the writer holds one chunk of text
    # at a time, where building the whole text peaked at 13.6 MiB
    cfg = write_config(tmp_path, "s.json", _pinned_grid(2, MODULAR, 4, 4, 2, 5))
    tracemalloc.start()
    try:
        assert main(["stft", "--config", cfg, "--out", str(tmp_path / "s.out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 16 * 256**2, peak


def test_config_errors_exit_2(tmp_path, capsys):
    # non-prime p
    bad = dict(DENSITY_SECTION)
    bad["group"] = {"p": 6, "mode": "carry"}
    cfg = write_config(tmp_path, "bad1.json", bad)
    assert main(["density", "--config", cfg]) == 2
    assert "prime" in capsys.readouterr().err

    # zero window
    bad2 = dict(FRAME_ONB)
    bad2["window"] = {"type": "coeffs", "values": [[0, 0]] * 16}
    cfg2 = write_config(tmp_path, "bad2.json", bad2)
    assert main(["frame", "--config", cfg2]) == 2
    assert "nonzero" in capsys.readouterr().err

    # negative model exponent
    bad3 = dict(FRAME_ONB)
    bad3["model"] = {"m": -1, "k": 0}
    cfg3 = write_config(tmp_path, "bad3.json", bad3)
    assert main(["frame", "--config", cfg3]) == 2

    # resolution violation in lambda
    bad4 = dict(FRAME_TIGHT)
    bad4["lambda"] = {
        "ambient": "phase",
        "type": "explicit",
        "points": [["1/2^2", "0"]],
    }
    cfg4 = write_config(tmp_path, "bad4.json", bad4)
    assert main(["frame", "--config", cfg4]) == 2
    assert "1/2^2 lies outside" in capsys.readouterr().err

    # missing file and malformed json
    assert main(["density", "--config", str(tmp_path / "missing.json")]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["density", "--config", str(broken)]) == 2


def test_unknown_suite_exit_2(capsys):
    assert main(["verify", "--suite", "unknown"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_unsupported_prime_exit_2(capsys):
    assert main(["verify", "--suite", "paper", "--p", "5"]) == 2
    assert "p in {2, 3}" in capsys.readouterr().err
    assert main(["verify", "--suite", "paper", "--p", "2,x"]) == 2


def test_empty_prime_list_exit_2(capsys):
    assert main(["verify", "--suite", "paper", "--p", ""]) == 2
    captured = capsys.readouterr()
    assert "--p expects a comma-separated list of primes, got ''" in captured.err
    assert captured.out == ""


def test_verify_small_passes(capsys, tmp_path):
    out = tmp_path / "results.json"
    code = main(["verify", "--suite", "paper", "--p", "2", "--sizes", "small",
                 "--out", str(out)])
    printed = capsys.readouterr().out
    assert code == 0
    assert printed.count("PASS") == 15
    results = json.loads(out.read_text())
    assert len(results) == 15 and all(r["passed"] for r in results)


def test_explicit_phase_lambda_and_union(tmp_path, capsys):
    doc = {
        "group": {"p": 2, "mode": "carry"},
        "lambda": {
            "type": "union",
            "parts": [
                {"ambient": "group", "type": "explicit", "points": ["0", "1/2^1"]},
                {"ambient": "group", "type": "explicit", "points": ["1", "3/2^1"]},
            ],
        },
        "task": {"region": 1, "n_range": [0, 1]},
    }
    cfg = write_config(tmp_path, "u.json", doc)
    assert main(["density", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["profile"]["rows"][0]["max_count"] == 2  # two points per unit ball


CHECKED_TASK = {"region": 3, "n_range": [0, 3], "checks": ["separation", "finite", "automorphism"]}


@pytest.mark.parametrize(
    "task",
    [
        {**CHECKED_TASK, "automorphism_power": 0},
        {**CHECKED_TASK, "automorphism_power": -1},
        {**CHECKED_TASK, "automorphism_power": "2"},
        {**CHECKED_TASK, "region": "2"},
        {**CHECKED_TASK, "region": True},
        {**CHECKED_TASK, "separation_scale": 4},
        {**CHECKED_TASK, "finite_scale": 4},
        {**CHECKED_TASK, "finite_scale": 0.5},
        {**CHECKED_TASK, "n_range": [0, 4]},
        {**CHECKED_TASK, "n_range": [2, 1]},
        {**CHECKED_TASK, "n_range": ["0", 3]},
        {**CHECKED_TASK, "checks": "finite"},
        {**CHECKED_TASK, "checks": ["separation", "seperation", 3]},
        {"n_range": [0, 3]},
        [],
    ],
    ids=[
        "power-zero", "power-negative", "power-string", "region-string", "region-bool",
        "separation-above-region", "finite-above-region", "finite-float",
        "n-range-above-region", "n-range-reversed", "n-range-string", "checks-string",
        "checks-unknown", "region-missing", "task-not-object",
    ],
)
def test_density_bad_task_exits_2(tmp_path, capsys, task):
    cfg = write_config(tmp_path, "d.json", {**DENSITY_SECTION, "task": task})
    assert main(["density", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "task, key",
    [
        ({"region": -1}, "n_range"),
        ({"region": -1, "n_range": [-2, -1], "checks": ["separation"]}, "separation_scale"),
        ({"region": -1, "n_range": [-2, -1], "checks": ["finite"]}, "finite_scale"),
        ({"region": 3, "n_range": [-40, 3], "checks": ["automorphism"]}, "automorphism_power"),
    ],
    ids=["n-range", "separation-scale", "finite-scale", "automorphism-power"],
)
def test_density_names_an_unset_key_whose_default_does_not_fit(tmp_path, capsys, task, key):
    cfg = write_config(tmp_path, "d.json", {**DENSITY_SECTION, "task": task})
    assert main(["density", "--config", cfg]) == 2
    assert f"task {key} is unset, and its default" in capsys.readouterr().err


def test_density_names_the_unknown_check(tmp_path, capsys):
    task = {**CHECKED_TASK, "checks": ["finite", "seperation"]}
    cfg = write_config(tmp_path, "d.json", {**DENSITY_SECTION, "task": task})
    assert main(["density", "--config", cfg]) == 2
    assert "'seperation'" in capsys.readouterr().err


COEFFS_PAIR = {
    "group": {"p": 2, "mode": "carry"},
    "model": {"m": 1, "k": 1},
    "window": {"type": "coeffs", "values": [[1, 0], [0, 1], [0.5, 0], [0, 0]]},
    "function": {"type": "coeffs", "values": [[0, 1], [1, 0], [0, 0], [0.25, 0]]},
}


@pytest.mark.parametrize("command", ["stft", "norms"])
@pytest.mark.parametrize("role", ["window", "function"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_coeffs_exit_2(tmp_path, capsys, command, role, bad):
    values = [list(pair) for pair in COEFFS_PAIR[role]["values"]]
    values[1][0] = bad  # written as NaN / Infinity / -Infinity, which json.load accepts
    doc = {**COEFFS_PAIR, role: {"type": "coeffs", "values": values}}
    cfg = write_config(tmp_path, "c.json", doc)
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert "finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("role", ["window", "function"])
@pytest.mark.parametrize("bad", [[True, 0], [0.5, False], [1, 2, 3], [1], ["1", 2], "ab", None],
                         ids=["re-bool", "im-bool", "triple", "single", "string", "text", "null"])
def test_coeffs_values_must_be_number_pairs(tmp_path, capsys, role, bad):
    values = [list(pair) for pair in COEFFS_PAIR[role]["values"]]
    values[1] = bad
    doc = {**COEFFS_PAIR, role: {"type": "coeffs", "values": values}}
    cfg = write_config(tmp_path, "c.json", doc)
    assert main(["stft", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {role} values must be [re, im] pairs of numbers\n"
    assert captured.out == ""


@pytest.mark.parametrize("role", ["window", "function"])
@pytest.mark.parametrize("bad", [[10**400, 0], [0, -(10**400)]])
def test_coeffs_values_too_large_for_a_float(tmp_path, capsys, role, bad):
    values = [list(pair) for pair in COEFFS_PAIR[role]["values"]]
    values[1] = bad
    doc = {**COEFFS_PAIR, role: {"type": "coeffs", "values": values}}
    cfg = write_config(tmp_path, "c.json", doc)
    assert main(["stft", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {role} values must fit in a float: a number is too large\n"
    assert captured.out == ""


HUGE_COEFFS = {"type": "coeffs", "values": [[1e200, 0]] * 4}
OVERFLOWING = [
    # the squared norm overflows
    ("norms", {**COEFFS_PAIR, "function": HUGE_COEFFS}),
    # f * conj(T_x g) overflows inside the transform
    ("stft", {**COEFFS_PAIR, "window": HUGE_COEFFS, "function": HUGE_COEFFS}),
    # the frame operator's einsum overflows silently, then inf * 0 is NaN
    ("frame", {**FRAME_TIGHT, "model": {"m": 2, "k": 0}, "window": {
        "type": "coeffs", "values": [[1.2149521770883526e228, 0], [1, 0], [0, 0], [0, 0]]},
        "lambda": {**FRAME_TIGHT["lambda"], "x": {"outer": 2, "inner": 0},
                   "xi": {"outer": 0, "inner": 0}}}),
]


def test_overflowing_result_exits_2(tmp_path, capsys):
    # finite inputs whose results overflow: refused, with no RuntimeWarning on stderr,
    # rather than emitted as Infinity
    for command, doc in OVERFLOWING:
        cfg = write_config(tmp_path, "c.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfg]) == 2, command
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: result is not finite"), captured.err
        assert captured.out == ""


def _stdlib_dumps(doc) -> str:
    """The reference bytes: json.dumps of each complex array as a list of [re, im] lists."""
    def lists(v):
        if isinstance(v, np.ndarray):
            return np.column_stack((v.real, v.imag)).tolist()
        if isinstance(v, dict):
            return {key: lists(x) for key, x in v.items()}
        return [lists(x) for x in v] if isinstance(v, list) else v
    return json.dumps(lists(doc), indent=2, sort_keys=True) + "\n"


def _dumps(doc) -> str:
    """The text cli._dump writes for doc."""
    out = io.StringIO()
    cli._dump(doc, out)
    return out.getvalue()


def _assert_same_text(got: str, want: str) -> None:
    """got == want; a failure names the first differing line (pytest's own diff of two texts
    of megabytes would take minutes)."""
    got, want = got.split("\n"), want.split("\n")
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    assert i == len(got) == len(want), f"line {i}: {got[i:i + 1]} != {want[i:i + 1]}"


def _assert_written_as_the_stdlib(doc) -> None:
    """cli._dump writes _stdlib_dumps's text of doc."""
    _assert_same_text(_dumps(doc), _stdlib_dumps(doc))


EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1e-5, 1.7976931348623157e308, -1.7976931348623157e308,
               0.0, 1.0, -2.5, 1 / 3, 123456789.125, 2.0**-1074 * 3]


def _grid_doc(params, m, k, values):
    return StftGrid(ModelSpace(params, m, k), np.asarray(values, dtype=complex)).to_json_dict()


@pytest.mark.parametrize("mode", [CARRY, MODULAR])
@pytest.mark.parametrize("p", [2, 3])
def test_emitted_grid_bytes_match_the_stdlib_encoder(mode, p):
    params = GroupParams(p, mode)
    rng = SplitMix64(p * 7 + len(mode))
    for m, k in [(0, 0), (1, 0), (1, 1), (2, 1)]:  # (0, 0) is a dim-1 grid
        space = ModelSpace(params, m, k)
        f = ModelFunction(space, rng.complex_vector(space.dim))
        g = ModelFunction(space, rng.complex_vector(space.dim))
        _assert_written_as_the_stdlib(stft(f, g).to_json_dict())
    edges = [complex(re, im) for re in EDGE_FLOATS for im in EDGE_FLOATS]
    # every pair of edges
    _assert_written_as_the_stdlib(_grid_doc(params, 0, 4, np.resize(edges, (p**4, p**4))))


def test_emitted_arrays_inside_a_document_match_the_stdlib_encoder():
    # arrays that are not the last key, nested at several indents, and empty
    doc = {"a": np.array([1 + 2j, complex(-0.0, -0.0)]), "b": [1.5, {"c": np.array([5e-324j])}],
           "d": np.zeros(0, dtype=complex), "z": {"y": [np.array([1e16 + 1e-5j]), "x"]}}
    assert _dumps(doc) == _stdlib_dumps(doc)
    assert _dumps(np.array([3j])) == _stdlib_dumps(np.array([3j]))


def test_emitted_text_lists_match_the_stdlib_encoder():
    # a map of strings (the decomposition's point texts) nested at several indents, next to
    # an array, one holding escapes, and empty
    texts = ["0", "1/2^3", "[-2]10,3", 'q"\\\u00e9\n', ""]
    doc = {"a": {"points": texts, "z": [texts[:1], []]}, "b": np.array([1j]), "c": []}

    def holes(v):
        if isinstance(v, dict):
            return {key: holes(x) for key, x in v.items()}
        if isinstance(v, list) and all(isinstance(x, str) for x in v):
            return map(str, v)
        return [holes(x) for x in v] if isinstance(v, list) else v
    assert _dumps(holes(doc)) == _stdlib_dumps(doc)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("part", ["re", "im"])
def test_non_finite_grid_is_refused(bad, part):
    values = np.ones((2, 2), dtype=complex)
    values[1, 0] = complex(bad, 0) if part == "re" else complex(0, bad)
    out = io.StringIO()
    with pytest.raises(cli.ConfigError, match=r"^result is not finite \(.*the inputs are too large$"):
        cli._dump(_grid_doc(GroupParams(2, CARRY), 1, 0, values), out)
    assert out.getvalue() == ""
    # a finite array and a long text list ahead of the bad one: still nothing written
    doc = {"a": np.ones(cli.CHUNK + 1, dtype=complex), "b": map(str, range(cli.CHUNK + 1)),
           "c": values.reshape(-1)}
    with pytest.raises(cli.ConfigError, match=r"^result is not finite \(.*the inputs are too large$"):
        cli._dump(doc, out)
    assert out.getvalue() == ""


class _Writes(io.StringIO):
    """A stream that records the length of each write."""

    def __init__(self):
        super().__init__()
        self.lengths = []

    def write(self, text):
        self.lengths.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("count", [0, 1, cli.CHUNK - 1, cli.CHUNK, cli.CHUNK + 1, 2 * cli.CHUNK + 1])
def test_lists_are_written_a_chunk_at_a_time(count):
    # an array and a map of texts at the chunk edges, nested, with the stdlib's bytes; no write
    # holds more than one chunk of items
    texts = [f"{i}/2^{i % 7}" for i in range(count)]
    values = np.array([complex(i / 3, -i * 1e-5) for i in range(count)], dtype=complex)
    doc = {"a": {"grid": values, "points": texts}, "z": [values[:2], 1.5]}
    out = _Writes()
    cli._dump({"a": {"grid": values, "points": map(str, texts)}, "z": [values[:2], 1.5]}, out)
    _assert_same_text(out.getvalue(), _stdlib_dumps(doc))
    # an item is at most two floats, the brackets and indents of depth 4, and its separator
    item = 2 * max(map(len, map(repr, values.view(np.float64).tolist())), default=0) + 40
    assert max(out.lengths) <= cli.CHUNK * item + 200  # 200: the longest skeleton piece
    assert len(out.lengths) >= 2 * (count // cli.CHUNK)


def _random_floats(seed: int, count: int, exponents=(0, 2047)) -> np.ndarray:
    """Floats from uniform random bit patterns whose exponent field lies in [lo, hi); hi <= 2047
    keeps out infinities and NaNs."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=count, dtype=np.uint64)
    lo, hi = exponents
    field = np.uint64(lo) + (bits >> np.uint64(52)) % np.uint64(hi - lo)
    return ((bits & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (field << np.uint64(52))).view(np.float64)


@pytest.mark.parametrize("exponents", [(0, 2047), (1009, 1080), (980, 1012)],
                         ids=["all", "plain-range", "small"])
def test_random_floats_are_written_as_the_stdlib_writes_them(exponents):
    # the float texts are orjson's and, where its notation is not repr's, repr's: the same bytes
    # as json.dumps on 2**17 bit patterns, across the whole range, where repr writes no exponent
    # (binary exponents -14 to 56, around 1e-4 <= |x| < 1e16) and around 1e-9 (-43 to -12)
    values = _random_floats(sum(exponents), 2**17, exponents).view(complex)
    _assert_written_as_the_stdlib({"values": values})


def _neighbours(x: float, count: int = 8) -> list[float]:
    """x and the count floats on either side of it."""
    out = [x]
    for target in (-math.inf, math.inf):
        y = x
        for _ in range(count):
            y = math.nextafter(y, target)
            out.append(y)
    return out


def test_floats_at_the_edges_of_repr_notation_are_written_as_the_stdlib_writes_them():
    # the floats around the two thresholds of repr's exponent notation and around 1e-9, below
    # which orjson writes repr's notation too, subnormals, zeros and the largest floats, each
    # as re and as im
    edges = [y for x in (1e-4, -1e-4, 1e16, -1e16, 1e-9, -1e-9) for y in _neighbours(x)]
    edges += [5e-324, -5e-324, 2.0**-1074 * 12345, 2.2250738585072009e-308,
              2.2250738585072014e-308, -2.2250738585072009e-308, 0.0, -0.0,
              1.7976931348623157e308, -1.7976931348623157e308]
    edges += list(_random_floats(7, 64, (0, 1)))  # random subnormals
    values = np.array([complex(re, im) for re in edges for im in (0.5, re)] +
                      [complex(1.25, im) for im in edges])
    _assert_written_as_the_stdlib({"values": values})


@pytest.mark.parametrize("at", [0, 2 * cli.CHUNK - 2, 2 * cli.CHUNK - 1, 2 * cli.CHUNK, -1])
def test_written_floats_at_the_chunk_edges(at):
    # a float that repr writes with an exponent as the first, last-but-one or last float of a
    # chunk, or the last of the array: first among plain floats, then among floats all below 1e-4
    floats = np.linspace(-3.0, 3.0, 4 * cli.CHUNK + 2)
    floats[at] = 1.5e-7
    _assert_written_as_the_stdlib(floats.view(complex))
    floats[:] = 1e-9 * np.arange(1, floats.size + 1)
    floats[at] = -2e16
    _assert_written_as_the_stdlib(floats.view(complex))


def test_a_missing_orjson_writes_nothing(monkeypatch):
    # orjson is imported before the first write: without it an array's document fails whole,
    # and a document without an array is written as before
    monkeypatch.setitem(sys.modules, "orjson", None)  # import orjson raises ImportError
    out = io.StringIO()
    with pytest.raises(ImportError):
        cli._dump({"a": "head", "b": np.array([1j]), "c": map(str, range(3))}, out)
    assert out.getvalue() == ""
    assert _dumps({"a": [1.5], "b": map(str, range(3))}) == _stdlib_dumps(
        {"a": [1.5], "b": ["0", "1", "2"]})


def test_importing_the_cli_leaves_orjson_unloaded(tmp_path):
    # orjson loads with the first array written (stft), not with the import, frame or norms
    frame = write_config(tmp_path, "f.json", FRAME_ONB)
    norms = write_config(tmp_path, "n.json", NORMS_CHI)
    probe = ("import io, sys, contextlib, padicgabor.cli as c\n"
             "loaded = ['orjson' in sys.modules]\n"
             "for argv in (['frame', '--config', sys.argv[1]], ['norms', '--config', sys.argv[2]],"
             " ['stft', '--config', sys.argv[2]]):\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        assert c.main(argv) == 0\n"
             "    loaded.append('orjson' in sys.modules)\n"
             "print(loaded)")
    env = {**os.environ, "PYTHONPATH": SRC}
    assert subprocess.run([sys.executable, "-c", probe, frame, norms], env=env,
                          capture_output=True, text=True,
                          check=True).stdout == "[False, False, False, True]\n"


def test_numpy_loads_with_the_first_numeric_command(tmp_path):
    # neither the import nor a density run (its decomposition's texts written too) executes
    # numpy; frame does
    density = write_config(tmp_path, "d.json", {**DENSITY_SECTION, "task": CHECKED_TASK})
    frame = write_config(tmp_path, "f.json", FRAME_ONB)
    probe = ("import io, sys, contextlib, padicgabor.cli as c\n"
             "def loaded():\n"
             "    return any(name in sys.modules for name in ('numpy._core', 'numpy.core'))\n"
             "seen = [loaded()]\n"
             "for argv in (['density', '--config', sys.argv[1]],\n"
             "             ['frame', '--config', sys.argv[2]]):\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        assert c.main(argv) == 0\n"
             "    seen.append(loaded())\n"
             "print(seen)")
    env = {**os.environ, "PYTHONPATH": SRC}
    assert subprocess.run([sys.executable, "-c", probe, density, frame], env=env,
                          capture_output=True, text=True,
                          check=True).stdout == "[False, False, True]\n"


# the padicgabor modules a process has executed after the import and one command: a layer
# that command does not use stays an unexecuted lazy module (padicgabor._lazy)
EXECUTED_LAYERS = {
    "import": "_lazy cli localfield",
    "density": "_lazy cli density localfield",
    "stft": "_lazy cli geometry localfield model",
    "norms": "_lazy cli geometry localfield model",
    "frame": "_lazy cli density gabor geometry linalg localfield model",
    "verify": "_lazy cli density gabor geometry linalg localfield model rng verify",
}


@pytest.mark.parametrize("command", list(EXECUTED_LAYERS))
def test_each_command_executes_only_the_layers_it_uses(tmp_path, command):
    argv = {"import": [], "verify": ["verify", "--sizes", "small"]}.get(command)
    if argv is None:
        doc = {**DENSITY_SECTION, "task": CHECKED_TASK} if command == "density" else FRAME_ONB
        argv = [command, "--config", write_config(tmp_path, "c.json", doc)]
    # the lazy layers are bound on the package, as an import binds them
    probe = ("import contextlib, importlib.util, io, sys, padicgabor, padicgabor.cli as c\n"
             "for name in ('density', 'gabor', 'model', 'verify'):\n"
             "    assert getattr(padicgabor, name) is sys.modules['padicgabor.' + name], name\n"
             "if sys.argv[1:]:\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        assert c.main(sys.argv[1:]) == 0\n"
             "print(*sorted(n.removeprefix('padicgabor.') for n, m in sys.modules.items()\n"
             "              if n.startswith('padicgabor.')\n"
             "              and type(m) is not importlib.util._LazyModule))")
    env = {**os.environ, "PYTHONPATH": SRC}
    assert subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True,
                          text=True, check=True).stdout == EXECUTED_LAYERS[command] + "\n"


def test_an_unexpected_exception_runs_no_further_layer(tmp_path):
    # main matches its exit-1 failure (density.InvariantViolation) without running density,
    # so a stft that fails unexpectedly runs model alone
    probe = ("import importlib.util, sys, padicgabor.cli as c\n"
             "def fail(*args):\n"
             "    raise KeyError('unexpected')\n"
             "c.model.stft = fail\n"
             "try:\n"
             "    c.main(sys.argv[1:])\n"
             "except KeyError:\n"
             "    print('KeyError')\n"
             "print(*sorted(n.removeprefix('padicgabor.') for n, m in sys.modules.items()\n"
             "              if n.startswith('padicgabor.')\n"
             "              and type(m) is not importlib.util._LazyModule))")
    cfg = write_config(tmp_path, "c.json", FRAME_TIGHT)
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", probe, "stft", "--config", cfg], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "KeyError\n" + EXECUTED_LAYERS["stft"] + "\n"


EXPLICIT_TIGHT = {**FRAME_TIGHT, "lambda": {"ambient": "phase", "type": "explicit",
                                            "points": [["0", "0"], ["1/2", "1/2"]]}}


@pytest.mark.parametrize(
    "doc",
    [
        {**EXPLICIT_TIGHT, "lambda": {**EXPLICIT_TIGHT["lambda"], "points": [[1, 2]]}},
        {**EXPLICIT_TIGHT, "lambda": {**EXPLICIT_TIGHT["lambda"], "points": [["0", 2]]}},
        {**EXPLICIT_TIGHT, "window": {"type": "indicator", "shift": 3}},
        {**EXPLICIT_TIGHT, "window": {"type": "indicator", "set_scale": True}},
        {**EXPLICIT_TIGHT, "lambda": {"type": "union", "parts": 3}},
        {**EXPLICIT_TIGHT, "lambda": {"type": "union", "parts": [3]}},
        {**EXPLICIT_TIGHT, "lambda": {"type": "union", "parts": [
            EXPLICIT_TIGHT["lambda"], {"ambient": "group", "type": "explicit", "points": ["0"]}]}},
        {**EXPLICIT_TIGHT, "lambda": 3},
        {**EXPLICIT_TIGHT, "model": {"m": True, "k": 1}},
        {**EXPLICIT_TIGHT, "model": {"m": 1, "k": True}},
        {**FRAME_TIGHT, "lambda": {**FRAME_TIGHT["lambda"], "x": {"outer": True, "inner": -1}}},
        {**FRAME_TIGHT, "window": {"type": "coeffs", "values": [[True, False]] * 4}},
        {**FRAME_TIGHT, "window": {"type": "coeffs", "values": [[1, 2, 3]] * 4}},
        {**FRAME_TIGHT, "window": {"type": "coeffs", "values": [["1", 2]] * 4}},
        {**FRAME_TIGHT, "window": {"type": "coeffs", "values": [1, 0, 0, 0]}},
    ],
    ids=[
        "point-texts-int", "point-xi-int", "shift-int", "set-scale-bool", "parts-int",
        "part-int", "parts-mixed-ambient", "lambda-int", "model-m-bool", "model-k-bool", "section-outer-bool",
        "coeffs-bool", "coeffs-triple", "coeffs-string", "coeffs-number",
    ],
)
def test_frame_bad_config_exits_2(tmp_path, capsys, doc):
    cfg = write_config(tmp_path, "f.json", doc)
    assert main(["frame", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_frame_dim_at_the_cap_is_accepted(tmp_path, capsys, monkeypatch):
    # dim 512 = MAX_FRAME_DIM reaches the real eigensolver: the ONB's 512 points take the
    # transform route, whose operator carries rounding off the diagonal, so it takes the
    # tridiagonal path
    dims = []
    eigs = gabor.hermitian_eigs

    def recorded(matrix):
        dims.append(matrix.dim)
        return eigs(matrix)

    monkeypatch.setattr(gabor, "hermitian_eigs", recorded)
    doc = {**FRAME_ONB, "model": {"m": 5, "k": 4},
           "lambda": {"ambient": "phase", "type": "product-sections",
                      "x": {"outer": 5, "inner": 0}, "xi": {"outer": 4, "inner": 0}}}
    cfg = write_config(tmp_path, "f.json", doc)
    assert gabor.takes_transforms(cli.MAX_FRAME_DIM, cli.MAX_FRAME_DIM)
    assert main(["frame", "--config", cfg]) == 0
    assert dims == [cli.MAX_FRAME_DIM]
    report = json.loads(capsys.readouterr().out)
    assert report["dim"] == report["count"] == report["rank"] == cli.MAX_FRAME_DIM
    assert report["classification"] == "ONB"
    assert abs(report["lower"] - 1.0) <= 1e-12 and abs(report["upper"] - 1.0) <= 1e-12


def _full_budget_frame(mode, m, k):
    """A frame config at the point budget of dim p^(m+k), p = 2: all x times the finest xi
    section that fits, with a window of varied entries."""
    dim = 2 ** (m + k)
    budget = min(cli.MAX_POINTS, cli.MAX_ENTRIES // dim)
    xi_width = budget.bit_length() - 1 - (m + k)
    values = [[(i % 7 - 3) / 7, (i % 5 - 2) / 5] for i in range(dim)]
    return {"group": {"p": 2, "mode": mode}, "model": {"m": m, "k": k},
            "window": {"type": "coeffs", "values": values},
            "lambda": {"ambient": "phase", "type": "product-sections",
                       "x": {"outer": m, "inner": -k}, "xi": {"outer": k, "inner": k - xi_width}}}


@pytest.mark.parametrize("mode", [CARRY, MODULAR])
def test_a_full_budget_frame_makes_no_vector_matrix(tmp_path, capsys, monkeypatch, mode):
    # 16384 points at dim 256: the dense route's dim x count matrix and count x dim shift table
    # took 3.2 s and 193 MB; the transform route makes one dim x dim shift table
    tables = []
    shift_table = ModelSpace.shift_table

    def recorded(space, ax):
        tables.append(len(ax))
        return shift_table(space, ax)

    def no_matrix(sys):
        raise AssertionError("the vector matrix was made")

    monkeypatch.setattr(ModelSpace, "shift_table", recorded)
    monkeypatch.setattr(gabor.GaborSystem, "matrix", property(no_matrix))
    cfg = write_config(tmp_path, "f.json", _full_budget_frame(mode, 4, 4))
    assert main(["frame", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["dim"], report["count"], report["rank"]) == (256, 16384, 256)
    assert tables == [256]


def _run_cli(args, threads):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "padicgabor.cli", *args], env=env,
                          capture_output=True, check=True)
    return done.stdout


def test_outputs_independent_of_thread_count(tmp_path):
    rng = SplitMix64(77)
    p, m, k = 2, 3, 3
    dim = p ** (m + k)
    points = [
        [f"{rng.next_below(dim)}/2^{m}", f"{rng.next_below(dim)}/2^{k}"] for _ in range(96)
    ]
    doc = {
        "group": {"p": p, "mode": "carry"},
        "model": {"m": m, "k": k},
        "window": {"type": "coeffs",
                   "values": [[z.real, z.imag] for z in rng.complex_vector(dim)]},
        "lambda": {"ambient": "phase", "type": "explicit", "points": points},
    }
    cfg = write_config(tmp_path, "f.json", doc)
    frames = [_run_cli(["frame", "--config", cfg], threads) for threads in (1, 2)]
    assert frames[0] == frames[1]
    assert json.loads(frames[0])["rank"] == dim
    outs = []
    for threads in (1, 2):
        out = tmp_path / f"verify-{threads}.json"
        stdout = _run_cli(["verify", "--suite", "paper", "--sizes", "small", "--out", str(out)],
                          threads)
        outs.append((stdout, out.read_bytes()))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("task", [5, {"p_exp": True}, {"p_exp": "2"}, {"p_exp": 0.5}],
                         ids=["task-int", "p-exp-bool", "p-exp-string", "p-exp-below-one"])
def test_norms_bad_task_exits_2(tmp_path, capsys, task):
    cfg = write_config(tmp_path, "n.json", {**NORMS_CHI, "task": task})
    assert main(["norms", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert captured.out == ""


@pytest.mark.parametrize("case", ["config-directory", "config-unreadable", "config-not-utf8",
                                  "out-frame", "out-density", "out-stft", "out-norms",
                                  "out-verify"])
def test_bad_paths_exit_2(tmp_path, capsys, monkeypatch, case):
    cfg = tmp_path / "c.json"
    if case == "config-directory":
        argv = ["frame", "--config", str(tmp_path)]
    elif case == "config-unreadable":
        cfg.write_text(json.dumps(FRAME_TIGHT))
        cfg.chmod(0)
        if os.access(cfg, os.R_OK):  # a privileged user reads it anyway: deny the open

            def denied(path, *args, **kwargs):
                raise PermissionError(13, "Permission denied", path)

            monkeypatch.setattr(cli, "open", denied, raising=False)
        argv = ["frame", "--config", str(cfg)]
    elif case == "config-not-utf8":
        cfg.write_bytes(b'{"group": "\xff"}')
        argv = ["frame", "--config", str(cfg)]
    else:
        command = case[len("out-"):]
        argv = [command, "--out", str(tmp_path / "missing" / "o.json")]
        if command == "verify":
            argv += ["--suite", "paper", "--sizes", "small"]
        else:
            docs = {"frame": FRAME_TIGHT, "density": DENSITY_SECTION, "stft": NORMS_CHI,
                    "norms": NORMS_CHI}
            argv += ["--config", write_config(tmp_path, "c.json", docs[command])]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err


def _nested_unions(depth: int) -> str:
    # built as text: json.dumps itself recurses once per level
    leaf = json.dumps({"ambient": "group", "type": "explicit", "points": ["0"]})
    lam = '{"type": "union", "parts": [' * depth + leaf + "]}" * depth
    return json.dumps(DENSITY_SECTION)[:-1] + ', "lambda": ' + lam + "}"


def _explicit_density(p, mode, text, region=3):
    return {"group": {"p": p, "mode": mode},
            "lambda": {"ambient": "group", "type": "explicit", "points": [text]},
            "task": {"region": region}}


def _task(**keys):
    return {**DENSITY_SECTION, "task": {"region": 3, **keys}}


BOUND_CASES = {
    "region": ("density", _task(region=3000000)),
    "n-range": ("density", _task(n_range=[-14400, -14399])),
    "model-extent": ("frame", {**FRAME_ONB, "model": {"m": 40, "k": 0}}),
    # dim^2 fits MAX_ENTRIES, but the frame operator and its O(dim^3) eigenvalues would not
    "frame-dim-1331": ("frame", {**FRAME_ONB, "group": {"p": 11}, "model": {"m": 2, "k": 1}}),
    "frame-dim-1024": ("frame", {**FRAME_ONB, "model": {"m": 5, "k": 5}}),
    "prime": ("density", {**DENSITY_SECTION, "group": {"p": 1000000000000000003}}),
    "section-points": ("density", {**DENSITY_SECTION, "task": {"region": 22},
                                   "lambda": {"ambient": "group", "type": "product-sections",
                                              "x": {"outer": 22, "inner": 0}}}),
    "carry-negative-exponent": ("density", _explicit_density(2, "carry", "1/2^-100000000000")),
    "modular-valuation": ("density", _explicit_density(2, "modular", "[100000000000]1")),
    "carry-valuation": ("density", _explicit_density(2, "carry", "1/2^65", region=64)),
    "deep-array": ("density", "[" * 200000 + "]" * 200000),
    "nested-unions": ("density", _nested_unions(900)),
    "frame-entries": ("frame", {**FRAME_ONB, "model": {"m": 5, "k": 5},
                                "lambda": {"ambient": "phase", "type": "product-sections",
                                           "x": {"outer": 5, "inner": -5},
                                           "xi": {"outer": 5, "inner": 2}}}),
    "automorphism-power": ("density", _task(checks=["automorphism"], automorphism_power=10**12)),
    "automorphism-scale": ("density", _task(n_range=[-33, 3], checks=["automorphism"])),
    "phase-product-points": ("density", {**DENSITY_SECTION, "task": {"region": 11},
                                         "lambda": {"ambient": "phase", "type": "product-sections",
                                                    "x": {"outer": 11, "inner": 0},
                                                    "xi": {"outer": 10, "inner": 0}}}),
    "modular-body-p2": ("density", _explicit_density(2, "modular", "[0]" + "1" * 200000)),
    "modular-body-p3": ("density", _explicit_density(3, "modular", "[0]" + "1" * 200000)),
}


@pytest.mark.parametrize("case", list(BOUND_CASES))
def test_sizes_beyond_the_bounds_exit_2(tmp_path, capsys, monkeypatch, case):
    def built(*args):
        raise AssertionError("a point set was built before the bounds were checked")

    monkeypatch.setattr(PointSet, "__post_init__", built)
    command, doc = BOUND_CASES[case]
    cfg = tmp_path / "c.json"
    cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    start = time.perf_counter()
    assert main([command, "--config", str(cfg)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "doc",
    [
        _task(region=cli.MAX_SCALE, n_range=[-cli.MAX_SCALE, cli.MAX_SCALE]),
        {**_explicit_density(2, "carry", "0", region=-cli.MAX_SCALE),
         "task": {"region": -cli.MAX_SCALE, "n_range": [-cli.MAX_SCALE, -cli.MAX_SCALE]}},
        _task(region=cli.MAX_SCALE, n_range=[-32, 4], checks=["automorphism"]),
        _task(region=cli.MAX_SCALE, checks=["automorphism"], automorphism_power=cli.MAX_SCALE),
        _explicit_density(65521, "carry", "65520/65521^3"),
        _explicit_density(2, "carry", "1/2^64", region=64),
        _explicit_density(2, "modular", "[-64]1", region=64),
        _explicit_density(3, "modular", "[0]" + "1" * MAX_BODY_DIGITS),
    ],
    ids=["scales-64", "scales-minus-64", "automorphism-scale-64", "power-64", "prime-65521",
         "carry-valuation-64", "modular-valuation-64", "modular-body-4300"],
)
def test_the_bounds_themselves_are_accepted(tmp_path, capsys, doc):
    cfg = write_config(tmp_path, "c.json", doc)
    assert main(["density", "--config", cfg]) == 0
    json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("point", ["01", ["0"], ["0", "0", "0"]])
def test_phase_point_must_be_a_pair(tmp_path, capsys, point):
    lam = {"ambient": "phase", "type": "explicit", "points": [["0", "0"], point]}
    cfg = write_config(tmp_path, "f.json", {**FRAME_TIGHT, "lambda": lam})
    assert main(["frame", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error: a phase lambda point must be a pair")


def test_out_is_opened_before_computing(tmp_path, capsys):
    argv = ["verify", "--suite", "paper", "--sizes", "small",
            "--out", str(tmp_path / "missing" / "x.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: cannot write --out")
    assert captured.out == ""
    # a run refused after --out was opened leaves an existing target with its bytes, and no
    # temporary file beside it
    out = tmp_path / "o.json"
    out.write_text("kept\n")
    bad = write_config(tmp_path, "bad.json", _task(region=cli.MAX_SCALE + 1))
    assert main(["density", "--config", bad, "--out", str(out)]) == 2
    assert out.read_text() == "kept\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["bad.json", "o.json"]


def test_out_that_may_not_be_replaced_is_written_in_place(tmp_path, capsys, monkeypatch):
    # a symlink stays a link to the file it names, and a file in a folder this process may not
    # write (os.access says so; a root process may write anywhere) is written in place, as a
    # shell redirection would
    cfg = write_config(tmp_path, "c.json", FRAME_TIGHT)
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    real.write_text("old\n")
    link.symlink_to(real)
    assert main(["frame", "--config", cfg, "--out", str(link)]) == 0
    assert link.is_symlink() and json.loads(real.read_text())["classification"] == "TightFrame"
    real.write_text("old\n")
    monkeypatch.setattr(os, "access", lambda path, mode: path != str(tmp_path))
    mkstemp = []
    monkeypatch.setattr(cli.tempfile, "mkstemp", lambda **kwargs: mkstemp.append(kwargs))
    assert main(["frame", "--config", cfg, "--out", str(real)]) == 0
    assert mkstemp == [] and json.loads(real.read_text())["classification"] == "TightFrame"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["c.json", "link.json", "real.json"]


def _pinned_density(p, mode, points):
    return {"group": {"p": p, "mode": mode},
            "lambda": {"type": "union", "parts": [
                {"ambient": "group", "type": "product-sections", "x": {"outer": 2, "inner": 0}},
                {"ambient": "group", "type": "explicit", "points": points}]},
            "task": {"region": 3, "n_range": [-2, 3],
                     "checks": ["separation", "finite", "automorphism"]}}


# density prints no floats, so these bytes are the same on every platform; the
# decomposition lists the text of every point, so they pin the text form and the
# ball keys.  p = 11 writes its digits with commas.
PINNED_DENSITY = {
    "carry-3": (_pinned_density(3, "carry", ["1/3^2", "1/3^2", "5", "-1/3", "2/3^3", "5"]),
                "dbf80fc31d9e2c35ba63753d315d8eedc1d2f5830cea09ca26c1106ebabc6bac",
                "e2cade633f90b79e2484c847e0b950353356dded79b008ea8b52d8d973a81a30"),
    "modular-2": (_pinned_density(2, "modular", ["[-2]101", "[-2]101", "[0]1", "[-3]1", "[1]11"]),
                  "5edca82e9227c02da4612736ab0dabfeed8ca98465ac268900ed8c3b4d9f972d",
                  "9e078bcfa67a8d4cc7b30dc80a371cb759bfe452f92633206af25ecb612d8c80"),
    "modular-3": (_pinned_density(3, "modular", ["[-2]12", "[-2]12", "[1]2", "[-3]201", "[1]2"]),
                  "33696322a3aa5e43f96083e8b5fd2bf821d30f489962c74a0ce2e72d73a2f266",
                  "78cceacd8f264f9771afc30649bde6440a3f882858fc459dc746fd01bd09e4d4"),
    "modular-11": (_pinned_density(11, "modular",
                                   ["[-1]10,3", "[-1]10,3", "[0]1,0,10", "[-3]5", "[0]0,7"]),
                   "21b08ba7ba5572b025b581816899d9ef10c93b886609a86bcc1a872bac3d3d91",
                   "2eede8f16320971ebfa6601c36c9b87ec0df7ac9f74ed7091ad0daa785a9c277"),
    # a zero point keys as the int 0 in a region below 0, where p**region is a float
    "carry-2-zeros": ({"group": {"p": 2, "mode": "carry"},
                       "lambda": {"ambient": "group", "type": "explicit",
                                  "points": ["0", "0", "4"]},
                       "task": {"region": -1, "n_range": [-3, -1], "separation_scale": -2,
                                "finite_scale": -3,
                                "checks": ["separation", "finite", "automorphism"]}},
                      "61980b10eb13677c61a6e527df5e470d607a9b886156840a4b8f281f2edbc7e3",
                      "35c28ecc59fdee787b06c43fae09d6868cee117aa8f9a055fdcb20fad8bb29ff"),
}


@pytest.mark.parametrize("case", list(PINNED_DENSITY))
def test_density_output_bytes_are_pinned(tmp_path, capsys, case):
    doc, *digests = PINNED_DENSITY[case]
    cfg = write_config(tmp_path, "c.json", doc)
    for flag, digest in zip(("--json", "--table"), digests):
        assert main(["density", "--config", cfg, flag]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _pinned_grid(p, mode, m, k, p_exp, seed):
    rng = SplitMix64(seed)
    dim = p ** (m + k)
    window, function = ([[z.real, z.imag] for z in rng.complex_vector(dim)] for _ in range(2))
    # signed zeros reach the transform as products with either sign of zero
    function[1], function[2], window[3] = [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.5]
    return {"group": {"p": p, "mode": mode}, "model": {"m": m, "k": k},
            "window": {"type": "coeffs", "values": window},
            "function": {"type": "coeffs", "values": function},
            "task": {"p_exp": p_exp}}


# stft and norms print floats, so these digests pin every bit of the transform
# kernels (and of numpy's float arithmetic under them): a kernel rewrite that
# rounds one grid entry differently changes a digest.  (stft, norms) per config.
PINNED_GRIDS = {
    "modular-2-dim16": (_pinned_grid(2, "modular", 2, 2, 1, 31),
                        "662f7f1440e9326cfd2ad9925ab9c6b8f82ab76002fe4d9599fa162d641241ff",
                        "2da0701dc6e3923156e7af8f1431b4916f07a943e8d9098d04d130b4b7edfc94"),
    "modular-2-dim256": (_pinned_grid(2, "modular", 4, 4, 3, 32),
                         "4ac2f9015c5789a1df25338421ca13eb298216ed53f336ca8bb2d828566d25cb",
                         "56ea76870c55a51e6593822a41f74c11e5d0a28536427e02bbc293ae7f521ec6"),
    "modular-3-dim27": (_pinned_grid(3, "modular", 2, 1, "inf", 33),
                        "13650ec015faaaafa035e254fd4f8a21416f1a3cff9423332ead6de13d57d516",
                        "94ee2087662125e9d3d96173cfce1cc92a59731b83ba7bb9219b8afc8a2cf970"),
    "carry-2-dim64": (_pinned_grid(2, "carry", 3, 3, 2, 34),
                      "862d3b1ec7ddffe27d57ed954ba4e550edaa2e183cd55b3a714eb166745cccb9",
                      "8b90ddd52122811701c466136b5004a356c43ad2c0f25a37ebaff628881025a4"),
}


@pytest.mark.parametrize("p_exp", [2, 3])
@pytest.mark.parametrize("mode", [CARRY, MODULAR])
@pytest.mark.parametrize("p", [2, 3])
def test_norms_are_the_library_norms(tmp_path, capsys, p, mode, p_exp):
    # norms takes both L^2 sums from one in-place square of |V| (StftMagnitudes.l2_norms):
    # exactly the library's l2_norm and modulation_norm(grid, 2) of a fresh grid; dims 16, 81
    doc = _pinned_grid(p, mode, 2, 2, p_exp, 40 + p)
    assert main(["norms", "--config", write_config(tmp_path, "c.json", doc)]) == 0
    out = json.loads(capsys.readouterr().out)
    space = ModelSpace(GroupParams(p, mode), 2, 2)
    f, g = (ModelFunction(space, [complex(re, im) for re, im in doc[role]["values"]])
            for role in ("function", "window"))
    grid = stft_magnitudes(f, g)
    assert out["orthogonality_check"]["lhs"] == grid.l2_norm()
    assert out["wiener_vs_modulation"]["modulation_2"] == modulation_norm(grid, 2)
    assert out["wiener_vs_modulation"]["wiener_2"] == wiener_norm(grid, 2)
    assert out["modulation_p"] == modulation_norm(grid, p_exp)
    assert out["wiener_p"] == wiener_norm(grid, p_exp)


@pytest.mark.parametrize("case", list(PINNED_GRIDS))
def test_stft_and_norms_output_bytes_are_pinned(tmp_path, capsys, case):
    doc, *digests = PINNED_GRIDS[case]
    cfg = write_config(tmp_path, "c.json", doc)
    for command, digest in zip(("stft", "norms"), digests):
        assert main([command, "--config", cfg]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _pinned_frame(seed):
    """p = 3 carry at dim 27: a random coeffs window and 40 explicit phase points."""
    rng = SplitMix64(seed)
    space = ModelSpace(GroupParams(3, CARRY), 2, 1)
    window = [[z.real, z.imag] for z in rng.complex_vector(space.dim)]
    xs, xis = space.index_section, space.dual.index_section
    points = [[xs[rng.next_below(len(xs))].text(), xis[rng.next_below(len(xis))].text()]
              for _ in range(40)]
    return {"group": {"p": 3, "mode": "carry"}, "model": {"m": 2, "k": 1},
            "window": {"type": "coeffs", "values": window},
            "lambda": {"ambient": "phase", "type": "explicit", "points": points}}


# frame prints its bounds, and verify its measured floats, so these digests pin
# the eigenvalues and every kernel under the paper checks bit for bit
PINNED_FRAMES = {
    "onb-carry-2": (FRAME_ONB,
                    "3152e499f5515b1969f41cf9c72abd08978cd1caa782e530e845b3d0ff69b610"),
    "tight-modular-3": ({**FRAME_TIGHT, "group": {"p": 3, "mode": "modular"}},
                        "7698bd0f24c53b188c042c5985f2cb70f9644b02c3e3b7362c05b9a9c3e6d643"),
    "incomplete-carry-2": ({**FRAME_ONB, "lambda": {
        "ambient": "phase", "type": "product-sections",
        "x": {"outer": 2, "inner": 0}, "xi": {"outer": 2, "inner": 1}}},
        "35b59f9fefbf222125818bf53a20570825587d66b759660cc4d175b1a20c411f"),
    "random-carry-3-dim27": (_pinned_frame(35),
                             "8c942a9c9f962e070360d5532689b656ede7097af96a1c114d8a01969bd8fca6"),
}


@pytest.mark.parametrize("case", list(PINNED_FRAMES))
def test_frame_output_bytes_are_pinned(tmp_path, capsys, case):
    doc, digest = PINNED_FRAMES[case]
    cfg = write_config(tmp_path, "c.json", doc)
    assert main(["frame", "--config", cfg]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("case", list(PINNED_FRAMES))
def test_pinned_frames_agree_with_the_jacobi(tmp_path, capsys, monkeypatch, case):
    # the bounds each pinned frame prints lie within its reported bound, twice over, of the
    # cyclic Jacobi's of the same S, and its rank is the Jacobi's count above the cutoff
    taken = []
    eigs = gabor.hermitian_eigs
    monkeypatch.setattr(gabor, "hermitian_eigs", lambda m: taken.append(m) or eigs(m))
    cfg = write_config(tmp_path, "c.json", PINNED_FRAMES[case][0])
    assert main(["frame", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    (matrix,) = taken
    ref, off, _ = cyclic_jacobi(matrix.entries)
    slack = 2 * eigs(matrix)[1] + off
    assert abs(report["lower"] - max(np.min(ref), 0.0)) <= slack
    assert abs(report["upper"] - np.max(ref)) <= slack
    cutoff = linalg.RANK_TOL * max(1.0, report["upper"])
    assert np.min(np.abs(ref - cutoff)) > slack
    assert report["rank"] == int(np.sum(ref > cutoff))


def _record_linalg(monkeypatch):
    """Every frame operator gabor forms, every eigenvalue step and every solve, in order:
    ("S", system), ("eigs", dim) and ("solve", dim).  The list keeps each system alive, so
    distinct ids are distinct systems."""
    events = []
    frame_operator, eigs, solve = gabor.frame_operator, gabor.hermitian_eigs, gabor.solve_hermitian

    def recorded_frame_operator(sys):
        events.append(("S", sys))
        return frame_operator(sys)

    def recorded_eigs(matrix):
        events.append(("eigs", matrix.dim))
        return eigs(matrix)

    def recorded_solve(matrix, rhs):
        events.append(("solve", matrix.dim))
        return solve(matrix, rhs)

    monkeypatch.setattr(gabor, "frame_operator", recorded_frame_operator)
    monkeypatch.setattr(gabor, "hermitian_eigs", recorded_eigs)
    monkeypatch.setattr(gabor, "solve_hermitian", recorded_solve)
    return events


@pytest.mark.parametrize("case", list(PINNED_FRAMES))
def test_frame_takes_one_eigen_step_and_no_solve(tmp_path, capsys, monkeypatch, case):
    events = _record_linalg(monkeypatch)
    doc = PINNED_FRAMES[case][0]
    cfg = write_config(tmp_path, "c.json", doc)
    assert main(["frame", "--config", cfg]) == 0
    dim = doc["group"]["p"] ** (doc["model"]["m"] + doc["model"]["k"])
    assert [kind for kind, _ in events] == ["S", "eigs"] and events[1][1] == dim


def test_verify_and_the_pinned_frames_take_the_einsum(tmp_path, capsys, monkeypatch):
    # their bytes are the einsum's: verify's systems have dim^2 count <= 8192 and the pinned
    # frames at most 27^2 40, below the transform route's crossover
    def no_transforms(*args):
        raise AssertionError("a system took the transform route")

    sizes = []
    frame_operator = gabor.frame_operator

    def recorded(sys):
        sizes.append((sys.dim, sys.count))
        return frame_operator(sys)

    monkeypatch.setattr(gabor, "frame_operator", recorded)
    monkeypatch.setattr(gabor, "_transform_frame_operator", no_transforms)
    for case, (doc, digest) in PINNED_FRAMES.items():
        cfg = write_config(tmp_path, f"{case}.json", doc)
        assert main(["frame", "--config", cfg]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    assert max(dim * dim * count for dim, count in sizes) == 27 * 27 * 40
    del sizes[:]
    assert main(["verify", "--suite", "paper", "--sizes", "full"]) == 0
    # at most 30 systems, and check 10's three canonical duals form their S once more
    assert 0 < len(sizes) <= 33 and max(dim * dim * count for dim, count in sizes) <= 8192
    assert not any(gabor.takes_transforms(dim, count) for dim, count in sizes)


def test_verify_takes_each_spectrum_once(capsys, monkeypatch):
    # each S is followed by the one step that needs it: the eigenvalues of a system never
    # decomposed before, or one of check 10's three canonical duals, whose S is formed again
    # for a solve once its spectrum has shown that the system spans
    events = _record_linalg(monkeypatch)
    assert main(["verify", "--suite", "paper", "--sizes", "full"]) == 0
    steps = list(zip(events[::2], events[1::2]))
    assert len(events) == 2 * len(steps) and all(s[0] == "S" for s, _ in steps)
    decomposed = [id(sys) for (_, sys), (kind, _) in steps if kind == "eigs"]
    solved = [id(sys) for (_, sys), (kind, _) in steps if kind == "solve"]
    assert len(decomposed) == len(set(decomposed)) <= 30
    assert len(solved) == len(set(solved)) == 3 and set(solved) <= set(decomposed)


def test_each_run_decomposes_its_own_systems(monkeypatch):
    # the systems live for one run_suite call: a module-level cache would hand the second run
    # the first run's ONB systems, already decomposed
    events = _record_linalg(monkeypatch)
    onbs = []
    gram = verify.gram

    def recorded(sys):
        onbs.append(sys)
        return gram(sys)

    monkeypatch.setattr(verify, "gram", recorded)
    run_suite(size="small")
    first, first_onbs = list(events), list(onbs)
    run_suite(size="small")
    assert first and [kind for kind, _ in events] == [kind for kind, _ in first] * 2
    assert not {id(sys) for sys in first_onbs} & {id(sys) for sys in onbs[len(first_onbs):]}


def test_each_run_makes_each_model_space_once(monkeypatch):
    # one ModelSpace per (p, mode, m, k) per run, duals included (m == k is its own dual):
    # 11 at --sizes full, where each check made its own, 64 in all; the next run makes its own
    made = []
    post_init = verify.ModelSpace.__post_init__

    def counted(space):
        post_init(space)
        made.append(space)

    monkeypatch.setattr(verify.ModelSpace, "__post_init__", counted)
    for _ in range(2):
        del made[:]
        run_suite(size="full", seed=1)
        assert len(made) == len(set(made)) == 11
        assert all(space.dual in made for space in made)


def _tracer():
    """perfbench/layertrace.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "layertrace", os.path.join(ROOT, "perfbench", "layertrace.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_the_tracer_bindings_resolve():
    # perfbench/layertrace.py patches these names from outside src/, and reads the named
    # arguments of some: a layer that drops or renames one fails here, not only in a traced run
    tracer = _tracer()
    bindings = [*tracer.SPANNED.values(), *((*entry, None) for entry in tracer.COUNTED.values())]
    assert len(bindings) > 30
    for module, path, work in bindings:
        _, _, fn = tracer._resolve(importlib.import_module(f"padicgabor.{module}"), path)
        assert callable(fn), (module, path)
        if work is not None:  # its argument names are the string constants without a dot
            names = {c for c in work.__code__.co_consts if isinstance(c, str) and "." not in c}
            assert names <= set(inspect.signature(fn).parameters), (module, path, names)


@pytest.mark.parametrize("m", [np.diag([2.0, 0.5, 1.0]), [[2.0, 1.0j], [-1.0j, 2.0]]],
                         ids=["diagonal", "tridiagonal"])
def test_the_tracer_records_the_eigen_bound_as_a_float(m):
    # the tracer records slot 1 of a hermitian_eigs result as linalg.hermitian_eigs.max_residual:
    # a result whose slot 1 were not the bound would record a tuple or an array there
    work = _tracer().SPANNED["linalg.hermitian_eigs"][2]
    matrix = linalg.HermitianMatrix(m)
    recorded = work({"matrix": matrix}, linalg.hermitian_eigs(matrix))
    value = recorded["linalg.hermitian_eigs.max_residual"]
    assert type(value) is float and math.isfinite(value)


PINNED_VERIFY_SMALL = (  # (stdout, --out)
    "bfbef178ec8d2ce2fe36647275f3065d65b63cf081efc49fcc5b10c44035567e",
    "41bcbcde2238d8e8649caab5d40bb92b4b6a2ed97fb397f47a51a46b18f4167f",
)


PINNED_VERIFY_FULL = (  # (stdout, --out)
    "c87944719ff773f8ad663404afb6991ba382acba4dcffaab2fe12e9ac6ed9984",
    "2d782e059906c6d8589050ca01b24a639c3ad1325f486be1f5b0cccd54c94f73",
)


PINNED_VERIFY_FULL_SEEDS = {  # seed: (stdout, --out) of --sizes full --seed seed
    "1": (
        "65b77fd7fa254a65144d89170a91f2bde2c45512b83eb180940e126a7411d2a8",
        "dae41c9e0bb6d611b9f98f8b9781b2b8c4eeed98fbe43925ebe117105c6685ae",
    ),
    "11": (
        "4c0aa70558be57de7e4bac5fe48c880ec264645327b4574c10cc5757b0c0d741",
        "cde4a1eadba5aca0913910bd7d30c13a27fc567c0acc48ea80bd806ccc26b950",
    ),
}


PINNED_VERIFY_SMALL_ONE_PRIME = {  # p: (stdout, --out) of --sizes small --p p
    "2": (
        "e84389fafa4beb59948910068c20919fed567228db63e11863eb415c81fc10cc",
        "34ecbe48046fcb2c8efe03fdb0cf339455f2645f12eaae67cfee70977a5c2cc0",
    ),
    "3": (
        "060c7f87a2d3474b3d6fd396d63b7021883172a558e9ea7009a76d105420bd85",
        "568abb88f7d565f87f4575d6308afd3c3070176dd7c4e9243399242438eefa13",
    ),
}


def _verify_digests(size, tmp_path, capsys, *extra):
    out = tmp_path / "v.json"
    assert main(["verify", "--suite", "paper", "--sizes", size, *extra, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    return tuple(hashlib.sha256(text.encode()).hexdigest() for text in (stdout, out.read_text()))


def test_verify_small_output_bytes_are_pinned(tmp_path, capsys):
    assert _verify_digests("small", tmp_path, capsys) == PINNED_VERIFY_SMALL


def test_verify_full_output_bytes_are_pinned(tmp_path, capsys):
    # the size the paper-verify benchmark workload runs
    assert _verify_digests("full", tmp_path, capsys) == PINNED_VERIFY_FULL


@pytest.mark.parametrize("seed", list(PINNED_VERIFY_FULL_SEEDS))
def test_verify_full_output_bytes_are_pinned_at_other_seeds(tmp_path, capsys, seed):
    # every random draw of the paper checks moves with the seed
    digests = _verify_digests("full", tmp_path, capsys, "--seed", seed)
    assert digests == PINNED_VERIFY_FULL_SEEDS[seed]


@pytest.mark.parametrize("p", list(PINNED_VERIFY_SMALL_ONE_PRIME))
def test_verify_one_prime_output_bytes_are_pinned(tmp_path, capsys, p):
    # a single-prime run keeps only that prime's configs in every check
    digests = _verify_digests("small", tmp_path, capsys, "--p", p)
    assert digests == PINNED_VERIFY_SMALL_ONE_PRIME[p]


def test_frame_of_a_huge_window_is_finite(tmp_path, capsys):
    # entries near 1e300 in the frame operator: its norms square them, so they are taken
    # at a power-of-two scale (the exit was 2, overflow encountered in square)
    values = [[1e150, 0], [2e149, 1e149], [0, 3e149], [1e149, 0]]
    doc = {**FRAME_TIGHT, "window": {"type": "coeffs", "values": values}}
    cfg = write_config(tmp_path, "c.json", doc)
    assert main(["frame", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["classification"] == "TightFrame" and 2.29e300 < out["lower"] <= out["upper"]


def test_frame_of_a_huge_window_on_the_transform_route_is_finite(tmp_path, capsys):
    # entries near 2e152 on a system that takes transforms: the product of the transforms
    # overflows (the exit was 2) though S stays below 1e307, so the route takes g at a
    # power-of-two scale; its bounds are the einsum route's, from an explicit matrix
    values = [[2e152 * (i % 7 - 3) / 3, 2e152 * (i % 5 - 2) / 2] for i in range(32)]
    doc = {"group": {"p": 2, "mode": "carry"}, "model": {"m": 3, "k": 2},
           "window": {"type": "coeffs", "values": values},
           "lambda": {"ambient": "phase", "type": "product-sections",
                      "x": {"outer": 3, "inner": -2}, "xi": {"outer": 2, "inner": -1}}}
    cfg = write_config(tmp_path, "c.json", doc)
    assert main(["frame", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    params = cli._parse_group(doc)
    window = cli._parse_function(doc["window"], cli._parse_model(doc, params), "window")
    built = gabor.build(window, cli._parse_points(doc["lambda"], params))
    assert gabor.takes_transforms(built.dim, built.count) and built.count == 256
    dense = gabor.frame_bounds(gabor.GaborSystem(window, built.lam, built.vector_matrix()))
    assert out["classification"] == dense.classification and out["lower"] > 9e305
    assert abs(out["lower"] - dense.lower) <= 1e-13 * dense.lower
    assert abs(out["upper"] - dense.upper) <= 1e-13 * dense.upper


# -- points as integer keys, against the GroupElement path ----------------------------


def _element_points(doc, params):
    """A lambda's points as GroupElements, the way the CLI read them before keys: texts
    through parse_element, section members from geometry.section."""
    if doc["type"] == "union":
        return [pt for part in doc["parts"] for pt in _element_points(part, params)]
    phase = doc.get("ambient", "phase") == "phase"
    if doc["type"] == "explicit":
        if phase:
            return [tuple(parse_element(params, t) for t in pair) for pair in doc["points"]]
        return [parse_element(params, t) for t in doc["points"]]
    xs = section(params, doc["x"]["outer"], doc["x"]["inner"])
    if not phase:
        return list(xs)
    return [(x, xi) for x in xs for xi in section(params, doc["xi"]["outer"], doc["xi"]["inner"])]


def _element_lambda(doc, params, budget=cli.MAX_POINTS):
    leaf = doc
    while leaf["type"] == "union":
        leaf = leaf["parts"][0]
    make = PointSet.phase if leaf.get("ambient", "phase") == "phase" else PointSet.group
    return make(_element_points(doc, params), params)


def _texts(p, mode, scale):
    """Point texts over F_p or Q_p: zeros, repeats and texts not in normal form."""
    if mode == CARRY:
        return ["0", f"{2 * p}/{p}^3", "7", "7", f"-1/{p}", f"{p * p}/{p}^1", f"0/{p}^4",
                f"{p - 1}/{p}^{scale}", f"{p ** 3}"]
    sep = "" if p <= 10 else ","
    return ["[0]0", "[-3]0010", "[2]1", "[2]1", f"[-1]{p - 1}0{p - 1}", "[0]", "[1]000",
            f"[{-scale}]" + sep.join(["1", "0"]), f"[3]{p - 1}"]


def _key_path_lambdas(p, mode):
    texts = _texts(p, mode, 2)
    group = {"ambient": "group", "type": "explicit", "points": texts}
    phase = {"ambient": "phase", "type": "explicit",
             "points": [[a, b] for a, b in zip(texts, texts[3:] + texts[:3])]}
    return {
        "group": group,
        "phase": phase,
        "group-section": {"ambient": "group", "type": "product-sections",
                          "x": {"outer": 2, "inner": -1}},
        "phase-sections": {"ambient": "phase", "type": "product-sections",
                           "x": {"outer": 2, "inner": 0}, "xi": {"outer": 0, "inner": -2}},
        "single-zero-section": {"ambient": "group", "type": "product-sections",
                                "x": {"outer": 3, "inner": 3}},
        # parts anchored at 2, -1 and 3: the union re-anchors them at 3
        "group-union": {"type": "union", "parts": [
            {"ambient": "group", "type": "product-sections", "x": {"outer": 2, "inner": 0}},
            {"ambient": "group", "type": "explicit",
             "points": [f"{p}", f"{p ** 3}", "0"] if mode == CARRY else ["[1]1", "[3]1", "[0]"]},
            {"ambient": "group", "type": "explicit", "points": _texts(p, mode, 3)[-2:]}]},
        "phase-union": {"type": "union", "parts": [
            phase, {"ambient": "phase", "type": "product-sections",
                    "x": {"outer": 1, "inner": 0}, "xi": {"outer": -1, "inner": -2}}]},
        "empty": {"ambient": "group", "type": "explicit", "points": []},
    }


KEY_PATH_CASES = [(p, mode, name) for p in (2, 3, 5, 11) for mode in (CARRY, MODULAR)
                  for name in _key_path_lambdas(p, mode)]


@pytest.mark.parametrize("p,mode,name", KEY_PATH_CASES)
def test_parsed_keys_match_the_element_path(tmp_path, capsys, monkeypatch, p, mode, name):
    params = GroupParams(p, mode)
    lam_doc = _key_path_lambdas(p, mode)[name]
    lam = cli._parse_points(lam_doc, params)
    elements = _element_points(lam_doc, params)
    assert lam.points == tuple(elements)
    coords = elements if lam.ambient == "group" else [c for pt in elements for c in pt]
    flat = lam.keys if lam.ambient == "group" else [c for pair in lam.keys for c in pair]
    assert list(flat) == [anchored_int(c, lam.anchor) for c in coords]
    if lam_doc["type"] == "explicit":  # parsing anchors at the least R, 0 for zeros only
        assert lam.anchor == max((c.vexp for c in coords if not c.is_zero()), default=0)
    # the same bytes as the element path, texts in the decomposition included
    region = max(3, lam.anchor)
    task = {"region": region, "n_range": [-2, region],
            "checks": ["separation", "finite", "automorphism"]}
    cfg = write_config(tmp_path, "c.json", {"group": {"p": p, "mode": mode},
                                            "lambda": lam_doc, "task": task})
    assert main(["density", "--config", cfg]) == 0
    keyed = capsys.readouterr().out
    monkeypatch.setattr(cli, "_parse_points", _element_lambda)
    assert main(["density", "--config", cfg]) == 0
    assert keyed == capsys.readouterr().out
    doc = json.loads(keyed)
    if "decomposition" in doc:  # texts against an oracle of the text form
        written = [t for part in doc["decomposition"]["parts"] for t in part["points"]]
        assert sorted(written) == sorted(_old_text(x) for x in elements)


def _old_text(x):
    """GroupElement.text() as it was written before it shared its code with the keys."""
    p = x.params.p
    if x.params.mode == CARRY:
        return str(x.num * p ** -x.vexp) if x.vexp <= 0 else f"{x.num}/{p}^{x.vexp}"
    digits = []
    num = x.num
    while num:
        num, d = divmod(num, p)
        digits.append(d)
    return f"[{-x.vexp}]" + ("" if p <= 10 else ",").join(map(str, digits or [0]))


@pytest.mark.parametrize("p,mode", [(2, CARRY), (2, MODULAR), (3, CARRY), (3, MODULAR),
                                    (5, CARRY), (5, MODULAR)])
@pytest.mark.parametrize("kind", ["explicit", "sections", "union"])
def test_frame_of_parsed_keys_matches_the_element_path(tmp_path, capsys, monkeypatch, p, mode,
                                                       kind):
    m = k = 1 if p == 5 else 2
    texts = [t for t in _texts(p, mode, 1) if parse_element(GroupParams(p, mode), t).vexp <= 1]
    explicit = {"ambient": "phase", "type": "explicit",
                "points": [[a, b] for a in texts for b in texts[:4]]}
    sections = {"ambient": "phase", "type": "product-sections",
                "x": {"outer": m, "inner": -k}, "xi": {"outer": k - 1, "inner": -m}}
    lam_doc = {"explicit": explicit, "sections": sections,
               "union": {"type": "union", "parts": [sections, explicit]}}[kind]
    doc = {"group": {"p": p, "mode": mode}, "model": {"m": m, "k": k},
           "window": {"type": "indicator", "set_scale": -1}, "lambda": lam_doc}
    cfg = write_config(tmp_path, "c.json", doc)
    assert main(["frame", "--config", cfg]) == 0
    keyed = capsys.readouterr().out
    monkeypatch.setattr(cli, "_parse_points", _element_lambda)
    assert main(["frame", "--config", cfg]) == 0
    assert keyed == capsys.readouterr().out


def _explicit(command, p, mode, points, ambient="group", **keys):
    lam = {"ambient": ambient, "type": "explicit", "points": points}
    if command == "density":
        return {"group": {"p": p, "mode": mode}, "lambda": lam,
                "task": {"region": keys.get("region", 3)}}
    return {"group": {"p": p, "mode": mode}, "model": {"m": keys["m"], "k": keys["k"]},
            "window": {"type": "indicator"}, "lambda": lam}


EMBED = "embed into a space of larger extent (translation) or resolution (modulation)"
# (command, config, stderr): the messages the GroupElement path gave, kept by the keys
BAD_POINTS = {
    "bad-base": ("density", _explicit("density", 2, CARRY, ["1/3^2"]),
                 "denominator base 3 != p = 2"),
    "negative-exponent": ("density", _explicit("density", 2, CARRY, ["1/2^-3"]),
                          "carry exponent in '1/2^-3' must be >= 0 (num/p^vexp)"),
    "digit-out-of-range": ("density", _explicit("density", 2, MODULAR, ["[-2]102"]),
                           "digits of '[-2]102' must lie in 0..1"),
    "digit-out-of-range-p11": ("density", _explicit("density", 11, MODULAR, ["[0]3,11"]),
                               "digits of '[0]3,11' must lie in 0..10"),
    "valuation-carry": ("density", _explicit("density", 2, CARRY, ["0", "1/2^65"], region=64),
                        "lambda point '1/2^65' has valuation -65 outside [-64, 64]"),
    "valuation-modular": ("density", _explicit("density", 3, MODULAR, ["[65]1"]),
                          "lambda point '[65]1' has valuation 65 outside [-64, 64]"),
    "valuation-phase": ("density", _explicit("density", 2, CARRY, [["0", "2"], ["0", "1/2^70"]],
                                             "phase"),
                        "lambda point '1/2^70' has valuation -70 outside [-64, 64]"),
    "outside-region-carry": ("density", _explicit("density", 3, CARRY, ["5", "6/3^8", "1/3^4"]),
                             "point 2/3^7 lies outside the region A^3H"),
    "outside-region-modular": ("density",
                               _explicit("density", 2, MODULAR, ["[0]1", "[-3]0010", "[-5]1"],
                                         region=1),
                               "point [-5]1 lies outside the region A^1H"),
    "outside-region-phase": ("density", _explicit("density", 5, CARRY, [["1/5", "0"],
                                                                      ["3", "1/5^2"]],
                                                  "phase", region=1),
                             "point (3, 1/5^2) lies outside the region A^1H"),
    "outside-region-union": ("density", {**DENSITY_SECTION, "lambda": {"type": "union", "parts": [
        DENSITY_SECTION["lambda"], {"ambient": "group", "type": "explicit", "points": ["1/2^4"]}]}},
        "point 1/2^4 lies outside the region A^3H"),
    "outside-model-x": ("frame", _explicit("frame", 2, CARRY, [["1/2", "0"], ["1/2^2", "0"]],
                                           "phase", m=1, k=1),
                        f"1/2^2 lies outside A^1H (valuation -2 < -1); {EMBED}"),
    "outside-model-xi": ("frame", _explicit("frame", 3, MODULAR, [["[0]1", "[-1]2"],
                                                                  ["[0]1", "[-2]1"]],
                                            "phase", m=1, k=1),
                         f"[-2]1 lies outside A^1H (valuation -2 < -1); {EMBED}"),
    "outside-model-p5": ("frame", _explicit("frame", 5, CARRY, [["0", "0"], ["7/5^3", "1"]],
                                            "phase", m=2, k=0),
                         f"7/5^3 lies outside A^2H (valuation -3 < -2); {EMBED}"),
    # the lambda's texts are read in one batch, and the first bad text names the error whatever
    # its kind: a valuation past MAX_SCALE, a text that does not parse, a non-string entry, or a
    # phase entry that is not a pair
    "first-bad-valuation-then-base": ("density", _explicit("density", 2, CARRY,
                                                           ["0", "1/2^65", "1/3^2"]),
                                      "lambda point '1/2^65' has valuation -65 outside [-64, 64]"),
    "first-bad-base-then-valuation": ("density", _explicit("density", 2, CARRY,
                                                           ["0", "1/3^2", "1/2^65"]),
                                      "denominator base 3 != p = 2"),
    "first-bad-valuation-then-digit": ("density", _explicit("density", 2, MODULAR,
                                                            ["[0]1", "[65]1", "[0]2"]),
                                       "lambda point '[65]1' has valuation 65 outside [-64, 64]"),
    "first-bad-digit-then-valuation": ("density", _explicit("density", 2, MODULAR,
                                                            ["[0]1", "[0]2", "[65]1"]),
                                       "digits of '[0]2' must lie in 0..1"),
    "first-bad-phase-valuation-then-base": (
        "density", _explicit("density", 3, CARRY, [["1/3", "1/3^66"], ["1/2", "0"]], "phase"),
        "lambda point '1/3^66' has valuation -66 outside [-64, 64]"),
    "first-bad-phase-base-then-valuation": (
        "density", _explicit("density", 3, CARRY, [["1/2", "0"], ["1/3", "1/3^66"]], "phase"),
        "denominator base 2 != p = 3"),
    "first-bad-phase-valuation-then-shape": (
        "density", _explicit("density", 5, MODULAR, [["[0]1", "[-70]1"], ["[0]1"]], "phase"),
        "lambda point '[-70]1' has valuation -70 outside [-64, 64]"),
    "first-bad-phase-shape-then-digit": (
        "density", _explicit("density", 5, MODULAR, [["[0]1", "[0]4"], "[0]1", ["[0]9", "0"]],
                             "phase"),
        "a phase lambda point must be a pair [x, xi], got '[0]1'"),
    "first-bad-phase-digit-then-valuation": (
        "frame", _explicit("frame", 5, MODULAR, [["[0]1", "[0]7"], ["[90]1", "[0]1"]], "phase",
                           m=1, k=0),
        "digits of '[0]7' must lie in 0..4"),
    "first-bad-then-non-string": ("density", _explicit("density", 2, CARRY, ["1/2^65", 5]),
                                  "lambda point '1/2^65' has valuation -65 outside [-64, 64]"),
    "first-bad-text-then-non-string": ("density", _explicit("density", 7, MODULAR,
                                                            ["[0]16", "[0]7", 5]),
                                       "digits of '[0]7' must lie in 0..6"),
    "non-string-then-bad": ("density", _explicit("density", 2, CARRY, ["1", 5, "1/3"]),
                            "element text must be a string, got 5"),
}


@pytest.mark.parametrize("case", list(BAD_POINTS))
def test_bad_points_keep_their_exit_code_and_message(tmp_path, capsys, case):
    command, doc, message = BAD_POINTS[case]
    cfg = write_config(tmp_path, "c.json", doc)
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n" and captured.out == ""
