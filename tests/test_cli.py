"""Command-line behavior: outputs, determinism, and exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from padicgabor import cli, gabor
from padicgabor.cli import main
from padicgabor.linalg import ConvergenceError
from padicgabor.localfield import CARRY, MAX_BODY_DIGITS, MODULAR, GroupParams
from padicgabor.model import ModelFunction, ModelSpace, StftGrid, stft
from padicgabor.rng import SplitMix64

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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
    assert doc["sweeps"] == 0  # the frame operator is already diagonal


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


def test_output_deterministic(tmp_path):
    cfg = write_config(tmp_path, "f.json", FRAME_TIGHT)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["frame", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["frame", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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
        doc = stft(f, g).to_json_dict()
        assert cli._dumps(doc) == _stdlib_dumps(doc)
    edges = [complex(re, im) for re in EDGE_FLOATS for im in EDGE_FLOATS]
    doc = _grid_doc(params, 0, 4, np.resize(edges, (p**4, p**4)))  # every pair of edges
    assert cli._dumps(doc) == _stdlib_dumps(doc)


def test_emitted_arrays_inside_a_document_match_the_stdlib_encoder():
    # arrays that are not the last key, nested at several indents, and empty
    doc = {"a": np.array([1 + 2j, complex(-0.0, -0.0)]), "b": [1.5, {"c": np.array([5e-324j])}],
           "d": np.zeros(0, dtype=complex), "z": {"y": [np.array([1e16 + 1e-5j]), "x"]}}
    assert cli._dumps(doc) == _stdlib_dumps(doc)
    assert cli._dumps(np.array([3j])) == _stdlib_dumps(np.array([3j]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("part", ["re", "im"])
def test_non_finite_grid_is_refused(bad, part):
    values = np.ones((2, 2), dtype=complex)
    values[1, 0] = complex(bad, 0) if part == "re" else complex(0, bad)
    with pytest.raises(cli.ConfigError, match=r"^result is not finite \(.*the inputs are too large$"):
        cli._dumps(_grid_doc(GroupParams(2, CARRY), 1, 0, values))


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
    ],
    ids=[
        "point-texts-int", "point-xi-int", "shift-int", "set-scale-bool", "parts-int",
        "part-int", "parts-mixed-ambient", "lambda-int", "model-m-bool", "model-k-bool", "section-outer-bool",
    ],
)
def test_frame_bad_config_exits_2(tmp_path, capsys, doc):
    cfg = write_config(tmp_path, "f.json", doc)
    assert main(["frame", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_eigensolver_failure_exits_1(tmp_path, capsys, monkeypatch):
    def no_convergence(matrix):
        raise ConvergenceError(60, 1.0, 1e-29)

    monkeypatch.setattr(gabor, "hermitian_eigs", no_convergence)
    cfg = write_config(tmp_path, "f.json", FRAME_TIGHT)
    assert main(["frame", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("eigensolver failed: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_frame_dim_at_the_cap_is_accepted(tmp_path, capsys, monkeypatch):
    # dim 256 = MAX_FRAME_DIM reaches the eigensolver; the stub stands in for its sweeps
    dims = []

    def diagonal(matrix):
        dims.append(matrix.dim)
        return np.sort(np.diag(matrix.entries).real), 0.0, 0, np.eye(matrix.dim)

    monkeypatch.setattr(gabor, "hermitian_eigs", diagonal)
    side = {"outer": 4, "inner": 0}
    doc = {**FRAME_ONB, "model": {"m": 4, "k": 4},
           "lambda": {"ambient": "phase", "type": "product-sections", "x": side, "xi": side}}
    cfg = write_config(tmp_path, "f.json", doc)
    assert main(["frame", "--config", cfg]) == 0
    assert dims == [cli.MAX_FRAME_DIM]
    report = json.loads(capsys.readouterr().out)
    assert report["dim"] == report["count"] == cli.MAX_FRAME_DIM


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
    # dim^2 fits MAX_ENTRIES, but the frame's Jacobi would run for minutes
    "frame-dim-1331": ("frame", {**FRAME_ONB, "group": {"p": 11}, "model": {"m": 2, "k": 1}}),
    "frame-dim-512": ("frame", {**FRAME_ONB, "model": {"m": 5, "k": 4}}),
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
    def enumerated(*args):
        raise AssertionError("a section was enumerated before the bounds were checked")

    monkeypatch.setattr(cli, "section", enumerated)
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
    # a run that fails after --out was opened leaves the file empty
    out = tmp_path / "o.json"
    bad = write_config(tmp_path, "bad.json", _task(region=cli.MAX_SCALE + 1))
    assert main(["density", "--config", bad, "--out", str(out)]) == 2
    assert out.read_text() == ""


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
}


@pytest.mark.parametrize("case", list(PINNED_DENSITY))
def test_density_output_bytes_are_pinned(tmp_path, capsys, case):
    doc, *digests = PINNED_DENSITY[case]
    cfg = write_config(tmp_path, "c.json", doc)
    for flag, digest in zip(("--json", "--table"), digests):
        assert main(["density", "--config", cfg, flag]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
