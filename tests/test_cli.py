"""Command-line behavior: outputs, determinism, and exit codes."""

import json
import math

import pytest

from padicgabor.cli import main


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
        {"n_range": [0, 3]},
        [],
    ],
    ids=[
        "power-zero", "power-negative", "power-string", "region-string", "region-bool",
        "separation-above-region", "finite-above-region", "finite-float",
        "n-range-above-region", "n-range-reversed", "n-range-string", "checks-string",
        "region-missing", "task-not-object",
    ],
)
def test_density_bad_task_exits_2(tmp_path, capsys, task):
    cfg = write_config(tmp_path, "d.json", {**DENSITY_SECTION, "task": task})
    assert main(["density", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


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


def test_overflowing_result_exits_2(tmp_path, capsys):
    # finite inputs whose squared norm overflows: refused rather than emitted as Infinity
    doc = {**COEFFS_PAIR, "function": {"type": "coeffs", "values": [[1e200, 0]] * 4}}
    cfg = write_config(tmp_path, "c.json", doc)
    assert main(["norms", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: result is not finite")
    assert captured.out == ""
