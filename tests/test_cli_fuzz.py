"""Config fuzzer: every config a subcommand reads exits 0, 1 or 2, never a traceback.

Configs are drawn from each subcommand's keys, with plausible values most of
the time and, now and then, huge integers, values of the wrong JSON type,
missing keys and nested unions.  The draws are derandomized, so a failure
reproduces on every run.
"""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padicgabor import linalg
from padicgabor.cli import main
from padicgabor.localfield import MAX_BODY_DIGITS

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=400,
                suppress_health_check=[HealthCheck.too_slow])

HUGE = st.sampled_from([-65, 64, 65, 2**20, 2**23, -(10**12), 10**12, 2**64, 10**400])
WRONG = st.sampled_from(["2", True, False, None, 1.5, [], {}, [1, 2], {"a": 1}])
BAD = st.one_of(HUGE, WRONG)


def value(good):
    """Mostly a plausible value, sometimes a huge or mistyped one."""
    return st.integers(0, 9).flatmap(lambda r: good if r < 9 else BAD)


SCALE = value(st.integers(-1, 3))
ELEMENT = value(st.sampled_from([
    "0", "1", "3/2^2", "1/2", "5/3^1", "2/3^2", "-1/2^1", "[0]1", "[-1]12", "[-2]102",
    "[1]11", "1/2^-3", "1/2^65", "[100000000000]1", "[-65]1", "x", "",
    "[0]10,3", "[-1]1,0,10", "[0]" + "1" * MAX_BODY_DIGITS, "[0]" + "1" * (MAX_BODY_DIGITS + 1),
    "[-64]" + "1" * 5000, "1" * 4000,
]))
GROUP = st.fixed_dictionaries(
    {"p": value(st.sampled_from([2, 3, 11]))},
    optional={"mode": value(st.sampled_from(["carry", "modular"]))},
)


def _scales(group):
    """(m, k) in [0, 2]^2 with p**(m+k) <= 81 at the drawn prime, so grids and frames stay small."""
    width = 4 if group["p"] in (2, 3) else 1
    return st.integers(0, min(2, width)).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(0, min(2, width - m))))


def _model(group):
    return _scales(group).flatmap(lambda mk: st.fixed_dictionaries(
        {"m": value(st.just(mk[0])), "k": value(st.just(mk[1]))}))


PAIR = st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(-3, 3),
                          HUGE), min_size=2, max_size=2)
FUNCTION = st.one_of(
    st.fixed_dictionaries(
        {"type": value(st.sampled_from(["indicator", "scaled-indicator"]))},
        optional={"set_scale": SCALE, "shift": ELEMENT},
    ),
    st.fixed_dictionaries({"type": st.just("coeffs"), "values": value(st.sampled_from(
        [1, 2, 3, 4, 9, 16]).flatmap(lambda n: st.lists(PAIR, min_size=n, max_size=n)))}),
)
SECTION = st.fixed_dictionaries({"outer": SCALE, "inner": SCALE})


def _explicit(ambient):
    point = ELEMENT if ambient == "group" else st.lists(ELEMENT, min_size=2, max_size=2)
    return st.fixed_dictionaries({"type": st.just("explicit"), "ambient": st.just(ambient),
                                  "points": value(st.lists(point, max_size=6))})


LEAF = st.one_of(
    st.sampled_from(["group", "phase"]).flatmap(_explicit),
    st.fixed_dictionaries(
        {"type": st.just("product-sections"), "x": value(SECTION)},
        optional={"ambient": value(st.sampled_from(["group", "phase"])), "xi": value(SECTION)},
    ),
)
LAMBDA = st.recursive(
    LEAF,
    lambda parts: st.fixed_dictionaries({"type": st.just("union"),
                                         "parts": value(st.lists(parts, max_size=3))}),
    max_leaves=6,
)
DENSITY_TASK = st.fixed_dictionaries(
    {"region": SCALE},
    optional={
        "n_range": value(st.lists(SCALE, min_size=2, max_size=2)),
        "checks": value(st.lists(st.sampled_from(["separation", "finite", "automorphism"]),
                                 unique=True)),
        "separation_scale": SCALE,
        "finite_scale": SCALE,
        "automorphism_power": value(st.integers(1, 3)),
    },
)


def _fitted_frame(group):
    """A frame config whose lattice lies inside its model, so that most draws run."""
    def section(top):
        return st.integers(-1, top).flatmap(lambda outer: st.fixed_dictionaries(
            {"outer": st.just(outer), "inner": st.integers(outer - 2, outer)}))

    def config(mk):
        m, k = mk
        lam = st.fixed_dictionaries({"type": st.just("product-sections"),
                                     "ambient": st.just("phase"), "x": section(m),
                                     "xi": section(k)})
        return st.fixed_dictionaries({"group": st.just(group),
                                      "model": value(st.just({"m": m, "k": k})),
                                      "window": FUNCTION, "lambda": st.one_of(lam, lam, LAMBDA)})

    return _scales(group).flatmap(config)


def _fitted_density(group):
    """A density config whose lambda, scales and power fit its region, so that most draws run."""
    p = group["p"] if group["p"] in (2, 3, 11) else 2  # with a bad p the texts never matter
    modular = group.get("mode") == "modular"
    width = 1 if p == 11 else 3  # section digits per axis: at most 729 phase points

    def text(lo, digits, sign):
        if modular:
            return f"[{lo}]" + ",".join(map(str, digits))
        num = sign * sum(d * p**j for j, d in enumerate(digits))
        return f"{num}/{p}^{-lo}" if lo < 0 else str(num * p**lo)

    def lam(region, ambient):
        # digits start at exponent lo >= -region, so every point lies in A^region H
        element = st.builds(text, st.integers(-region, 2 - region),
                            st.lists(st.integers(0, p - 1), min_size=1, max_size=4),
                            st.sampled_from([1, -1]))
        point = element if ambient == "group" else st.lists(element, min_size=2, max_size=2)
        section = st.integers(region - 2, region).flatmap(lambda outer: st.fixed_dictionaries(
            {"outer": st.just(outer), "inner": st.integers(outer - width, outer)}))
        axes = {"x": section, "xi": section} if ambient == "phase" else {"x": section}
        leaf = st.one_of(
            st.fixed_dictionaries({"type": st.just("explicit"), "ambient": st.just(ambient),
                                   "points": st.lists(point, max_size=8)}),
            st.fixed_dictionaries({"type": st.just("product-sections"),
                                   "ambient": st.just(ambient), **axes}),
        )
        return st.one_of(leaf, leaf, st.fixed_dictionaries(
            {"type": st.just("union"), "parts": st.lists(leaf, min_size=1, max_size=3)}))

    def config(region):
        scale = st.integers(region - 3, region)
        task = st.fixed_dictionaries({"region": st.just(region)}, optional={
            "n_range": scale.flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, region))),
            "checks": st.lists(st.sampled_from(["separation", "finite", "automorphism"]),
                               unique=True),
            "separation_scale": scale,
            "finite_scale": scale,
            "automorphism_power": st.integers(1, 3),
        })
        ambient = st.sampled_from(["group", "phase"])
        return st.fixed_dictionaries({"group": st.just(group), "task": task,
                                      "lambda": ambient.flatmap(lambda a: lam(region, a))})

    return st.integers(-1, 3).flatmap(config)


NORMS_TASK = st.fixed_dictionaries(
    {}, optional={"p_exp": value(st.sampled_from([1, 2, 3.5, "inf", 0.5]))})

CONFIGS = {
    "density": st.one_of(
        GROUP.flatmap(_fitted_density),
        st.fixed_dictionaries({"group": GROUP, "lambda": LAMBDA, "task": DENSITY_TASK}),
    ),
    "frame": GROUP.flatmap(_fitted_frame),
    "stft": GROUP.flatmap(lambda g: st.fixed_dictionaries(
        {"group": st.just(g), "model": _model(g), "window": FUNCTION},
        optional={"function": FUNCTION})),
    "norms": GROUP.flatmap(lambda g: st.fixed_dictionaries(
        {"group": st.just(g), "model": _model(g), "window": FUNCTION},
        optional={"function": FUNCTION, "task": NORMS_TASK})),
}


def _drop_one(doc: dict, data) -> dict:
    """Now and then delete one top-level key, so missing keys are drawn too.

    The key is picked by a hash of the drawn doc rather than drawn: Hypothesis
    favours index 0 of any choice, which made most drops the same key.
    """
    if data.draw(st.integers(0, 4)):
        return doc
    key = sorted(doc)[zlib.crc32(json.dumps(doc, sort_keys=True).encode()) % len(doc)]
    return {k: v for k, v in doc.items() if k != key}


def _run(command: str, text: str) -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.json"
        cfg.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg)])
    return code, out.getvalue(), err.getvalue()


def _check(command: str, text: str) -> None:
    code, out, err = _run(command, text)
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)
    else:
        assert out == ""


@FUZZ
@given(command=st.sampled_from(sorted(CONFIGS)), data=st.data())
def test_fuzzed_configs_keep_the_exit_contract(command, data):
    doc = _drop_one(data.draw(CONFIGS[command]), data)
    _check(command, json.dumps(doc))


@FUZZ
@given(command=st.sampled_from(sorted(CONFIGS)), depth=st.integers(1, 1200))
def test_nested_unions_keep_the_exit_contract(command, depth):
    leaf = '{"ambient": "group", "type": "explicit", "points": ["1/2"]}'
    lam = '{"type": "union", "parts": [' * depth + leaf + "]}" * depth
    text = ('{"group": {"p": 2}, "model": {"m": 1, "k": 1}, "window": {"type": "indicator"}, '
            f'"task": {{"region": 1}}, "lambda": {lam}}}')
    _check(command, text)


# Output that cannot be written: a full disk exits 2 with one stderr line, a reader that
# closes the pipe ends the command quietly with exit 2; neither prints a traceback.

README_CONFIG = {
    "group": {"p": 2, "mode": "carry"},
    "model": {"m": 1, "k": 1},
    "window": {"type": "scaled-indicator", "set_scale": -1},
    "lambda": {"ambient": "phase", "type": "product-sections",
               "x": {"outer": 1, "inner": -1}, "xi": {"outer": 1, "inner": -1}},
    "task": {"region": 1, "n_range": [-1, 1], "p_exp": 2},
}
# stdout buffered, as by default: a small result then fails at the flush, not at its write
ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
       "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def _cli(argv, **kwargs) -> subprocess.CompletedProcess:
    """A padicgabor process run on argv; its stderr is captured as text."""
    return subprocess.run([sys.executable, "-m", "padicgabor.cli", *argv], stderr=subprocess.PIPE,
                          env=ENV, text=True, timeout=120, **kwargs)


def _argv(command: str, tmp_path: Path) -> list[str]:
    if command == "verify":
        return ["verify", "--sizes", "small"]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(README_CONFIG))
    return [command, "--config", str(cfg)]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("target", ["--out", "stdout"])
@pytest.mark.parametrize("command", ["density", "frame", "stft", "norms", "verify"])
def test_a_full_disk_exits_2_with_one_line(command, target, tmp_path):
    argv = _argv(command, tmp_path)
    if target == "--out":
        proc = _cli(argv + ["--out", "/dev/full"], stdout=subprocess.DEVNULL)
    else:
        with open("/dev/full", "w") as full:
            proc = _cli(argv, stdout=full)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("output error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.skipif(not hasattr(os, "fork"), reason="closes stdout in the child")
@pytest.mark.parametrize("target", ["--out", "stdout"])
@pytest.mark.parametrize("command", ["density", "frame", "stft", "norms", "verify"])
def test_a_closed_stdout_exits_2_with_one_line(command, target, tmp_path):
    # started with stdout closed (>&-), Python's sys.stdout is None; a result for --out needs
    # no stdout, but verify prints its report lines there either way
    argv = _argv(command, tmp_path)
    out = tmp_path / "result.json"
    if target == "--out":
        argv += ["--out", str(out)]
    proc = _cli(argv, preexec_fn=lambda: os.close(1))
    if target == "--out" and command != "verify":
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(out.read_text())
        return
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("output error: ") and proc.stderr.count("\n") == 1, proc.stderr


# the failure that exits 1 only under a patch: a density that breaks, which verify uses too
BROKEN_DENSITY = ("from padicgabor import density\n"
                  "def broken(*args):\n"
                  "    raise density.InvariantViolation('broken')\n"
                  "density.density_profile = broken\n")
# a frame whose operator is not diagonal, so its spectrum takes the tridiagonal and the Sturm
# count; the console-script step of the CI runs it too
TRIDIAGONAL_FRAME = {
    **README_CONFIG,
    "window": {"type": "coeffs", "values": [[1, 0], [0.5, 0.25], [0, 1], [-0.5, 0]]},
    "lambda": {"ambient": "phase", "type": "explicit",
               "points": [["0", "0"], ["1/2", "1/2"], ["1", "0"], ["3/2", "1"]]}}
# (command, failure): the exit code; every numeric command but verify reads a window
CLOSED_STDERR = {
    **{(command, "config"): 2 for command in ("density", "frame", "stft", "norms", "verify")},
    **{(command, "output"): 2 for command in ("density", "frame", "stft", "norms", "verify")},
    **{(command, "not-finite"): 2 for command in ("frame", "stft", "norms")},
    **{(command, "failed-check"): 1 for command in ("density", "verify")},
}


def test_only_the_tridiagonal_frame_takes_the_tridiagonal(tmp_path, capsys, monkeypatch):
    # the README lattice's S is diagonal, so its frame run never reaches the Sturm count
    sizes = []
    tridiagonal = linalg._tridiagonal
    monkeypatch.setattr(linalg, "_tridiagonal", lambda a: sizes.append(len(a)) or tridiagonal(a))
    for doc, reduced in ((README_CONFIG, []), (TRIDIAGONAL_FRAME, [4])):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(["frame", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert sizes == reduced and report["rank"] == report["dim"] == 4
        del sizes[:]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="closes stderr in the child")
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command,failure", list(CLOSED_STDERR))
def test_a_closed_stderr_keeps_the_exit_code(command, failure, tmp_path):
    # started with stderr closed (2>&-), Python's sys.stderr is None, or a stream whose writes
    # fail: the error has no line to print but keeps its exit code
    argv, patch = _argv(command, tmp_path), ""
    cfg = tmp_path / "c.json"
    if failure == "config":
        argv = (["verify", "--p", "7"] if command == "verify" else
                [command, "--config", str(tmp_path / "missing.json")])
    elif failure == "output":
        argv += ["--out", "/dev/full"]
    elif failure == "not-finite":
        cfg.write_text(json.dumps({**README_CONFIG, "window": {
            "type": "coeffs", "values": [[1e200, 0], [0, 1e200], [1e200, 1e200], [1, 0]]}}))
    else:
        patch = BROKEN_DENSITY
    script = f"import sys\n{patch}from padicgabor.cli import main\nsys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=ENV, timeout=120,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          preexec_fn=lambda: os.close(2))
    assert (proc.returncode, proc.stderr) == (CLOSED_STDERR[command, failure], "")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="sets a file size limit in the child")
def test_a_write_that_fails_midway_exits_2_with_one_line(tmp_path):
    # a 16 KiB file size limit stops the dim-64 grid's --out text (about 145 kB) after some
    # chunks have gone out to the temporary file, which is removed: no target, partial or not
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_FSIZE, (16384, resource.RLIM_INFINITY))

    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**README_CONFIG, "model": {"m": 3, "k": 3}}))
    out = tmp_path / "grid.json"
    proc = _cli(["stft", "--config", str(cfg), "--out", str(out)], stdout=subprocess.PIPE,
                preexec_fn=limit)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("output error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert [path.name for path in tmp_path.iterdir()] == ["c.json"]


def _filling(n, writes):
    """os.fdopen whose files record each write's length in writes and raise ENOSPC at the n-th,
    as a disk that fills up (never for n = 0)."""
    fdopen = os.fdopen

    def opened(*args, **kwargs):
        fh = fdopen(*args, **kwargs)
        write = fh.write

        def filling(text):
            writes.append(len(text))
            if len(writes) == n:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write(text)

        fh.write = filling
        return fh

    return opened


@pytest.mark.parametrize("command", ["density", "frame", "stft", "norms", "verify"])
def test_a_disk_that_fills_at_any_write_leaves_the_target_whole(command, tmp_path, monkeypatch,
                                                                   capsys):
    # --out goes to a temporary file beside the target; whichever write fails, the target
    # keeps its bytes and the temporary file is removed
    out = tmp_path / "result.json"
    argv = _argv(command, tmp_path) + ["--out", str(out)]
    out.write_text("kept\n")
    names = sorted(path.name for path in tmp_path.iterdir())
    writes = []
    monkeypatch.setattr(os, "fdopen", _filling(0, writes))
    assert main(argv) == 0 and json.loads(out.read_text())
    capsys.readouterr()
    for n in sorted({1, (len(writes) + 1) // 2, len(writes)}):
        out.write_text("kept\n")
        monkeypatch.setattr(os, "fdopen", _filling(n, []))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"output error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        assert out.read_text() == "kept\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == names


def test_a_reader_that_leaves_early_ends_the_command_quietly(tmp_path):
    # a dim-128 grid's text (about 600 kB) outgrows the pipe's buffer, so writes fail after
    # the reader has gone
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**README_CONFIG, "model": {"m": 4, "k": 3}}))
    proc = subprocess.Popen([sys.executable, "-m", "padicgabor.cli", "stft", "--config", str(cfg)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (2, b"")
