"""Config fuzzer: every config a subcommand reads exits 0, 1 or 2, never a traceback.

Configs are drawn from each subcommand's keys, with plausible values most of
the time and, now and then, huge integers, values of the wrong JSON type,
missing keys and nested unions.  The draws are derandomized, so a failure
reproduces on every run.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    """Now and then delete one top-level key, so missing keys are drawn too."""
    if data.draw(st.integers(0, 4)):
        return doc
    key = data.draw(st.sampled_from(sorted(doc)))
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


# a window of huge finite coeffs overflows the frame operator, which then exits 2
@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply:RuntimeWarning")
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
