"""Config parsing, state persistence, CLI exit codes, export round-trips."""

import contextlib
import copy
from fractions import Fraction
import io
import json
import math
import os
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from aknsd import cli, scalars, verify
from aknsd.config import parse_config
from aknsd.dynamics import FlowIndex, integrate, rk4_evolve
from aknsd.errors import ConfigError, SchemaError
from aknsd.hierarchy import HierarchyState, dressing_residual, flow_field
from aknsd.instances import DESK_WINDOW, desk_data, impulse_potential, random_potential
from aknsd.lattice import LatticeFn, Window
from aknsd.matrices import SmallMatrix
from aknsd.persist import (
    load_state,
    read_trajectory_csv,
    save_state,
    state_from_json,
    state_to_json,
    export_trajectory_csv,
)
from aknsd.verify import config_hash, run_verify_suite
from helpers import run_cli

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

MINIMAL = """
{
  "m": 2,
  "a": ["1", "-1"],
  "window": {"n_min": -4, "n_max": 4, "halo": 6},
  "depth": 4,
  "seed": 7
}
"""


def test_minimal_config_parses():
    config = parse_config(MINIMAL)
    assert config.m == 2
    assert config.mode == scalars.RATIONAL
    assert config.depth == 4


def test_repeated_a_rejected():
    bad = MINIMAL.replace('["1", "-1"]', '["1", "1"]')
    with pytest.raises(ConfigError, match="distinct"):
        parse_config(bad)


def test_zero_a_rejected():
    bad = MINIMAL.replace('["1", "-1"]', '["0", "1"]')
    with pytest.raises(ConfigError, match="nonzero"):
        parse_config(bad)


def test_unknown_key_rejected_by_name():
    doc = json.loads(MINIMAL)
    doc["foo"] = 1
    with pytest.raises(ConfigError, match="foo"):
        parse_config(json.dumps(doc))


def test_diagonal_potential_rejected():
    doc = json.loads(MINIMAL)
    doc["potential"] = {"type": "explicit",
                        "sites": {"0": [["1", "0"], ["0", "0"]]}}
    with pytest.raises(ConfigError, match="diagonal"):
        parse_config(json.dumps(doc))


def test_all_violations_listed_together():
    doc = json.loads(MINIMAL)
    doc["a"] = ["1", "1"]
    doc["depth"] = 99
    doc["bar"] = 2
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    text = str(err.value)
    assert "distinct" in text and "halo" in text and "bar" in text


@pytest.mark.parametrize("potential", [
    {"type": "impulse", "value": "abc"},
    {"type": "impulse", "i": "x"},
    {"type": "random", "amplitude": "abc"},
    {"type": "random", "span": "x"},
    {"type": "random", "density": "x"},
    {"type": "explicit", "sites": []},
    {"type": "explicit", "sites": {"abc": [["0", "1"], ["0", "0"]]}},
    {"type": "explicit", "sites": {"1_0": [["0", "1"], ["0", "0"]]}},
    {"type": "impulse", "site": 100},
    {"type": "impulse", "i": 5},
    {"type": "explicit", "sites": {"100": [["0", "1"], ["0", "0"]]}},
])
def test_cli_rejects_bad_potential(tmp_path, capsys, potential):
    doc = json.loads((CONFIGS / "desk_m2.json").read_text())
    doc["potential"] = potential
    config = tmp_path / "c.json"
    config.write_text(json.dumps(doc))
    for mode in scalars.MODES:
        assert cli.main(["dress", "--config", str(config), "--mode", mode]) == 2
        assert capsys.readouterr().err.startswith("error: invalid configuration")


def test_potential_rationals_read_alike_in_both_modes(tmp_path):
    # "1/3" is a rational in either mode: the float potential is the
    # rational one rounded, not a parse failure
    doc = json.loads((CONFIGS / "desk_m2.json").read_text())
    doc["potential"] = {"type": "random", "amplitude": "1/3"}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    for mode in scalars.MODES:
        assert cli.main(["dress", "--config", str(path), "--mode", mode]) == 0
    config = parse_config(path.read_text())
    exact = config.build_potential(scalars.RATIONAL)
    rounded = config.build_potential(scalars.FLOAT)
    assert any(not exact.at(n).is_zero() for n in exact.sites())
    assert all(abs(float(exact.at(n).get(i, j)) - rounded.at(n).get(i, j)) <= 1e-15
               for n in exact.sites() for i in (1, 2) for j in (1, 2))


# values a mutated config may hold: wrong types, unparsable text, out-of-range
# numbers (bounded, so no window grows past a few hundred sites)
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-40, 120),
    st.floats(-50, 50) | st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from(["", "abc", "x", "1/3", "-3/2", "1/0", "1e400", "0.5"]),
    st.lists(st.integers(-3, 3), max_size=3),
)
_SITES = st.dictionaries(st.sampled_from(["0", "3", "-18", "19", "100", "abc"]),
                         st.lists(st.lists(_JUNK, max_size=3), max_size=3) | _JUNK,
                         max_size=2)
# a valid potential of each type, with every key that type reads
_BASE_POTENTIALS = {
    "vacuum": {},
    "impulse": {"site": 0, "i": 1, "j": 2, "value": "1"},
    "random": {"span": 3, "density": 0.5, "amplitude": "1/10", "triangular": False},
    "explicit": {},  # "sites" holds one m x m matrix, set per config
}


@st.composite
def mutated_desk_config(draw):
    """A desk config of some potential type, with keys dropped and values retyped."""
    name = draw(st.sampled_from(["desk_m2.json", "desk_m3.json"]))
    doc = json.loads((CONFIGS / name).read_text())
    kind = draw(st.sampled_from(sorted(_BASE_POTENTIALS)))
    doc["potential"] = {"type": kind, **copy.deepcopy(_BASE_POTENTIALS[kind])}
    if kind == "explicit":
        m = doc["m"]
        doc["potential"]["sites"] = {"1": [["1/2" if (i, j) == (0, 1) else "0"
                                            for j in range(m)] for i in range(m)]}
    keys = {"window": ["n_min", "n_max", "halo"],
            "potential": sorted(doc["potential"]) + (["entry"] if kind == "explicit" else [])}
    for _ in range(draw(st.integers(1, 3))):
        where = draw(st.sampled_from(["top", "window", "potential", "potential",
                                      "potential"]))
        target = doc.get(where)
        if not isinstance(target, dict):  # "top", or a section already retyped
            target, where = doc, "top"
        key = draw(st.sampled_from(keys.get(where, sorted(doc))))
        if key == "entry":  # one entry, or one row, of the explicit matrix
            sites = target.get("sites")
            rows = sites.get("1") if isinstance(sites, dict) else None
            if isinstance(rows, list) and rows and all(isinstance(r, list) for r in rows):
                i = draw(st.integers(0, len(rows) - 1))
                if draw(st.booleans()):
                    rows[i] = draw(_JUNK)
                elif rows[i]:
                    rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(_JUNK)
        elif draw(st.booleans()):
            target.pop(key, None)
        elif key == "type":
            target[key] = draw(st.sampled_from(sorted(_BASE_POTENTIALS)) | _JUNK)
        else:
            target[key] = draw(_SITES | _JUNK if key == "sites" else _JUNK)
    return doc


# one bad value each, on desk_m2: (key, value, a command that used to take it)
_BAD_VALUES = [
    ("eps_list", ["1e400", "1/2"], "dress"),  # float overflow
    ("eps_list", ["1/2", "0"], "limit"),  # a zero step
    ("a", ["1e400", "-1"], "evolve"),  # float overflow in float mode only
    ("a", ["1e-400", "-1"], "evolve"),  # zero in float mode only
    ("h", "1e400", "evolve"),  # text, and infinite as a float
    ("h", math.nan, "evolve"),
    ("h", "nan", "evolve"),
    ("window", {"n_min": -8.9, "halo": "10"}, "dress"),  # coerced by int()
    ("window", {"n_min": -8, "n_max": True, "halo": 10}, "dress"),
    ("depth", True, "dress"),  # a bool is no integer
    ("steps", True, "evolve"),
    ("seed", True, "dress"),
    ("flows", [[True, 1]], "flow"),
    ("tol", "1e-9", "dress"),  # text is no number
]


def _desk_with(key, value):
    doc = json.loads((CONFIGS / "desk_m2.json").read_text())
    doc[key] = value
    return doc


@pytest.mark.parametrize("key,value,command", _BAD_VALUES)
def test_cli_rejects_bad_config_value(tmp_path, capsys, key, value, command):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(_desk_with(key, value)))
    assert cli.main([command, "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: invalid configuration")


def _with_bad_value_examples(test):
    for key, value, _ in _BAD_VALUES:
        test = example(_desk_with(key, value))(test)
    return test


@given(mutated_desk_config())
@_with_bad_value_examples
@settings(max_examples=300, deadline=None)
def test_mutated_config_fails_only_with_config_error(doc):
    try:
        config = parse_config(json.dumps(doc))
        for mode in scalars.MODES:
            config.data(mode)
            config.build_potential(mode)
    except ConfigError:
        pass


@st.composite
def mutated_state_document(draw, base):
    """``base`` with one to three values, at any depth, dropped or retyped."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while True:
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            inner = [k for k in keys if isinstance(node[k], (dict, list)) and node[k]]
            if inner and draw(st.integers(0, 3)):  # mostly deeper, into the lattices
                node = node[draw(st.sampled_from(inner))]
                continue
            key = draw(st.sampled_from(keys))
            if isinstance(node, dict) and draw(st.booleans()):
                del node[key]
            else:
                node[key] = draw(_JUNK)
            break
    return doc


_ENV_TEXT = st.sampled_from(["", "0", "1", "-1", "1e-9", "nan", "inf", "1e400",
                             "float", "rational", "json", "csv", "true", "x"])
_ENV = st.dictionaries(st.sampled_from(["AKNSD_MODE", "AKNSD_TOL", "AKNSD_SEED",
                                        "AKNSD_FORMAT", "AKNSD_VERBOSE"]),
                       _ENV_TEXT, max_size=2)


_STATE = state_to_json(HierarchyState.solve(
    desk_data(2), impulse_potential(Window(-2, 2, 3), 2), Window(-2, 2, 3), 3))


@given(doc=mutated_state_document(_STATE), env=st.just({}) | _ENV)
@example(doc={**_STATE, "a": [math.inf, "-1"]}, env={})  # Fraction(inf) overflows
@settings(max_examples=300, deadline=None)
def test_mutated_state_and_env_exit_with_a_contract_code(doc, env):
    # whatever the state document and the AKNSD_* values hold, `dress --state`
    # ends with 0, 1 or 2 and raises nothing
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, env), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        config = Path(tmp) / "c.json"
        config.write_text(MINIMAL)
        state = Path(tmp) / "state.json"
        state.write_text(json.dumps(doc))
        code = cli.main(["dress", "--config", str(config), "--state", str(state)])
    assert code in (0, 1, 2)


# -- persistence -----------------------------------------------------------------


def impulse_state():
    data = desk_data(2)
    return HierarchyState.solve(data, impulse_potential(DESK_WINDOW, 2),
                                DESK_WINDOW, 4)


def test_state_roundtrip_bit_exact(tmp_path):
    state = impulse_state()
    path = tmp_path / "state.json"
    save_state(state, str(path))
    back = load_state(str(path))
    assert state_to_json(back) == state_to_json(state)
    assert dressing_residual(back) == 0


@pytest.mark.parametrize("step,text", [(None, "1"), (Fraction(1, 2), "1/2")])
def test_random_m3_state_roundtrip(step, text):
    data = desk_data(3)
    base = random_potential(DESK_WINDOW, data, random.Random(5))
    u = LatticeFn.from_values(base.lo, base.values, step=step)
    state = HierarchyState.solve(data, u, DESK_WINDOW, 4)
    doc = json.loads(json.dumps(state_to_json(state)))
    assert doc["step"] == text
    loaded = state_from_json(doc)
    assert loaded.U == state.U
    assert loaded.dressing == state.dressing
    assert loaded.dressing.conventions == state.dressing.conventions


def test_vacuum_state_roundtrip(tmp_path):
    data = desk_data(2)
    from aknsd.instances import vacuum_potential

    state = HierarchyState.solve(data, vacuum_potential(DESK_WINDOW, 2),
                                 DESK_WINDOW, 3)
    path = tmp_path / "vac.json"
    save_state(state, str(path))
    assert state_to_json(load_state(str(path))) == state_to_json(state)


def test_truncated_state_file_rejected(tmp_path):
    state = impulse_state()
    path = tmp_path / "state.json"
    save_state(state, str(path))
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(SchemaError):
        load_state(str(path))


def test_version_mismatch_rejected():
    state = impulse_state()
    for version in (1, 99):
        doc = state_to_json(state)
        doc["version"] = version
        with pytest.raises(SchemaError, match="version"):
            state_from_json(doc)


def _drop_value(doc):
    del doc["u"][0]


def _shorten_order(doc):
    doc["dressing"][1].pop()


def _drop_entry(doc):
    del doc["dressing"][0][3][0]


def _widen_a(doc):
    doc["a"].append("2")  # m = 3, but every value holds 4 entries


def _shrink_halo(doc):
    # the same stored sites -10..10, with a halo below the depth 4
    doc["window"] = {"n_min": -8, "n_max": 8, "halo": 2}


def _bogus_policy(doc):
    doc["conventions"] = {"policy": "bogus"}  # a version-2 key is refused


def _conventions_not_an_object(doc):
    doc["conventions"] = [1, 2]


def _version_2(doc):
    doc["version"] = 2


def _fractional_n_max(doc):
    doc["window"]["n_max"] = 2.5


def _float_halo(doc):
    doc["window"]["halo"] = 3.0


def _bool_n_min(doc):
    doc["window"]["n_min"] = True


def _float_window(doc):
    # the same stored sites -10..10, every bound a float
    doc["window"] = {"n_min": -4.0, "n_max": 4.0, "halo": 6.0}


@pytest.mark.parametrize("mutate", [_drop_value, _shorten_order, _drop_entry, _widen_a,
                                    _shrink_halo, _bogus_policy,
                                    _conventions_not_an_object, _version_2,
                                    _fractional_n_max, _float_halo, _bool_n_min,
                                    _float_window])
def test_cli_rejects_inconsistent_state_document(tmp_path, capsys, mutate):
    config = tmp_path / "c.json"
    config.write_text(MINIMAL)
    state = tmp_path / "state.json"
    assert cli.main(["dress", "--config", str(config), "--out", str(state)]) == 0
    doc = json.loads(state.read_text())
    mutate(doc)
    state.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_state(str(state))
    assert cli.main(["dress", "--config", str(config), "--state", str(state)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# Entry strings the integer decoder must pass on to the Fraction reader: what
# each loads to, or the SchemaError it raises, is what Fraction(text) gives.
_ENTRY_TEXTS = [
    ("2/4", Fraction(1, 2)), ("0/5", 0), ("-0", 0), ("1.5", Fraction(3, 2)),
    ("+3", 3), (" 3", 3), ("1e2", 100), ("\u0663", 3),  # ARABIC-INDIC DIGIT THREE
    ("-4/6", Fraction(-2, 3)), ("00", 0), ("1_0", 10), ("-7/3", Fraction(-7, 3)),
    ("1/0", "invalid state document: Fraction(1, 0)"),
    ("1/-2", "invalid state document: Invalid literal for Fraction: '1/-2'"),
]


@pytest.mark.parametrize("text,want", _ENTRY_TEXTS)
def test_state_entries_decode_as_the_fraction_reader_reads_them(text, want):
    doc = copy.deepcopy(_STATE)
    doc["u"][3][1] = text
    doc["dressing"][1][2][3] = text
    if isinstance(want, str):
        with pytest.raises(SchemaError) as err:
            state_from_json(doc)
        assert str(err.value) == want
        return
    state = state_from_json(doc)
    for v, entries in ((state.U.values[3], doc["u"][3]),
                       (state.dressing.ws[1].values[2], doc["dressing"][1][2])):
        x = [Fraction(e) for e in entries]
        assert v == SmallMatrix(2, "rational", (tuple(x[:2]), tuple(x[2:])))
    assert state.U.values[3].get(1, 2) == want
    assert state.dressing.ws[1].values[2].get(2, 2) == want


def test_dress_refuses_a_state_entry_with_a_zero_denominator(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(MINIMAL)
    state = tmp_path / "state.json"
    assert cli.main(["dress", "--config", str(config), "--out", str(state)]) == 0
    doc = json.loads(state.read_text())
    doc["u"][0][1] = "1/0"
    state.write_text(json.dumps(doc))
    assert cli.main(["dress", "--config", str(config), "--state", str(state)]) == 2
    assert capsys.readouterr().err.startswith("error: invalid state document: Fraction(1, 0)")


def test_dress_fails_a_float_state_with_a_nan(tmp_path, capsys):
    # a float state document may hold "nan"; its residual is nan, which must
    # fail the check (it read 0.0 and passed while the maxima dropped a nan)
    config = tmp_path / "c.json"
    config.write_text(MINIMAL)
    state = tmp_path / "state.json"
    args = ["dress", "--config", str(config), "--mode", "float"]
    assert cli.main(args + ["--out", str(state)]) == 0
    doc = json.loads(state.read_text())
    doc["u"][len(doc["u"]) // 2][1] = "nan"
    state.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(args + ["--state", str(state)]) == 1
    assert capsys.readouterr().out.strip() == "dressing residual: nan"


def test_trajectory_csv_roundtrip(tmp_path):
    data = desk_data(2, scalars.FLOAT)
    u = impulse_potential(DESK_WINDOW, 2, scalars.FLOAT, value=0.2)
    state = HierarchyState.solve(data, u, DESK_WINDOW, 3, validate=False)
    traj = rk4_evolve(state, FlowIndex(1, 1), 0.05, 2)
    path = tmp_path / "traj.csv"
    export_trajectory_csv(traj, str(path))
    rows = read_trajectory_csv(str(path))
    sites = DESK_WINDOW.stored_hi - DESK_WINDOW.stored_lo + 1
    assert len(rows) == 3 * sites * 4
    step, t, n, i, j, value = rows[0]
    assert (step, n, i, j) == ("0", str(DESK_WINDOW.stored_lo), "1", "1")
    # re-imported values match the snapshots bit for bit
    by_key = {(int(r[0]), int(r[2]), int(r[3]), int(r[4])): r[5] for r in rows}
    for s_idx, (_, snap) in enumerate(traj.snapshots):
        for n in snap.sites():
            v = snap.at(n)
            assert by_key[(s_idx, n, 1, 2)] == repr(v.get(1, 2))


def _flat(v):
    return [x for row in v.rows for x in row]


def test_flow_document_reads_back_to_the_field(tmp_path):
    path = CONFIGS / "desk_m2.json"
    out = tmp_path / "flow.json"
    assert cli.main(["flow", "--config", str(path), "--k", "1", "--alpha", "1",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    config = parse_config(path.read_text())
    field = flow_field(config.data(), config.build_potential(), 1, 1,
                       tol=config.tolerance())
    assert set(doc) == {"k", "alpha", "mode", "diagonal_drift", "field"}
    assert (doc["k"], doc["alpha"], doc["mode"]) == (1, 1, scalars.RATIONAL)
    assert doc["field"]["n_min"] == field.lo
    assert [[scalars.parse_scalar(x, doc["mode"]) for x in v]
            for v in doc["field"]["values"]] == [_flat(v) for v in field.values]


def test_trajectory_json_reads_back_to_the_snapshots(tmp_path):
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({
        **json.loads(MINIMAL), "potential": {"type": "impulse", "value": "1/5"},
        "flows": [[0, 1]], "h": 0.05, "steps": 2}))
    out = tmp_path / "traj.json"
    assert cli.main(["evolve", "--config", str(config_path), "--format", "json",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    config = parse_config(config_path.read_text())
    traj = integrate(config.data(scalars.FLOAT), config.build_potential(scalars.FLOAT),
                     config.window, FlowIndex(0, 1), 0.05, 2)
    assert set(doc) == {"flow", "h", "steps", "snapshots"}
    assert len(doc["snapshots"]) == len(traj.snapshots) == 3
    for snap, (t, u) in zip(doc["snapshots"], traj.snapshots):
        assert float(snap["time"]) == t
        assert snap["u"]["n_min"] == u.lo
        assert [[float(x) for x in v] for v in snap["u"]["values"]] == \
            [_flat(v) for v in u.values]


def test_empty_trajectory_header_only(tmp_path):
    from aknsd.dynamics import Trajectory

    data = desk_data(2, scalars.FLOAT)
    traj = Trajectory(FlowIndex(0, 1), 0.1, 0, [])
    path = tmp_path / "empty.csv"
    export_trajectory_csv(traj, str(path))
    assert read_trajectory_csv(str(path)) == []


# -- verification reports ------------------------------------------------------------


def small_config(extra=None):
    doc = json.loads(MINIMAL)
    doc["potential"] = {"type": "impulse"}
    if extra:
        doc.update(extra)
    return parse_config(json.dumps(doc))


def test_verify_algebra_deterministic():
    config = small_config()
    r1 = run_verify_suite(config, "algebra").to_json()
    r2 = run_verify_suite(config, "algebra").to_json()
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert r1["verdict"] == "pass"


def test_verify_resolvent_passes():
    report = run_verify_suite(small_config(), "resolvent")
    assert report.verdict == "pass", [c for c in report.checks if not c["pass"]]


def test_verify_bilinear_passes():
    report = run_verify_suite(small_config(), "bilinear")
    assert report.verdict == "pass", [c for c in report.checks if not c["pass"]]


def test_exact_zero_residuals_render_as_zero():
    path = CONFIGS / "desk_m2.json"
    config = parse_config(path.read_text())
    for suite in ("algebra", "resolvent", "bilinear"):
        for check in run_verify_suite(config, suite).checks:
            if check["require"] == "le":
                assert check["residual"] == "0", (suite, check)


def test_config_hash_stable_and_sensitive():
    c1, c2 = small_config(), small_config()
    assert config_hash(c1) == config_hash(c2)
    c3 = small_config({"seed": 8})
    assert config_hash(c1) != config_hash(c3)


# -- CLI ------------------------------------------------------------------------------


def test_cli_dress_and_verify_exit_codes(tmp_path):
    config_path = tmp_path / "c.json"
    config_path.write_text(MINIMAL)
    out = run_cli("dress", "--config", str(config_path))
    assert out.returncode == 0, out.stderr
    assert "dressing residual: 0" in out.stdout

    out = run_cli("verify", "--config", str(config_path), "--suite", "algebra",
                  "--out", str(tmp_path / "report.json"))
    assert out.returncode == 0, out.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "pass"


@pytest.mark.parametrize("argv", [["limit"], ["verify", "--suite", "limit"],
                                  ["verify", "--suite", "all"]])
@pytest.mark.parametrize("eps_list, code", [
    (["1/2"], 2),  # no Cauchy difference at all
    (["1/2", "1/4"], 2),  # one difference, so no order
    (["1/2", "1/4", "1/8"], 0),
    (["1/2", "1/3", "1/4"], 2),  # no common x-points
])
@pytest.mark.filterwarnings("ignore:boundary leakage")
def test_limit_checks_need_three_step_sizes(tmp_path, capsys, monkeypatch, argv,
                                            eps_list, code):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(_desk_with("eps_list", eps_list)))
    ran = []
    for name, fn in verify._SUITE_FNS.items():
        monkeypatch.setitem(verify._SUITE_FNS, name,
                            lambda c, r, name=name, fn=fn: (ran.append(name), fn(c, r)))
    assert cli.main([*argv, "--config", str(config), "--out",
                     str(tmp_path / "out.json")]) == code
    if code:
        assert ("at least 3 step sizes" if len(eps_list) < 3
                else "scan expects halved steps") in capsys.readouterr().err
        assert ran == []  # refused before any suite ran
    elif argv[0] == "verify":
        assert "limit" in ran


@pytest.mark.parametrize("desk", ["desk_m2", "desk_m3"])
@pytest.mark.parametrize("depth,flows,failing", [
    (3, [[1, 1]], []),
    (2, [[0, 1]], []),
    (1, [], ["perturbation_detected"]),  # the band holds no residue to read
])
def test_verify_bilinear_runs_at_every_accepted_depth(tmp_path, desk, depth, flows,
                                                      failing):
    doc = json.loads((CONFIGS / f"{desk}.json").read_text())
    doc.update(depth=depth, flows=flows)
    parse_config(json.dumps(doc))
    config, out = tmp_path / "c.json", tmp_path / "report.json"
    config.write_text(json.dumps(doc))
    code = cli.main(["verify", "--suite", "bilinear", "--config", str(config),
                     "--out", str(out)])
    checks = json.loads(out.read_text())["checks"]
    assert code == (1 if failing else 0)
    assert len(checks) == 5
    assert [c["check"] for c in checks if not c["pass"]] == failing


@pytest.mark.parametrize("suite", ["algebra", "bilinear"])
def test_verify_draws_no_value_on_a_stored_edge(tmp_path, suite):
    # stored sites -4..3: the suites' compactly supported test functions draw
    # at |n| <= 3, and a value on the last stored site would leave a boundary
    # term that difference_adjointness and adjoint_pairing assume away
    doc = json.loads((CONFIGS / "desk_m2.json").read_text())
    doc.update(window={"n_min": -1, "n_max": 0, "halo": 3}, depth=2, flows=[[0, 1]])
    config, out = tmp_path / "c.json", tmp_path / "report.json"
    config.write_text(json.dumps(doc))
    code = cli.main(["verify", "--suite", suite, "--config", str(config), "--out", str(out)])
    checks = json.loads(out.read_text())["checks"]
    assert [c["check"] for c in checks if not c["pass"]] == []
    assert code == 0
    assert all(c["residual"] == "0" for c in checks if c["require"] == "le")


@pytest.mark.filterwarnings("ignore:boundary leakage")
def test_a_refused_dynamics_run_fails_one_check_and_keeps_the_report(tmp_path):
    # the commutativity run of this regime leaks past the hard limit at its
    # first step; the refusal is one failing check, and every other suite's
    # checks are still written
    doc = {"m": 2, "a": ["1/2", "-4"], "window": {"n_min": -1, "n_max": -1, "halo": 4},
           "depth": 2, "flows": [], "h": 0.01, "steps": 2, "seed": 10, "mode": "rational",
           "potential": {"type": "vacuum"}}
    config, out = tmp_path / "c.json", tmp_path / "report.json"
    config.write_text(json.dumps(doc))
    assert cli.main(["verify", "--config", str(config), "--out", str(out)]) == 1
    checks = json.loads(out.read_text())["checks"]
    assert [c for c in checks if c["check"] == "dynamics_run_refused"] == [{
        "check": "dynamics_run_refused",
        "parameters": {"error": "boundary leakage 0.09900498337500001 exceeds hard limit "
                                "at step 1"},
        "residual": "1.0", "threshold": "0.0", "require": "le", "pass": False}]
    assert [c["check"] for c in checks if not c["pass"]] == [
        "dynamics_run_refused", "continuum_dx_relation_order"]
    names = [c["check"] for c in checks]
    assert {"series_mul_associative", "cross_solver_equality", "adjoint_pairing",
            "rk4_vs_euler_order", "continuum_cauchy_order"} <= set(names)
    assert "commutativity_defect" not in names


@st.composite
def accepted_config(draw):
    """A small config that ``parse_config`` accepts, over the keys the commands read."""
    m = draw(st.sampled_from([2, 3]))
    n_min = draw(st.integers(-3, 1))
    window = {"n_min": n_min, "n_max": n_min + draw(st.integers(0, 2)),
              "halo": draw(st.integers(1, 4))}
    depth = draw(st.integers(1, min(window["halo"], 4)))
    flow = st.tuples(st.integers(0, max(depth - 2, 0)), st.integers(1, m)).map(list)
    lo, hi = n_min - window["halo"], window["n_max"] + window["halo"]
    potentials = [{"type": "vacuum"},
                  {"type": "impulse", "site": max(lo, min(0, hi)), "value": "3/2"}]
    if lo <= 0 <= hi:  # a random potential lives on sites -span..span
        potentials.append({"type": "random", "span": min(-lo, hi, 2), "amplitude": "1/2"})
    # off-diagonal rational entries at a stored edge site and at one more stored site
    entry = st.sampled_from(["0", "1", "-1/2", "3/2", "-2", "2/3"])
    sites = {draw(st.sampled_from([lo, hi])), draw(st.integers(lo, hi))}
    potentials.append({"type": "explicit", "sites": {
        str(n): [["0" if i == j else draw(entry) for j in range(m)] for i in range(m)]
        for n in sorted(sites)}})
    potential = draw(st.sampled_from(potentials))
    return {
        "m": m,
        "a": draw(st.lists(st.sampled_from(["1", "-1", "2", "1/2", "-4", "3/2", "-2/3"]),
                           min_size=m, max_size=m, unique=True)),
        "window": window,
        "depth": depth,
        "mode": draw(st.sampled_from(["rational", "float"])),
        "flows": draw(st.lists(flow, max_size=2)) if depth >= 2 else [],
        "h": draw(st.sampled_from([0.01, 0.1])),
        "steps": draw(st.integers(1, 3)),
        "eps_list": ["1/2", "1/4", "1/8"],
        "tol": draw(st.sampled_from([0, 1e-9])),
        "seed": draw(st.integers(0, 99)),
        "potential": potential,
    }


@given(doc=accepted_config())
@settings(max_examples=50, deadline=None)
@pytest.mark.filterwarnings("ignore:boundary leakage")
def test_every_accepted_config_runs_every_command_to_a_contract_code(doc):
    # each command ends with 0, 1 or 2 and raises nothing; verify writes its
    # report whenever it ends with 0 or 1, and in rational mode every algebra
    # and resolvent identity of the report reads exactly 0
    config = parse_config(json.dumps(doc))
    spans = {}

    def spanned(name, fn):
        def run(c, report):
            start = len(report.checks)
            fn(c, report)
            spans[name] = range(start, len(report.checks))
        return run

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(verify._SUITE_FNS, {name: spanned(name, fn)
                                                for name, fn in verify._SUITE_FNS.items()}), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(doc))
        codes = {}
        for command in ("dress", "resolvent", "flow", "evolve", "verify", "tau"):
            out = Path(tmp) / f"{command}.out"
            codes[command] = cli.main([command, "--config", str(path), "--out", str(out)])
        verified = Path(tmp) / "verify.out"
        report = json.loads(verified.read_text()) if verified.exists() else None
    assert set(codes.values()) <= {0, 1, 2}, codes
    assert (report is not None) == (codes["verify"] in (0, 1)), codes
    if report is not None and config.mode == scalars.RATIONAL:
        exact = [report["checks"][i] for name in ("algebra", "resolvent") for i in spans[name]]
        assert [c for c in exact if c["residual"] != "0"] == []


def test_cli_input_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = run_cli("dress", "--config", str(bad))
    assert out.returncode == 2
    out = run_cli("dress", "--config", str(tmp_path / "missing.json"))
    assert out.returncode == 2


def test_cli_env_override(tmp_path, monkeypatch):
    config_path = tmp_path / "c.json"
    config_path.write_text(MINIMAL)
    out = run_cli("dress", env={**os.environ, "AKNSD_CONFIG": str(config_path)})
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("name,value", [("AKNSD_TOL", "abc"), ("AKNSD_SEED", "x"),
                                        ("AKNSD_VERBOSE", "maybe"),
                                        ("AKNSD_FORMAT", "xml")])
def test_cli_bad_env_value_is_input_error(tmp_path, monkeypatch, capsys, name, value):
    config_path = tmp_path / "c.json"
    config_path.write_text(MINIMAL)
    monkeypatch.setenv(name, value)
    assert cli.main(["dress", "--config", str(config_path)]) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("argv,env,message", [
    (["verify", "--suite", "algebra", "--mode", "float", "--tol", "-1"], {},
     "'tol' must be non-negative"),
    (["dress", "--tol", "-1"], {}, "'tol' must be non-negative"),
    (["dress"], {"AKNSD_TOL": "-1"}, "'tol' must be non-negative"),
    (["dress"], {"AKNSD_MODE": "exact"}, "'mode' must be one of"),
])
def test_cli_overrides_follow_config_rules(tmp_path, monkeypatch, capsys, argv,
                                           env, message):
    config_path = tmp_path / "c.json"
    config_path.write_text(MINIMAL)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert cli.main(argv + ["--config", str(config_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (["--k", "7"], "flow order 7 needs depth >= 9"),
    (["--k", "-1"], "flow order -1 must be >= 0"),
    (["--alpha", "3"], "flow index alpha=3 outside 1..2"),
])
def test_cli_flow_index_follows_config_rules(capsys, flags, message):
    config_path = CONFIGS / "desk_m2.json"
    assert cli.main(["flow", "--config", str(config_path)] + flags) == 2
    assert message in capsys.readouterr().err


def test_cli_verbose_from_env(tmp_path, monkeypatch, capsys):
    config_path = tmp_path / "c.json"
    config_path.write_text(MINIMAL)
    out = tmp_path / "s.json"
    for value, wrote in (("1", True), ("0", False)):
        monkeypatch.setenv("AKNSD_VERBOSE", value)
        assert cli.main(["dress", "--config", str(config_path), "--out", str(out)]) == 0
        assert (f"wrote {out}" in capsys.readouterr().out) is wrote


def test_cli_tau_command(tmp_path):
    config_path = tmp_path / "c.json"
    config_path.write_text(MINIMAL)
    out = run_cli("tau", "--config", str(config_path))
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["vacuum_candidate_error"] == "0"
    assert doc["lambda_consistency"] is True


def test_verify_all_suites_pass_on_vacuum_config():
    config = parse_config(MINIMAL)  # vacuum potential by default
    report = run_verify_suite(config, "all")
    assert report.verdict == "pass", [c for c in report.checks if not c["pass"]]
    names = {c["check"] for c in report.checks}
    assert "continuum_dx_relation_order" in names
    assert "commutativity_defect" in names
