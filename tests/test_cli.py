"""CLI harness: exit codes, report schema, determinism, error paths."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import ellcert
from ellcert.checks import REGISTRY, REPORT_SCHEMA, CheckSpec, parse_value, run_check
from ellcert.cli import load_config, main
from ellcert.errors import EvaluationOverflowError, InconclusiveRankError, ParameterError, PoleError

SMALL_SUITE = """
[fay]
count = 20
taus = 0.8j

[plucker]
orders = 2
seeds = 5

[transfer-commute]
n = 2
seeds = 2
samples = 8
"""


def write(tmp_path, text, name="suite.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestRunCheck:
    def test_fay_passes(self):
        rec = run_check(CheckSpec("fay", {"seed": 1, "count": 30}))
        assert rec.passed and rec.residual_max <= 1e-10

    def test_transfer_commute_passes(self):
        rec = run_check(CheckSpec("transfer-commute", {"n": 3, "seed": 1, "seeds": 2, "samples": 8}))
        assert rec.passed

    def test_parameter_out_of_range(self):
        with pytest.raises(ParameterError):
            run_check(CheckSpec("transfer-commute", {"n": 99}))

    def test_unknown_check(self):
        with pytest.raises(ParameterError):
            run_check(CheckSpec("no-such-check", {}))

    def test_record_invariant(self):
        rec = run_check(CheckSpec("psi2", {"seed": 3, "samples": 8}))
        assert rec.passed == (rec.residual_max <= rec.tolerance)


class TestSuite:
    def test_empty_config_exits_zero(self, tmp_path, capsys):
        cfg = write(tmp_path, "")
        out = str(tmp_path / "r.json")
        assert main(["run", cfg, "--json", out]) == 0
        assert json.load(open(out)) == []

    def test_small_suite_passes_and_validates(self, tmp_path):
        cfg = write(tmp_path, SMALL_SUITE)
        out = str(tmp_path / "r.json")
        assert main(["run", cfg, "--json", out]) == 0
        report = json.load(open(out))
        jsonschema.validate(report, REPORT_SCHEMA)
        assert [r["name"] for r in report] == ["fay", "plucker", "transfer-commute"]

    def test_broken_tolerance_exits_one(self, tmp_path):
        cfg = write(tmp_path, "[fay]\ncount = 10\ntaus = 0.8j\ntolerance = 1e-30\n")
        out = str(tmp_path / "r.json")
        assert main(["run", cfg, "--json", out]) == 1
        report = json.load(open(out))
        assert report[0]["pass"] is False

    def test_every_check_gates(self, tmp_path):
        cfg = write(tmp_path, "[qnk-relation]\nn = 3\np = 2\ntolerance = 1e-30\n")
        out = str(tmp_path / "r.json")
        assert main(["run", cfg, "--json", out]) == 1
        assert json.load(open(out))[0]["pass"] is False

    def test_inconclusive_exits_two(self, tmp_path):
        # starving the rank computation of samples leaves the gap unresolved
        cfg = write(tmp_path, "[bosonization-rank]\npairs = 4x2\nsamples = 6\n")
        out = str(tmp_path / "r.json")
        assert main(["run", cfg, "--json", out]) == 2
        report = json.load(open(out))
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report[0]["params"]["status"] == "inconclusive"
        assert report[0]["pass"] is False and report[0]["residual_max"] == -1.0

    def test_missing_config_exits_three(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 3

    def test_unwritable_report_exits_three(self, tmp_path):
        cfg = write(tmp_path, "")
        assert main(["run", cfg, "--json", str(tmp_path / "no" / "dir" / "r.json")]) == 3

    def test_bad_param_in_config_exits_three(self, tmp_path):
        cfg = write(tmp_path, "[transfer-commute]\nn = 99\n")
        assert main(["run", cfg]) == 3

    def test_determinism_byte_identical_residuals(self, tmp_path):
        cfg = write(tmp_path, SMALL_SUITE)
        outs = []
        for k in (1, 2):
            out = str(tmp_path / f"r{k}.json")
            assert main(["run", cfg, "--json", out]) == 0
            outs.append(json.load(open(out)))
        strip = lambda rep: [{k: v for k, v in r.items() if k != "wall_time_ms"} for r in rep]
        assert strip(outs[0]) == strip(outs[1])


class TestSingleCheck:
    def test_check_with_params_and_json(self, tmp_path):
        out = str(tmp_path / "one.json")
        assert main(["check", "fay", "--param", "count=15", "--seed", "7", "--json", out]) == 0
        report = json.load(open(out))
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report[0]["seed"] == 7 and report[0]["params"]["count"] == 15

    def test_check_bad_param_syntax(self):
        assert main(["check", "fay", "--param", "count"]) == 3

    def test_check_out_of_range(self):
        assert main(["check", "transfer-commute", "--param", "n=99"]) == 3

    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fay" in out and "transfer-commute" in out

    def test_list_prints_each_parameter_spec(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for cd in REGISTRY.values():
            for key, p in cd.params.items():
                assert f"{key:10s} = {'unset' if p.default is None else p.default!s:20s} {p.allowed}" in out

    def test_check_error_is_recorded(self, tmp_path, capsys):
        out = str(tmp_path / "one.json")
        assert main(["check", "fay", "--param", "count=0", "--json", out]) == 3
        (rec,) = json.load(open(out))
        assert rec["params"]["status"] == "error" and "count=0" in rec["params"]["message"]
        assert rec["pass"] is False and rec["residual_max"] == -1.0 and rec["seed"] == 42

    @pytest.mark.parametrize("argv", [["fay", "--param", "taus=50j"],
                                      ["theta-quasiperiodicity", "--param", "taus=40j", "--param", "points=5"]])
    def test_non_finite_value_is_an_error_record(self, tmp_path, capsys, argv):
        # theta values overflow at large Im tau: one error record, and a report without NaN
        def reject(constant):
            raise ValueError(f"{constant} in the report")

        out = tmp_path / "one.json"
        assert main(["check", *argv, "--json", str(out)]) == 3
        (rec,) = json.loads(out.read_text(), parse_constant=reject)
        assert rec["params"]["status"] == "error" and rec["residual_max"] == -1.0
        assert capsys.readouterr().err.count("\n") == 1

    def test_library_error_exits_three(self, monkeypatch, capsys):
        def poled(**_):
            raise PoleError("sampled values pole at all 8 seeded batches")

        monkeypatch.setitem(REGISTRY, "fay", dataclasses.replace(REGISTRY["fay"], fn=poled))
        assert main(["check", "fay"]) == 3
        assert capsys.readouterr().err == "fay: sampled values pole at all 8 seeded batches\n"

    def test_config_loader_labels(self, tmp_path):
        cfg = write(tmp_path, "[fay:one]\ncount = 5\n\n[fay:two]\ncount = 6\n")
        specs = load_config(cfg)
        assert [s.name for s in specs] == ["fay", "fay"]
        assert specs[0].params["count"] == 5 and specs[1].params["count"] == 6

    def test_console_script_installed(self):
        # the child does not read pytest's `pythonpath`: hand it the imported package's source root
        src = str(pathlib.Path(ellcert.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "ellcert.cli", "list"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0 and "fay" in proc.stdout


class TestSuiteErrors:
    def test_bad_section_becomes_error_record(self, tmp_path, capsys):
        cfg = write(tmp_path, "[fay]\ncount = 0\n\n[plucker]\norders = 2\nseeds = 2\n\n"
                              "[no-such-check]\n\n[psi2]\nsamples = 8\nseed = 3\n")
        out = str(tmp_path / "r.json")
        assert main(["run", cfg, "--json", out]) == 3
        report = json.load(open(out))
        jsonschema.validate(report, REPORT_SCHEMA)
        assert [r["name"] for r in report] == ["fay", "plucker", "no-such-check", "psi2"]
        for bad in (report[0], report[2]):
            assert bad["params"]["status"] == "error" and bad["params"]["message"]
            assert bad["pass"] is False and bad["residual_max"] == -1.0
        assert report[1]["pass"] and report[3]["pass"] and report[3]["seed"] == 3
        assert len(capsys.readouterr().err.splitlines()) == 2

    def test_unparsable_config_exits_three(self, tmp_path):
        assert main(["run", write(tmp_path, "count = 3\n")]) == 3


# Each input once ended in a ValueError traceback (exit 1, the code of a FAIL),
# was silently ignored, or passed without sampling anything meaningful.
BAD_INPUTS = {
    "seeds-not-integer": ["check", "cf-commute", "--param", "seeds=abc"],
    "tau-below-0.3": ["check", "transfer-commute", "--param", "tau=0.2j"],
    "tolerance-not-number": ["check", "fay", "--param", "tolerance=abc"],
    "seed-negative": ["check", "fay", "--seed", "-1"],
    "seed-not-integer": ["check", "fay", "--seed", "abc"],
    "size-not-pair": ["check", "cf-commute", "--param", "sizes=2x2;9"],
    "pair-bad-separator": ["check", "bosonization-rank", "--param", "pairs=3y1"],
    "taus-bad-entry": ["check", "fay", "--param", "taus=0.8j;x"],
    "points-zero": ["check", "quotient-rule", "--param", "points=0"],
    "samples-zero": ["check", "psi2", "--param", "samples=0"],
    "misspelled-key": ["check", "fay", "--param", "seedz=3"],
    "tau-not-read": ["check", "fay", "--param", "tau=0.8j"],
    "eta-not-read": ["check", "plucker", "--param", "eta=0.1"],
    "eta-not-read-by-poisson": ["check", "poisson-jacobi", "--param", "eta=0.1"],
    "count-zero": ["check", "fay", "--param", "count=0"],
    "seeds-negative": ["check", "plucker", "--param", "seeds=-1"],
    "integer-not-integral": ["check", "qnk-relation", "--param", "p=1.5"],
    "qnk-relation-takes-no-i": ["check", "qnk-relation", "--param", "i=0"],
    "empty-list": ["check", "transfer-commute", "--param", "n="],
    "transfer-commute-eta-zero": ["check", "transfer-commute", "--param", "eta=0"],
    "transfer-commute-eta-2-torsion": ["check", "transfer-commute", "--param", "n=2", "--param", "eta=0.5"],
    "casimir-diagonal-eta-zero": ["check", "casimir-diagonal", "--param", "eta=0"],
    "casimir-diagonal-overflow": ["check", "casimir-diagonal", "--param", "eta=0.3+0.9j"],
    "eta-not-read-by-sos-ratio": ["check", "sos-ratio", "--param", "n=3",
                                  "--param", "eta=0.38202169242764034+0.13201330840497705j"],
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_three_with_one_line(argv, capsys):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


# One site (delta-family: one index) leaves one ratio and no pair to compare,
# so these passed at exactly 0 without comparing anything
ONE_RATIO = {
    "cf-commute": {"sizes": "1x2"},
    "cf-triangle": {"sizes": "1x3"},
    "delta-family": {"n": "1", "k": "3"},
}


@pytest.mark.parametrize("name", ONE_RATIO)
def test_one_ratio_is_a_parameter_error_record(name, tmp_path, capsys):
    with pytest.raises(ParameterError, match=r"1 is not in \[2, 4\]"):
        run_check(CheckSpec(name, ONE_RATIO[name]))
    out = tmp_path / "r.json"
    params = [arg for key, value in ONE_RATIO[name].items() for arg in ("--param", f"{key}={value}")]
    assert main(["check", name, *params, "--json", str(out)]) == 3
    (record,) = json.loads(out.read_text())
    assert record["params"]["status"] == "error" and "1 is not in [2, 4]" in record["params"]["message"]


NON_FINITE = "expression evaluation produced a non-finite value"
MULTIPLIER = "quasi-periodicity multiplier overflowed"
POLED = "sampled values pole at all 8 seeded batches"

# The README's list of what a large Im tau does to a check at otherwise
# default parameters: (check, params, PASS / FAIL / INCONCLUSIVE or the error message)
LARGE_TAU = [
    ("poisson-hamiltonians", {"n": "3", "tau": "3j"}, POLED),
    ("poisson-hamiltonians", {"n": "2", "tau": "3j"}, "PASS"),
    ("poisson-hamiltonians", {"n": "4", "tau": "2j", "seeds": "2"}, POLED),
    ("poisson-hamiltonians", {"n": "4", "tau": "2j", "seeds": "1"}, "PASS"),
    ("transfer-commute", {"tau": "13j"}, "PASS"),
    ("transfer-commute", {"tau": "14j"}, NON_FINITE),
    ("transfer-commute", {"tau": "15j"}, MULTIPLIER),
    ("transfer-commute", {"n": "2,3,4", "tau": "15j"}, "PASS"),
    ("theta-quasiperiodicity", {"taus": "15j"}, "PASS"),
    ("theta-quasiperiodicity", {"taus": "20j"}, MULTIPLIER),
    ("fu-commute", {"tau": "20j"}, "PASS"),
    ("fu-commute", {"tau": "25j"}, NON_FINITE),
    ("sos-commute", {"tau": "25j"}, "PASS"),
    ("sos-commute", {"tau": "30j"}, NON_FINITE),
    ("star-closure", {"tau": "25j"}, "PASS"),
    ("star-closure", {"tau": "30j"}, MULTIPLIER),
    ("casimir-diagonal", {"tau": "40j"}, "PASS"),
    ("casimir-diagonal", {"tau": "50j"}, MULTIPLIER),
    ("transfer-det", {"tau": "40j"}, "PASS"),
    ("transfer-det", {"tau": "50j"}, NON_FINITE),
    ("ttilde-commute", {"tau": "30j"}, "PASS"),
    ("ttilde-commute", {"tau": "50j"}, "a sampled value is not finite"),
    ("fay", {"taus": "30j"}, "PASS"),
    ("fay", {"taus": "50j"}, "a sampled value is not finite"),
    ("qnk-relation", {"tau": "130j"}, "PASS"),
    ("qnk-relation", {"tau": "140j"}, MULTIPLIER),
    ("qnk-relation", {"tau": "400j"}, "the normalization factor of Odesskii's basis element 1 overflows"),
    ("bosonization-rank", {"pairs": "5x2", "tau": "6j"}, "PASS"),
    ("bosonization-rank", {"pairs": "5x2", "tau": "7j"}, "FAIL"),
    ("bosonization-rank", {"pairs": "5x2", "tau": "8j"}, "FAIL"),
    ("bosonization-rank", {"pairs": "5x2", "tau": "10j"}, "FAIL"),
    ("bosonization-rank", {"pairs": "5x2", "tau": "12j"}, "INCONCLUSIVE"),
]


@pytest.mark.parametrize("name", sorted(name for name, cd in REGISTRY.items() if {"tau", "taus"} & cd.params.keys()))
def test_huge_tau_ends_in_a_verdict_or_one_error_line(name, capsys):
    # an overflow at Im tau = 1000 is an error record (exit 3), never an uncaught exception
    key = "tau" if "tau" in REGISTRY[name].params else "taus"
    code = main(["check", name, "--param", f"{key}=1000j"])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3) and len(err.splitlines()) <= 1 and "Traceback" not in err


def large_tau_list() -> str:
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    return readme[readme.index("A large Im tau is accepted"):readme.index("Exit codes:")]


@pytest.mark.parametrize("name,params,outcome", LARGE_TAU,
                         ids=[f"{n}-{'-'.join(p.values())}" for n, p, _ in LARGE_TAU])
def test_large_tau_outcome_is_the_listed_one(name, params, outcome):
    listed = large_tau_list()
    assert f"`{name}`" in listed and (params.get("tau") or params["taus"]) in listed
    spec = CheckSpec(name, params)
    if outcome in ("PASS", "FAIL", "INCONCLUSIVE"):
        rec = run_check(spec)
        assert {"PASS": rec.passed, "FAIL": not rec.passed and rec.status is None,
                "INCONCLUSIVE": rec.inconclusive}[outcome]
    else:
        with pytest.raises((PoleError, EvaluationOverflowError), match=outcome):
            run_check(spec)


USAGE_ERRORS = {
    "check-without-name": ["check"],
    "unknown-command": ["frobnicate"],
    "unknown-option": ["list", "--bogus"],
    "no-command": [],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_exits_three(argv, capsys):
    # 2 is the INCONCLUSIVE code, so argparse's own usage exit code must not leak
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "Traceback" not in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["check", "--help"])
    assert stop.value.code == 0 and "usage: " in capsys.readouterr().out


def test_real_part_of_tau_leaves_fay_bit_identical():
    near = REGISTRY["fay"]({"taus": "0.8j"}, 42)
    far = REGISTRY["fay"]({"taus": "1e6+0.8j"}, 42)
    assert far.hex() == near.hex()


def test_real_part_of_tau_leaves_quasiperiodicity_bit_identical():
    near = REGISTRY["theta-quasiperiodicity"]({"taus": "3.5+0.8j"}, 42)
    far = REGISTRY["theta-quasiperiodicity"]({"taus": "1000003.5+0.8j"}, 42)
    assert far.hex() == near.hex()


def test_degenerate_eta_names_the_torsion_order():
    with pytest.raises(ParameterError, match=r"2\*eta is on the lattice.*degenerate"):
        REGISTRY["transfer-commute"].resolve({"eta": 0.5})


def test_resolved_values_are_parsed():
    values = REGISTRY["bosonization-rank"].resolve({"pairs": "3x1; 4X2", "seed": 7.0})
    assert values["pairs"] == ((3, 1), (4, 2)) and values["samples"] is None and values["seed"] == 7
    assert values["ctx"].tau == 0.8j and values["tolerance"] == 1e-7


KEYS = sorted({key for cd in REGISTRY.values() for key in cd.params} | {"seedz", "ctx", ""})
NUMBER_TEXT = st.from_regex(r"-?[0-9]{0,3}(\.[0-9]{0,3})?(e-?[0-9]{1,3})?([+-][0-9.]{1,4}j)?", fullmatch=True)
EDGE_TEXT = ["nan", "inf", "-inf", "1e999", "1e999j", "9" * 5000, "1" + "0" * 400, "0", "-1", "1.5",
             "0.5", "1/3", "0.2j", "(0.3+1.1j)", "3x1;;", ",", "", "2,3,4,5", "1,2,3,1", "1e5j", "1e13"]
TEXT = st.one_of(
    st.text(max_size=20),
    NUMBER_TEXT,
    st.lists(NUMBER_TEXT, max_size=4).map(",".join),
    st.lists(st.tuples(NUMBER_TEXT, NUMBER_TEXT).map("x".join), max_size=4).map(";".join),
    st.sampled_from(EDGE_TEXT),
)


def _resolves_or_parameter_error(name, raw):
    try:
        REGISTRY[name].resolve(raw)
    except ParameterError:
        pass


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(REGISTRY)), parsed=st.booleans(),
       raw=st.dictionaries(st.one_of(st.sampled_from(KEYS), st.text(max_size=6)), TEXT, max_size=4))
def test_any_text_resolves_or_is_a_parameter_error(name, parsed, raw):
    # only the spec resolver runs here, never a check body
    _resolves_or_parameter_error(name, {k: parse_value(v) if parsed else v for k, v in raw.items()})


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_edge_text_under_every_key_resolves_or_is_a_parameter_error(name):
    for key in REGISTRY[name].params:
        for text in EDGE_TEXT:
            _resolves_or_parameter_error(name, {key: text})
            _resolves_or_parameter_error(name, {key: parse_value(text)})


def _stub(seed, **_):
    """Stand-in check body: PASS, FAIL or INCONCLUSIVE by seed, no identity evaluated."""
    if seed % 3 == 2:
        raise InconclusiveRankError("stub", gap=0.5)
    return float(seed % 3)


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as stop:  # argparse usage errors and --help
        return stop.code


NAMES = st.one_of(st.sampled_from(sorted(REGISTRY)), st.text(max_size=8))
PARAM_TEXT = st.one_of(st.tuples(st.sampled_from(KEYS), TEXT).map("=".join), st.text(max_size=12))
CHECK_ARGV = st.builds(
    lambda name, params, seed: ["check", name] + [a for t in params for a in ("--param", t)]
    + ([] if seed is None else ["--seed", seed]),
    NAMES, st.lists(PARAM_TEXT, max_size=3), st.one_of(st.none(), TEXT))
SECTION = st.builds(lambda name, items: f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items),
                    NAMES, st.lists(st.tuples(st.sampled_from(KEYS), TEXT), max_size=3))
CONFIG_TEXT = st.one_of(st.lists(SECTION, max_size=3).map("\n".join), st.text(max_size=40))


@settings(max_examples=300, deadline=None)
@given(argv=CHECK_ARGV, config=CONFIG_TEXT, use_config=st.booleans())
def test_any_command_line_ends_in_an_exit_code(argv, config, use_config):
    # every check body is a stub, so this drives parsing, resolution and reporting only
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        for name, cd in REGISTRY.items():
            mp.setitem(REGISTRY, name, dataclasses.replace(cd, fn=_stub))
        if use_config:
            cfg = os.path.join(tmp, "fuzz.cfg")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(config)
            argv = ["run", cfg]
        assert _exit_code(argv) in (0, 1, 2, 3)
