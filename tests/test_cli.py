import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fairfeas
from fairfeas import data, selection
from fairfeas.cli import build_parser, main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_matches_golden():
    with open(os.path.join(GOLDEN_DIR, "help.txt")) as fh:
        expected = fh.read()
    assert build_parser().format_help() == expected


@pytest.mark.parametrize("sub", ["area", "region", "analyze", "planimeter"])
def test_subcommand_help_matches_golden(sub, capsys):
    with open(os.path.join(GOLDEN_DIR, f"help_{sub}.txt")) as fh:
        expected = fh.read()
    with pytest.raises(SystemExit) as exc:
        main([sub, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == expected


def test_area_value(capsys):
    code, out, _ = run(capsys, "area", "--gamma", "0.05", "--eps-p", "0.2")
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.75)


def test_area_saturation(capsys):
    code, out, _ = run(capsys, "area", "--gamma", "0.05", "--eps-p", "0.1")
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0)


def test_area_zero_eps_p_is_usage_error(capsys):
    code, _, err = run(capsys, "area", "--gamma", "0.05", "--eps-p", "0")
    assert code == 2
    assert "ZeroEpsP" in err


def test_region_single_cell(capsys):
    code, out, _ = run(
        capsys,
        "region", "--n", "10", "--eps", "1.0",
        "--p1", "0.5", "--p2", "0.5", "--single-cell",
    )
    assert code == 0
    assert out.strip() == "576"


def test_region_writes_outputs(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "region", "--n", "20", "--eps", "0.05", "--step", "0.1",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    assert int(out.strip()) > 0
    assert (tmp_path / "heatmap.csv").exists()
    pgm = (tmp_path / "heatmap.pgm").read_bytes()
    assert pgm.startswith(b"P5\n")
    assert not list(tmp_path.glob("*.part"))  # atomic: no temp leftovers


def test_planimeter_line(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "planimeter", "--b", "6", "--err", "0.05",
        "--family", "line:y=x", "--fill", "below",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    assert abs(float(out.strip()) - 0.5) <= 1.0 / 120
    payload = json.loads((tmp_path / "planimeter.json").read_text())
    assert payload["g"] == 120
    assert (tmp_path / "mask.pgm").read_bytes().startswith(b"P5\n")


def test_planimeter_acc_band(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "planimeter", "--g", "40", "--family", "acc-band",
        "--gamma", "0.05", "--eps-p", "0.2", "--out-dir", str(tmp_path),
    )
    assert code == 0
    assert abs(float(out.strip()) - 0.75) <= 2.0 / 40


def test_planimeter_tiny_grid_rejected(capsys):
    code, _, err = run(capsys, "planimeter", "--g", "2", "--family", "line:y=x")
    assert code == 2
    assert "DomainError" in err


def test_planimeter_huge_grid_rejected_before_allocation(capsys):
    # --b 6 --err 1e-9 asks for g = 6e9: a usage error, not a MemoryError
    code, out, err = run(capsys, "planimeter", "--b", "6", "--err", "1e-9", "--family", "line:y=x")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "DomainError" in err


# a grid index (value * n) must be finite and the prevalence step must
# lie in (0, 1); each case is a usage error raised before any output
REGION_USAGE_ERRORS = [
    ("--single-cell", "--p1", "0.5", "--p2", "0.5", "--eps", "inf"),
    ("--single-cell", "--p1", "0.5", "--p2", "0.5", "--eps", "1e308"),  # finite, eps * n is not
    ("--single-cell", "--p1", "0.5", "--p2", "0.5", "--eps", "nan"),
    ("--single-cell", "--p1", "0.5", "--p2", "0.5", "--eps", "-0.5"),
    ("--single-cell", "--p1", "0.5", "--p2", "0.5", "--eps=-0.04"),  # rounds to index 0
    ("--single-cell", "--p1", "0.5", "--p2", "0.5", "--eps", "3"),
    ("--single-cell", "--p1", "inf", "--p2", "0.5"),
    ("--single-cell", "--p1", "0.5", "--p2=-inf"),
    ("--single-cell", "--p1", "0.5", "--p2", "0.5", "--ppv-min", "inf"),
    ("--single-cell", "--p1", "0.5", "--p2", "0.5", "--ppv-max=-inf"),
    ("--step", "inf"),
    ("--step", "nan"),
    ("--step", "0"),
    ("--step", "-1"),
    ("--step", "1"),
    ("--ppv-min", "nan"),
    ("--eps", "inf"),
]


@pytest.mark.parametrize("flags", REGION_USAGE_ERRORS, ids=" ".join)
def test_region_rejects_unusable_values(flags, tmp_path, capsys):
    code, out, err = run(capsys, "region", "--n", "10", "--out-dir", str(tmp_path), *flags)
    assert code == 2
    assert out == "" and not any(tmp_path.iterdir())
    assert err.count("\n") == 1 and err.startswith("error: ") and "internal" not in err


@pytest.mark.parametrize("eps_p", ["0", "-0.0"])
def test_planimeter_zero_eps_p_is_usage_error(eps_p, tmp_path, capsys):
    code, out, err = run(
        capsys,
        "planimeter", "--g", "9", "--family", "acc-band",
        "--gamma", "0.05", f"--eps-p={eps_p}", "--out-dir", str(tmp_path),
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "ZeroEpsP" in err


@pytest.mark.parametrize(
    "flags, named",
    [
        (("--gamma=nan", "--eps-p", "0.2"), "--gamma"),
        (("--gamma=-1", "--eps-p", "0.2"), "--gamma"),
        (("--gamma", "0.05", "--eps-p=nan"), "--eps-p"),
        (("--gamma=inf", "--eps-p=-inf"), "--eps-p"),
    ],
)
def test_planimeter_acc_band_rejects_unusable_values(flags, named, tmp_path, capsys):
    code, out, err = run(
        capsys, "planimeter", "--g", "9", "--family", "acc-band", "--out-dir", str(tmp_path), *flags
    )
    assert code == 2
    assert out == "" and not any(tmp_path.iterdir())
    assert err.count("\n") == 1 and "DomainError" in err and named in err


# a zero or infinite tolerance is a band of width 0 or the whole square
@pytest.mark.parametrize(
    "flags, area",
    [
        (("--gamma", "0", "--eps-p", "0.2"), 0.0),
        (("--gamma=inf", "--eps-p", "0.2"), 1.0),
        (("--gamma", "0.05", "--eps-p=-inf"), 0.0),
    ],
)
def test_planimeter_acc_band_edge_values(flags, area, tmp_path, capsys):
    code, out, _ = run(
        capsys, "planimeter", "--g", "9", "--family", "acc-band", "--out-dir", str(tmp_path), *flags
    )
    assert code == 0
    assert abs(float(out) - area) <= 2.0 / 9


def test_region_huge_resolution_rejected_before_enumeration(tmp_path, capsys):
    code, out, err = run(capsys, "region", "--n", "100000", "--out-dir", str(tmp_path))
    assert code == 2
    assert out == "" and not any(tmp_path.iterdir())
    assert err.count("\n") == 1 and "DomainError" in err


def test_import_loads_no_scipy(tmp_path):
    # area and analyze run without numpy; the package resolves each
    # submodule on first access and has no flat names
    csv_path, schema = write_fixture(tmp_path, [["pos", "F", "u"], ["neg", "M", "r"]] * 3)
    probe = f"""
import contextlib, io, sys
import fairfeas.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        fairfeas.cli.main(["area", "--gamma", "0.05", "--eps-p", "0.2"]),
        fairfeas.cli.main(["analyze", "--csv", {str(csv_path)!r}, "--schema", {str(schema)!r},
                           "--grouping", "sex", "--k-grid", "50,100"]),
    ]
assert codes == [0, 0], codes
assert "numpy" not in sys.modules and "scipy" not in sys.modules
import fairfeas
for name in ("cli", "data", "errors", "metrics", "pgm", "planimeter", "region", "relations", "selection"):
    assert getattr(fairfeas, name) is sys.modules["fairfeas." + name], name
assert not hasattr(fairfeas, "heatmap")
print("ok")
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fairfeas.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert result.stdout.strip() == "ok", result.stderr


def write_fixture(tmp_path, rows):
    src = tmp_path / "data.csv"
    with open(src, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["outcome", "sex", "region"])
        w.writerows(rows)
    schema = tmp_path / "schema.json"
    schema.write_text(
        json.dumps({"label": "outcome", "positive": "pos", "sensitive": ["sex", "region"]})
    )
    return src, schema


def test_analyze_equal_prevalence_all(tmp_path, capsys):
    rows = []
    for sex in ("F", "M"):
        rows += [["pos", sex, "u"]] * 25 + [["neg", sex, "u"]] * 25
    src, schema = write_fixture(tmp_path, rows)
    code, out, _ = run(
        capsys,
        "analyze", "--csv", str(src), "--schema", str(schema),
        "--grouping", "sex", "--k-grid", "20,40,60,80,100",
    )
    assert code == 0
    report = json.loads(out)
    assert report["k_scan"]["summary"] == "All"
    assert report["max_prevalence_diff"] == pytest.approx(0.0)


def test_analyze_intersection_report(tmp_path, capsys):
    rows = (
        [["pos", "F", "u"]] * 12 + [["neg", "F", "u"]] * 8
        + [["pos", "F", "r"]] * 4 + [["neg", "F", "r"]] * 16
        + [["pos", "M", "u"]] * 10 + [["neg", "M", "u"]] * 10
        + [["pos", "M", "r"]] * 6 + [["neg", "M", "r"]] * 14
    )
    src, schema = write_fixture(tmp_path, rows)
    code, out, _ = run(
        capsys,
        "analyze", "--csv", str(src), "--schema", str(schema),
        "--grouping", "sex", "--intersect", "sex,region",
        "--k-grid", "50",
    )
    assert code == 0
    report = json.loads(out)
    inter = report["intersection"]
    assert inter["passed"]
    assert (
        inter["intersectional_max_prevalence_diff"]
        >= inter["coarse_max_prevalence_diff"]
    )


def test_analyze_missing_column_usage_error(tmp_path, capsys):
    src = tmp_path / "data.csv"
    src.write_text("outcome,sex\npos,F\n")
    schema = tmp_path / "schema.json"
    schema.write_text(
        json.dumps({"label": "outcome", "positive": "pos", "sensitive": ["sex", "region"]})
    )
    code, _, err = run(
        capsys, "analyze", "--csv", str(src), "--schema", str(schema), "--grouping", "sex"
    )
    assert code == 2
    assert "MissingColumn" in err


# grouping columns must be distinct sensitive columns, an intersection must
# strictly refine the grouping, a sample must hold a row and the k grid must
# strictly increase; each case is a usage error raised before the file is read
ANALYZE_USAGE_ERRORS = [
    ("--grouping", "nope"),
    ("--grouping", "sex", "--intersect", "sex,nope"),
    ("--grouping", "sex", "--intersect", "region"),
    ("--grouping", "sex", "--sample-n", "0"),
    ("--grouping", "sex", "--sample-n", "-1"),
    ("--grouping", "sex", "--cap", "0"),
    ("--grouping", "sex", "--lb", "2"),
    ("--grouping", "sex", "--ub", "0.5"),
    ("--grouping", "sex", "--lb=-inf"),  # with "=": argparse reads a bare -inf as an option
    ("--grouping", "sex", "--k-grid=45,10,60"),
    ("--grouping", "sex,sex"),
    ("--grouping", "sex", "--intersect", "sex,region,region"),
]


def named_in_error(flags):
    if "nope" in " ".join(flags):
        return "nope"
    if "--k-grid=45,10,60" in flags:
        return "strictly increase"
    if any(len(set(flag.split(","))) < len(flag.split(",")) for flag in flags):
        return "must be distinct"
    if "--cap" in flags:
        return "ppv_cap must lie in (0, 1]"
    if any(flag.startswith(("--lb", "--ub")) for flag in flags):
        return "lb <= 1 <= ub"
    return "strict subset" if "--intersect" in flags else "at least 1"


@pytest.mark.parametrize("flags", ANALYZE_USAGE_ERRORS, ids=" ".join)
def test_analyze_rejects_unusable_values(flags, tmp_path, capsys):
    src, schema = write_fixture(tmp_path, [["pos", "F", "u"], ["neg", "M", "r"]] * 3)
    code, out, err = run(
        capsys, "analyze", "--csv", str(src), "--schema", str(schema), "--k-grid", "50", *flags
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "internal" not in err
    assert named_in_error(flags) in err


@pytest.mark.parametrize("flags", ANALYZE_USAGE_ERRORS, ids=" ".join)
def test_analyze_rejects_unusable_values_before_loading(flags, tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("load_csv reached")

    monkeypatch.setattr(data, "load_csv", unreachable)
    _, schema = write_fixture(tmp_path, [["pos", "F", "u"]])
    code, out, err = run(
        capsys, "analyze", "--csv", "unread.csv", "--schema", str(schema), *flags
    )
    assert code == 2
    assert out == ""
    assert "internal" not in err and named_in_error(flags) in err


@pytest.mark.parametrize(
    "cfg,named",
    [
        ({"positive": "pos", "sensitive": ["sex"]}, "'label'"),
        ([{"label": "outcome", "positive": "pos", "sensitive": ["sex"]}], "JSON object"),
        ({"label": "outcome", "positive": "pos", "sensitive": 5}, "'sensitive'"),
        ({"label": "outcome", "positive": True, "sensitive": ["sex"]}, "'positive'"),
        ({"label": "outcome", "positive": 1.0, "sensitive": ["sex"]}, "'positive'"),
        ({"label": "outcome", "positive": None, "sensitive": ["sex"]}, "'positive'"),
        ({"label": "outcome", "positive": ["pos"], "sensitive": ["sex"]}, "'positive'"),
        ({"label": "outcome", "positive": "pos", "sensitive": ["sex"], "id": ["id"]}, "'id'"),
        ({"label": "outcome", "positive": "pos", "sensitive": ["sex"], "id": {"a": 1}}, "'id'"),
        ({"label": "outcome", "positive": "pos", "sensitive": ["sex"], "id": 5}, "'id'"),
        ({"label": "outcome", "positive": "pos", "sensitive": ["sex", "sex", "region"]}, "distinct"),
    ],
    ids=[
        "missing label", "top-level array", "sensitive not a list",
        "positive bool", "positive float", "positive null", "positive list",
        "id list", "id object", "id int", "repeated sensitive",
    ],
)
def test_analyze_malformed_schema_usage_error(cfg, named, tmp_path, capsys):
    src, schema = write_fixture(tmp_path, [["pos", "F", "u"], ["neg", "M", "r"]])
    schema.write_text(json.dumps(cfg))
    code, out, err = run(
        capsys, "analyze", "--csv", str(src), "--schema", str(schema), "--grouping", "sex"
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ValueError: ") and named in err


def test_analyze_default_k_grid_report(tmp_path, capsys):
    rows = [["pos", "F", "u"]] * 6 + [["neg", "F", "u"]] * 14
    rows += [["pos", "M", "u"]] * 9 + [["neg", "M", "u"]] * 11
    src, schema = write_fixture(tmp_path, rows)
    code, out, _ = run(
        capsys, "analyze", "--csv", str(src), "--schema", str(schema), "--grouping", "sex"
    )
    assert code == 0
    report = json.loads(out)
    supplies = [
        selection.GroupSupply(g["key"], g["positives"], g["n"] - g["positives"])
        for g in report["groups"]
    ]
    expected = json.loads(json.dumps(dataclasses.asdict(selection.k_scan(supplies))))
    assert report["k_scan"] == expected
    rows = report["k_scan"]["rows"]
    assert len(rows) == 20
    assert [r["k_pct"] for r in rows] == list(selection.DEFAULT_K_GRID)


def test_analyze_single_k_infeasible_exit_code(tmp_path, capsys):
    # k = 100% with cap 0.7 but prevalence 0.9: padding negatives run out
    rows = [["pos", "F", "u"]] * 18 + [["neg", "F", "u"]] * 2
    src, schema = write_fixture(tmp_path, rows)
    code, out, _ = run(
        capsys,
        "analyze", "--csv", str(src), "--schema", str(schema),
        "--grouping", "sex", "--k-grid", "100",
    )
    assert code == 1
    assert json.loads(out)["k_scan"]["summary"] == "None"


def test_analyze_sampling_deterministic(tmp_path, capsys):
    rows = [["pos" if i % 3 == 0 else "neg", "F" if i % 2 else "M", "u"] for i in range(90)]
    src, schema = write_fixture(tmp_path, rows)
    args = (
        "analyze", "--csv", str(src), "--schema", str(schema),
        "--grouping", "sex", "--sample-n", "30", "--seed", "5", "--k-grid", "50",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["n"] == 30


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("allocation failed its re-check")

    monkeypatch.setattr(selection, "solve_exact", broken)
    rows = [["pos", "F", "u"]] * 5 + [["neg", "M", "u"]] * 5
    src, schema = write_fixture(tmp_path, rows)
    code, out, err = run(
        capsys,
        "analyze", "--csv", str(src), "--schema", str(schema),
        "--grouping", "sex", "--k-grid", "50",
    )
    assert code == 3
    assert out == ""
    assert err == "error: internal: AssertionError: allocation failed its re-check\n"


def test_file_outputs_closed_before_rename(tmp_path, capsys):
    rows = [["pos", "F", "u"]] * 5 + [["neg", "F", "u"]] * 5
    rows += [["pos", "M", "u"]] * 5 + [["neg", "M", "u"]] * 5
    src, schema = write_fixture(tmp_path, rows)
    report = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        analyze = run(
            capsys,
            "analyze", "--csv", str(src), "--schema", str(schema),
            "--grouping", "sex", "--k-grid", "50", "--out", str(report),
        )
        planimeter = run(
            capsys, "planimeter", "--g", "9", "--family", "line:y=x", "--out-dir", str(tmp_path)
        )
    assert analyze[0] == planimeter[0] == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert report.read_text() == analyze[1].rstrip("\n")
    assert (tmp_path / "planimeter.json").read_text() == (
        '{"g": 9, "satisfied": 9, "fraction": 0.1111111111111111}'
    )


def run_argv(argv) -> tuple[int, str, str]:
    """main(argv) with captured streams; argparse rejections count as exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# each flag draws a usable value about half the time, so a sixth or so
# of the runs get past validation into the k-scan (exit 0 or 1)
BAD_NUMBER = st.one_of(
    st.sampled_from(["0", "-0.5", "1.5", "inf", "-inf", "nan", "x"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
CAP_TEXT = st.one_of(st.sampled_from(["0.3", "0.7", "1", "1e-300"]), BAD_NUMBER)
LB_TEXT = st.one_of(st.sampled_from(["0.8", "0", "-0.5", "1", "-1e300"]), BAD_NUMBER)
UB_TEXT = st.one_of(st.sampled_from(["1.2", "1", "7", "inf", "1e300"]), BAD_NUMBER)
K_GRID_TEXT = st.one_of(
    st.lists(st.integers(1, 100), min_size=1, max_size=5).map(lambda xs: ",".join(map(str, xs))),
    st.lists(st.integers(-5, 120), min_size=1, max_size=5).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["", ",", "5,,10", "abc", "5.5", "1e2"]),
)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.sampled_from(["pos", "neg"]), st.sampled_from(["F", "M", "X"])),
        min_size=1,
        max_size=30,
    ),
    cap=CAP_TEXT,
    lb=LB_TEXT,
    ub=UB_TEXT,
    k_grid=K_GRID_TEXT,
    sample_n=st.one_of(st.none(), st.integers(-3, 35)),
)
def test_analyze_fuzz_exits_cleanly(rows, cap, lb, ub, k_grid, sample_n):
    # whatever the flags, a run ends with 0, 1 or 2 and at most one
    # error line; an exception escaping main() fails the test outright
    with tempfile.TemporaryDirectory() as tmp:
        src, schema = write_fixture(Path(tmp), [[label, sex, "u"] for label, sex in rows])
        code, out, err = run_argv([
            "analyze", "--csv", str(src), "--schema", str(schema), "--grouping", "sex",
            f"--cap={cap}", f"--lb={lb}", f"--ub={ub}", f"--k-grid={k_grid}",
        ] + flag_args(sample_n=sample_n))
    assert code in (0, 1, 2)
    assert sum("error:" in line for line in err.splitlines()) == (code == 2)
    assert "Traceback" not in err
    if code != 2:
        report = json.loads(out)
        assert report["k_scan"]["rows"]
        assert report["n"] == (len(rows) if sample_n is None else sample_n)


def assert_clean_exit(code, out, err, parse):
    # usable input prints one number; anything else is one error line
    assert code in (0, 2)
    assert sum("error:" in line for line in err.splitlines()) == (code == 2)
    assert "Traceback" not in err
    if code == 0:
        assert parse(out.strip()) >= 0


def flag_args(**values) -> list[str]:
    """--name=value for each value drawn, skipping flags drawn as None."""
    return [f"--{k.replace('_', '-')}={v}" for k, v in values.items() if v is not None]


def unit_value(*usable):
    return st.one_of(st.none(), st.sampled_from(usable), BAD_NUMBER)


@settings(max_examples=150, deadline=None)
@given(
    n=st.one_of(st.integers(-2, 20), st.sampled_from([401, 10**6])),
    single_cell=st.booleans(),
    eps=unit_value("0", "0.05", "0.1", "1"),
    step=unit_value("0.05", "0.1", "0.25"),
    ppv_min=unit_value("0", "0.3"),
    ppv_max=unit_value("0.99", "0.6"),
    p1=unit_value("0.5", "0.3"),
    p2=unit_value("0.5", "0.7"),
)
def test_region_fuzz_exits_cleanly(n, single_cell, eps, step, ppv_min, ppv_max, p1, p2):
    argv = ["region", f"--n={n}"] + flag_args(
        eps=eps, step=step, ppv_min=ppv_min, ppv_max=ppv_max, p1=p1, p2=p2
    )
    if single_cell:
        argv.append("--single-cell")
    with tempfile.TemporaryDirectory() as tmp:
        assert_clean_exit(*run_argv(argv + ["--out-dir", tmp]), parse=int)


@settings(max_examples=150, deadline=None)
@given(
    g=st.integers(-1, 40),
    family=st.sampled_from(["acc-band", "line:y=x", "circle"]),
    fill=st.sampled_from(["curve-only", "below", "above"]),
    gamma=unit_value("0.05", "0.2"),
    eps_p=st.one_of(st.sampled_from(["-0.0", "0.2", "-0.1"]), unit_value("0.5")),
)
def test_planimeter_fuzz_exits_cleanly(g, family, fill, gamma, eps_p):
    argv = ["planimeter", f"--g={g}", f"--family={family}", f"--fill={fill}"]
    argv += flag_args(gamma=gamma, eps_p=eps_p)
    with tempfile.TemporaryDirectory() as tmp:
        assert_clean_exit(*run_argv(argv + ["--out-dir", tmp]), parse=float)


# about a tenth of the runs print an area
AREA_NUMBER = st.one_of(
    st.sampled_from(["0.05", "0.2", "-0.1"]),
    st.sampled_from(["0.0", "-0.0", "5e-324", "-5e-324", "2.2250738585072014e-308", "1e308", "-1e308"]),
    BAD_NUMBER,
)


@settings(max_examples=200, deadline=None)
@given(gamma=AREA_NUMBER, eps_p=AREA_NUMBER, p=st.one_of(st.none(), AREA_NUMBER))
@example(gamma="0.05", eps_p="-0.1", p="0.05")
def test_area_fuzz_exits_cleanly(gamma, eps_p, p):
    code, out, err = run_argv(["area", f"--gamma={gamma}", f"--eps-p={eps_p}"] + flag_args(p=p))
    assert_clean_exit(code, out, err, parse=float)
    if code == 0:
        assert 0.0 <= float(out) <= 1.0
        assert 0.0 < float(p or 0.5) + float(eps_p) < 1.0
