"""End-to-end runs of the command-line interface through main(argv)."""

import hashlib
import json
import logging
import math
import time

import numpy as np
import pytest

from hrex import jsonio
from hrex.cli import main, model_from_jsonable
from hrex.norming import limit_cdf, theta_bivariate_closed_form

PHI_1 = 0.84134474606854295


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture(autouse=True)
def no_env_out(monkeypatch):
    monkeypatch.delenv("HREX_OUT", raising=False)


# --- hlambda ---------------------------------------------------------------------


def test_hlambda_independent(capsys):
    code, out, _ = run(["hlambda", "--lambda", "inf", "--x", "0", "--y", "0"], capsys)
    assert code == 0
    assert float(out) == pytest.approx(math.exp(-2.0), abs=1e-15)


def test_hlambda_comonotone(capsys):
    code, out, _ = run(["hlambda", "--lambda", "0", "--x", "1", "--y", "2"], capsys)
    assert code == 0
    assert float(out) == pytest.approx(math.exp(-math.exp(-1.0)), abs=1e-15)


def test_hlambda_unit_lambda_diagonal(capsys):
    code, out, _ = run(["hlambda", "--lambda", "1", "--x", "0", "--y", "0"], capsys)
    assert code == 0
    assert float(out) == pytest.approx(math.exp(-2.0 * PHI_1), abs=1e-12)


def test_hlambda_rejects_nan(capsys):
    with pytest.raises(SystemExit):
        main(["hlambda", "--lambda", "nan", "--x", "0", "--y", "0"])


def test_hlambda_below_the_overflow_level(capsys):
    # e^800 overflows a float; the CDF there is 0, not an error
    code, out, err = run(["hlambda", "--lambda", "1", "--x", "-800", "--y", "0"], capsys)
    assert (code, out, err) == (0, "0.0\n", "")


def test_converge_below_the_overflow_level(tmp_path, capsys):
    cfg = {"model": {"name": "iid", "d": 1}, "n_list": [10, 100], "replicates": 100, "x_grid": [[-800.0]]}
    out_dir = tmp_path / "out"
    code, out, err = run(["converge", "--config", write_json(tmp_path / "cfg.json", cfg),
                          "--out", str(out_dir), "--threads", "1"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["sup_deviation"] == {"10": 0.0, "100": 0.0}
    entries = json.loads((out_dir / "report.json").read_text())["entries"]
    assert [e["limit"] for e in entries] == [[0.0], [0.0]]


# --- theta -----------------------------------------------------------------------


def test_theta_all_infinite(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", {"d": 2, "entries": [], "default": "inf"})
    code, out, _ = run(["theta", "--spec-file", spec, "--i", "1", "--x", "0.0,0.5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 1.0
    assert payload["std_error"] == 0.0
    assert "truncation_gap" not in payload


def test_theta_deterministic(tmp_path, capsys):
    spec = write_json(
        tmp_path / "spec.json",
        {"d": 2, "entries": [{"i": 1, "j": 2, "k": 0, "delta": 1.0}], "default": "inf"},
    )
    argv = ["theta", "--spec-file", spec, "--i", "2", "--x", "0,0", "--samples", "20000"]
    code_a, out_a, _ = run(argv, capsys)
    code_b, out_b, _ = run(argv, capsys)
    assert code_a == code_b == 0
    assert out_a == out_b
    value = json.loads(out_a)["value"]
    assert 0.0 < value < 1.0


def test_theta_truncation_gap_reported(tmp_path, capsys):
    spec = write_json(
        tmp_path / "spec.json",
        {
            "d": 1,
            "entries": [
                {"i": 1, "j": 1, "k": 1, "delta": 1.0},
                {"i": 1, "j": 1, "k": 2, "delta": 2.0},
                {"i": 1, "j": 1, "k": 3, "delta": 3.0},
            ],
            "default": "inf",
        },
    )
    code, out, _ = run(
        ["theta", "--spec-file", spec, "--i", "1", "--x", "0", "--samples", "5000",
         "--max-lag", "1"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    gap = payload["truncation_gap"]
    assert gap["lag"] == 1 and gap["lag_doubled"] == 2
    assert gap["gap"] == pytest.approx(abs(gap["value"] - gap["value_doubled"]))


def test_theta_inconsistent_spec_fails_cleanly(tmp_path, capsys):
    # two components at tiny distance from the target but huge distance
    # from each other: the implied constraint correlation exceeds 1
    spec = write_json(
        tmp_path / "spec.json",
        {
            "d": 3,
            "entries": [
                {"i": 1, "j": 3, "k": 0, "delta": 0.01},
                {"i": 2, "j": 3, "k": 0, "delta": 0.01},
                {"i": 1, "j": 2, "k": 0, "delta": 100.0},
            ],
            "default": "inf",
        },
    )
    code, out, err = run(["theta", "--spec-file", spec, "--i", "3", "--x", "0,0,0"], capsys)
    assert code == 2
    assert out == ""
    failure = json.loads(err)
    assert failure["error"] == "InvalidDeltaSpec"
    assert "PSD" in failure["message"] or "inconsistent" in failure["message"]


@pytest.mark.parametrize(
    "spec, named",
    [
        ({"d": 2, "entries": [{"i": 1, "j": 2, "k": 0, "delta": None}]}, "'delta': None"),
        ({"d": 2, "entries": [{"i": 1, "j": 2, "k": 0, "delta": "1.0"}]}, "'delta': '1.0'"),
        ({"d": 2, "entries": [{"i": 1, "j": 2, "k": 0, "delta": True}]}, "'delta': True"),
        ({"d": 2, "entries": [{"i": "1", "j": 2, "k": 0, "delta": 1.0}]}, "'i': '1'"),
        ({"d": 2, "entries": [{"i": 1, "j": 2, "k": 0.0, "delta": 1.0}]}, "'k': 0.0"),
        ({"d": 2, "entries": [{"i": 1, "j": True, "k": 0, "delta": 1.0}]}, "'j': True"),
        ({"d": True, "entries": []}, "'d'"),
        ({"d": 2, "entries": None}, "'entries'"),
        ([1, 2], "must be a JSON object, got [1, 2]"),
        ({"d": 2, "entries": [{"i": 1, "j": 2, "k": 0, "delta": 1.0}, {"i": 1, "j": 2, "k": 0, "delta": 2.0}]},
         "'delta': 2.0"),
    ],
)
def test_theta_rejects_malformed_spec_entries(tmp_path, capsys, spec, named):
    path = write_json(tmp_path / "spec.json", spec)
    code, out, err = run(["theta", "--spec-file", path, "--i", "1", "--x", "0"], capsys)
    assert code == 2 and out == ""
    failure = json.loads(err)
    assert failure["error"] == "InvalidDeltaSpec" and named in failure["message"]


# --- converge ----------------------------------------------------------------------


CONVERGE_CFG = {
    "model": {"name": "iid", "d": 1},
    "n_list": [8, 64],
    "replicates": 400,
    "x_grid": [[0.0], [1.0]],
    "theta": {"method": "ones"},
    "seed": 13,
}


def test_converge_rejects_malformed_spec_entries(tmp_path, capsys):
    entry = {"i": "1", "j": 2, "k": 0, "delta": 1.0}
    model = {"name": "hr", "delta_spec": {"d": 2, "entries": [entry], "default": "inf"}}
    cfg = write_json(tmp_path / "cfg.json", {**CONVERGE_CFG, "model": model})
    code, out, err = run(["converge", "--config", cfg, "--threads", "1"], capsys)
    assert code == 2 and out == ""
    failure = json.loads(err)
    assert failure["error"] == "InvalidDeltaSpec" and "'i': '1'" in failure["message"]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_converge_rejects_threads_below_one(threads, tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", CONVERGE_CFG)
    out_dir = tmp_path / "out"
    code, out, err = run(
        ["converge", "--config", cfg, "--out", str(out_dir), "--threads", threads], capsys
    )
    assert code == 2 and out == ""
    failure = json.loads(err)
    assert failure["error"] == "ValueError" and "--threads" in failure["message"]
    assert not out_dir.exists()


def test_converge_writes_report_and_manifest(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", CONVERGE_CFG)
    out_dir = tmp_path / "out"
    code, out, _ = run(
        ["converge", "--config", cfg, "--out", str(out_dir), "--threads", "1"], capsys
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["verdict"] == "decreasing"
    assert summary["failures"] == []
    assert set(summary["sup_deviation"]) == {"8", "64"}
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "report.json").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["subcommand"] == "converge"
    assert manifest["seed"] == 13
    names = {f["name"] for f in manifest["files"]}
    assert names == {"report.csv", "report.json"}
    for f in manifest["files"]:
        digest = hashlib.sha256((out_dir / f["name"]).read_bytes()).hexdigest()
        assert digest == f["sha256"]


def test_converge_reruns_identically(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", CONVERGE_CFG)
    manifests = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code, _, _ = run(
            ["converge", "--config", cfg, "--out", str(out_dir), "--threads", "1"],
            capsys,
        )
        assert code == 0
        manifests.append(json.loads((out_dir / "manifest.json").read_text())["files"])
    assert manifests[0] == manifests[1]


def test_converge_thread_count_does_not_change_results(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", CONVERGE_CFG)
    digests = []
    for name, threads in (("t1", "1"), ("t2", "2")):
        out_dir = tmp_path / name
        code, _, _ = run(
            ["converge", "--config", cfg, "--out", str(out_dir), "--threads", threads],
            capsys,
        )
        assert code == 0
        digests.append(hashlib.sha256((out_dir / "report.csv").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_converge_env_out_overrides_flag(tmp_path, capsys, monkeypatch):
    cfg = write_json(tmp_path / "cfg.json", CONVERGE_CFG)
    env_dir = tmp_path / "env"
    flag_dir = tmp_path / "flag"
    monkeypatch.setenv("HREX_OUT", str(env_dir))
    code, _, _ = run(
        ["converge", "--config", cfg, "--out", str(flag_dir), "--threads", "1"], capsys
    )
    assert code == 0
    assert (env_dir / "report.csv").exists()
    assert not flag_dir.exists()


def test_converge_closed_form_theta_values(tmp_path, capsys):
    grid = [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.5]]
    values = [list(theta_bivariate_closed_form(1.0, *x)) for x in grid]
    model = {"name": "hr", "delta_spec": {"d": 2, "entries": [{"i": 1, "j": 2, "k": 0, "delta": 1.0}]}}
    cfg = {**CONVERGE_CFG, "model": model, "x_grid": grid, "theta": {"method": "values", "values": values}}
    out_dir = tmp_path / "out"
    argv = ["converge", "--config", write_json(tmp_path / "cfg.json", cfg), "--threads", "1"]
    code, _, _ = run(argv + ["--out", str(out_dir)], capsys)
    assert code in (0, 1)
    report = json.loads((out_dir / "report.json").read_text())
    limits = [limit_cdf(v, x) for v, x in zip(values, grid)]
    assert [e["limit"] for e in report["entries"]] == [limits, limits]
    write_json(tmp_path / "cfg.json", {**cfg, "theta": {"method": "values", "values": values[:2]}})
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": "need one theta vector per grid point"}


def test_converge_mc_thetas_on_dependent_model(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "cfg.json",
        {
            "model": {
                "name": "hr",
                "delta_spec": {
                    "d": 2,
                    "entries": [{"i": 1, "j": 2, "k": 0, "delta": 1.0}],
                    "default": "inf",
                },
            },
            "n_list": [16, 128],
            "replicates": 300,
            "x_grid": [[0.0, 0.0]],
            "theta": {"method": "mc", "samples": 20000},
            "seed": 5,
        },
    )
    code, out, _ = run(["converge", "--config", cfg, "--threads", "1"], capsys)
    summary = json.loads(out)
    assert code in (0, 1)
    assert summary["verdict"] in ("decreasing", "not-decreasing")
    assert code == (0 if summary["verdict"] == "decreasing" else 1)


def test_converge_threads_bound_the_theta_stage(tmp_path, capsys, pool_sizes, monkeypatch):
    # finite coefficients at lags 1-40 truncated at 32 give 40 W slots at the
    # doubled lag, so 70,000 samples draw 2.8e6 normals in nine batches, enough
    # to split; the paths (n = 2 and 8, 100 replicates) are too small to split
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    entries = [{"i": 1, "j": 1, "k": k, "delta": 1.0} for k in range(1, 41)]
    cfg = write_json(tmp_path / "cfg.json", {
        "model": {"name": "hr", "delta_spec": {"d": 1, "entries": entries, "default": "inf"}},
        "n_list": [2, 8], "replicates": 100, "x_grid": [[0.0]],
        "theta": {"method": "mc", "samples": 70_000, "max_lag": 32}, "seed": 3,
    })
    results = {}
    for threads in ("1", "2"):
        pool_sizes.clear()
        out_dir = tmp_path / ("t" + threads)
        code, _, _ = run(["converge", "--config", cfg, "--out", str(out_dir), "--threads", threads], capsys)
        results[threads] = (code, (out_dir / "report.json").read_bytes())
        assert pool_sizes == ([] if threads == "1" else [2])
    assert results["1"] == results["2"]


def test_converge_reports_a_rising_deviation_as_a_failure(tmp_path, capsys):
    # theta = 0 makes the limit 1 at x = -1, and the exact deviation
    # 1 - Phi(u_n(-1))^n rises from 0.871 at n = 10 to 0.898 at n = 1e4,
    # far beyond the two-SE slack of about 0.006
    cfg = {"model": {"name": "iid", "d": 1}, "n_list": [10, 10000], "replicates": 20_000,
           "x_grid": [[-1.0]], "theta": {"method": "values", "values": [[0.0]]}, "seed": 13}
    argv = ["converge", "--config", write_json(tmp_path / "cfg.json", cfg), "--threads", "1"]
    code, out, _ = run(argv, capsys)
    summary = json.loads(out)
    assert code == 1 and summary["verdict"] == "not-decreasing"
    (failure,) = summary["failures"]
    assert (failure["from_n"], failure["to_n"]) == (10, 10000)
    assert failure["increase"] > failure["slack"]


# --- check -------------------------------------------------------------------------


def test_check_iid_passes(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "cfg.json",
        {"model": {"name": "iid", "d": 1}, "n_list": [100, 1000], "m_list": [1, 2]},
    )
    out_dir = tmp_path / "out"
    code, out, _ = run(["check", "--config", cfg, "--out", str(out_dir)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert all(v == "pass" for v in payload["verdicts"].values())
    assert all(row["long_range"] == 0.0 for row in payload["rows"])
    header = (out_dir / "conditions.csv").read_text().splitlines()[0]
    assert header == "n,l_n,r_n,long_range,simplified,short_range_m1,short_range_m2"


def test_check_writes_one_column_per_distinct_m(tmp_path, capsys):
    # a repeated m is one key of each row, so one column of the csv, as in the json
    cfg = write_json(
        tmp_path / "cfg.json",
        {"model": {"name": "iid", "d": 1}, "n_list": [100, 1000], "m_list": [1, 1]},
    )
    out_dir = tmp_path / "out"
    code, _, _ = run(["check", "--config", cfg, "--out", str(out_dir)], capsys)
    assert code == 0
    lines = (out_dir / "conditions.csv").read_text().splitlines()
    rows = json.loads((out_dir / "conditions.json").read_text())["rows"]
    header = lines[0].split(",")
    assert header == ["n", "l_n", "r_n", "long_range", "simplified", "short_range_m1"]
    assert [line.split(",") for line in lines[1:]] == [[repr(row[h]) for h in header] for row in rows]

def test_check_constant_correlation_flagged(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "cfg.json",
        {
            "model": {"name": "constant", "d": 1, "rho": 0.4},
            "n_list": [100, 400, 1600],
        },
    )
    code, out, _ = run(["check", "--config", cfg], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["verdicts"]["simplified"] == "fail"
    values = [row["simplified"] for row in payload["rows"]]
    assert values[0] < values[1] < values[2]


def test_check_json_output_file(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "cfg.json",
        {"model": {"name": "iid", "d": 2}, "n_list": [50, 200]},
    )
    out_dir = tmp_path / "out"
    code, _, _ = run(["check", "--config", cfg, "--out", str(out_dir)], capsys)
    assert code == 0
    obj = json.loads((out_dir / "conditions.json").read_text())
    assert {"rows", "verdicts"} <= set(obj)
    # the same rows go to the csv beside it, and the manifest lists both
    assert len((out_dir / "conditions.csv").read_text().splitlines()) == 1 + len(obj["rows"])
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert [f["name"] for f in manifest["files"]] == ["conditions.csv", "conditions.json"]


def test_check_survives_a_correlation_at_the_clamp(tmp_path, capsys):
    # delta(1) = 40 maps to rho = 1 - 40 / ln n < -1 at these n, which hr_family
    # clamps to -1 + 1e-9; the short-range term there underflows to 0
    entry = {"i": 1, "j": 1, "k": 1, "delta": 40.0}
    cfg = write_json(
        tmp_path / "cfg.json",
        {"model": {"name": "hr", "delta_spec": {"d": 1, "entries": [entry]}}, "n_list": [1000, 10000]},
    )
    code, out, err = run(["check", "--config", cfg], capsys)
    payload = json.loads(out)
    assert err == ""
    assert code == (0 if all(v == "pass" for v in payload["verdicts"].values()) else 1)
    assert all(math.isfinite(v) for row in payload["rows"] for v in row.values())
    # lags 2..l_n have zero correlation, 1/n each; the clamped lag 1 adds nothing
    assert payload["rows"][0]["short_range_m1"] == pytest.approx(0.062, rel=1e-12)


def test_report_csv_files_end_lines_with_bare_newlines(tmp_path, capsys):
    converge = write_json(tmp_path / "converge.json", CONVERGE_CFG)
    check = write_json(tmp_path / "check.json", {"model": {"name": "iid", "d": 1}, "n_list": [50, 200]})
    assert run(["converge", "--config", converge, "--out", str(tmp_path / "a"), "--threads", "1"], capsys)[0] == 0
    assert run(["check", "--config", check, "--out", str(tmp_path / "b")], capsys)[0] == 0
    for path in (tmp_path / "a" / "report.csv", tmp_path / "b" / "conditions.csv"):
        data = path.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n")


# --- lemma1 ------------------------------------------------------------------------


def test_lemma1_passes(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "cfg.json",
        {"n": 3, "d": 2, "atoms": [-1.0, 0.5, 2.0], "thresholds": [0.0, 0.0]},
    )
    out_dir = tmp_path / "out"
    code, out, _ = run(["lemma1", "--config", cfg, "--out", str(out_dir)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["difference"] <= payload["tolerance"]
    assert json.loads((out_dir / "lemma1.json").read_text()) == payload


def test_lemma1_refuses_a_huge_row_at_once(tmp_path, capsys):
    # a one-atom law has support 1 at any n, so the cap must count the n * d
    # cell values too, and before the n * d cells are built: this one would
    # need terabytes
    cfg = write_json(tmp_path / "cfg.json", {"n": 10**12, "d": 1, "atoms": [0.0], "thresholds": [1.0]})
    started = time.monotonic()
    code, out, err = run(["lemma1", "--config", cfg], capsys)
    assert time.monotonic() - started < 1.0
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "ValueError",
        "message": "enumerating 1000000000000 x 1 matrices holds more than the cap of 1000000 cell values",
    }


def test_lemma1_rejects_an_empty_atom_list(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"n": 2, "d": 1, "atoms": [], "thresholds": [1.0]})
    code, out, err = run(["lemma1", "--config", cfg], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": "need at least one atom"}


def test_lemma1_weighted_atoms(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "cfg.json",
        {
            "n": 2,
            "d": 1,
            "atoms": [-1.0, 1.0],
            "probs": [0.25, 0.75],
            "thresholds": [0.0],
        },
    )
    code, out, _ = run(["lemma1", "--config", cfg], capsys)
    assert code == 0
    payload = json.loads(out)
    # P(max > 0) = 1 - 0.25^2
    assert payload["lhs"] == pytest.approx(1.0 - 0.0625, abs=1e-15)


# --- sample ------------------------------------------------------------------------


SAMPLE_CFG = {
    "model": {"name": "geometric", "d": 1, "rate": 0.5},
    "length": 16,
    "count": 3,
    "seed": 7,
}


def test_sample_writes_paths(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", SAMPLE_CFG)
    out_dir = tmp_path / "paths"
    code, out, _ = run(["sample", "--config", cfg, "--out", str(out_dir)], capsys)
    assert code == 0
    assert json.loads(out) == {"paths": 3, "out_dir": str(out_dir)}
    files = sorted(f.name for f in out_dir.iterdir())
    assert files == ["manifest.json", "path_000000.bin", "path_000001.bin", "path_000002.bin"]
    blob = (out_dir / "path_000000.bin").read_bytes()
    assert blob[:8] == b"HREXPATH"
    assert len(blob) == 8 + 8 + 8 + 16 * 1 * 8


def test_sample_logs_its_route(tmp_path, capsys, caplog):
    # an MA(1) table declares no AR(1) row but a finite horizon, so even a
    # short path takes the banded route
    caplog.set_level(logging.DEBUG, logger="hrex.sampler")
    ma1 = {"name": "tabulated", "d": 1, "entries": [{"i": 1, "j": 1, "k": 1, "rho": 0.3}]}
    cfg = write_json(tmp_path / "cfg.json", {**SAMPLE_CFG, "model": ma1, "model_n": 100})
    assert run(["sample", "--config", cfg, "--out", str(tmp_path / "paths")], capsys)[0] == 0
    messages = [r.getMessage() for r in caplog.records if r.name == "hrex.sampler"]
    assert messages == ["iter_path_blocks route=banded length=16 n=100 count=3 values=48"]


def path0_dumps_by_count_and_threads(model, tmp_path, capsys, pool_sizes):
    """path_000000.bin of `hrex sample` on a length-300 d = 2 model, seed 3,
    at count 1, 7 and 23 with --threads 1, and at count 23 with --threads 2,
    which splits the batch into two parts."""
    dumps = []
    for count, threads in ((1, "1"), (7, "1"), (23, "1"), (23, "2")):
        cfg = write_json(tmp_path / "cfg.json", {"model": model, "length": 300, "count": count, "seed": 3})
        out_dir = tmp_path / ("c%d_t%s" % (count, threads))
        pool_sizes.clear()
        argv = ["sample", "--config", cfg, "--out", str(out_dir), "--sampler", "cholesky", "--threads", threads]
        assert run(argv, capsys)[0] == 0
        assert pool_sizes == ([2] if threads == "2" else [])
        dumps.append((out_dir / "path_000000.bin").read_bytes())
    assert len(dumps[0]) == 24 + 300 * 2 * 8
    return dumps


def test_sample_short_ma1_dump_does_not_depend_on_count_or_threads(tmp_path, capsys, pool_sizes, monkeypatch):
    # L * d = 600: this MA(1) table once took the dense route, whose path 0
    # moved by 4.4e-16 between count 1 and 7; the banded route writes the
    # same bytes at every count and thread count
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    ma1 = {"name": "tabulated", "d": 2, "entries": [{"i": 1, "j": 1, "k": 1, "rho": 0.3},
                                                    {"i": 1, "j": 2, "k": 0, "rho": 0.2},
                                                    {"i": 1, "j": 2, "k": 1, "rho": 0.1}]}
    dumps = path0_dumps_by_count_and_threads(ma1, tmp_path, capsys, pool_sizes)
    assert dumps == [dumps[0]] * 4


def test_sample_constant_dump_does_not_depend_on_count_or_threads(tmp_path, capsys, pool_sizes, monkeypatch):
    # the constant model never vanishes, so the banded route factors its full
    # band, 600 rows wide, and applies it by one dtbmv per path: the bytes the
    # dense route moved by 8.9e-16 between count 1 and 7 stay put
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    constant = {"name": "constant", "d": 2, "rho": 0.3}
    dumps = path0_dumps_by_count_and_threads(constant, tmp_path, capsys, pool_sizes)
    assert dumps == [dumps[0]] * 4


def test_sample_cholesky_writes_geometric_paths_beyond_the_dense_cap(tmp_path, capsys, caplog):
    # L * d = 10,000 exceeds DENSE_CAP = 8192, and geometric rows have no
    # finite band, so their full band would be refused: the ar1 route
    # samples them exactly, in the dump format
    from hrex.correlation import geometric_model
    from hrex.rng import RngKey
    from hrex.sampler import iter_path_blocks, read_path

    caplog.set_level(logging.DEBUG, logger="hrex.sampler")
    model = {"name": "geometric", "d": 2, "rate": 0.6, "cross": 0.4}
    cfg = write_json(tmp_path / "cfg.json", {"model": model, "length": 5000, "count": 2, "seed": 3})
    out_dir = tmp_path / "paths"
    code, out, _ = run(["sample", "--config", cfg, "--out", str(out_dir), "--sampler", "cholesky"], capsys)
    assert code == 0 and json.loads(out) == {"paths": 2, "out_dir": str(out_dir)}
    messages = [r.getMessage() for r in caplog.records if r.name == "hrex.sampler"]
    assert messages == ["iter_path_blocks route=ar1 length=5000 n=5000 count=2 values=20000"]
    (_, block), = iter_path_blocks(geometric_model(2, 0.6, 0.4), 5000, RngKey(3).child(5000), 2)
    for r in range(2):
        blob = (out_dir / ("path_%06d.bin" % r)).read_bytes()
        assert blob[:8] == b"HREXPATH" and len(blob) == 24 + 5000 * 2 * 8
        with open(out_dir / ("path_%06d.bin" % r), "rb") as fh:
            values = read_path(fh).values
        assert values.shape == (5000, 2) and values.tobytes() == np.ascontiguousarray(block[r]).tobytes()


def test_sample_deterministic(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", SAMPLE_CFG)
    blobs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code, _, _ = run(["sample", "--config", cfg, "--out", str(out_dir)], capsys)
        assert code == 0
        blobs.append((out_dir / "path_000002.bin").read_bytes())
    assert blobs[0] == blobs[1]


def test_sample_requires_out_dir(tmp_path, capsys, monkeypatch):
    # the output directory is checked before any path is sampled
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampler called without an output directory")

    monkeypatch.setattr("hrex.cli.iter_path_blocks", no_sampling)
    cfg = write_json(tmp_path / "cfg.json", SAMPLE_CFG)
    code, _, err = run(["sample", "--config", cfg], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "ValueError"


def test_converge_reports_a_failed_allocation(tmp_path, capsys, monkeypatch):
    # exit 1 means a check ran and failed; a run that cannot allocate its
    # maxima exits 2 with the failure record, as a bad config does
    message = "Unable to allocate 149. TiB for an array with shape (10000000000000, 2)"

    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("hrex.cli.run_maxima_experiment", no_memory)
    cfg = {"model": {"name": "geometric", "d": 2, "rate": 0.5}, "n_list": [100, 1000],
           "replicates": 10**13, "x_grid": [[0.0, 0.0]], "theta": {"method": "ones"}}
    code, out, err = run(["converge", "--config", write_json(tmp_path / "cfg.json", cfg)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "MemoryError", "message": message}

def test_sample_requires_path_length(tmp_path, capsys):
    # n is the array-row size elsewhere, so it does not stand in for the path length
    cfg = {**{k: v for k, v in SAMPLE_CFG.items() if k != "length"}, "n": 16}
    out_dir = tmp_path / "paths"
    code, _, err = run(
        ["sample", "--config", write_json(tmp_path / "cfg.json", cfg), "--out", str(out_dir)],
        capsys,
    )
    assert code == 2
    failure = json.loads(err)
    assert failure["error"] == "ValueError" and "length" in failure["message"]
    assert list(out_dir.glob("path_*.bin")) == []


def test_sample_rejects_count_below_one(tmp_path, capsys):
    for count in (0, -3):
        out_dir = tmp_path / ("paths_%d" % count)
        cfg = write_json(tmp_path / "cfg.json", {**SAMPLE_CFG, "count": count})
        code, out, err = run(["sample", "--config", cfg, "--out", str(out_dir)], capsys)
        assert code == 2 and out == ""
        failure = json.loads(err)
        assert failure["error"] == "ValueError" and "count" in failure["message"]
        assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_sample_rejects_threads_below_one(threads, tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", SAMPLE_CFG)
    out_dir = tmp_path / "out"
    code, out, err = run(["sample", "--config", cfg, "--out", str(out_dir), "--threads", threads], capsys)
    assert code == 2 and out == ""
    failure = json.loads(err)
    assert failure["error"] == "ValueError" and "--threads" in failure["message"]
    assert not out_dir.exists()


@pytest.mark.parametrize("cfg", [
    # circulant: two paths per cycle of 9000 on d = 2, 60000 floats of footprint per cycle
    {"model": {"name": "geometric", "d": 2, "rate": 0.6, "cross": 0.4}, "length": 3000, "count": 6,
     "sampler": "circulant", "seed": 5},
    # banded: a bandwidth of 3 on L * d = 10000
    {"model": {"name": "tabulated", "d": 2, "entries": [{"i": 1, "j": 1, "k": 1, "rho": 0.3},
                                                        {"i": 1, "j": 2, "k": 0, "rho": 0.2}]},
     "length": 5000, "count": 5, "seed": 6},
], ids=["circulant", "banded"])
def test_sample_dumps_do_not_depend_on_threads(cfg, tmp_path, capsys, pool_sizes, monkeypatch):
    # --threads 3 splits each batch into three parts on a pool, and writes
    # the bytes that --threads 1 writes from one
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    path = write_json(tmp_path / "cfg.json", cfg)
    dumps = {}
    for threads in ("1", "3"):
        out_dir = tmp_path / ("t" + threads)
        pool_sizes.clear()
        assert run(["sample", "--config", path, "--out", str(out_dir), "--threads", threads], capsys)[0] == 0
        assert (pool_sizes == [3]) == (threads == "3")
        names = sorted(f.name for f in out_dir.glob("path_*.bin"))
        assert len(names) == cfg["count"]
        files = json.loads((out_dir / "manifest.json").read_text())["files"]
        dumps[threads] = ([(out_dir / name).read_bytes() for name in names], files)
    assert dumps["1"] == dumps["3"]


def test_sample_rejects_non_numeric_model_n(tmp_path, capsys):
    hr = {"name": "hr", "delta_spec": {"d": 1, "entries": [{"i": 1, "j": 1, "k": 1, "delta": 5.0}]}}
    for name, model, model_n in (("hr", hr, "1000"), ("geo", SAMPLE_CFG["model"], [5])):
        out_dir = tmp_path / name
        cfg = write_json(tmp_path / "cfg.json", {**SAMPLE_CFG, "model": model, "model_n": model_n})
        code, out, err = run(["sample", "--config", cfg, "--out", str(out_dir)], capsys)
        assert code == 2 and out == ""
        failure = json.loads(err)
        assert failure["error"] == "ValueError" and "model_n" in failure["message"]
        assert list(out_dir.iterdir()) == []
    cfg = write_json(tmp_path / "cfg.json", {**SAMPLE_CFG, "model": hr, "model_n": 1000})
    code, _, _ = run(["sample", "--config", cfg, "--out", str(tmp_path / "ok")], capsys)
    assert code == 0


# --- failure paths -------------------------------------------------------------------


@pytest.mark.parametrize(
    "model, named",
    [
        ({"name": "tabulated", "d": 2, "entries": [{"i": "1", "j": 2, "k": 0, "rho": 0.3}]},
         "model.entries[0].i must be an integer, got '1'"),
        ({"name": "tabulated", "d": 2, "entries": [{"i": 1, "j": 2, "k": 0.0, "rho": 0.3}]},
         "model.entries[0].k must be an integer, got 0.0"),
        ({"name": "tabulated", "d": 2, "entries": [[1, 2, 0, 0.3]]},
         "model.entries[0] must be a JSON object, got [1, 2, 0, 0.3]"),
        (3, "model must be a JSON object, got 3"),
        ({"name": "geometric", "d": 2.7, "rate": 0.5}, "model.d must be an integer, got 2.7"),
        ({"name": "iid", "d": True}, "model.d must be an integer, got True"),
        ({"name": "constant", "d": 1, "rho": "0.3"}, "model.rho must be a number, got '0.3'"),
        ({"name": "tabulated", "d": 2, "entries": [{"i": 1, "j": 2, "k": 0, "rho": 0.2},
                                                   {"i": 2, "j": 1, "k": 0, "rho": 0.3}]},
         "conflicting values 0.2 and 0.3 for rho(1,2,0) = rho(2,1,0)"),
        ({"name": "tabulated", "d": 2, "entries": [{"i": 1, "j": 2, "k": 0, "rho": 0.2},
                                                   {"i": 1, "j": 2, "k": 0, "rho": 0.3}]},
         "model.entries[1]: conflicting value 0.3 for rho(1,2,0)"),
    ],
)
def test_check_rejects_malformed_model(tmp_path, capsys, model, named):
    cfg = write_json(tmp_path / "cfg.json", {"model": model, "n_list": [100, 1000]})
    code, out, err = run(["check", "--config", cfg], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": named}


HR_SERIAL = {"name": "hr", "delta_spec": {"d": 1, "entries": [{"i": 1, "j": 1, "k": 1, "delta": 5.0}]}}


@pytest.mark.parametrize(
    "command, cfg, named",
    [
        ("converge", {**CONVERGE_CFG, "theta": 5}, "theta must be a JSON object, got 5"),
        ("converge", {**CONVERGE_CFG, "model": HR_SERIAL, "theta": {"max_lag": "3"}},
         "theta.max_lag must be an integer, got '3'"),
        ("converge", {**CONVERGE_CFG, "n_list": 5}, "n_list must be a list, got 5"),
        ("converge", {**CONVERGE_CFG, "n_list": [8, 64.0]}, "n_list[1] must be an integer, got 64.0"),
        ("converge", {**CONVERGE_CFG, "x_grid": [0.0, 1.0]}, "x_grid[0] must be a list, got 0.0"),
        ("check", {"model": {"name": "iid", "d": 1}, "n_list": [100], "m_list": 1},
         "m_list must be a list, got 1"),
        ("lemma1", [3, 2], "config must be a JSON object, got [3, 2]"),
        ("converge", {**CONVERGE_CFG, "theta": {"method": "mc"}},
         "theta method 'mc' needs a model with a coefficient spec"),
        ("converge", {**CONVERGE_CFG, "theta": {"method": "exact"}}, "unknown theta method 'exact'"),
        ("check", {"model": {"name": "iid", "d": 1}, "n_list": [100], "seed": "not-a-seed"},
         "seed must be an integer, got 'not-a-seed'"),
        ("lemma1", {"n": 3, "d": 2, "atoms": [-1, 0.5, 2], "thresholds": [0, 0], "seed": 1.5},
         "seed must be an integer, got 1.5"),
    ],
)
def test_rejects_mistyped_config_fields(tmp_path, capsys, command, cfg, named):
    out_dir = tmp_path / "out"
    argv = [command, "--config", write_json(tmp_path / "cfg.json", cfg), "--out", str(out_dir)]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": named}
    assert not out_dir.exists() or list(out_dir.iterdir()) == []


@pytest.mark.parametrize("n_list", [[1000, 100], [1000, 1000], []])
def test_check_rejects_an_n_list_out_of_order(tmp_path, capsys, n_list):
    # the trend verdicts read the rows in order: [1000, 100] passed every one
    # of them while the long-range sum grows with n, and [] named no field
    cfg = {"model": {"name": "constant", "d": 1, "rho": 0.3}, "n_list": n_list}
    code, out, err = run(["check", "--config", write_json(tmp_path / "cfg.json", cfg)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": "need a strictly increasing, non-empty n list"}


def test_check_flags_a_growing_long_range_sum(tmp_path, capsys):
    cfg = {"model": {"name": "constant", "d": 1, "rho": 0.3}, "n_list": [100, 1000]}
    code, out, _ = run(["check", "--config", write_json(tmp_path / "cfg.json", cfg)], capsys)
    assert code == 1 and json.loads(out)["verdicts"]["long_range"] == "fail"


@pytest.mark.parametrize(
    "argv, body, literal",
    [
        (["converge", "--config"], {**CONVERGE_CFG, "x_grid": [[math.nan], [1.0]]}, "NaN"),
        (["check", "--config"], {"model": {"name": "iid", "d": 1}, "n_list": [100, 1000], "l_exponent": math.nan},
         "NaN"),
        (["lemma1", "--config"], {"n": 2, "d": 1, "atoms": [0.0, 1.0], "thresholds": [math.inf]}, "Infinity"),
        (["sample", "--config"], {**SAMPLE_CFG, "model_n": -math.inf}, "-Infinity"),
        (["theta", "--i", "1", "--x", "0", "--spec-file"],
         {"d": 1, "entries": [{"i": 1, "j": 1, "k": 1, "delta": math.nan}]}, "NaN"),
    ],
    ids=["converge", "check", "lemma1", "sample", "theta"],
)
def test_rejects_non_json_literals_by_name(tmp_path, capsys, argv, body, literal):
    # json.dumps writes NaN and the infinities as bare literals, which Python's
    # parser reads back; the reader refuses them before any field is read
    code, out, err = run(argv + [write_json(tmp_path / "in.json", body)], capsys)
    assert code == 2 and out == ""
    failure = json.loads(err)
    assert failure["error"] == "ValueError"
    assert failure["message"] == '%s is not JSON: infinity is the string "inf", and NaN has no encoding' % literal


@pytest.mark.parametrize("command", ["converge", "theta"])
def test_rejects_a_negative_seed_by_name(tmp_path, capsys, command):
    # numpy's own message, "expected non-negative integer", named nothing
    if command == "converge":
        argv = ["converge", "--config", write_json(tmp_path / "cfg.json", {**CONVERGE_CFG, "seed": -1})]
    else:
        spec = write_json(tmp_path / "spec.json", {"d": 2, "entries": [], "default": "inf"})
        argv = ["theta", "--spec-file", spec, "--i", "1", "--x", "0,0", "--seed", "-5"]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    failure = json.loads(err)
    assert failure["error"] == "ValueError" and failure["message"].startswith("seed must be non-negative")


def test_check_rejects_flags_it_does_not_read(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--config", "cfg.json", "--threads", "2"])
    assert exc.value.code == 2


def test_unknown_model_name(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "cfg.json", {"model": {"name": "markov"}, "n_list": [10]}
    )
    code, _, err = run(["check", "--config", cfg], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "ValueError"


def test_missing_config_file(tmp_path, capsys):
    code, _, err = run(["check", "--config", str(tmp_path / "absent.json")], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "FileNotFoundError"


def test_model_from_jsonable_roundtrip():
    model = model_from_jsonable({"name": "iid", "d": 3})
    assert model.d == 3
    assert model.rho(np.array([0]), 100.0)[0, 0, 1] == 0.0
    tab = model_from_jsonable(
        {
            "name": "tabulated",
            "d": 2,
            "entries": [{"i": 1, "j": 2, "k": 0, "rho": 0.25}],
        }
    )
    assert tab.rho(np.array([0]), 50.0)[0, 0, 1] == 0.25


# --- JSON encoding -----------------------------------------------------------------


def test_json_encodes_both_infinities_and_rejects_nan(tmp_path):
    path = tmp_path / "out.json"
    jsonio.write_json(path, {"limits": [math.inf, -math.inf, 0.5], "pair": (1.0, -math.inf)})
    assert json.loads(path.read_text()) == {"limits": ["inf", "-inf", 0.5], "pair": [1.0, "-inf"]}
    with pytest.raises(ValueError, match="NaN has no JSON encoding"):
        jsonio.to_jsonable({"value": [math.nan]})
