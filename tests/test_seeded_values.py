"""Seeded outputs against a committed record, tests/seeded_values.json.

Each case is one seeded call (for hrex check, a deterministic one),
spelled as a Python expression that this module evaluates.  The record
keeps, per case, that call, the SHA-256 of its output bytes and its first
four values as float.hex, beside the machine that wrote it: numpy and
scipy versions, BLAS name and version, and platform.machine().  On that
machine every digest must match; elsewhere the four values must match to
1e-12 relative, since BLAS and SIMD kernels may round differently.  So a
change that moves a seeded value fails here, by case name, until the
record is rewritten with

    PYTHONPATH=src python tests/test_seeded_values.py --write

and the moved cases are named in CHANGES.md.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import platform
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy

from hrex.cli import main
from hrex.correlation import DeltaSpec, constant_model, geometric_model, iid_model, tabulated_model
from hrex.experiments import maxima_matrix
from hrex.rng import RngKey
from hrex.sampler import iter_path_blocks, make_plan, read_path
from hrex.theta import theta_for_spec

RECORD = Path(__file__).with_name("seeded_values.json")
LAG0_D2 = tabulated_model(2, {(1, 2, 0): 0.4})
LAG0_D3 = tabulated_model(3, {(1, 2, 0): 0.4, (1, 3, 0): 0.4, (2, 3, 0): 0.4})
# lag-1 autocorrelation 0.3, cross correlation 0.2 at lag 0 and 0.1 at lag 1
MA1 = tabulated_model(2, {(1, 1, 1): 0.3, (2, 2, 1): 0.3, (1, 2, 0): 0.2, (1, 2, 1): 0.1})
BROWNIAN = DeltaSpec.from_function(1, lambda i, j, k: k / 2.0, math.inf)
BROWNIAN_8 = DeltaSpec.from_function(1, lambda i, j, k: k / 2.0, 8)  # 8 W slots, no gap
HR_LAG0 = {"name": "hr", "delta_spec": {"d": 2, "entries": [{"i": 1, "j": 2, "k": 0, "delta": 1.0}]}}
CONVERGE = {"model": HR_LAG0, "n_list": [100, 1000], "replicates": 200,
            "x_grid": [[0.0, 0.0], [1.0, 1.0]], "theta": {"method": "mc", "samples": 20000}, "seed": 606}
SAMPLE = {"model": {"name": "geometric", "d": 2, "rate": 0.5, "cross": 0.3}, "length": 50, "count": 3, "seed": 9}
CHECK_CONSTANT = {"model": {"name": "constant", "d": 2, "rho": 0.3}, "n_list": [100, 1000, 10000], "m_list": [1, 3]}
CHECK_HR = {"model": {"name": "hr", "delta_spec": {"d": 1, "entries": [{"i": 1, "j": 1, "k": 1, "delta": 3.0}]}},
            "n_list": [100, 1000, 10000], "m_list": [1, 3]}


def maxima(route, model, n, seed, replicates, sampler="cholesky"):
    """maxima_matrix on a route that make_plan must name as `route`."""
    assert make_plan(model, n, sampler, maxima=True).route == route
    return maxima_matrix(model, n, RngKey(seed), replicates, sampler)


def first_paths(route, model, length, seed, count, sampler="cholesky"):
    """The first block of one iter_path_blocks call, on the named route."""
    assert make_plan(model, length, sampler).route == route
    return next(iter_path_blocks(model, length, RngKey(seed), count, sampler))[1]


def theta(spec, x, i, samples, seed, max_lag=None, cpus=None):
    """theta_for_spec's value and standard error, then its doubled-lag value
    and gap when it reports one; cpus patches os.cpu_count."""
    with mock.patch("os.cpu_count", lambda: cpus) if cpus else contextlib.nullcontext():
        estimate, gap = theta_for_spec(spec, x, i, samples, RngKey(seed), max_lag=max_lag)
    return np.array([estimate.value, estimate.std_error] + ([] if gap is None else [gap.value_doubled, gap.gap]))


def run_cli(subcommand, config, seed=None):
    """The files `hrex subcommand` writes for config, but its manifest; --seed
    only when a seed is given."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "config.json")
        path.write_text(json.dumps(config))
        seed_flag = [] if seed is None else ["--seed", str(seed)]
        with mock.patch("sys.stdout", io.StringIO()):
            assert main([subcommand, "--config", str(path), "--out", tmp] + seed_flag) in (0, 1)
        return {f.name: f.read_bytes() for f in sorted(Path(tmp).iterdir()) if f.suffix != ".json"}


def converge_report(config, seed):
    """report.csv's bytes, and its limit column."""
    data = run_cli("converge", config, seed)["report.csv"]
    return data, np.array([float(row["limit"]) for row in csv.DictReader(io.StringIO(data.decode()))])


def sample_dump(config, seed):
    """Every path file's bytes in name order, and path 0's values."""
    files = run_cli("sample", config, seed)
    return b"".join(files.values()), read_path(io.BytesIO(files["path_000000.bin"])).values


def check_table(config):
    """conditions.csv's bytes, and its metric columns (after n, l_n, r_n)."""
    data = run_cli("check", config)["conditions.csv"]
    rows = list(csv.reader(io.StringIO(data.decode())))[1:]
    return data, np.array([[float(v) for v in row[3:]] for row in rows])


CASES = {
    "maxima_lag0_exact_d1": "maxima('lag0-exact', iid_model(1), 1000, 11, 64)",
    "maxima_lag0_exact_d2": "maxima('lag0-exact', LAG0_D2, 1000, 12, 64)",
    "maxima_lag0_d3": "maxima('lag0', LAG0_D3, 200, 13, 64)",
    "maxima_ar1_d1": "maxima('ar1', geometric_model(1, 0.5), 200, 14, 64)",
    "maxima_ar1_d2": "maxima('ar1', geometric_model(2, 0.5, 0.3), 200, 15, 64)",
    "maxima_banded_finite": "maxima('banded', MA1, 200, 16, 64)",
    "maxima_banded_full": "maxima('banded', constant_model(1, 0.3), 200, 17, 64)",
    "maxima_circulant_single": "maxima('circulant', geometric_model(2, 0.5, 0.3), 200, 18, 64, 'circulant')",
    "maxima_circulant_paired": "maxima('circulant', MA1, 200, 19, 64, 'circulant')",
    "paths_lag0_d3": "first_paths('lag0', LAG0_D3, 40, 23, 3)",
    "paths_ar1_d1": "first_paths('ar1', geometric_model(1, 0.5), 40, 24, 3)",
    "paths_ar1_d2": "first_paths('ar1', geometric_model(2, 0.5, 0.3), 40, 25, 3)",
    "paths_banded": "first_paths('banded', MA1, 40, 21, 3)",
    "paths_banded_full": "first_paths('banded', constant_model(1, 0.3), 40, 26, 3)",
    "paths_circulant_single": "first_paths('circulant', geometric_model(2, 0.5, 0.3), 40, 27, 3, 'circulant')",
    "paths_circulant_paired": "first_paths('circulant', MA1, 40, 22, 3, 'circulant')",
    "theta_exact": "theta(DeltaSpec.from_entries(2, {(1, 2, 0): 0.0}), [0.3, -0.2], 2, 20000, 31)",
    "theta_q1": "theta(DeltaSpec.from_entries(2, {(1, 2, 0): 1.0}), [0.3, -0.2], 2, 20000, 32)",
    "theta_brownian_gap": "theta(BROWNIAN, [0.0], 1, 20000, 33, max_lag=8)",
    "theta_split": "theta(BROWNIAN_8, [0.0], 1, 2 * (1 << 16) + 5000, 34, cpus=2)",
    "converge_report_csv": "converge_report(CONVERGE, 606)",
    "sample_dump": "sample_dump(SAMPLE, 9)",
    "check_constant": "check_table(CHECK_CONSTANT)",
    "check_hr_serial": "check_table(CHECK_HR)",
}


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")), "machine": platform.machine()}


def evaluate(name: str) -> dict:
    """The record entry of a case: its call, digest and first four values."""
    out = eval(CASES[name])
    data, values = out if isinstance(out, tuple) else (np.ascontiguousarray(out, dtype="<f8").tobytes(), out)
    return {"call": CASES[name], "sha256": hashlib.sha256(data).hexdigest(),
            "first": [float(v).hex() for v in np.ravel(values)[:4]]}


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text())


def test_record_lists_every_case(record):
    assert {name: case["call"] for name, case in record["cases"].items()} == CASES


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_case_keeps_its_values(name, record):
    want, got = record["cases"][name], evaluate(name)
    if record["machine"] == machine():
        assert got["sha256"] == want["sha256"], "case %s moved: first values %s, recorded %s" % (
            name, got["first"], want["first"])
    else:
        assert len(got["first"]) == len(want["first"]), "case %s changed its output size" % name
        for a, b in zip(map(float.fromhex, got["first"]), map(float.fromhex, want["first"])):
            assert abs(a - b) <= 1e-12 * abs(b), "case %s moved: %r, recorded %r" % (name, a, b)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_seeded_values.py --write")
    RECORD.write_text(json.dumps({"machine": machine(), "cases": {name: evaluate(name) for name in CASES}},
                                 indent=2, sort_keys=True) + "\n")
