"""The four benchmark workloads.

Each workload has a ``setup`` (imports, config files, model construction:
everything up to the first call into hrex compute), a list of operations
that make up one round, a digest per operation output (every round repeats
the same inputs, so every round must give the same digest), and checks of
the first round's outputs against ``refs``, which does not import hrex.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import struct
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

# Per-check tolerance in standard errors.  The checks are two-sided normal
# tests, about 136 of them in one run of each workload.  At 5 SE a correct
# program fails one of them with probability about 8e-5, or 2e-3 over 22
# such sets of runs; at 4 SE that would be about 9e-3 and 0.2, too often
# for a benchmark that is run hundreds of times.
Z_TOL = 5.0

GRID = tuple((x1, x2) for x1 in (-1.0, 0.0, 1.0) for x2 in (-1.0, 0.0, 1.0))
GEO = {"d": 2, "rate": 0.6, "cross": 0.4}
MA1 = {(1, 1, 1): 0.3, (2, 2, 1): 0.3, (1, 2, 0): 0.2}
PATH_MAGIC = b"HREXPATH"

# Sizes per workload: full run, and the quick mode used by the benchmark's
# own tests.
SIZES = {
    "converge_lag0": {
        "full": {"n_list": [1000, 10000, 100000], "replicates": 500, "theta_samples": 100_000,
                 "small_n": [1000, 10000], "small_replicates": 200},
        "quick": {"n_list": [1000, 10000], "replicates": 100, "theta_samples": 10_000,
                  "small_n": [1000], "small_replicates": 100},
    },
    "serial_maxima": {
        # part: (length, replicates, sampler, replayed replicates)
        "full": {"geo_long": (100_000, 12, "circulant", 4), "geo_short": (2000, 100, "cholesky", 32),
                 "ma1_long": (100_000, 40, "cholesky", 4)},
        "quick": {"geo_long": (2000, 10, "circulant", 4), "geo_short": (200, 20, "cholesky", 16),
                  "ma1_long": (5000, 10, "cholesky", 4)},
    },
    "sample_dump": {"full": {"length": 100_000, "count": 40}, "quick": {"length": 2000, "count": 5}},
    "theta_constraints": {
        "full": {"samples": 1_000_000, "rw_samples": 1_000_000},
        "quick": {"samples": 20_000, "rw_samples": 20_000},
    },
}


@dataclass
class Op:
    """One timed call into hrex; ``units`` counts the work it delivers."""

    name: str
    call: Callable[[], Any]
    digest: Callable[[Any], str]
    units: dict = field(default_factory=dict)
    part: str | None = None


@dataclass
class Check:
    name: str
    ok: bool
    message: str = ""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _z_check(name: str, got: float, want: float, se: float) -> Check:
    z = abs(got - want) / se if se > 0 else (0.0 if got == want else math.inf)
    return Check(name, z <= Z_TOL, "got %.6g want %.6g se %.3g z %.2f" % (got, want, se, z))


def _cli_call(cli, argv: list[str], out_dir: str) -> dict:
    """``hrex <argv>`` in-process; a non-zero exit status raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError("hrex %s exited %d: %s %s" % (argv[0], code, out.getvalue().strip(),
                                                        err.getvalue().strip()))
    return {"out_dir": out_dir, "stdout": out.getvalue()}


def _manifest_checks(out_dir: str, label: str) -> list[Check]:
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    bad = []
    for entry in manifest["files"]:
        with open(os.path.join(out_dir, entry["name"]), "rb") as fh:
            if _sha(fh.read()) != entry["sha256"]:
                bad.append(entry["name"])
    return [Check("%s.manifest_sha256" % label, not bad and bool(manifest["files"]),
                  "%d files, mismatched: %s" % (len(manifest["files"]), bad[:5]))]


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str, quick: bool):
        self.seed = seed
        self.workdir = workdir
        self.sizes = SIZES[self.name]["quick" if quick else "full"]
        self._round = 0

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, name: str, output) -> list[Check]:
        """Checks of operation `name`'s first-round output."""
        raise NotImplementedError

    def discard(self, output) -> None:
        """Free what a later round's output holds once it is compared."""

    def models(self) -> list:
        """Correlation models built in setup, whose rho the trace wraps."""
        return []

    def _new_dir(self, prefix: str) -> str:
        self._round += 1
        return tempfile.mkdtemp(prefix="%s%d-" % (prefix, self._round), dir=self.workdir)


class ConvergeLag0(Workload):
    """``hrex converge`` in-process on the README model with the 9-point grid."""

    name = "converge_lag0"

    def setup(self) -> None:
        from hrex import cli

        self.cli = cli
        self.threads = nproc()
        s = self.sizes
        self.config = self._write_config("converge.json", s["n_list"], s["replicates"], s["theta_samples"])
        self.small_config = self._write_config(
            "converge-small.json", s["small_n"], s["small_replicates"], s["theta_samples"] // 10
        )

    def _write_config(self, name, n_list, replicates, samples) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(
                {
                    "model": {"name": "hr", "delta_spec": {
                        "d": 2, "entries": [{"i": 1, "j": 2, "k": 0, "delta": 1.0}], "default": "inf"}},
                    "n_list": n_list,
                    "replicates": replicates,
                    "x_grid": [list(p) for p in GRID],
                    "theta": {"method": "mc", "samples": samples},
                    "seed": self.seed,
                },
                fh,
            )
        return path

    def _converge(self, config: str, threads: int, out_dir: str) -> dict:
        return _cli_call(self.cli, ["converge", "--config", config, "--out", out_dir,
                                    "--sampler", "circulant", "--threads", str(threads)], out_dir)

    def ops(self) -> list[Op]:
        s = self.sizes
        out_dir = self._new_dir("converge")
        cells = 2 * sum(s["n_list"]) * s["replicates"]
        return [Op("converge", lambda: self._converge(self.config, self.threads, out_dir),
                   self._digest, {"cells": cells}, part="hr_lag0")]

    @staticmethod
    def _digest(output: dict) -> str:
        h = hashlib.sha256()
        for name in ("report.json", "report.csv"):
            with open(os.path.join(output["out_dir"], name), "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    def discard(self, output) -> None:
        shutil.rmtree(output["out_dir"], ignore_errors=True)

    def check(self, name: str, output: dict) -> list[Check]:
        import refs

        checks = []
        with open(os.path.join(output["out_dir"], "report.json")) as fh:
            report = json.load(fh)
        samples = self.sizes["theta_samples"]
        checks.append(Check("converge.verdict", report["verdict"] == "decreasing", report["verdict"]))
        checks.append(Check("converge.entries", [e["n"] for e in report["entries"]] == self.sizes["n_list"],
                            str([e["n"] for e in report["entries"]])))
        replicates = self.sizes["replicates"]
        for entry in report["entries"]:
            n = entry["n"]
            rho = 1.0 - 1.0 / math.log(n)
            for g, (x1, x2) in enumerate(entry["x_grid"]):
                exact = refs.lag0_max_probability(
                    n, refs.gumbel_threshold(n, x1), refs.gumbel_threshold(n, x2), rho)
                checks.append(_z_check("converge.empirical.n%d.x(%g,%g)" % (n, x1, x2),
                                       entry["empirical"][g], exact, math.sqrt(exact * (1 - exact) / replicates)))
                # theta_1 is exactly 1 (no constraint); theta_2 is a
                # one-row Monte Carlo estimate.
                limit = refs.hlambda_cdf(1.0, x1, x2)
                t2 = refs.second_coefficient(1.0, x1, x2)
                se = limit * math.exp(-x2) * math.sqrt(t2 * (1 - t2) / samples)
                checks.append(_z_check("converge.limit.n%d.x(%g,%g)" % (n, x1, x2), entry["limit"][g], limit, se))
        checks += _manifest_checks(output["out_dir"], "converge")

        # thread invariance of the report on a small config
        reports = []
        for threads in (1, self.threads):
            out_dir = self._new_dir("converge-t%d-" % threads)
            try:
                self._converge(self.small_config, threads, out_dir)
                checks += _manifest_checks(out_dir, "converge_small_t%d" % threads)
                with open(os.path.join(out_dir, "report.json"), "rb") as fh:
                    reports.append(fh.read())
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
        checks.append(Check("converge.threads_byte_identical", reports[0] == reports[1],
                            "threads 1 vs %d" % self.threads))
        return checks


class SerialMaxima(Workload):
    """maxima_matrix then empirical_cdf on three serially dependent inputs."""

    name = "serial_maxima"

    def setup(self) -> None:
        from hrex import experiments, sampler
        from hrex.correlation import geometric_model, tabulated_model
        from hrex.rng import RngKey

        # calls go through the modules, so that trace wrappers apply
        self.experiments, self.sampler = experiments, sampler
        geo = geometric_model(GEO["d"], GEO["rate"], GEO["cross"])
        ma1 = tabulated_model(2, MA1)
        self.parts = {}
        for index, (part, (length, reps, method, replay)) in enumerate(self.sizes.items()):
            model = ma1 if part == "ma1_long" else geo
            self.parts[part] = (model, length, reps, method, replay, RngKey(self.seed).child(index))

    def models(self) -> list:
        return [p[0] for p in self.parts.values()]

    def _part(self, part: str) -> dict:
        model, length, reps, method, _, key = self.parts[part]
        maxima = self.experiments.maxima_matrix(model, length, key, reps, sampler=method)
        cdf = self.experiments.empirical_cdf(maxima, GRID, length)
        return {"maxima": maxima, "counts": np.asarray(cdf.counts)}

    def ops(self) -> list[Op]:
        out = []
        for part, (model, length, reps, _, _, _) in self.parts.items():
            out.append(Op(part, (lambda p=part: self._part(p)), self._digest,
                          {"cells": length * model.d * reps}, part=part))
        return out

    @staticmethod
    def _digest(output: dict) -> str:
        return _sha(output["maxima"].tobytes() + output["counts"].tobytes())

    def check(self, part: str, output: dict) -> list[Check]:
        import refs

        model, length, _, method, replay, key = self.parts[part]
        maxima = output["maxima"]
        u = np.array([[refs.gumbel_threshold(length, v) for v in p] for p in GRID])
        counts = (maxima[None, :, :] <= u[:, None, :]).all(axis=2).sum(axis=1)
        checks = [Check("%s.counts" % part, np.array_equal(counts, output["counts"]),
                        "%s vs %s" % (counts.tolist(), output["counts"].tolist()))]
        paths = np.concatenate(
            [b for _, b in self.sampler.iter_path_blocks(model, length, key, replay, method=method)])
        checks.append(Check("%s.replay_maxima" % part, np.array_equal(paths.max(axis=1), maxima[:replay]),
                            "first %d replicates replayed through iter_path_blocks" % replay))
        return checks + _lag_checks(part, paths, _gamma(part))


def _gamma(part: str) -> Callable[[int], np.ndarray]:
    """Model autocovariance gamma(m)[i, j] = E[X_t^i X_{t+m}^j], written
    out from the model definitions without hrex."""
    if part == "ma1_long":
        table = {0: np.array([[1.0, MA1[(1, 2, 0)]], [MA1[(1, 2, 0)], 1.0]]),
                 1: np.diag([MA1[(1, 1, 1)], MA1[(2, 2, 1)]])}
        return lambda m: table.get(abs(m), np.zeros((2, 2)))
    c = np.array([[1.0, GEO["cross"]], [GEO["cross"], 1.0]])
    return lambda m: c * GEO["rate"] ** abs(m)


def _lag_checks(label: str, paths: np.ndarray, gamma) -> list[Check]:
    import refs

    checks = []
    d = paths.shape[2]
    for k in range(4):
        cov = refs.sample_lag_covariance(paths, k)
        points = paths.shape[0] * (paths.shape[1] - k)
        for i in range(d):
            for j in range(d):
                if k == 0 and j < i:
                    continue
                se = refs.lag_covariance_se(gamma, k, i, j, points)
                checks.append(_z_check("%s.cov.lag%d.%d%d" % (label, k, i + 1, j + 1), cov[i, j], gamma(k)[i, j], se))
    return checks


class SampleDump(Workload):
    """``hrex sample`` in-process on geo_long's model, dumps to a temp dir."""

    name = "sample_dump"

    def setup(self) -> None:
        from hrex import cli

        self.cli = cli
        self.config = os.path.join(self.workdir, "sample.json")
        with open(self.config, "w") as fh:
            json.dump({"model": {"name": "geometric", **GEO}, "length": self.sizes["length"],
                       "count": self.sizes["count"], "sampler": "circulant", "seed": self.seed}, fh)

    def ops(self) -> list[Op]:
        out_dir = self._new_dir("sample")
        argv = ["sample", "--config", self.config, "--out", out_dir, "--sampler", "circulant"]
        dump_bytes = self.sizes["count"] * (24 + 8 * self.sizes["length"] * GEO["d"])
        return [Op("sample", lambda: _cli_call(self.cli, argv, out_dir), self._digest,
                   {"dump_bytes": dump_bytes}, part="geo_dump")]

    @staticmethod
    def _digest(output: dict) -> str:
        with open(os.path.join(output["out_dir"], "manifest.json")) as fh:
            return _sha(json.dumps(json.load(fh)["files"], sort_keys=True).encode())

    def discard(self, output) -> None:
        shutil.rmtree(output["out_dir"], ignore_errors=True)

    def check(self, name: str, output: dict) -> list[Check]:
        out_dir = output["out_dir"]
        checks = _manifest_checks(out_dir, "sample")
        length, count, d = self.sizes["length"], self.sizes["count"], GEO["d"]
        names = sorted(f for f in os.listdir(out_dir) if f.endswith(".bin"))
        checks.append(Check("sample.file_count", len(names) == count, "%d files" % len(names)))
        bad, paths = [], []
        for name in names:
            with open(os.path.join(out_dir, name), "rb") as fh:
                raw = fh.read()
            n, dd = struct.unpack("<QQ", raw[8:24]) if len(raw) >= 24 else (-1, -1)
            if raw[:8] != PATH_MAGIC or (n, dd) != (length, d) or len(raw) != 24 + 8 * length * d:
                bad.append(name)
                continue
            if len(paths) < 8:
                paths.append(np.frombuffer(raw, dtype="<f8", offset=24).reshape(length, d))
        checks.append(Check("sample.format", not bad, "bad files: %s" % bad[:5]))
        if paths:
            checks += _lag_checks("sample", np.stack(paths), _gamma("geo_dump"))
        return checks


class ThetaConstraints(Workload):
    """theta_for_spec on a Brownian-lag spec, a 3-variate lag-0 spec and
    the bivariate lambda = 1 spec."""

    name = "theta_constraints"
    SPEC_B = {(1, 2, 0): 1.0, (1, 3, 0): 1.0, (2, 3, 0): 0.5}
    X_B = (0.5, -0.5, 0.0)
    POINTS_C = ((0.0, 0.0), (1.0, -1.0), (-1.0, 0.5))
    LAGS_A = 16

    def setup(self) -> None:
        from hrex.correlation import DeltaSpec
        from hrex.rng import RngKey

        self.spec_a = DeltaSpec.from_function(1, lambda i, j, k: 0.5 * k, math.inf)
        self.spec_b = DeltaSpec.from_entries(3, self.SPEC_B)
        self.spec_c = DeltaSpec.from_entries(2, {(1, 2, 0): 1.0})
        self.key = RngKey(self.seed)

    def _theta(self, spec, x, i, key, max_lag=None):
        from hrex import theta

        estimate, gap = theta.theta_for_spec(spec, x, i, self.sizes["samples"], key, max_lag=max_lag)
        return {"estimate": estimate, "gap": gap}

    def ops(self) -> list[Op]:
        units = {"theta_samples": self.sizes["samples"]}
        ops = [
            Op("a_brownian", lambda: self._theta(self.spec_a, [0.0], 1, self.key.child(1), self.LAGS_A),
               self._digest, units),
            Op("b_lag0_d3", lambda: self._theta(self.spec_b, self.X_B, 3, self.key.child(2)), self._digest, units),
        ]
        for p, x in enumerate(self.POINTS_C):
            ops.append(Op("c_lambda1_%d" % p, (lambda x=x, p=p: self._theta(self.spec_c, x, 2, self.key.child(3, p))),
                          self._digest, units))
        return ops

    @staticmethod
    def _digest(output: dict) -> str:
        gap = output["gap"]
        return repr((output["estimate"], gap and (gap.value, gap.value_doubled)))

    def check(self, name: str, output: dict) -> list[Check]:
        import refs

        samples = self.sizes["samples"]
        value = output["estimate"].value
        if name == "a_brownian":
            gap = output["gap"]
            checks = [Check("a.gap_reported", gap is not None and gap.lag_doubled == 2 * self.LAGS_A, repr(gap))]
            for lags, v in ((self.LAGS_A, value), (2 * self.LAGS_A, gap.value_doubled if gap else -1.0)):
                ref, ref_se = refs.random_walk_theta(0.5, lags, self.sizes["rw_samples"], seed=1000 + self.seed)
                se = math.hypot(ref_se, math.sqrt(ref * (1 - ref) / samples))
                checks.append(_z_check("a.random_walk.K%d" % lags, v, ref, se))
            return checks
        if name == "b_lag0_d3":
            # rows for components 1 and 2 at lag 0 against target 3
            d, x = self.SPEC_B, self.X_B
            d13, d23, d12 = d[(1, 3, 0)], d[(2, 3, 0)], d[(1, 2, 0)]
            r = (d13 + d23 - d12) / (2 * math.sqrt(d13 * d23))
            ref = refs.two_constraint_theta(math.sqrt(d13), d13 + (x[0] - x[2]) / 2,
                                            math.sqrt(d23), d23 + (x[1] - x[2]) / 2, r)
            return [_z_check("b.quadrature", value, ref, math.sqrt(ref * (1 - ref) / samples))]
        x1, x2 = self.POINTS_C[int(name.rpartition("_")[2])]
        ref = refs.second_coefficient(1.0, x1, x2)
        return [_z_check("c.closed_form.x(%g,%g)" % (x1, x2), value, ref, math.sqrt(ref * (1 - ref) / samples))]


WORKLOADS = {w.name: w for w in (ConvergeLag0, SerialMaxima, SampleDump, ThetaConstraints)}
