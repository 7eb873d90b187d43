"""Command-line interface.

Subcommands:

    hlambda    evaluate the bivariate limit CDF H_lambda
    theta      Monte Carlo extremal coefficient from a coefficient spec
    converge   empirical maxima vs. limit CDF across a sweep of n
    check      asymptotic-condition diagnostics across a sweep of n
    lemma1     exact exceedance-decomposition identity on a discrete law
    sample     write Gaussian path replicates in the binary dump format

Commands that write files put them in --out (overridden by the HREX_OUT
environment variable when set) together with a manifest.json listing
every output file with its SHA-256 hash.  Exit status is 0 only when all
requested checks pass; failures are reported as machine-readable JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .correlation import (
    CorrelationModel,
    DeltaSpec,
    condition_row,
    constant_model,
    geometric_model,
    hr_family,
    iid_model,
    tabulated_model,
)
from .errors import ToolkitError
from .experiments import (
    DiscreteMatrixDistribution,
    ExperimentConfig,
    build_report,
    compare_to_limit,
    lemma1_check,
    run_maxima_experiment,
    weakly_decreasing,
    write_convergence_csv,
    write_convergence_json,
    write_csv,
)
from .jsonio import to_jsonable, write_json
from .norming import hr_bivariate_cdf
from .rng import RngKey
from .sampler import METHODS, SamplePath, iter_path_blocks, write_path
from .theta import theta_for_spec

LEMMA1_TOL = 1e-12


_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
          list: ((list,), "a list"), dict: ((dict,), "a JSON object")}


def _typed(value, kind: type, name: str):
    """A config value checked to be an int (a bool is not one), a number
    (returned as float), a list or an object; else a ValueError naming it."""
    allowed, what = _KINDS[kind]
    if type(value) not in allowed:
        raise ValueError("%s must be %s, got %r" % (name, what, value))
    return float(value) if kind is float else value


def _list_of(value, kind: type, name: str) -> list:
    return [_typed(v, kind, "%s[%d]" % (name, a)) for a, v in enumerate(_typed(value, list, name))]


def _rows(value, name: str) -> list[list[float]]:
    return [_list_of(row, float, "%s[%d]" % (name, g)) for g, row in enumerate(_typed(value, list, name))]


def model_from_jsonable(obj: dict) -> CorrelationModel:
    name = _typed(obj, dict, "model").get("name")
    if name == "hr":
        return hr_family(DeltaSpec.from_jsonable(obj["delta_spec"]))
    if name not in ("iid", "tabulated", "geometric", "constant"):
        raise ValueError("unknown model name %r" % (name,))
    d = _typed(obj["d"], int, "model.d")
    if name == "iid":
        return iid_model(d)
    if name == "tabulated":
        table = {}
        for a, item in enumerate(_typed(obj.get("entries", []), list, "model.entries")):
            where = "model.entries[%d]" % a
            item = _typed(item, dict, where)
            key = tuple(_typed(item[f], int, "%s.%s" % (where, f)) for f in "ijk")
            rho = _typed(item["rho"], float, where + ".rho")
            if table.get(key, rho) != rho:
                raise ValueError("%s: conflicting value %g for rho(%d,%d,%d)" % (where, rho, *key))
            table[key] = rho
        return tabulated_model(d, table)
    if name == "geometric":
        cross = _typed(obj.get("cross", 0.0), float, "model.cross")
        return geometric_model(d, _typed(obj["rate"], float, "model.rate"), cross)
    return constant_model(d, _typed(obj["rho"], float, "model.rho"))


def _resolve_out(args) -> Path | None:
    env = os.environ.get("HREX_OUT")
    out = env if env else args.out
    if out is None:
        return None
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _finish(args, out_dir: Path | None, seed, files: list[Path], payload: dict, ok: bool) -> int:
    """The file-writing commands' epilogue: a manifest.json hashing files when
    there is an output directory, payload as key-sorted JSON on stdout, and
    exit code 0 when ok, else 1."""
    if out_dir is not None:
        write_json(out_dir / "manifest.json", {
            "subcommand": args.command,
            "config": str(args.config) if args.config else None,
            "seed": seed,
            "version": __version__,
            "out_dir": str(out_dir),
            "duration_seconds": round(time.time() - args.started, 3),
            "files": [{"name": f.name, "sha256": hashlib.sha256(f.read_bytes()).hexdigest()}
                      for f in sorted(files)],
        })
    print(json.dumps(to_jsonable(payload), sort_keys=True))
    return 0 if ok else 1


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return _typed(json.load(fh), dict, "config")


def _extended_float(text: str) -> float:
    value = float(text)
    if math.isnan(value):
        raise argparse.ArgumentTypeError("NaN is not accepted")
    return value


def cmd_hlambda(args) -> int:
    value = hr_bivariate_cdf(args.lam, args.x, args.y)
    print(repr(value))
    return 0


def cmd_theta(args) -> int:
    with open(args.spec_file) as fh:
        spec = DeltaSpec.from_jsonable(json.load(fh))
    x = [float(v) for v in args.x.split(",")]
    estimate, gap = theta_for_spec(
        spec,
        x,
        args.i,
        samples=args.samples,
        key=RngKey(args.seed).child(0),
        max_lag=args.max_lag,
    )
    payload = asdict(estimate)
    if gap is not None:
        payload["truncation_gap"] = asdict(gap)
    return _finish(args, None, args.seed, [], payload, True)


def _theta_grid(cfg: dict, model: CorrelationModel, x_grid, seed: int, threads: int):
    theta_cfg = _typed(cfg.get("theta", {}), dict, "theta")
    method = theta_cfg.get("method", "mc" if model.delta_spec is not None else "ones")
    if method == "ones":
        return [[1.0] * model.d for _ in x_grid]
    if method == "values":
        values = _rows(theta_cfg["values"], "theta.values")
        if len(values) != len(x_grid):
            raise ValueError("need one theta vector per grid point")
        return values
    if method == "mc":
        if model.delta_spec is None:
            raise ValueError("theta method 'mc' needs a model with a coefficient spec")
        samples = _typed(theta_cfg.get("samples", 100_000), int, "theta.samples")
        max_lag = theta_cfg.get("max_lag")
        max_lag = None if max_lag is None else _typed(max_lag, int, "theta.max_lag")
        key = RngKey(seed)
        out = []
        for g, x in enumerate(x_grid):
            row = []
            for i in range(1, model.d + 1):
                estimate, _ = theta_for_spec(model.delta_spec, x, i, samples, key.child(0, g, i),
                                             max_lag=max_lag, threads=threads)
                row.append(estimate.value)
            out.append(row)
        return out
    raise ValueError("unknown theta method %r" % (method,))


def _check_threads(args) -> None:
    if args.threads < 1:
        raise ValueError("--threads must be >= 1, got %d" % args.threads)


def cmd_converge(args) -> int:
    _check_threads(args)
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else _typed(cfg.get("seed", 0), int, "seed")
    model = model_from_jsonable(cfg["model"])
    experiment = ExperimentConfig(
        model=model,
        n_list=tuple(_list_of(cfg["n_list"], int, "n_list")),
        replicates=_typed(cfg["replicates"], int, "replicates"),
        x_grid=_rows(cfg["x_grid"], "x_grid"),
        seed=seed,
        sampler=args.sampler or cfg.get("sampler", "cholesky"),
    )
    thetas = _theta_grid(cfg, model, experiment.x_grid, seed, args.threads)
    empirical = run_maxima_experiment(experiment, threads=args.threads)
    report = build_report([compare_to_limit(e, thetas) for e in empirical])

    out_dir = _resolve_out(args)
    files = []
    if out_dir is not None:
        files = [out_dir / "report.csv", out_dir / "report.json"]
        write_convergence_csv(report, files[0])
        write_convergence_json(report, files[1])
    failures = []
    for step in report.failed_steps:
        a, b = report.entries[step], report.entries[step + 1]
        failures.append(
            {
                "from_n": a.n,
                "to_n": b.n,
                "increase": b.sup_deviation - a.sup_deviation,
                "slack": report.step_slacks[step],
            }
        )
    summary = {
        "verdict": report.verdict,
        "sup_deviation": {str(e.n): e.sup_deviation for e in report.entries},
        "failures": failures,
    }
    return _finish(args, out_dir, seed, files, summary, report.verdict == "decreasing")


def cmd_check(args) -> int:
    cfg = _load_config(args.config)
    seed = _typed(cfg["seed"], int, "seed") if "seed" in cfg else None  # only the manifest reads it
    model = model_from_jsonable(cfg["model"])
    n_list = _list_of(cfg["n_list"], int, "n_list")
    l_exp = _typed(cfg.get("l_exponent", 0.4), float, "l_exponent")
    r_exp = _typed(cfg.get("r_exponent", 0.6), float, "r_exponent")
    m_list = _list_of(cfg.get("m_list", [1]), int, "m_list")
    rows = [condition_row(model, n, l_exp, r_exp, m_list) for n in n_list]

    metrics = ["long_range", "simplified"] + ["short_range_m%d" % m for m in m_list]
    verdicts = {}
    for metric in metrics:
        values = [row[metric] for row in rows]
        slacks = [1e-12 * max(1.0, abs(v)) for v in values[:-1]]
        verdicts[metric] = "pass" if weakly_decreasing(values, slacks) else "fail"

    out_dir = _resolve_out(args)
    payload = {"rows": rows, "verdicts": verdicts}
    files = []
    if out_dir is not None:
        files = [out_dir / "conditions.csv", out_dir / "conditions.json"]
        header = ["n", "l_n", "r_n"] + metrics
        write_csv(files[0], header, [[row[h] for h in header] for row in rows])
        write_json(files[1], payload)
    return _finish(args, out_dir, seed, files, payload,
                   all(v == "pass" for v in verdicts.values()))


def cmd_lemma1(args) -> int:
    cfg = _load_config(args.config)
    seed = _typed(cfg["seed"], int, "seed") if "seed" in cfg else None  # only the manifest reads it
    dist = DiscreteMatrixDistribution.iid_cells(
        n=_typed(cfg["n"], int, "n"),
        d=_typed(cfg["d"], int, "d"),
        atoms=_list_of(cfg["atoms"], float, "atoms"),
        probs=_list_of(cfg["probs"], float, "probs") if "probs" in cfg else None,
    )
    report = lemma1_check(dist, _list_of(cfg["thresholds"], float, "thresholds"))
    payload = {**asdict(report), "tolerance": LEMMA1_TOL, "pass": report.difference <= LEMMA1_TOL}
    out_dir = _resolve_out(args)
    files = []
    if out_dir is not None:
        files = [out_dir / "lemma1.json"]
        write_json(files[0], payload)
    return _finish(args, out_dir, seed, files, payload, payload["pass"])


def cmd_sample(args) -> int:
    _check_threads(args)
    cfg = _load_config(args.config)
    out_dir = _resolve_out(args)
    if out_dir is None:
        raise ValueError("sample needs an output directory (--out or HREX_OUT)")
    seed = args.seed if args.seed is not None else _typed(cfg.get("seed", 0), int, "seed")
    model = model_from_jsonable(cfg["model"])
    if "length" not in cfg:
        raise ValueError("sample config needs a path 'length'")
    length = _typed(cfg["length"], int, "length")
    count = _typed(cfg["count"], int, "count")
    if count < 1:
        raise ValueError("sample config needs 'count' >= 1, got %d" % count)
    model_n = cfg.get("model_n")
    if model_n is not None:
        _typed(model_n, float, "model_n")
    sampler = args.sampler or cfg.get("sampler", "cholesky")
    key = RngKey(seed).child(length)
    files = []
    blocks = iter_path_blocks(model, length, key, count, method=sampler, n=model_n, threads=args.threads)
    for first, block in blocks:
        for row, values in enumerate(block):
            f = out_dir / ("path_%06d.bin" % (first + row))
            with open(f, "wb") as fh:
                write_path(SamplePath(values), fh)
            files.append(f)
    return _finish(args, out_dir, seed, files, {"paths": count, "out_dir": str(out_dir)}, True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hrex", description=__doc__)
    parser.add_argument("--version", action="version", version="hrex " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--config": dict(required=True, help="JSON config file"),
        "--seed": dict(type=int, default=None),
        "--threads": dict(type=int, default=os.cpu_count() or 1),
        "--out": dict(default=None, help="output directory (HREX_OUT overrides)"),
        "--sampler": dict(choices=METHODS, default=None),
    }

    p = sub.add_parser("hlambda", help="bivariate limit CDF")
    p.add_argument("--lambda", dest="lam", type=_extended_float, required=True,
                   help="dependence parameter in [0, inf]; 'inf' accepted")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.set_defaults(func=cmd_hlambda)

    p = sub.add_parser("theta", help="extremal coefficient estimate")
    p.add_argument("--spec-file", required=True, help="coefficient spec JSON")
    p.add_argument("--i", type=int, required=True, help="target component (1-based)")
    p.add_argument("--x", required=True, help="comma-separated levels, one per component")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--max-lag", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_theta)

    for name, helptext, func, names in (
        ("converge", "maxima vs. limit across n", cmd_converge,
         ("--config", "--seed", "--threads", "--out", "--sampler")),
        ("check", "asymptotic-condition diagnostics", cmd_check, ("--config", "--out")),
        ("lemma1", "exceedance-decomposition identity", cmd_lemma1, ("--config", "--out")),
        ("sample", "write Gaussian path replicates", cmd_sample,
         ("--config", "--seed", "--threads", "--out", "--sampler")),
    ):
        p = sub.add_parser(name, help=helptext)
        for flag in names:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.started = time.time()
    try:
        return args.func(args)
    except (ToolkitError, ValueError, OSError, KeyError) as exc:
        failure = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(failure), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
