#!/usr/bin/env python3
"""Tabulate the asymptotic-condition diagnostics for a few stock models.

For each model and sample size the long-range bound, the simplified
log-weighted sum, and the short-range block sum (m = 1) are printed with
the block lengths l_n = n^0.4 and r_n = n^0.6.  The iid column is the
sanity anchor (long-range exactly zero); the constant-correlation model
is the stock counterexample and its simplified column grows.

    python scripts/condition_sweep.py --n-list 100 1000 10000
"""

import argparse
import sys

from hrex.correlation import (
    DeltaSpec,
    condition_row,
    constant_model,
    geometric_model,
    hr_family,
    iid_model,
)


def stock_models():
    return {
        "iid": iid_model(1),
        "geometric(0.5)": geometric_model(1, 0.5),
        "constant(0.3)": constant_model(1, 0.3),
        "serial delta=3": hr_family(DeltaSpec.from_entries(1, {(1, 1, 1): 3.0})),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--n-list", type=int, nargs="+", default=[100, 1000, 10000, 100000])
    p.add_argument("--l-exponent", type=float, default=0.4)
    p.add_argument("--r-exponent", type=float, default=0.6)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    header = "%-16s %-8s %-6s %-6s %-12s %-12s %-12s" % (
        "model", "n", "l_n", "r_n", "long_range", "simplified", "short_m1"
    )
    print(header)
    print("-" * len(header))
    for name, model in stock_models().items():
        for n in args.n_list:
            row = condition_row(model, n, args.l_exponent, args.r_exponent, [1])
            print(
                "%-16s %-8d %-6d %-6d %-12.4e %-12.4e %-12.4e"
                % (name, n, row["l_n"], row["r_n"], row["long_range"], row["simplified"],
                   row["short_range_m1"])
            )
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
