#!/usr/bin/env python3
"""Demonstrate the variance-decline diagnostic on synthetic paths.

A constant-volatility path should fit a statistically flat monthly-variance
trend; a linearly decaying schedule must produce a significantly negative
slope w. With ``--out DIR`` it writes all five plot files of each path into
DIR and prints the paths of the two monthly-variance files, whose curves
show the decline.

    python scripts/volatility_decline_demo.py --out /tmp/decline
"""

import argparse
from pathlib import Path

from marketreg.estimators import analyze_index
from marketreg.report import write_plot_files
from marketreg.simulate import GbmParams, VolatilitySchedule, simulate_gbm


def describe(tag, rep):
    stderr = rep.diagnostics["variance_decline"].stderr_slope
    significance = abs(rep.w) / stderr if stderr > 0 else float("inf")
    print(
        f"{tag:<12} w = {rep.w:+.3e} /month  stderr = {stderr:.3e}  "
        f"|w|/stderr = {significance:5.1f}  "
        f"spike at tau={rep.spike_tau} ({rep.spike_month})"
    )
    return significance


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--months", type=int, default=240)
    ap.add_argument("--b-start", type=float, default=0.02)
    ap.add_argument("--b-end", type=float, default=0.005)
    ap.add_argument("--seed", type=int, default=20190422)
    ap.add_argument("--out", type=Path, default=None, help="directory for TSV plot data")
    args = ap.parse_args()

    days = args.months * 21
    constant = simulate_gbm(
        GbmParams(a=3e-4, b=args.b_start, s0=1000.0, n_days=days, seed=args.seed),
        index_name="constant_b",
    )
    decaying = simulate_gbm(
        GbmParams(a=3e-4, b=args.b_start, s0=1000.0, n_days=days, seed=args.seed),
        VolatilitySchedule.linear_decay(args.b_start, args.b_end),
        index_name="decaying_b",
    )

    rep_const = analyze_index(constant)
    rep_decay = analyze_index(decaying)
    describe("constant b", rep_const)
    sig = describe("decaying b", rep_decay)
    verdict = "significant decline" if rep_decay.w < 0 and sig > 3 else "no significant decline"
    print(f"decaying schedule verdict: {verdict}")

    if args.out is not None:
        for rep in (rep_const, rep_decay):
            for path in write_plot_files(rep, args.out):
                if "monthly_variance" in path.name:
                    print(f"wrote {path}")


if __name__ == "__main__":
    main()
