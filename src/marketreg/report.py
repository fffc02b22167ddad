"""Report assembly: JSON output and plot-ready TSV data files.

The JSON payload mirrors the summary-table layout with explicit units per
field; a null encodes a missing volume rate. Numeric JSON fields keep full
precision (shortest round-trip decimals), while the ``display`` block holds
the conventionally rounded strings: growth rates to 2 decimals, moments and
monthly slope to 3, the variance slope to 3 significant figures, scientific
notation once a magnitude drops below 1e-3.

Plot files are tab-separated with ``#`` header comments naming axes and
units, one observed column and one fitted-model column, so any external
plotting tool can redraw the six standard views.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import DegenerateInput, InsufficientData, PlotNameCollision
from .estimators import GaussianOffsetFit, RegularityReport, pearson_correlation
from .ingest import format_rows

# Unused here: perfbench/layers.py wraps these names as boundaries of this module.
from .estimators import build_histogram, daily_fluctuations  # noqa: F401
from .series import log_series, monthly_aggregates  # noqa: F401


def _display(x: float | None, spec: str) -> str:
    """``x`` formatted by ``spec``, or by ".2e" when it is nonzero and below 1e-3."""
    if x is None:
        return "-"
    if x != 0 and abs(x) < 1e-3:
        return f"{x:.2e}"
    return format(x, spec)


def display_row(report: RegularityReport) -> dict[str, str]:
    """Summary-table strings for one index, at conventional print precision."""
    return {
        "a": _display(report.a, ".2f"),
        "mu": _display(report.mu, ".3f"),
        "sigma": _display(report.sigma, ".3f"),
        "m": _display(report.m, ".3f"),
        "w": _display(report.w, ".3g"),
        "nu": _display(report.nu, ".2f"),
    }


def report_payload(reports: list[RegularityReport]) -> dict:
    """Assemble the JSON-ready payload for a set of analyzed indices.

    With three or more indices the cross-index Pearson correlation between
    the daily and monthly growth columns is included; it degenerates to null
    when either column is constant.
    """
    indices = []
    for rep in reports:
        indices.append(
            {
                "index_name": rep.index_name,
                "n_records": rep.n_records,
                "n_months": rep.n_months,
                "a_pct_per_day": rep.a,
                "mu_pct": rep.mu,
                "sigma_pct": rep.sigma,
                "f0": rep.f0,
                "m_per_month": rep.m,
                "w_per_month": rep.w,
                "nu_pct_per_day": rep.nu,
                "spike_tau": rep.spike_tau,
                "spike_var_log": rep.spike_value,
                "spike_month": f"{rep.spike_month[0]:04d}-{rep.spike_month[1]:02d}",
                "b_hat_per_sqrt_day": rep.b_hat,
                "bin_width_pct": rep.bin_width,
                "variance_fit_mode": rep.variance_fit_mode,
                "display": display_row(rep),
                "diagnostics": {k: asdict(v) for k, v in rep.diagnostics.items()},
                "field_errors": rep.errors,
            }
        )

    payload: dict = {"indices": indices}
    if len(reports) >= 3:
        try:
            r = pearson_correlation([x.a for x in reports], [x.m for x in reports])
        except (DegenerateInput, InsufficientData):
            r = None
        payload["cross_index"] = {"pearson_a_m": r, "n_indices": len(reports)}
    return payload


def render_report_json(payload: dict) -> str:
    """Deterministic JSON text: fixed field order, shortest-decimal floats."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def write_report_atomic(payload: dict, out_path: Path) -> None:
    """Write report.json so that no partial file survives an error.

    The file is created with the umask's mode, as the plot files are."""
    out_path = Path(out_path)
    text = render_report_json(payload)
    # A fresh random name; mode "x" refuses to open a file that already exists.
    tmp_name = out_path.with_name(f".report-{os.urandom(8).hex()}.json")
    fh = open(tmp_name, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp_name, out_path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def _safe_name(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in name) or "index"


def check_plot_stems(sources: list, index_names: list[str]) -> None:
    """Raise PlotNameCollision if two indices would write plot files under one stem."""
    seen = {}
    for source, name in zip(sources, index_names):
        stem = _safe_name(name)
        if stem in seen:
            raise PlotNameCollision(seen[stem], source, stem)
        seen[stem] = source


def _write_tsv(path: Path, comments: list[str], header: list[str], columns: list) -> None:
    # Each column is a numpy array, or a str that is the same cell on every row
    # and goes into the row format once.
    cells = ["%s" if isinstance(c, np.ndarray) else c.replace("%", "%%") for c in columns]
    varying = [c for c in columns if isinstance(c, np.ndarray)]
    with path.open("w", encoding="utf-8") as fh:
        fh.write("".join(f"# {c}\n" for c in comments) + "\t".join(header) + "\n")
        fh.writelines(format_rows("\t".join(cells) + "\n", varying))


def write_plot_files(report: RegularityReport, out_dir: Path) -> list[Path]:
    """Emit the six plot-ready TSV files for one index analyzed by
    ``analyze_index``, from the intermediates its report carries.

    Every file carries the fitted line (or model curve) as an extra column
    whose slope equals the corresponding report field exactly. The volume
    file is written only when the series has usable volume data.
    """
    t = np.arange(report.n_records)
    diag = report.diagnostics
    fit_a, fit_m, fit_w = diag["daily_growth"], diag["monthly_growth"], diag["variance_decline"]
    hist, monthly = report.histogram, report.monthly
    centers = hist.centers()
    if report.f0 is not None:
        model = GaussianOffsetFit(report.mu, report.sigma, report.f0).evaluate(centers)
        model_note = f"model: f(delta) = 1 + f0*exp(-(delta-mu)^2/(2 sigma^2)); f0 = {report.f0!r}"
    else:
        model = ""
        model_note = "model: amplitude fit unavailable (" + report.errors.get("f0", "") + ")"
    # One entry per file: name suffix, comment lines after "index:", header, columns.
    views = [
        ("daily_log_price",
         ["x: trading day t (days); y: ln(close), dimensionless",
          f"fit: ln_close = intercept + slope*t; slope_pct_per_day = {report.a!r}",
          f"slope = {fit_a.slope!r}; intercept = {fit_a.intercept!r}"],
         ["t_days", "ln_close", "fit_ln_close"], [t, report.ln_close, fit_a.predict(t)]),
        ("fluctuation_series",
         ["x: trading day t (days); y: daily percentage fluctuation delta (percent)",
          f"mean_pct = {report.mu!r}"],
         ["t_days", "delta_pct", "mean_pct"], [t[1:], report.fluctuations, str(report.mu)]),
        ("fluctuation_histogram",
         ["x: fluctuation delta bin center (percent); y: unnormalized frequency count",
          f"bin_width_pct = {report.bin_width!r}", model_note],
         ["delta_center_pct", "count", "model_count"],
         [centers, hist.counts.astype(np.int64), model]),
        ("monthly_mean_log",
         ["x: month index tau (months); y: monthly mean of ln(close)",
          f"fit: mean_log = intercept + slope*tau; slope_per_month = {report.m!r}"],
         ["tau_months", "mean_log", "fit_mean_log"],
         [monthly.tau, monthly.mean_log, fit_m.predict(monthly.tau)]),
        ("monthly_variance",
         ["x: month index tau (months); y: within-month variance of ln(close)",
          f"fit: var_log = intercept + slope*tau; slope_per_month = {report.w!r}",
          f"spike: tau = {report.spike_tau}, var_log = {report.spike_value!r}"],
         ["tau_months", "var_log", "fit_var_log"],
         [monthly.tau, monthly.var_log, fit_w.predict(monthly.tau)]),
    ]
    if "volume_growth" in diag:
        fit_v = diag["volume_growth"]
        views.append(
            ("daily_log_volume",
             ["x: trading day t (days); y: ln(daily traded volume)",
              f"fit: ln_volume = intercept + slope*t; slope_pct_per_day = {report.nu!r}"],
             ["t_days", "ln_volume", "fit_ln_volume"],
             [report.volume_t, report.ln_volume, fit_v.predict(report.volume_t)]))

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = _safe_name(report.index_name)
    written = []
    for suffix, comments, header, columns in views:
        path = out_dir / f"{stem}_{suffix}.tsv"
        _write_tsv(path, [f"index: {report.index_name}", *comments], header, columns)
        written.append(path)
    return written
