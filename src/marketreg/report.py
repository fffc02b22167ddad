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
import tempfile
from pathlib import Path

import numpy as np

from .errors import DegenerateInput, InsufficientData, PlotNameCollision
from .estimators import RegularityReport, pearson_correlation
from .ingest import format_rows

# Unused here: perfbench/layers.py wraps these names as boundaries of this module.
from .estimators import build_histogram, daily_fluctuations  # noqa: F401
from .series import log_series, monthly_aggregates  # noqa: F401


def _display_number(x: float | None, decimals: int) -> str:
    if x is None:
        return "-"
    if x != 0 and abs(x) < 1e-3:
        return f"{x:.2e}"
    return f"{x:.{decimals}f}"


def _display_sig3(x: float | None) -> str:
    if x is None:
        return "-"
    if x != 0 and abs(x) < 1e-3:
        return f"{x:.2e}"
    return f"{x:.3g}"


def display_row(report: RegularityReport) -> dict[str, str]:
    """Summary-table strings for one index, at conventional print precision."""
    return {
        "a": _display_number(report.a, 2),
        "mu": _display_number(report.mu, 3),
        "sigma": _display_number(report.sigma, 3),
        "m": _display_number(report.m, 3),
        "w": _display_sig3(report.w),
        "nu": _display_number(report.nu, 2),
    }


def _fit_payload(fit) -> dict:
    return {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "stderr_slope": fit.stderr_slope,
        "r_squared": fit.r_squared,
        "n": fit.n,
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
                "spike_month": None
                if rep.spike_month is None
                else f"{rep.spike_month[0]:04d}-{rep.spike_month[1]:02d}",
                "b_hat_per_sqrt_day": rep.b_hat,
                "bin_width_pct": rep.bin_width,
                "variance_fit_mode": rep.variance_fit_mode,
                "display": display_row(rep),
                "diagnostics": {k: _fit_payload(v) for k, v in rep.diagnostics.items()},
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
    """Write report.json so that no partial file survives an error."""
    out_path = Path(out_path)
    text = render_report_json(payload)
    fd, tmp_name = tempfile.mkstemp(dir=out_path.parent, prefix=".report-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
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
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = _safe_name(report.index_name)
    written: list[Path] = []

    t = np.arange(report.n_records)
    fit_a = report.diagnostics["daily_growth"]
    path = out_dir / f"{stem}_daily_log_price.tsv"
    _write_tsv(
        path,
        [
            f"index: {report.index_name}",
            "x: trading day t (days); y: ln(close), dimensionless",
            f"fit: ln_close = intercept + slope*t; slope_pct_per_day = {report.a!r}",
            f"slope = {fit_a.slope!r}; intercept = {fit_a.intercept!r}",
        ],
        ["t_days", "ln_close", "fit_ln_close"],
        [t, report.ln_close, fit_a.predict(t)],
    )
    written.append(path)

    td = np.arange(1, report.n_records)
    path = out_dir / f"{stem}_fluctuation_series.tsv"
    _write_tsv(
        path,
        [
            f"index: {report.index_name}",
            "x: trading day t (days); y: daily percentage fluctuation delta (percent)",
            f"mean_pct = {report.mu!r}",
        ],
        ["t_days", "delta_pct", "mean_pct"],
        [td, report.fluctuations, str(report.mu)],
    )
    written.append(path)

    hist = report.histogram
    centers = hist.centers()
    if report.gaussian is not None:
        model = report.gaussian.evaluate(centers)
        model_note = f"model: f(delta) = 1 + f0*exp(-(delta-mu)^2/(2 sigma^2)); f0 = {report.f0!r}"
    else:
        model = ""
        model_note = "model: amplitude fit unavailable (" + report.errors.get("f0", "") + ")"
    path = out_dir / f"{stem}_fluctuation_histogram.tsv"
    _write_tsv(
        path,
        [
            f"index: {report.index_name}",
            "x: fluctuation delta bin center (percent); y: unnormalized frequency count",
            f"bin_width_pct = {report.bin_width!r}",
            model_note,
        ],
        ["delta_center_pct", "count", "model_count"],
        [centers, hist.counts.astype(np.int64), model],
    )
    written.append(path)

    monthly = report.monthly
    fit_m = report.diagnostics["monthly_growth"]
    path = out_dir / f"{stem}_monthly_mean_log.tsv"
    _write_tsv(
        path,
        [
            f"index: {report.index_name}",
            "x: month index tau (months); y: monthly mean of ln(close)",
            f"fit: mean_log = intercept + slope*tau; slope_per_month = {report.m!r}",
        ],
        ["tau_months", "mean_log", "fit_mean_log"],
        [monthly.tau, monthly.mean_log, fit_m.predict(monthly.tau)],
    )
    written.append(path)

    fit_w = report.diagnostics["variance_decline"]
    path = out_dir / f"{stem}_monthly_variance.tsv"
    _write_tsv(
        path,
        [
            f"index: {report.index_name}",
            "x: month index tau (months); y: within-month variance of ln(close)",
            f"fit: var_log = intercept + slope*tau; slope_per_month = {report.w!r}",
            f"spike: tau = {report.spike_tau}, var_log = {report.spike_value!r}",
        ],
        ["tau_months", "var_log", "fit_var_log"],
        [monthly.tau, monthly.var_log, fit_w.predict(monthly.tau)],
    )
    written.append(path)

    if "volume_growth" in report.diagnostics:
        fit_v = report.diagnostics["volume_growth"]
        path = out_dir / f"{stem}_daily_log_volume.tsv"
        _write_tsv(
            path,
            [
                f"index: {report.index_name}",
                "x: trading day t (days); y: ln(daily traded volume)",
                f"fit: ln_volume = intercept + slope*t; slope_pct_per_day = {report.nu!r}",
            ],
            ["t_days", "ln_volume", "fit_ln_volume"],
            [report.volume_t, report.ln_volume, fit_v.predict(report.volume_t)],
        )
        written.append(path)

    return written
