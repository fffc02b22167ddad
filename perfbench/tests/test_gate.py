"""The correctness gate accepts a good operation and rejects broken outputs."""

import pytest

import gate
import inputs
import run
from marketreg.simulate import simulate_volume


@pytest.fixture(scope="module")
def paper_six(tmp_path_factory):
    work = tmp_path_factory.mktemp("paper-six")
    w = run.CliWorkload("paper-six", 5, work)
    res = run.Results()
    w.in_process_op(res)
    assert res.failed == 0, res.first_problem
    return w


def _problems(w):
    return gate.cli_problems(w.out, w.reference, w.truths, w.plots)


def test_untouched_output_passes(paper_six):
    assert _problems(paper_six) == []


def test_tampered_report_is_rejected(paper_six):
    path = paper_six.out / "report.json"
    text = path.read_text()
    try:
        path.write_text(text.replace('"n_records": 5500', '"n_records": 5501', 1))
        assert "report.json differs from the in-process reference" in _problems(paper_six)
    finally:
        path.write_text(text)


def test_plot_slope_mismatch_and_missing_plot_are_rejected(paper_six):
    plot = paper_six.out / "plots" / "DAX_monthly_mean_log.tsv"
    text = plot.read_text()
    try:
        plot.write_text(text.replace("slope_per_month = ", "slope_per_month = 1", 1))
        assert any("DAX_monthly_mean_log.tsv" in p for p in _problems(paper_six))
        plot.unlink()
        assert "missing plot file DAX_monthly_mean_log.tsv" in _problems(paper_six)
    finally:
        plot.write_text(text)


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
def test_wrapped_volume_column_is_rejected():
    counts = simulate_volume(0.05, 1e6, 0.0, 1000, 1)  # n0*exp(49.95) is past 2**63
    with pytest.raises(gate.GateFailure):
        gate.check_volume_column(counts, 0.05, 1e6)
    wrapped = simulate_volume(2e-4, 1e6, 0.0, 1000, 1)
    wrapped[-1] = 0  # what np.maximum(wrapped, 0) leaves behind
    with pytest.raises(gate.GateFailure, match="1 volume counts wrapped"):
        gate.check_volume_column(wrapped, 2e-4, 1e6)
    gate.check_volume_column(simulate_volume(2e-4, 1e6, 0.0, 1000, 1), 2e-4, 1e6)


def test_oracle_rejects_a_moved_estimate():
    index = {"index_name": "x", "mu_pct": 0.03, "sigma_pct": 1.2, "nu_pct_per_day": 0.02}
    assert gate.oracle_problems(index, 0.03, 1.2, 0.02) == []
    assert gate.oracle_problems(dict(index, mu_pct=0.03 * (1 + 1e-6)), 0.03, 1.2, 0.02)
    assert gate.oracle_problems(dict(index, mu_pct=0.0), 0.03, 1.2, 0.02)
    assert gate.oracle_problems(dict(index, sigma_pct=1.2 * (1 + 1e-6)), 0.03, 1.2, 0.02)
    assert gate.oracle_problems(dict(index, nu_pct_per_day=0.02 + 2e-9), 0.03, 1.2, 0.02)
    assert gate.oracle_problems(dict(index, nu_pct_per_day=None), 0.03, 1.2, 0.02)


def test_oracle_accepts_the_estimator_on_drawn_paths():
    from marketreg import estimators, report

    for k in range(6):
        spec = inputs.sweep_spec(9, k)
        rep = estimators.analyze_index(inputs.simulate_series(spec))
        index = report.report_payload([rep])["indices"][0]
        assert gate.oracle_problems(index, *inputs.truth(spec)) == []
