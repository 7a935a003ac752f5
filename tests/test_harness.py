"""Field registry, config validation, rate fitting, report serialization,
and one end-to-end run whose errors sit at the solver floor."""

import math
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fluxopt import cli, harness
from fluxopt.harness import (
    ConvergenceReport,
    RateFit,
    config_from_dict,
    default_config,
    field_from_config,
    fit_rate,
    prepare,
    write_csv,
)
from fluxopt.linsolve import estimate_constants
from fluxopt.mesh import build_structured_mesh


def fd_gradient(f, x, y, h=1e-6):
    gx = (f(x + h, y) - f(x - h, y)) / (2.0 * h)
    gy = (f(x, y + h) - f(x, y - h)) / (2.0 * h)
    return gx, gy


SAMPLE_X = np.array([0.15, 0.3, 0.55, 0.8])
SAMPLE_Y = np.array([0.7, 0.45, 0.25, 0.6])


@pytest.mark.parametrize(
    "cfg",
    [
        {"name": "sin_product", "scale": 10.0, "ky": 2},
        {"name": "trig_product", "scale": 2.0, "kx": 3},
        {"name": "polynomial", "coefficients": [[1.0, 2.0], [3.0, 4.0]]},
        {"name": "mms_solution", "offset": 1.0},
        {"name": "constant", "value": 2.5},
    ],
)
def test_registry_gradients_match_finite_differences(cfg):
    f = field_from_config(cfg)
    gx, gy = f.gradient(SAMPLE_X, SAMPLE_Y)
    assert np.shape(gx) == SAMPLE_X.shape and np.shape(gy) == SAMPLE_Y.shape
    ex, ey = fd_gradient(f, SAMPLE_X, SAMPLE_Y)
    assert np.allclose(gx, ex, rtol=1e-6, atol=1e-6)
    assert np.allclose(gy, ey, rtol=1e-6, atol=1e-6)


def test_polynomial_values():
    f = field_from_config({"name": "polynomial", "coefficients": [[1.0, 2.0], [3.0, 4.0]]})
    x, y = 0.5, 0.25
    assert f(x, y) == pytest.approx(1.0 + 2.0 * y + 3.0 * x + 4.0 * x * y, rel=1e-15)


def test_verification_load_is_negative_laplacian_of_solution():
    sol = field_from_config({"name": "mms_solution"})
    load = field_from_config({"name": "mms_load"})
    x, y, h = 0.3, 0.55, 1e-4
    lap = (
        sol(x + h, y) + sol(x - h, y) + sol(x, y + h) + sol(x, y - h) - 4.0 * sol(x, y)
    ) / h**2
    assert -lap == pytest.approx(load(x, y), rel=1e-5)


def test_verification_flux_is_outward_normal_derivative():
    sol = field_from_config({"name": "mms_solution", "offset": 1.0})
    flux = field_from_config({"name": "mms_flux"})
    t = np.linspace(0.0, 1.0, 9)
    zeros = np.zeros_like(t)
    ones = np.ones_like(t)
    # outward normal derivative of the solution with flipped sign, side by side
    for x, y, nx, ny in (
        (t, zeros, 0.0, -1.0),
        (t, ones, 0.0, 1.0),
        (zeros, t, -1.0, 0.0),
        (ones, t, 1.0, 0.0),
    ):
        gx, gy = sol.gradient(x, y)
        assert np.allclose(flux(x, y), -(gx * nx + gy * ny), atol=1e-12)


def test_fields_without_gradients_say_so():
    for name in ("mms_load", "mms_flux"):
        f = field_from_config({"name": name})
        with pytest.raises(ValueError, match="gradient"):
            f.gradient(0.5, 0.5)


def test_field_config_parsing():
    assert field_from_config(3.5)(0.2, 0.9) == 3.5
    f = field_from_config({"name": "zero"})
    assert np.all(f(SAMPLE_X, SAMPLE_Y) == 0.0)
    passthrough = field_from_config(f)
    assert passthrough is f
    with pytest.raises(ValueError):
        field_from_config(True)
    with pytest.raises(ValueError):
        field_from_config({"scale": 1.0})
    with pytest.raises(ValueError, match="unknown field"):
        field_from_config({"name": "fourier"})
    with pytest.raises(ValueError, match="parameters"):
        field_from_config({"name": "sin_product", "phase": 0.5})


def test_default_configs_validate(capsys):
    for kind in harness.KINDS:
        config = default_config(kind)
        harness.validate_config(config)
        assert config.kind == kind
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    usage = " ".join(capsys.readouterr().out.split())
    for experiment in harness.EXPERIMENTS.values():
        assert experiment.summary in usage
    with pytest.raises(ValueError):
        default_config("spectral")


@pytest.mark.parametrize(
    "kind,data,fragment",
    [
        ("state-conv", {"levels": [4, 12, 24]}, "power-of-two"),
        ("state-conv", {"levels": [8, 16]}, "at least 3"),
        ("state-conv", {"levels": [8, 16, 32], "n_ref": 32}, "exceed"),
        ("state-conv", {"levels": [8, 16, 32], "n_ref": 96}, "multiple"),
        ("alpha-sweep", {"alphas": [10.0]}, "at least 2"),
        ("alpha-sweep", {"alphas": [10.0, 1.0]}, "increasing"),
        ("alpha-sweep", {"alphas": [-1.0, 1.0]}, "positive"),
        ("state-conv", {"gamma1_sides": []}, "proper subset"),
        ("state-conv", {"gamma1_sides": ["bottom", "right", "top", "left"]}, "proper subset"),
        ("state-conv", {"gamma1_sides": ["south"]}, "proper subset"),
        ("state-conv", {"r": 1.0}, "exponent"),
        ("state-conv", {"r": 2.5}, "exponent"),
        ("state-conv", {"bogus": 1}, "unknown config keys"),
        ("state-conv", {"problem": {"w": 1}}, "unknown problem keys"),
        ("state-conv", {"problem": {"M": -1.0}}, "penalty weight"),
        ("state-conv", {"problem": {"b": True}}, "boundary value"),
        ("state-conv", {"problem": {"g": {"name": "warp"}}}, "unknown field"),
        ("state-conv", {"problem": {"q_star": {"name": "warp"}}}, "unknown field"),
        ("constants", {"levels": 5}, "levels must be a list"),
        ("constants", {"levels": [2.7, 4]}, "mesh level must be an integer"),
        ("constants", {"tol": 3}, "tol must be a JSON object"),
        ("constants", {"problem": [1]}, "problem must be a JSON object"),
        ("constants", {"seed": None}, "seed must be an integer"),
        ("state-conv", {"n_ref": 128.5}, "n_ref must be an integer"),
        ("state-conv", {"tol": {"rate_slak": 0.5}}, "unknown tol keys"),
        ("constants", {"tol": {"rate_slack": 0.5}}, "unknown tol keys"),
        ("state-conv", {"tol": {"rate_slack": "wide"}}, "tol rate_slack must be a finite number"),
        ("state-conv", {"tol": {"rate_slack": float("nan")}}, "tol rate_slack must be a finite number"),
        ("state-conv", {"gamma1_sides": [["bottom"]]}, "proper subset"),
        ("state-conv", {"problem": {"g": {"name": ["warp"]}}}, "unknown field"),
        ("state-conv", {"problem": {"g": {"name": "constant", "value": None}}}, "wrong type"),
        ("state-conv", {"problem": {"g": float("nan")}}, "field value must be a finite number"),
        ("state-conv", {"problem": {"z_d": float("inf")}}, "field value must be a finite number"),
        ("state-conv", {"problem": {"g": {"name": "constant", "value": float("nan")}}}, "must be finite"),
        ("state-conv", {"problem": {"g": {"name": "constant", "value": "nan"}}}, "must be finite"),
        ("control-conv", {"problem": {"g": {"name": "polynomial", "coefficients": [[1, float("nan")]]}}},
         "coefficients must be finite"),
        ("alpha-sweep", {"problem": {"q_star": {"name": "sin_product", "kx": float("inf")}}}, "kx must be finite"),
    ],
)
def test_config_rejections(kind, data, fragment):
    with pytest.raises(ValueError, match=fragment):
        config_from_dict(kind, data)


def test_config_merge_keeps_defaults():
    config = config_from_dict("control-conv", {"levels": [4, 8, 16], "n_ref": 64})
    assert config.levels == (4, 8, 16)
    assert config.n_ref == 64
    assert config.problem["M"] == "auto"
    assert config.tol["rate_slack"] == 0.15
    with pytest.raises(ValueError):
        config_from_dict("control-conv", [1, 2])


def test_penalty_weight_resolution():
    config = default_config("control-conv")
    mesh = build_structured_mesh(4, config.gamma1_sides)
    _, spec = prepare(config, mesh)
    assert spec.M == pytest.approx(4.0 * estimate_constants(mesh).contraction_bound(), rel=1e-12)
    fixed = config_from_dict("control-conv", {"problem": {"M": 7.0}})
    assert prepare(fixed, mesh)[1].M == 7.0
    # state-conv does not optimize: it passes no mesh, and "auto" means 1
    auto = config_from_dict("state-conv", {"problem": {"M": "auto"}})
    assert prepare(auto)[1].M == 1.0
    assert prepare(config_from_dict("state-conv", {"problem": {"M": 3}}))[1].M == 3.0


def test_rate_fit_classification():
    hs = np.array([0.4, 0.2, 0.1])
    exact = fit_rate(hs, [0.0, 5e-11, 1e-12])
    assert exact.status == "exact" and math.isinf(exact.rate) and exact.points == 0
    short = fit_rate(hs, [1e-3, 5e-11, 1e-11])
    assert short.status == "short" and short.points == 1
    clean = fit_rate(hs, [0.04, 0.01, 0.0025])
    assert clean.status == "ok"
    assert clean.rate == pytest.approx(2.0, abs=1e-12)
    assert clean.residual < 1e-12
    noisy = fit_rate([1.0, 0.5, 0.25, 0.125], [1e-1, 1e-3, 1e-2, 1e-4])
    assert noisy.status == "unreliable"


def test_rate_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_rate([0.5, 0.25], [1.0])
    with pytest.raises(ValueError):
        fit_rate([0.5, -0.25], [1.0, 1.0])
    with pytest.raises(ValueError):
        fit_rate([0.5, 0.25], [1.0, -1.0])


def test_rate_fit_floor_override():
    fit = fit_rate([0.4, 0.2, 0.1], [1e-7, 1e-7, 1e-7], floor=1e-6)
    assert fit.status == "exact"


@given(
    s=st.floats(min_value=0.5, max_value=3.0),
    c=st.floats(min_value=-2.0, max_value=2.0),
)
def test_rate_fit_recovers_power_laws(s, c):
    hs = np.array([0.5, 0.25, 0.125, 0.0625])
    errs = 10.0**c * hs**s
    fit = fit_rate(hs, errs)
    assert fit.status == "ok"
    assert fit.rate == pytest.approx(s, abs=1e-8)


def test_rate_check_semantics():
    ok = RateFit(rate=1.95, residual=0.01, status="ok", points=4)
    assert harness._rate_check(ok, 1.9) is True
    assert harness._rate_check(ok, 2.0) is False
    assert harness._rate_check(RateFit(math.inf, 0.0, "exact", 0), 99.0) is True
    assert harness._rate_check(RateFit(math.nan, math.nan, "short", 1), 1.0) == "UNRELIABLE"
    assert harness._rate_check(RateFit(2.0, 0.5, "unreliable", 4), 1.0) == "UNRELIABLE"


def test_sequence_checks():
    assert harness._strictly_decreasing([3.0, 2.0, 0.5])
    assert not harness._strictly_decreasing([3.0, 3.0])
    assert harness._decay_ok([1.0, 0.1, 0.004], 1e-2)
    assert not harness._decay_ok([1.0, 0.5], 1e-2)
    assert harness._bounded_along_ladder([0.0, 1e-3, 2e-3], growth=10.0)
    assert not harness._bounded_along_ladder([1e-3, 0.5], growth=10.0)
    assert harness._bounded_along_ladder([0.0, 0.0], growth=10.0)


def sample_report():
    return ConvergenceReport(
        kind="state-conv",
        column_notes="n: cells per side; h: mesh size; err: error",
        rows=[
            {"n": 2, "h": math.sqrt(2.0) / 2.0, "err": 0.25},
            {"n": 4, "h": math.sqrt(2.0) / 4.0, "err": 0.0625},
        ],
        meta={"alpha": 2.0, "note": "probe"},
        rates={"err": fit_rate([0.4, 0.2, 0.1], [0.04, 0.01, 0.0025])},
        checks={"a": True, "b": False, "c": "UNRELIABLE"},
    )


def test_report_accessors():
    report = sample_report()
    assert not report.passed
    assert np.allclose(report.column("err"), [0.25, 0.0625])
    with pytest.raises(ValueError):
        report.column("missing")
    assert report.columns == ("n", "h", "err")
    passing = ConvergenceReport(
        kind="constants", column_notes="", rows=[],
        meta={}, rates={}, checks={"only": True},
    )
    assert passing.passed


def test_csv_format_and_atomicity(tmp_path):
    report = sample_report()
    path = os.path.join(tmp_path, "out.csv")
    write_csv(report, path)
    assert not os.path.exists(path + ".tmp")
    with open(path) as handle:
        lines = handle.read().splitlines()
    assert lines[0] == "# state-conv report"
    assert lines[1].startswith("# columns:")
    assert "# meta alpha = 2" in lines
    assert "# meta note = probe" in lines
    rate_line = next(ln for ln in lines if ln.startswith("# rate err: rate="))
    assert float(rate_line.split("rate=")[1].split()[0]) == pytest.approx(2.0)
    assert "status=ok" in rate_line
    assert "# check a: PASS" in lines
    assert "# check b: FAIL" in lines
    assert "# check c: UNRELIABLE" in lines
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "n,h,err"
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    first = data[0].split(",")
    assert int(first[0]) == 2
    assert float(first[1]) == math.sqrt(2.0) / 2.0  # 17 significant digits round-trip
    with open(path) as handle:
        before = handle.read()
    write_csv(report, path)
    with open(path) as handle:
        assert handle.read() == before


def test_failed_csv_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    path = os.path.join(tmp_path, "out.csv")

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(harness.os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        write_csv(sample_report(), path)
    assert os.listdir(tmp_path) == []


def test_floor_level_run_classifies_exact():
    # matching boundary value, zero forcing and zero flux make every level
    # reproduce the constant state and a zero adjoint to solver precision
    config = config_from_dict(
        "state-conv",
        {
            "levels": [2, 4, 8],
            "n_ref": 16,
            "problem": {"g": 0.0, "z_d": 1.0, "q_star": 0.0, "exact": 1.0},
        },
    )
    report = harness.run(config)
    assert report.rates["state_rate"].status == "exact"
    assert report.rates["adjoint_rate"].status == "exact"
    assert report.checks["state_rate"] is True
    assert report.checks["adjoint_rate"] is True
    assert report.passed
    assert np.all(report.column("state_err") <= 1e-10)
