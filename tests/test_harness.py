"""Field registry, config validation, rate fitting, report serialization,
and one end-to-end run whose errors sit at the solver floor."""

import dataclasses
import gc
import json
import math
import os
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fluxopt import cli, harness, pde
from fluxopt.harness import (
    ConvergenceReport,
    ExperimentConfig,
    RateFit,
    config_from_dict,
    field_from_config,
    fit_rate,
    prepare,
    write_csv,
)
from fluxopt.linsolve import estimate_constants
from fluxopt.mesh import build_structured_mesh, zero_trace
import oracles
from oracles import column


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
        {"name": "mms_load"},
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
    f = field_from_config({"name": "mms_flux"})
    with pytest.raises(ValueError, match="gradient"):
        f.gradient(0.5, 0.5)


SEPARABLE = [
    {"name": name, "scale": scale, "kx": kx, "ky": ky}
    for name in ("sin_product", "trig_product")
    for scale in (2.5, -3.0)
    for kx in (1, 2, 3)
    for ky in (1, 2, 3)
]
SEPARABLE += [{"name": "mms_solution", "offset": offset} for offset in (0.0, 1.0, -2.5)]
SEPARABLE += [{"name": "mms_load"}]


@pytest.mark.parametrize("cfg", SEPARABLE)
def test_separable_fields_are_their_written_out_closed_forms_bit_for_bit(cfg):
    # a grid through the four sides x = 0, x = 1, y = 0 and y = 1 and inside
    x, y = np.meshgrid([0.0, 0.15, 0.5, 0.8, 1.0], [0.0, 0.3, 0.45, 0.7, 1.0])
    value, grad = getattr(oracles, cfg["name"])(**{k: v for k, v in cfg.items() if k != "name"})
    f = field_from_config(cfg)
    assert np.array_equal(f(x, y), value(x, y))
    for got, want in zip(f.gradient(x, y), grad(x, y)):
        assert np.array_equal(got, want)


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


def test_a_field_that_can_overflow_on_the_unit_square_is_rejected():
    # the bound a field declares covers its values and gradient on the square
    # and is reached: a positive polynomial and its slopes peak at (1, 1), and
    # scale sin(k pi x) sin(pi y) has the x-slope scale k pi at (0, 1/2)
    for cfg in (
        {"name": "trig_product", "scale": -1e308, "ky": 1},
        {"name": "sin_product", "scale": 1e308, "kx": 3},
        {"name": "polynomial", "coefficients": [[1e308, 1e308]]},
        {"name": "polynomial", "coefficients": [[0.0, 0.0, 1e308]]},  # its y-derivative
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows on the unit square"):
                field_from_config(cfg)
    poly = field_from_config({"name": "polynomial", "coefficients": [[1e307, 1e307]] * 4})
    assert poly(1.0, 1.0) == pytest.approx(8e307, rel=1e-15)
    assert poly.gradient(1.0, 1.0)[0] == poly.bound == pytest.approx(1.2e308, rel=1e-15)
    wave = field_from_config({"name": "sin_product", "scale": 1e307, "kx": 3})
    assert wave.gradient(0.0, 0.5)[0] == pytest.approx(wave.bound, rel=1e-15)
    assert np.isfinite(wave.bound) and np.isfinite(poly.bound)


def test_default_configs_validate(capsys):
    for kind in harness.KINDS:
        config = ExperimentConfig(kind)
        assert config.kind == kind
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    usage = " ".join(capsys.readouterr().out.split())
    for experiment in harness.EXPERIMENTS.values():
        assert experiment.summary in usage
    with pytest.raises(ValueError, match="unknown experiment kind"):
        ExperimentConfig("spectral")


@pytest.mark.parametrize("kind", harness.KINDS)
def test_default_config_carries_the_kind_table(kind):
    experiment = harness.EXPERIMENTS[kind]
    config = ExperimentConfig(kind)
    assert config.levels == experiment.levels
    assert config.alphas == experiment.alphas
    assert config.n_ref == experiment.n_ref
    assert config.problem == experiment.problem
    assert config_from_dict(kind, {}) == config


def test_config_is_checked_when_built():
    with pytest.raises(ValueError, match="power-of-two"):
        ExperimentConfig("state-conv", levels=(4, 12, 24))
    with pytest.raises(ValueError, match="seed"):
        dataclasses.replace(ExperimentConfig("state-conv"), seed=-1)


@pytest.mark.parametrize(
    "key,value", [("levels", 5), ("alphas", 3.0), ("gamma1_sides", 5), ("problem", [1])]
)
def test_a_wrong_typed_config_field_is_a_value_error(key, value):
    with pytest.raises(ValueError, match=key):
        ExperimentConfig("diagram", **{key: value})


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
        ("state-conv", {"r": 2.0}, "unknown config keys"),
        ("state-conv", {"r": 1.0001}, "unknown config keys"),
        ("state-conv", {"bogus": 1}, "unknown config keys"),
        ("state-conv", {"problem": {"w": 1}}, "unknown problem keys"),
        ("state-conv", {"problem": {"M": -1.0}}, "penalty weight"),
        ("state-conv", {"problem": {"b": True}}, "boundary value"),
        ("state-conv", {"problem": {"g": {"name": "warp"}}}, "unknown field"),
        ("state-conv", {"problem": {"q_star": {"name": "warp"}}}, "unknown field"),
        ("constants", {"levels": 5}, "levels must be a list"),
        ("constants", {"levels": [2.7, 4]}, "mesh level must be an integer"),
        ("constants", {"tol": 3}, "unknown config keys"),
        ("constants", {"problem": [1]}, "problem must be a JSON object"),
        ("constants", {"seed": None}, "seed must be an integer"),
        ("state-conv", {"n_ref": 128.5}, "n_ref must be an integer"),
        ("state-conv", {"tol": {"rate_slack": 0.15}}, "unknown config keys"),
        ("constants", {"tol": {}}, "unknown config keys"),
        ("state-conv", {"tol": {"rate_slack": 10.0}}, "unknown config keys"),
        ("state-conv", {"r": 2.0, "tol": {"rate_slack": 0.15}}, "unknown config keys"),
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
        ("control-conv", {"seed": -1}, "seed"),
        # a key the kind does not read
        ("state-conv", {"alphas": [1.0, 10.0]}, "state-conv does not read alphas"),
        ("state-conv", {"alphas": []}, "state-conv does not read alphas"),
        ("control-conv", {"alphas": [1.0, 10.0]}, "control-conv does not read alphas"),
        ("constants", {"alphas": [1.0, 10.0]}, "constants does not read alphas"),
        ("alpha-sweep", {"n_ref": 32}, "alpha-sweep does not read n_ref"),
        ("constants", {"n_ref": 64}, "constants does not read n_ref"),
        ("control-conv", {"problem": {"exact": {"name": "mms_solution"}}}, "unknown problem keys"),
        ("control-conv", {"problem": {"q_star": 0.0}}, "unknown problem keys"),
        ("diagram", {"problem": {"q_star": 0.0}}, "unknown problem keys"),
        ("constants", {"problem": {"g": 0.0}}, "unknown problem keys"),
        ("alpha-sweep", {"levels": [4, 8, 16]}, "alpha-sweep reads at most 1 mesh level"),
        # a field parameter is a number, not a numeric string or a boolean
        ("control-conv", {"problem": {"g": {"name": "sin_product", "scale": "10"}}}, "scale must be finite"),
        ("control-conv", {"problem": {"g": {"name": "sin_product", "kx": True}}}, "kx must be finite"),
        ("control-conv", {"problem": {"g": {"name": "polynomial", "coefficients": [[1, True]]}}},
         "coefficients must be finite"),
        # an integer beyond the float range
        ("alpha-sweep", {"problem": {"b": 10**400}}, "boundary value b must be a finite number"),
        ("alpha-sweep", {"alphas": [1.0, 10**400]}, "alpha must be a finite number"),
        ("alpha-sweep", {"problem": {"z_d": 10**400}}, "field value must be a finite number"),
        ("alpha-sweep", {"problem": {"g": {"name": "sin_product", "scale": 10**400}}}, "wrong type"),
        ("alpha-sweep", {"problem": {"M": 10**400}}, "penalty weight M must be a finite number"),
        # the state error needs the exact solution's gradient
        ("state-conv", {"problem": {"exact": {"name": "mms_flux"}}}, "'mms_flux' has no closed-form gradient"),
    ],
)
def test_config_rejections(kind, data, fragment):
    with pytest.raises(ValueError, match=fragment):
        config_from_dict(kind, data)


@pytest.mark.parametrize("kind", harness.KINDS)
def test_no_config_sets_how_its_kind_is_judged(kind):
    for data in ({"r": 2.0}, {"tol": {}}):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict(kind, data)


@pytest.mark.parametrize("kind", harness.KINDS)
def test_every_kind_accepts_a_seed(kind):
    # the command line takes --seed for every kind
    assert config_from_dict(kind, {"seed": 3}).seed == 3


README_UNREAD = {"state-conv": "alphas", "control-conv": "alphas", "alpha-sweep": "n_ref", "constants": "alphas"}


def test_readme_example_is_a_diagram_config():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as handle:
        readme = handle.read()
    (example,) = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    data = json.loads(example)
    assert config_from_dict("diagram", data).levels == tuple(data["levels"])
    for kind, key in README_UNREAD.items():
        with pytest.raises(ValueError, match=f"{kind} does not read {key}"):
            config_from_dict(kind, data)


def test_readme_library_example_runs(capsys):
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as handle:
        readme = handle.read()
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    names = {}
    exec(example, names)
    sol, ref = names["sol"], names["ref"]
    assert capsys.readouterr().out == f"{sol.cost} {sol.gradient_norm} {sol.iterations}\n"
    assert sol.cost == pytest.approx(ref.cost, rel=1e-10)


@pytest.mark.parametrize("kind", ["control-conv", "diagram"])
def test_oracle_kinds_accept_only_a_finest_level_the_dense_route_can_form(kind):
    # one clamped side: n = 128 gives 16641 x 385 responses (51 MB), n = 256
    # gives 406 MB, against the 64 MiB cap
    assert config_from_dict(kind, {"levels": [32, 64, 128], "n_ref": 256}).levels[-1] == 128
    with pytest.raises(ValueError, match="at n = 256 a 66049 x 769 response exceeds the cap"):
        config_from_dict(kind, {"levels": [64, 128, 256], "n_ref": 512})
    # kinds without the oracle take any level
    assert config_from_dict("state-conv", {"levels": [64, 128, 256], "n_ref": 512}).n_ref == 512


def test_config_merge_keeps_defaults():
    config = config_from_dict("control-conv", {"levels": [4, 8, 16], "n_ref": 64})
    assert config.levels == (4, 8, 16)
    assert config.n_ref == 64
    assert config.problem["M"] == "auto"
    with pytest.raises(ValueError):
        config_from_dict("control-conv", [1, 2])


def test_penalty_weight_resolution():
    config = ExperimentConfig("control-conv")
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
    # a lower floor counts the values under the default one
    tiny = [4e-11, 1e-11, 2.5e-12]
    assert fit_rate(hs, tiny).status == "exact"
    below = fit_rate(hs, tiny, floor=1e-20)
    assert below.status == "ok" and below.points == 3
    assert below.rate == pytest.approx(2.0, abs=1e-12)


def test_rate_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_rate([0.5, 0.25], [1.0])
    with pytest.raises(ValueError):
        fit_rate([0.5, -0.25], [1.0, 1.0])
    with pytest.raises(ValueError):
        fit_rate([0.5, 0.25], [1.0, -1.0])


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
    assert np.allclose(column(report, "err"), [0.25, 0.0625])
    with pytest.raises(ValueError):
        column(report, "missing")
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
    assert np.all(column(report, "state_err") <= 1e-10)


def test_cost_gap_rates_count_gaps_under_the_first_order_floor():
    # on bottom, top and left the level cost gaps fall under the first-order
    # floor 1e-10 from n = 16 on; they are second order, so their fits count
    # every point above the floor squared
    config = config_from_dict("control-conv", {"gamma1_sides": ["bottom", "top", "left"]})
    report = harness.run(config)
    assert np.min(column(report, "cost_gap_level")) <= 1e-10
    for name in ("cost_gap_ref_rate", "cost_gap_level_rate"):
        assert report.rates[name].status == "ok"
        assert report.rates[name].points == len(config.levels)
        assert report.checks[name] is True
    assert report.passed


def test_fields_from_equal_config_entries_are_equal():
    same = [
        field_from_config({"name": "sin_product", "scale": 10.0, "ky": 2}),
        field_from_config({"ky": 2.0, "name": "sin_product", "scale": 10}),
    ]
    assert same[0] == same[1] and hash(same[0]) == hash(same[1])
    assert field_from_config(2.5) == field_from_config({"name": "constant", "value": 2.5})
    poly = {"name": "polynomial", "coefficients": [[1.0, 2.0], [3.0, 4.0]]}
    assert field_from_config(poly) == field_from_config(poly)
    # fields that may differ in a value, or in the sign of a zero, differ
    assert field_from_config({"name": "sin_product", "scale": 10.0}) != same[0]
    assert field_from_config(0.0) != field_from_config(-0.0)
    assert field_from_config({"name": "trig_product", "scale": 10.0, "ky": 2}) != same[0]
    # a hand-built field equals only itself
    hand = harness.Field("sin_product", same[0]._fn)
    assert hand != same[0] and hand == hand
    assert len({hand, harness.Field("sin_product", same[0]._fn)}) == 2


def test_kept_meshes_serve_later_runs_of_every_kind_with_the_same_reports(tmp_path):
    def run_pass(number, kinds):
        for kind in kinds:
            write_csv(harness.run(ExperimentConfig(kind)), str(tmp_path / f"{number}-{kind}.csv"))
        return {key: set(mesh.store) for key, mesh in harness._KEPT.items()}

    run_pass(1, harness.KINDS)
    kept = run_pass(2, ("diagram", "constants", "state-conv", "alpha-sweep", "control-conv"))
    # the default kinds read 7 meshes, n = 2 to 128 on the bottom side
    assert sorted(n for n, _ in kept) == [2, 4, 8, 16, 32, 64, 128]
    # a later pass adds nothing to a kept store: loads are keyed by their config entry
    assert run_pass(3, harness.KINDS) == kept
    for kind in harness.KINDS:
        first = (tmp_path / f"1-{kind}.csv").read_bytes()
        for number in (2, 3):
            assert (tmp_path / f"{number}-{kind}.csv").read_bytes() == first, (kind, number)


def test_kept_meshes_are_keyed_by_their_side_set_and_bounded_by_their_vertices():
    mesh = harness._kept_mesh(4, ("left", "bottom"))
    assert harness._kept_mesh(4, ["bottom", "left"]) is mesh
    assert harness._kept_mesh(4, ("bottom",)) is not mesh
    assert harness._kept_mesh(np.int64(4), ("left", "bottom", "left")) is mesh
    # n = 256 has 66049 vertices, more than the budget: returned, not kept
    fine = harness._kept_mesh(256, ("bottom",))
    assert len(fine.vertices) > harness._KEPT_VERTICES
    assert harness._kept_mesh(256, ("bottom",)) is not fine
    assert [key[0] for key in harness._KEPT] == [4, 4]
    with pytest.raises(ValueError, match="positive integer"):
        harness._kept_mesh(0, ("bottom",))


def test_the_least_recently_used_mesh_is_evicted_and_freed_without_the_cycle_collector(monkeypatch):
    # n = 4 has 25 vertices: the budget holds two such meshes
    monkeypatch.setattr(harness, "_KEPT_VERTICES", 50)
    enabled = gc.isenabled()
    gc.disable()
    try:
        mesh = harness._kept_mesh(4, ("bottom",))
        fields = {"g": {"name": "mms_load"}, "z_d": 0.0}
        spec = pde.ProblemSpec(**{k: field_from_config(v) for k, v in fields.items()}, b=1.0, M=1.0)
        for alpha in (None, 2.0):
            s = spec.with_alpha(alpha)
            pde.solve_adjoint(mesh, s, pde.solve_state(mesh, s, zero_trace(mesh)))
        estimate_constants(mesh)
        ref = weakref.ref(mesh)
        other = harness._kept_mesh(4, ("top",))
        assert harness._kept_mesh(4, ("bottom",)) is mesh  # now the most recently used
        harness._kept_mesh(4, ("left",))
        assert harness._kept_mesh(4, ("bottom",)) is mesh
        assert harness._kept_mesh(4, ("top",)) is not other
        del mesh, other
        harness._kept_mesh(4, ("right",))
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
