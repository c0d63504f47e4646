import argparse
import csv
import json
import math

import numpy as np
import pytest

from esbmix import analytics, mcmc
from esbmix.cli import ConfigError, build_parser, load_data_csv, main, parse_kernel, parse_prior
from esbmix.mcmc import GibbsState, RandomRho, UnivariateNormalGamma
from esbmix.sticks import IidBeta, SharedBeta, SpeciesDriven


def write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f)
    return str(path)


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def test_each_subcommand_takes_only_its_options():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
               for name, p in sub.choices.items()}
    common = {"--config", "--seed", "--out"}
    assert options == {
        "prior-kn": common,
        "prior-ekn": common,
        "order-prob": common,
        "alloc-prob": common | {"--mc-fallback"},
        "fit": common | {"--header", "--check-invariants"},
        "verify": common,
    }


@pytest.mark.parametrize("subcommand, flag", [("prior-kn", "--header"),
                                              ("fit", "--mc-fallback"),
                                              ("alloc-prob", "--check-invariants")])
def test_flag_of_another_subcommand_exits_2(tmp_path, subcommand, flag):
    cfg = write_json(tmp_path / "c.json", {})
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--config", cfg, "--out", str(tmp_path / "o"), flag])
    assert exc.value.code == 2


DSB = {"family": "dsb", "beta": 1.0, "theta": 1.0}


@pytest.mark.parametrize("subcommand, config", [
    ("order-prob", {"betas": [-1.0], "thetas": [1.0], "mc_replicates": 100}),
    ("order-prob", {"betas": ["a"], "thetas": [1.0], "mc_replicates": 100}),
    ("order-prob", {"betas": [1.0], "thetas": [0], "mc_replicates": 100}),
    ("alloc-prob", {"d_vectors": 5, "model": DSB}),
    ("alloc-prob", {"d_vectors": [[True, 2]], "model": DSB, "replicates": 100}),
    ("prior-kn", {"specs": 5, "n": 5}),
    ("prior-ekn", {"specs": 5, "n_max": 5}),
    ("alloc-prob", {"d_vectors": [[1]], "model": {**DSB, "rho": 0.5}, "replicates": 100}),
])
def test_bad_analytics_config_exits_2(tmp_path, capsys, subcommand, config):
    cfg = write_json(tmp_path / "c.json", config)
    out = tmp_path / "out"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config.") and err.count("\n") == 1
    assert not (out / "manifest.json").exists()


def test_parse_prior_families():
    spec, label = parse_prior({"family": "dirichlet", "theta": 2.0})
    assert spec == IidBeta(1.0, 2.0)
    spec, _ = parse_prior({"family": "geometric", "theta": 1.0})
    assert spec == SharedBeta(1.0, 1.0)
    spec, _ = parse_prior({"family": "dsb", "beta": 3.0, "theta": 1.0})
    assert isinstance(spec, SpeciesDriven) and spec.eppf.beta == 3.0
    spec, _ = parse_prior({"family": "dsb", "rho": 0.25, "theta": 1.0})
    assert spec.eppf.beta == pytest.approx(3.0)
    spec, _ = parse_prior({"family": "pitman-yor", "alpha": 0.5, "beta": 0.5, "theta": 1.0})
    assert spec.eppf.alpha == 0.5
    spec, _ = parse_prior({"family": "random-rho", "theta": 1.0}, allow_random_rho=True)
    assert isinstance(spec, RandomRho)


def test_parse_prior_rejections():
    with pytest.raises(ConfigError):
        parse_prior({"family": "dsb", "theta": 1.0})  # no beta or rho
    with pytest.raises(ConfigError):
        parse_prior({"family": "nope", "theta": 1.0})
    with pytest.raises(ConfigError):
        parse_prior({"family": "dirichlet", "theta": 1.0, "bogus": 2})
    with pytest.raises(ConfigError):
        parse_prior({"family": "dirichlet", "theta": -1.0})
    with pytest.raises(ConfigError):
        parse_prior({"family": "random-rho", "theta": 1.0})  # not allowed here
    for alpha in (1.5, "x"):
        with pytest.raises(ConfigError, match="alpha"):
            parse_prior({"family": "pitman-yor", "alpha": alpha, "beta": 1.0, "theta": 1.0})
    # a key the family does not read, or a second key for one setting
    for obj in ({"family": "random-rho", "theta": 1, "base": [2, 3]},
                {"family": "dsb", "rho": 0.5, "beta": 3, "theta": 1},
                {"family": "dirichlet", "theta": 5, "base": [1, 2]},
                {"family": "dirichlet", "theta": 1, "alpha": 0.5},
                {"family": "dirichlet", "theta": 1, "beta": 2},
                {"family": "geometric", "theta": 1, "rho": 0.5},
                {"family": "geometric", "base": [1, 2], "beta": 2}):
        with pytest.raises(ConfigError):
            parse_prior(obj, allow_random_rho=True)
    # the random-rho prior is uniform on (0, 1), with no bounds to set
    with pytest.raises(ConfigError, match=r"unknown keys \['rho_bounds'\]"):
        parse_prior({"family": "random-rho", "theta": 1.0, "rho_bounds": [0.2, 0.8]},
                    allow_random_rho=True)


def test_parse_kernel():
    k = parse_kernel({"type": "univariate-normal-gamma", "mu0": 1.0, "lam": 0.5})
    assert isinstance(k, UnivariateNormalGamma) and k.lam == 0.5 and k.a == 0.5
    with pytest.raises(ConfigError):
        parse_kernel({"type": "univariate-normal-gamma", "lam": -1.0})
    with pytest.raises(ConfigError):
        parse_kernel({"type": "other"})
    with pytest.raises(ConfigError, match="positive definite"):
        parse_kernel({"type": "bivariate-normal-invwishart", "psi": [[1.0, 2.0], [2.0, 1.0]]})
    with pytest.raises(ConfigError, match="psi"):
        parse_kernel({"type": "bivariate-normal-invwishart", "psi": [[1.0, "x"], [0.0, 1.0]]})


def test_load_data_csv(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.5\n2.5\n-1.0\n")
    arr = load_data_csv(str(p))
    assert arr.tolist() == [1.5, 2.5, -1.0]
    p2 = tmp_path / "d2.csv"
    p2.write_text("x,y\n1,2\n3,4\n")
    arr = load_data_csv(str(p2), expect_header=True)
    assert arr.shape == (2, 2)


def test_load_data_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0\noops\n")
    with pytest.raises(ConfigError, match="bad.csv:2"):
        load_data_csv(str(p))
    p2 = tmp_path / "empty.csv"
    p2.write_text("")
    with pytest.raises(ConfigError, match="no data"):
        load_data_csv(str(p2))
    p3 = tmp_path / "ragged.csv"
    p3.write_text("1,2\n3\n")
    with pytest.raises(ConfigError, match="ragged.csv:2"):
        load_data_csv(str(p3))


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_load_data_csv_rejects_non_finite(tmp_path, cell):
    p = tmp_path / "nonfinite.csv"
    p.write_text(f"1.0,2.0\n3.0,{cell}\n")
    with pytest.raises(ConfigError, match="nonfinite.csv:2: non-finite"):
        load_data_csv(str(p))


def test_order_prob_subcommand(tmp_path):
    cfg = write_json(tmp_path / "c.json", {"betas": [1.0], "thetas": [1.0],
                                           "mc_replicates": 50_000})
    out = tmp_path / "out"
    assert main(["order-prob", "--config", cfg, "--out", str(out), "--seed", "5"]) == 0
    rows = read_csv(out / "order_prob.csv")
    assert rows[0] == ["beta", "theta", "closed_form", "mc_estimate", "mc_stderr"]
    closed = float(rows[1][2])
    assert closed == pytest.approx((1 + math.log(2)) / 2, abs=1e-10)
    est, se = float(rows[1][3]), float(rows[1][4])
    assert abs(closed - est) < 3 * se
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5 and manifest["subcommand"] == "order-prob"


def test_prior_kn_subcommand_and_determinism(tmp_path):
    cfg = write_json(
        tmp_path / "c.json",
        {"specs": [{"family": "dirichlet", "theta": 1.0},
                   {"family": "dsb", "beta": 1.0, "theta": 1.0}],
         "n": 10, "replicates": 2000},
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["prior-kn", "--config", cfg, "--out", str(out1), "--seed", "9"]) == 0
    assert main(["prior-kn", "--config", cfg, "--out", str(out2), "--seed", "9"]) == 0
    body1 = (out1 / "prior_kn.csv").read_bytes()
    body2 = (out2 / "prior_kn.csv").read_bytes()
    assert body1 == body2  # byte-identical under the same config and seed
    rows = read_csv(out1 / "prior_kn.csv")
    assert rows[0][0] == "k" and len(rows) == 11
    freqs = np.array([[float(c) for c in r[1:]] for r in rows[1:]])
    assert np.allclose(freqs.sum(axis=0), 1.0, atol=1e-9)


def test_prior_kn_single_replicate(tmp_path):
    cfg = write_json(tmp_path / "c.json",
                     {"specs": [{"family": "geometric", "theta": 1.0}],
                      "n": 5, "replicates": 1})
    out = tmp_path / "out"
    assert main(["prior-kn", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "prior_kn.csv")
    assert sum(float(r[1]) for r in rows[1:]) == pytest.approx(1.0)
    assert sorted(float(r[1]) for r in rows[1:])[-1] == 1.0


@pytest.mark.parametrize("spec, reps, message", [
    # Be(1, 1e7) lengths need millions of sticks per slice point
    ({"family": "dirichlet", "base": [1, 1e7]}, 1, "row extension cap exceeded"),
    # most Be(0.01, 1) shared lengths send a slice point past stick 2**63
    ({"family": "geometric", "base": [0.01, 1]}, 20_000, "shared length"),
], ids=["dirichlet", "geometric"])
def test_prior_kn_improper_prior_exits_2(tmp_path, capsys, spec, reps, message):
    cfg = write_json(tmp_path / "c.json", {"specs": [spec], "n": 3, "replicates": reps})
    out = tmp_path / "out"
    assert main(["prior-kn", "--config", cfg, "--out", str(out), "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not (out / "manifest.json").exists()


def test_prior_ekn_subcommand(tmp_path):
    cfg = write_json(tmp_path / "c.json",
                     {"specs": [{"family": "dirichlet", "theta": 1.0}],
                      "n_max": 8, "replicates": 4000})
    out = tmp_path / "out"
    assert main(["prior-ekn", "--config", cfg, "--out", str(out), "--seed", "2"]) == 0
    rows = read_csv(out / "prior_ekn.csv")
    vals = [float(r[1]) for r in rows[1:]]
    assert vals[0] == 1.0
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_alloc_prob_subcommand(tmp_path):
    cfg = write_json(
        tmp_path / "c.json",
        {"d_vectors": [[1], [2]], "model": {"family": "dsb", "beta": 1.0, "theta": 1.0},
         "replicates": 100_000},
    )
    out = tmp_path / "out"
    assert main(["alloc-prob", "--config", cfg, "--out", str(out), "--seed", "4"]) == 0
    rows = read_csv(out / "alloc_prob.csv")
    assert rows[1][0] == "1" and float(rows[1][1]) == pytest.approx(0.5)
    assert float(rows[2][1]) == pytest.approx(5 / 24, rel=1e-10)
    for r in rows[1:]:
        exact, est, se = float(r[1]), float(r[2]), float(r[3])
        assert abs(exact - est) < 3 * se


def test_alloc_prob_cap_requires_flag(tmp_path):
    cfg = write_json(
        tmp_path / "c.json",
        {"d_vectors": [[13]], "model": {"family": "dsb", "beta": 1.0, "theta": 1.0},
         "replicates": 1000},
    )
    out = tmp_path / "out"
    assert main(["alloc-prob", "--config", cfg, "--out", str(out)]) == 2
    assert main(["alloc-prob", "--config", cfg, "--out", str(out), "--mc-fallback"]) == 0
    rows = read_csv(out / "alloc_prob.csv")
    assert rows[1][1] == ""  # no exact column beyond the cap


def test_fit_subcommand_univariate(tmp_path):
    rng = np.random.default_rng(0)
    data = np.concatenate([rng.normal(-4, 1, 40), rng.normal(4, 1, 40)])
    data_path = tmp_path / "data.csv"
    data_path.write_text("".join(f"{float(x)!r}\n" for x in data))
    cfg = write_json(
        tmp_path / "c.json",
        {"data": str(data_path),
         "prior": {"family": "dsb", "rho": 0.5, "theta": 1.0},
         "iterations": 400, "burn_in": 200, "thin": 4,
         "grid": {"min": -10.0, "max": 10.0, "points": 201}},
    )
    out = tmp_path / "out"
    assert main(["fit", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
    for name in ("density.csv", "posterior_kn.csv", "clusters.csv", "trace.csv",
                 "manifest.json"):
        assert (out / name).exists()
    dens = read_csv(out / "density.csv")
    assert dens[0] == ["point", "eap_density", "map_density"]
    grid = np.array([float(r[0]) for r in dens[1:]])
    eap = np.array([float(r[1]) for r in dens[1:]])
    assert np.trapezoid(eap, grid) == pytest.approx(1.0, abs=0.02)
    kn_rows = read_csv(out / "posterior_kn.csv")
    assert sum(float(r[1]) for r in kn_rows[1:]) == pytest.approx(1.0)
    trace = read_csv(out / "trace.csv")
    assert trace[0] == ["sweep", "k_n", "rho", "log_score"]
    assert len(trace) == 201  # 200 retained sweeps
    clusters = read_csv(out / "clusters.csv")
    assert len(clusters) == len(data) + 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_observations"] == len(data)


def test_fit_subcommand_random_rho_bivariate(tmp_path):
    rng = np.random.default_rng(1)
    data = np.vstack([rng.normal(size=(30, 2)) + [4, 4],
                      rng.normal(size=(30, 2)) - [4, 4]])
    data_path = tmp_path / "data.csv"
    data_path.write_text("x,y\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in data))
    cfg = write_json(
        tmp_path / "c.json",
        {"data": str(data_path),
         "prior": {"family": "random-rho", "theta": 1.0},
         "iterations": 300, "burn_in": 150, "thin": 4,
         "grid": {"min": [-8.0, -8.0], "max": [8.0, 8.0], "points": [21, 21]}},
    )
    out = tmp_path / "out"
    assert main(["fit", "--config", cfg, "--out", str(out), "--seed", "2",
                 "--header"]) == 0
    trace = read_csv(out / "trace.csv")
    rhos = [float(r[2]) for r in trace[1:]]
    assert all(0.0 < r < 1.0 for r in rhos)
    assert (out / "rho_hist.csv").exists()
    hist = read_csv(out / "rho_hist.csv")
    assert sum(float(r[2]) for r in hist[1:]) == pytest.approx(1.0)
    dens = read_csv(out / "density.csv")
    assert dens[0] == ["x", "y", "eap_density", "map_density"]


def test_fit_check_invariants_same_outputs(tmp_path, monkeypatch):
    rng = np.random.default_rng(4)
    data = np.concatenate([rng.normal(-3, 1, 30), rng.normal(3, 1, 30)])
    data_path = tmp_path / "data.csv"
    data_path.write_text("".join(f"{float(x)!r}\n" for x in data))
    cfg = write_json(
        tmp_path / "c.json",
        {"data": str(data_path),
         "prior": {"family": "dsb", "rho": 0.5, "theta": 1.0},
         "iterations": 120, "burn_in": 60, "thin": 3,
         "grid": {"min": -8.0, "max": 8.0, "points": 101}},
    )
    validations = []
    validate = GibbsState.validate
    monkeypatch.setattr(GibbsState, "validate",
                        lambda self: validations.append(1) or validate(self))
    outs = []
    for flags in ([], ["--check-invariants"]):
        out = tmp_path / ("checked" if flags else "plain")
        assert main(["fit", "--config", cfg, "--out", str(out), "--seed", "5"] + flags) == 0
        outs.append(out)
        assert len(validations) == (120 if flags else 0)
    for name in ("density.csv", "posterior_kn.csv", "clusters.csv", "trace.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    manifest = json.loads((outs[1] / "manifest.json").read_text())
    assert manifest["invariant_checks"]["state_validated_each_sweep"] is True


def test_fit_without_collapsed_scores_still_writes_a_map(tmp_path, monkeypatch):
    # with the partition-sum cap at 0 no snapshot gets a collapsed score, as
    # on data that need more occupied sticks than the cap: the highest
    # complete-data score picks the MAP sweep, and every output is written
    monkeypatch.setattr(mcmc, "ENUMERATION_CAP", 0)
    rng = np.random.default_rng(4)
    data_path = tmp_path / "data.csv"
    data_path.write_text("".join(f"{float(x)!r}\n" for x in rng.normal(size=40)))
    cfg = write_json(
        tmp_path / "c.json",
        {"data": str(data_path),
         "prior": {"family": "dsb", "rho": 0.5, "theta": 1.0},
         "iterations": 60, "burn_in": 30, "thin": 3,
         "grid": {"min": -4.0, "max": 4.0, "points": 41}},
    )
    out = tmp_path / "out"
    assert main(["fit", "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
    for name in ("density.csv", "posterior_kn.csv", "clusters.csv", "trace.csv"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["map_unscored_samples"] == 10
    scores = [float(row[3]) for row in read_csv(out / "trace.csv")[1:]][::3]
    assert manifest["map_sample_index"] == int(np.argmax(scores))


def test_fit_empty_data_no_partial_outputs(tmp_path):
    data_path = tmp_path / "data.csv"
    data_path.write_text("")
    cfg = write_json(tmp_path / "c.json",
                     {"data": str(data_path), "prior": {"family": "dirichlet", "theta": 1.0}})
    out = tmp_path / "out"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 2
    assert not (out / "density.csv").exists()
    assert not (out / "trace.csv").exists()


def test_fit_unknown_key_rejected(tmp_path):
    cfg = write_json(tmp_path / "c.json",
                     {"data": "x.csv", "prior": {"family": "dirichlet", "theta": 1.0},
                      "surprise": 1})
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("grid", [{"points": 0}, {"points": 2.5}, {"min": "a"}])
def test_fit_bad_grid_rejected(tmp_path, grid):
    data_path = tmp_path / "data.csv"
    data_path.write_text("0.1\n0.5\n-0.3\n")
    cfg = write_json(tmp_path / "c.json",
                     {"data": str(data_path), "prior": {"family": "dirichlet", "theta": 1.0},
                      "iterations": 4, "burn_in": 1, "grid": grid})
    out = tmp_path / "out"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 2
    assert not (out / "density.csv").exists()


def test_fit_burn_in_zero_accepted(tmp_path):
    data_path = tmp_path / "data.csv"
    data_path.write_text("0.1\n0.5\n-0.3\n")
    config = {"data": str(data_path), "prior": {"family": "dirichlet", "theta": 1.0},
              "iterations": 6, "burn_in": 0, "thin": 2, "grid": {"points": 11}}
    out = tmp_path / "out"
    assert main(["fit", "--config", write_json(tmp_path / "c.json", config),
                 "--out", str(out)]) == 0
    assert len(read_csv(out / "trace.csv")) == 7  # sweeps 0-5, every one retained
    for burn_in in (-1, 6, 1.5):
        config["burn_in"] = burn_in
        assert main(["fit", "--config", write_json(tmp_path / "c.json", config),
                     "--out", str(tmp_path / "bad")]) == 2
    assert not (tmp_path / "bad" / "trace.csv").exists()


def test_fit_unreadable_inputs_rejected(tmp_path):
    out = str(tmp_path / "out")
    missing_data = write_json(tmp_path / "c.json",
                              {"data": str(tmp_path / "none.csv"),
                               "prior": {"family": "dirichlet", "theta": 1.0}})
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{bad json")
    for cfg in (missing_data, str(tmp_path / "none.json"), str(bad_json),
                write_json(tmp_path / "list.json", [1, 2]),
                write_json(tmp_path / "seed.json", {"seed": "x"})):
        assert main(["fit", "--config", cfg, "--out", out]) == 2


def test_verify_subcommand(tmp_path):
    out = tmp_path / "out"
    assert main(["verify", "--out", str(out), "--seed", "0"]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["all_passed"] is True
    assert {c["name"] for c in report["checks"]} >= {
        "gauss-2f1-spot", "eppf-addition-rule", "stick-round-trip",
        "ordering-closed-vs-mc", "conjugate-posterior-mean",
        "tie-probability", "prior-recovery-kn",
    }


def test_verify_fault_injection(tmp_path, monkeypatch):
    # flip the sign of the correction term: P = 1 - c becomes 1 + c
    closed_form = analytics.ordering_probability_dsb
    monkeypatch.setattr(analytics, "ordering_probability_dsb",
                        lambda beta, theta: 2.0 - closed_form(beta, theta))
    out = tmp_path / "out"
    assert main(["verify", "--out", str(out), "--seed", "0"]) == 1
    report = json.loads((out / "verify_report.json").read_text())
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["ordering-closed-vs-mc"]


def test_env_log_level(tmp_path, monkeypatch):
    monkeypatch.setenv("ESBMIX_LOG", "DEBUG")
    cfg = write_json(tmp_path / "c.json", {"betas": [1.0], "thetas": [1.0],
                                           "mc_replicates": 1000})
    assert main(["order-prob", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
