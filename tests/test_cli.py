import csv
import json
import math
import os

import numpy as np
import pytest

from esbmix.cli import ConfigError, load_data_csv, main, parse_kernel, parse_prior
from esbmix.mcmc import RandomRho, UnivariateNormalGamma
from esbmix.sticks import IidBeta, SharedBeta, SpeciesDriven


def write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f)
    return str(path)


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


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


def test_parse_kernel():
    k = parse_kernel({"type": "univariate-normal-gamma", "mu0": 1.0, "lam": 0.5})
    assert isinstance(k, UnivariateNormalGamma) and k.lam == 0.5 and k.a == 0.5
    with pytest.raises(ConfigError):
        parse_kernel({"type": "univariate-normal-gamma", "lam": -1.0})
    with pytest.raises(ConfigError):
        parse_kernel({"type": "other"})


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


def test_verify_fault_injection(tmp_path):
    cfg = write_json(tmp_path / "c.json", {"inject_fault": "ordering-sign-flip"})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out), "--seed", "0"]) == 1
    report = json.loads((out / "verify_report.json").read_text())
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["ordering-closed-vs-mc"]


def test_env_log_level(tmp_path, monkeypatch):
    monkeypatch.setenv("ESBMIX_LOG", "DEBUG")
    cfg = write_json(tmp_path / "c.json", {"betas": [1.0], "thetas": [1.0],
                                           "mc_replicates": 1000})
    assert main(["order-prob", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
