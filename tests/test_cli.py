import json
import subprocess
import sys

import numpy as np
import pytest

from grasp.cli import main


def _write_samples(path, n=400, seed=0, d=2, flip=False):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, d))
    theta = np.linspace(0.8, -0.8, d)
    z = x @ theta
    eta = 1.0 / (1.0 + np.exp(-z))
    y = (gen.uniform(size=n) < eta).astype(int)
    eta_hat = 1.0 / (1.0 + np.exp(z)) if flip else eta
    header = "y,eta_hat," + ",".join(f"x{i}" for i in range(d))
    rows = [header]
    for j in range(n):
        feats = ",".join(repr(float(v)) for v in x[j])
        rows.append(f"{int(y[j])},{float(eta_hat[j])!r},{feats}")
    path.write_text("\n".join(rows) + "\n")
    return theta


def test_cmd_test_json_schema(tmp_path):
    inp = tmp_path / "data.csv"
    _write_samples(inp)
    out = tmp_path / "out.json"
    code = main([
        "test", "--input", str(inp), "--tau", "0", "--alpha", "0.1",
        "--L", "10", "--variant", "asym", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    for key in ("statistic", "p_value", "reject", "threshold", "provenance"):
        assert key in payload
    assert payload["provenance"]["flags"]["seed"] == 3


def test_cmd_test_both_variants(tmp_path):
    inp = tmp_path / "data.csv"
    _write_samples(inp)
    out = tmp_path / "out.json"
    code = main(["test", "--input", str(inp), "--L", "10", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert "finite" in payload and "asym" in payload


def test_cmd_test_missing_column_exit2(tmp_path):
    inp = tmp_path / "bad.csv"
    inp.write_text("y,score\n1,0.5\n")
    assert main(["test", "--input", str(inp), "--L", "5"]) == 2


def test_cmd_test_probability_out_of_range_exit2(tmp_path, capsys):
    inp = tmp_path / "bad.csv"
    inp.write_text("y,eta_hat\n1,0.5\n0,1.3\n")
    assert main(["test", "--input", str(inp), "--L", "5"]) == 2
    assert "probability out of range" in capsys.readouterr().err


def test_cmd_test_malformed_row_reports_line(tmp_path, capsys):
    inp = tmp_path / "bad.csv"
    inp.write_text("y,eta_hat\n1,0.5\n1,oops\n")
    assert main(["test", "--input", str(inp), "--L", "5"]) == 2
    assert "line 3" in capsys.readouterr().err


def test_cmd_test_unknown_divergence_lists_tokens(tmp_path, capsys):
    inp = tmp_path / "data.csv"
    _write_samples(inp, n=50)
    assert main(["test", "--input", str(inp), "--L", "5", "--divergence", "js"]) == 2
    err = capsys.readouterr().err
    assert "kl" in err and "tv" in err and "hellinger" in err


def test_cmd_test_alpha_out_of_range(tmp_path):
    inp = tmp_path / "data.csv"
    _write_samples(inp, n=50)
    assert main(["test", "--input", str(inp), "--L", "5", "--alpha", "1.5"]) == 2


def test_cmd_test_deterministic_bytes(tmp_path):
    inp = tmp_path / "data.csv"
    _write_samples(inp)
    out = tmp_path / "a.json"
    args = ["test", "--input", str(inp), "--L", "10", "--tau", "0.01", "--seed", "9",
            "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


def test_cmd_test_scored_pipeline_requires_K(tmp_path):
    inp = tmp_path / "data.csv"
    _write_samples(inp)
    assert main(["test", "--input", str(inp), "--L", "5", "--score", "agnostic"]) == 2
    assert (
        main(["test", "--input", str(inp), "--L", "5", "--score", "agnostic", "--K", "2"])
        == 0
    )


def test_cmd_modelx_requires_pool_and_theta(tmp_path, capsys):
    inp = tmp_path / "data.csv"
    theta = _write_samples(inp, n=100)
    pool = tmp_path / "pool.csv"
    gen = np.random.default_rng(5)
    rows = ["x0,x1"] + [f"{float(a)!r},{float(b)!r}" for a, b in gen.normal(size=(200, 2))]
    pool.write_text("\n".join(rows) + "\n")
    assert main(["modelx-test", "--input", str(inp), "--L", "5", "--K", "1"]) == 2
    assert "--pool" in capsys.readouterr().err
    assert main(["modelx-test", "--input", str(inp), "--pool", str(pool), "--L", "5"]) == 2
    assert "--K" in capsys.readouterr().err
    assert (
        main([
            "modelx-test", "--input", str(inp), "--pool", str(pool),
            "--L", "5", "--K", "1", "--score", "agnostic",
        ])
        == 2
    )  # agnostic needs --theta
    assert "--theta" in capsys.readouterr().err
    theta_file = tmp_path / "theta.txt"
    theta_file.write_text("".join(f"{float(v)!r}\n" for v in theta))
    out = tmp_path / "mx.json"
    code = main([
        "modelx-test", "--input", str(inp), "--pool", str(pool), "--theta", str(theta_file),
        "--L", "5", "--K", "1", "--score", "agnostic", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert "finite" in payload and "asym" in payload


def test_cmd_modelx_identity_needs_no_theta(tmp_path):
    inp = tmp_path / "data.csv"
    _write_samples(inp, n=100)
    pool = tmp_path / "pool.csv"
    gen = np.random.default_rng(6)
    rows = ["x0,x1"] + [f"{float(a)!r},{float(b)!r}" for a, b in gen.normal(size=(50, 2))]
    pool.write_text("\n".join(rows) + "\n")
    assert (
        main([
            "modelx-test", "--input", str(inp), "--pool", str(pool),
            "--L", "5", "--K", "1", "--score", "identity",
        ])
        == 0
    )


def _nan_inputs(tmp_path, case):
    """Flags for one run on a 200-row file with a single non-finite value
    placed in the input ``case`` names."""
    inp = tmp_path / "data.csv"
    theta = _write_samples(inp, n=200)
    theta_file = tmp_path / "theta.txt"
    theta_file.write_text("".join(f"{float(v)!r}\n" for v in theta))
    common = ["--L", "5", "--K", "1", "--input", str(inp)]
    if case == "samples":
        lines = inp.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"
        inp.write_text("\n".join(lines) + "\n")
        return ["test"] + common, "line 4"
    if case == "scores":
        scores = tmp_path / "scores.csv"
        rows = ["sample_index,counterfeit_index,score"]
        rows += [f"{j},{i},{'nan' if i == 0 else 0.5}" for j in range(200) for i in range(5)]
        scores.write_text("\n".join(rows) + "\n")
        return ["test", "--score", "external", "--scores-file", str(scores)] + common, "line 2"
    if case == "tau0":
        theta_file.write_text("0.1\nnan\n")
        return ["tau0", "--theta0-file", str(theta_file), "--samples", "100"], "line 2"
    pool = tmp_path / "pool.csv"
    gen = np.random.default_rng(5)
    rows = ["x0,x1"] + [f"{float(a)!r},{float(b)!r}" for a, b in gen.normal(size=(200, 2))]
    if case == "pool":
        rows[7] = "nan,0.0"
    else:
        theta_file.write_text(f"{float(theta[0])!r}\nnan\n")
    pool.write_text("\n".join(rows) + "\n")
    flags = ["modelx-test", "--pool", str(pool), "--theta", str(theta_file), "--score", "agnostic"]
    return flags + common, "line 8" if case == "pool" else "line 2"


@pytest.mark.parametrize("case", ["samples", "scores", "theta", "pool", "tau0"])
def test_non_finite_input_exit2(tmp_path, capsys, case):
    argv, where = _nan_inputs(tmp_path, case)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert where in err and "non-finite" in err, err


@pytest.mark.parametrize(
    "argv",
    [
        ["test", "--tau", "nan"],
        ["perfect-fit", "--ridge", "nan"],
        ["tau0", "--sigma", "nan"],
        ["tau0", "--theta1-rule", "negated_scaled", "--theta1-scale", "inf"],
    ],
)
def test_non_finite_flag_exit2(tmp_path, capsys, argv):
    inp = tmp_path / "data.csv"
    _write_samples(inp, n=50)
    extra = [] if argv[0] == "tau0" else ["--input", str(inp)]
    assert main(argv + extra) == 2
    assert f"{argv[-2]} must be finite" in capsys.readouterr().err


def test_external_scores_outside_candidates_exit2(tmp_path, capsys):
    inp = tmp_path / "data.csv"
    _write_samples(inp, n=20)
    scores = tmp_path / "scores.csv"
    rows = ["sample_index,counterfeit_index,score"]
    rows += [f"{j},{i},{0.1 * i}" for j in range(20) for i in range(5)]
    base = ["test", "--input", str(inp), "--score", "external", "--scores-file", str(scores)]
    for extra in ("20,0,0.3", "3,5,0.3", "-1,0,0.3"):
        scores.write_text("\n".join(rows + [extra]) + "\n")
        assert main(base + ["--L", "5", "--K", "1"]) == 2
        assert "outside 20 samples x 5 candidates" in capsys.readouterr().err
    scores.write_text("\n".join(rows) + "\n")
    assert main(base + ["--L", "5", "--K", "1"]) == 0


def test_external_scores_duplicate_row_exit2(tmp_path, capsys):
    inp = tmp_path / "data.csv"
    _write_samples(inp, n=20)
    scores = tmp_path / "scores.csv"
    rows = ["sample_index,counterfeit_index,score"]
    rows += [f"{j},{i},{0.1 * i}" for j in range(20) for i in range(5)]
    scores.write_text("\n".join(rows + ["3,2,0.9", "1,4,0.3"]) + "\n")
    argv = ["test", "--input", str(inp), "--score", "external", "--scores-file", str(scores)]
    assert main(argv + ["--L", "5", "--K", "1"]) == 2
    assert "repeats entry (3, 2)" in capsys.readouterr().err


def test_cmd_ci_uniform_input_zero(tmp_path, capsys):
    inp = tmp_path / "null.csv"
    gen = np.random.default_rng(7)
    rows = ["y,eta_hat"]
    for _ in range(600):
        eta = 0.5
        y = int(gen.uniform() < eta)
        rows.append(f"{y},{eta}")
    inp.write_text("\n".join(rows) + "\n")
    code = main(["ci", "--input", str(inp), "--L", "6", "--variant", "finite", "--seed", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tau_lower"] == 0.0
    assert payload["variant"] == "finite"


def test_cmd_ci_alpha_validation(tmp_path):
    inp = tmp_path / "data.csv"
    _write_samples(inp, n=50)
    assert main(["ci", "--input", str(inp), "--L", "5", "--alpha", "0"]) == 2


def test_cmd_perfect_fit_runs(tmp_path):
    inp = tmp_path / "data.csv"
    _write_samples(inp, n=128, flip=True)
    out = tmp_path / "pf.json"
    code = main([
        "perfect-fit", "--input", str(inp), "--M", "99", "--seed", "4", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["variant"] == "crt"
    assert payload["M"] == 99
    assert 0.0 < payload["p_value"] <= 1.0


def test_cmd_simulate_csv_and_determinism(tmp_path):
    cfg = tmp_path / "spec.toml"
    cfg.write_text(
        "\n".join([
            "kind = \"size\"",
            "mode = \"df\"",
            "n = 400",
            "d = 4",
            "L = 8",
            "trials = 5",
            "seed = 21",
            "alphas = [0.1, 0.2]",
            "tau_grid = [0.0]",
        ])
        + "\n"
    )
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0].startswith("mode,score,divergence")
    assert len(lines) == 3  # header + one row per alpha


def test_cmd_simulate_plot_data(tmp_path):
    cfg = tmp_path / "power.toml"
    cfg.write_text(
        "\n".join([
            "kind = \"power\"",
            "theta1_rule = \"negated\"",
            "n = 400",
            "d = 6",
            "L = 8",
            "trials = 3",
            "seed = 22",
            "divergence = \"kl\"",
            "tau_grid = [0.05, 0.3]",
        ])
        + "\n"
    )
    out = tmp_path / "series.csv"
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["simulate", "--config", str(cfg), "--plot-data", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "divergence,variant,alpha,tau,power"
    assert len(lines) == 1 + 2 * 2  # two variants x two taus


def test_cmd_simulate_invalid_spec(tmp_path, capsys):
    cfg = tmp_path / "bad.toml"
    cfg.write_text("kind = \"size\"\nn = 100\n")  # missing required keys
    assert main(["simulate", "--config", str(cfg)]) == 2
    cfg.write_text("kind = \"size\"\nn = 100\nd = 2\nL = 4\ntrials = 1\nseed = 0\ndivergence = \"js\"\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    capsys.readouterr()
    cfg.write_text(
        "kind = \"power\"\ntheta1_rule = \"negated\"\nn = 50\nd = 2\nL = 4\ntrials = 1\nseed = 0\n"
        "tau_grid = [nan]\n"
    )
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_cmd_tau0_same_rule_zero(tmp_path, capsys):
    code = main([
        "tau0", "--d", "10", "--samples", "1000", "--seed", "5", "--theta1-rule", "same",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["estimate"] == 0.0


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "grasp.cli", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
