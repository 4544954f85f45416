"""Statistics helpers, configuration validation, run dispatch, and the CLI."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sstats

from stabletree.cli import main as cli_main
from stabletree.errors import ConfigError
from stabletree.free_group import enumerate_ball, format_word
from stabletree.harness import (
    AtomRecords,
    ExperimentConfig,
    ExperimentResult,
    build_model,
    run,
    selftest,
    validate_config,
)
from stabletree.rng import substream
from stabletree.stats import batch_mean_ci, empirical_cdf_table, ks_distance

from oracles import atom_rows_reference, chi2_pvalue, write_csv_reference


def test_ks_distance_on_true_cdf():
    rng = substream(701, "ks")
    x = rng.random(10_000)
    assert ks_distance(x, lambda v: np.clip(v, 0, 1)) < 0.02


def test_ks_distance_degenerate_cases():
    assert ks_distance([0.5], lambda v: np.asarray(v)) == pytest.approx(0.5)
    # all mass far above a distribution concentrated below: distance 1
    assert ks_distance([5.0, 6.0], lambda v: np.ones_like(np.asarray(v))) == pytest.approx(1.0)


def test_empirical_cdf_table():
    rng = substream(702, "cdf")
    x = rng.random(5000)
    rows = empirical_cdf_table(x, [-0.5, 0.3, 0.9, 1.5])
    assert rows[0]["p_hat"] == 0.0
    assert rows[-1]["p_hat"] == 1.0
    for row in rows[1:3]:
        assert row["ci_low"] <= row["s"] <= row["ci_high"]  # identity CDF inside the CI


def test_chi2_requires_expected_mass():
    with pytest.raises(ValueError):
        chi2_pvalue([10, 1], [10.5, 0.5])
    assert 0.0 <= chi2_pvalue([100, 110, 90], [100, 100, 100]) <= 1.0


def test_batch_mean_ci_covers_mean():
    rng = substream(703, "bm")
    x = rng.normal(3.0, 1.0, size=2000)
    m, lo, hi = batch_mean_ci(x)
    assert lo < 3.0 < hi
    assert m == pytest.approx(np.mean(x))


@pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.99])
def test_clopper_pearson_bounds_match_scipy(level):
    a = 1.0 - level
    for n in (1, 2, 5, 50, 2000, 20000):
        ks = sorted({0, 1, n // 3, n // 2, n - 1, n})
        rows = empirical_cdf_table(np.arange(n), [k - 0.5 for k in ks], level=level)
        for k, row in zip(ks, rows):
            assert row["count"] == k
            if k == 0:
                assert row["ci_low"] == 0.0
            else:
                ref = sstats.beta.ppf(a / 2, k, n - k + 1)
                assert row["ci_low"] == pytest.approx(ref, rel=1e-12, abs=0), (n, k)
            if k == n:
                assert row["ci_high"] == 1.0
            else:
                ref = sstats.beta.ppf(1 - a / 2, k + 1, n - k)
                assert row["ci_high"] == pytest.approx(ref, rel=1e-12, abs=0), (n, k)


@pytest.mark.parametrize("df", [1, 2, 3, 19, 100, 1000, 10000])
def test_batch_mean_t_quantile_matches_scipy(df):
    x = substream(704, "bm-t", df).normal(size=2 * (df + 1))
    for level in (0.9, 0.95, 0.99):
        m, lo, hi = batch_mean_ci(x, batches=df + 1, level=level)
        se = x.reshape(df + 1, 2).mean(axis=1).std(ddof=1) / np.sqrt(df + 1)
        t = sstats.t.ppf(0.5 + level / 2, df)
        assert (hi - m) / se == pytest.approx(t, rel=1e-12)
        assert (m - lo) / se == pytest.approx(t, rel=1e-12)


# The console-script step of CI runs both checks in one line.
NO_SCIPY = (
    "import sys, stabletree.harness, stabletree.stats, stabletree.limit_process; "
    "from stabletree.fields import BoundaryField, maxima_experiment; "
    "r = maxima_experiment(BoundaryField(2, 1.0), 4, 50, None, 1, s_grid=[0.5, 1.0, 2.0]); "
    "stabletree.stats.batch_mean_ci([x for *_, x in r.records]); "
    "leaked = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
    "assert not leaked, leaked"
)
NO_PROCESS_POOL = (
    "import sys, stabletree.harness, stabletree.stats, stabletree.limit_process; "
    "leaked = [m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')]; "
    "assert not leaked, leaked"
)


def _run_fresh_interpreter(code):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_runtime_does_not_import_scipy():
    _run_fresh_interpreter(NO_SCIPY)


def test_runtime_does_not_import_process_pool():
    _run_fresh_interpreter(NO_PROCESS_POOL)


def test_config_validation_errors():
    cfg = ExperimentConfig(kind="maxima", model={"variant": "boundary", "d": 2, "alpha": 1.0}, n=3, reps=0, seed=1)
    with pytest.raises(ConfigError) as ei:
        validate_config(cfg)
    assert "reps" in ei.value.offending_keys
    with pytest.raises(ConfigError):
        validate_config(ExperimentConfig(kind="nope", model={"variant": "boundary", "d": 2, "alpha": 1.0}, reps=1))
    with pytest.raises(ConfigError) as ei:
        build_model({"variant": "pareto", "d": 2, "alpha": 1.0})
    assert any("theta" in k for k in ei.value.offending_keys)
    with pytest.raises(ConfigError):
        build_model({"variant": "boundary", "d": 2, "alpha": 1.0, "junk": 1})


def test_run_is_reproducible(tmp_path):
    cfg = ExperimentConfig(
        kind="maxima",
        model={"variant": "boundary", "d": 2, "alpha": 1.0},
        n=3,
        reps=25,
        seed=7,
        params={"num_terms": 400},
    )
    a = run(cfg)
    b = run(cfg)
    assert a.records == b.records
    assert a.summary == b.summary
    a.write_csv(tmp_path / "out.csv")
    a.write_json(tmp_path / "out.json")
    with open(tmp_path / "out.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rep", "ball_max", "sphere_max", "scaled_ball_max"]
    assert len(rows) == 26
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["config"]["seed"] == 7
    assert payload["summary"]["num_terms"] == 400


def test_run_pp_and_limit_kinds(tmp_path):
    pp = run(
        ExperimentConfig(
            kind="pp",
            model={"variant": "mma", "d": 2, "alpha": 1.0, "point_mass": True},
            n=3,
            reps=10,
            seed=9,
            params={"delta": 0.5},
        )
    )
    assert pp.columns == ["rep", "scaled_atom"]
    kx = run(
        ExperimentConfig(
            kind="limit-kx",
            model={"variant": "mma", "d": 2, "alpha": 1.0, "point_mass": True},
            seed=3,
            reps=1,
            params={"mc_subgraphs": 4000},  # still accepted, no longer read
        )
    )
    assert kx.summary["general_alpha_power"] == pytest.approx(4.0)
    assert kx.summary["general_exact"] is True
    assert "rng_streams" not in kx.diagnostics  # the exact level sums draw nothing
    lap = run(
        ExperimentConfig(
            kind="limit-laplace",
            model={"variant": "mma", "d": 2, "alpha": 1.0, "point_mass": True},
            n=4,
            reps=300,
            seed=3,
            params={"theta": 1.0, "threshold": 1.5},
            tolerances={"laplace": 0.05},
        )
    )
    assert lap.passed is True


POINT_MASS = {"variant": "mma", "d": 2, "alpha": 1.0, "point_mass": True}
LEVELS_M3 = {  # f(t) = levels[|t|] on E_3: every atom draws a vertex of C_3
    "variant": "mma", "d": 2, "alpha": 1.0, "w_masses": {"w0": 1.0},
    "f_table": {
        "w0": {format_word(t): (1.0, 0.6, 0.3, 0.2)[len(t)] for t in enumerate_ball(2, 3)}
    },
}
SMALL_ATOM_RUNS = {
    "pp": ExperimentConfig(kind="pp", model=POINT_MASS, n=3, reps=10, seed=9, params={"delta": 0.5}),
    "limit-sample": ExperimentConfig(
        kind="limit-sample", model=POINT_MASS, reps=20, seed=7, params={"delta": 0.5}
    ),
    "limit-sample-m3": ExperimentConfig(
        kind="limit-sample", model=LEVELS_M3, reps=20, seed=7, params={"delta": 0.5}
    ),
}
ATOM_CSV_SHA256 = {
    # written by the row-by-row csv.writer before AtomRecords
    "limit-sample": "f0d49dcb19ecc318d5ac6ed69e8649f009752d880b590ef8f88062c4bfcfd801",
    # written when the C_m vertex was the first column of a multi-step path draw
    "limit-sample-m3": "920f7f35a1af6c87aa147ee0675d06f6f0f7fcd3f3afe335eaada56643501783",
}


def _assert_csv_matches_row_writer(result, rows, tmp_path):
    assert list(result.records) == rows
    result.write_csv(tmp_path / "out.csv")
    write_csv_reference(tmp_path / "ref.csv", result.columns, rows)
    out = (tmp_path / "out.csv").read_bytes()
    assert out == (tmp_path / "ref.csv").read_bytes()
    assert len(result.records) == out.count(b"\r\n") - 1
    return out


@pytest.mark.parametrize("kind", sorted(SMALL_ATOM_RUNS))
def test_atom_records_csv_matches_row_writer(kind, tmp_path):
    res = run(SMALL_ATOM_RUNS[kind])
    assert isinstance(res.records, AtomRecords)
    rows = atom_rows_reference(res.records.blocks)
    assert len(rows) > 0
    out = _assert_csv_matches_row_writer(res, rows, tmp_path)
    if kind in ATOM_CSV_SHA256:
        assert hashlib.sha256(out).hexdigest() == ATOM_CSV_SHA256[kind]


def test_atom_records_edge_values(tmp_path):
    blocks = [
        np.array([1e16, 123456789.0, 1e-05, 5e-324, -0.0]),
        np.array([]),
        np.array([np.inf]),
        np.array([np.inf, 2.5, -1e16, -np.inf]),
        np.array([]),
    ]
    res = ExperimentResult(
        config={}, columns=["rep", "atom"], records=AtomRecords(blocks),
        summary={}, passed=None, diagnostics={},
    )
    rows = atom_rows_reference(blocks)
    assert len(res.records) == len(rows) == 10
    _assert_csv_matches_row_writer(res, rows, tmp_path)
    assert [res.records[i] for i in range(-10, 10)] == rows + rows
    with pytest.raises(IndexError):
        res.records[10]
    assert res.records == AtomRecords([b.copy() for b in blocks])
    assert res.records != AtomRecords(blocks[:-1])
    assert not any(b.flags.writeable for b in res.records.blocks)


def test_selftest_scopes():
    rep = selftest("combinatorics")
    assert rep["passed"]
    with pytest.raises(ConfigError):
        selftest("bogus")


def test_cli_enumerate(capsys):
    assert cli_main(["enumerate", "--d", "2", "--n", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["e", "a1", "a1^-1", "a2", "a2^-1"]
    assert cli_main(["enumerate", "--d", "2", "--n", "2", "--sphere"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 12


def test_cli_simulate_maxima(tmp_path, capsys):
    # the automatic Pareto series length at n = 4 is 917,504 terms; a fixed length keeps this fast
    for model in (["boundary"], ["shift"], ["pareto", "--theta", "3", "--num-terms", "2000"], ["mma"]):
        csv_path, json_path = tmp_path / f"{model[0]}.csv", tmp_path / f"{model[0]}.json"
        code = cli_main(
            [
                "simulate-maxima",
                "--model", *model, "--d", "2", "--alpha", "1.0",
                "--n", "4", "--reps", "30", "--seed", "5",
                "--csv", str(csv_path), "--json", str(json_path),
            ]
        )
        assert code == 0, model
        assert csv_path.exists() and json_path.exists()
    capsys.readouterr()


def test_cli_tolerance_failure_exit_code(capsys):
    code = cli_main(
        [
            "simulate-maxima",
            "--model", "boundary", "--d", "2", "--alpha", "1.0",
            "--n", "3", "--reps", "60", "--seed", "5",
            "--num-terms", "400", "--ks-tol", "1e-9",
        ]
    )
    assert code == 1
    capsys.readouterr()


def test_cli_missing_seed_is_usage_error():
    with pytest.raises(SystemExit) as ei:
        cli_main(["simulate-maxima", "--model", "shift", "--d", "2", "--alpha", "1.0", "--n", "3", "--reps", "5"])
    assert ei.value.code == 2


def test_cli_verify_lemma(capsys):
    code = cli_main(["verify-lemma", "--d", "2", "--ell-max", "2", "--k-max", "3", "--samples", "5", "--seed", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"]


def test_cli_verify_lemma_budget_exits_3_at_once(capsys):
    # the largest sphere, C_12, has 708,588 words: above the brute-force budget
    t0 = time.perf_counter()
    code = cli_main(["verify-lemma", "--d", "2", "--ell-max", "4", "--k-max", "8"])
    assert code == 3
    assert time.perf_counter() - t0 < 0.5
    assert "C_12" in capsys.readouterr().err


def test_cli_verify_boundary(capsys):
    code = cli_main(["verify-boundary", "--d", "2", "--depth-cap", "4", "--translate-n", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["weakly_wandering"]["pairwise_disjoint"]
    assert payload["disjoint_translates"]["pairwise_disjoint"]


def test_cli_limit_kx(capsys):
    code = cli_main(
        ["limit", "kx", "--model", "mma", "--d", "2", "--alpha", "1.5", "--seed", "3"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["general_alpha_power"] == pytest.approx(4.0)
    assert payload["formulas_agree"] is False


def test_cli_kernel_file(tmp_path, capsys):
    kernel = {
        "w_masses": {"w0": 1.0},
        "f_table": {"w0": {"e": 1.0, "a1": 0.6, "a1^-1": 0.6, "a2": 0.6, "a2^-1": 0.6}},
    }
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(kernel))
    code = cli_main(
        [
            "limit", "laplace", "--model", "mma", "--d", "2", "--alpha", "1.0",
            "--f-table", str(path), "--seed", "4", "--n", "4", "--reps", "200",
            "--theta-g", "1.0", "--threshold", "1.5",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["level_symmetric"] == pytest.approx(payload["analytic"], rel=1e-9)
    assert abs(payload["empirical"] - payload["analytic"]) < 0.1


@pytest.mark.parametrize(
    "content",
    [
        None,  # no file at the path
        '{"w_masses": {"w0": 1}, "f_table": {"w0"',
        '{"w_masses": {"w0": 1}, "f_table": {"w0": ["e"]}}',
    ],
    ids=["missing", "truncated", "entry-not-object"],
)
def test_cli_bad_kernel_file_exit_2(tmp_path, content, capsys):
    path = tmp_path / "kernel.json"
    if content is not None:
        path.write_text(content)
    argv = ["limit", "kx", "--model", "mma", "--d", "2", "--alpha", "1.0", "--seed", "1"]
    assert cli_main(argv + ["--f-table", str(path)]) == 2
    assert "configuration error: " in capsys.readouterr().err


def test_cli_simulate_pp(tmp_path, capsys):
    code = cli_main(
        [
            "simulate-pp", "--model", "mma", "--d", "2", "--alpha", "1.0",
            "--n", "4", "--reps", "20", "--seed", "6", "--delta", "0.5",
            "--csv", str(tmp_path / "pp.csv"),
        ]
    )
    assert code == 0
    rows = (tmp_path / "pp.csv").read_text().splitlines()
    assert rows[0] == "rep,scaled_atom"
    capsys.readouterr()


def test_selftest_all():
    rep = selftest("all")
    assert rep["passed"], [c for c in rep["checks"] if not c["passed"]]


def test_cli_resource_error_exit_code(capsys):
    code = cli_main(
        [
            "simulate-maxima", "--model", "boundary", "--d", "3", "--alpha", "1.0",
            "--n", "12", "--reps", "10", "--seed", "1",
        ]
    )
    assert code == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-maxima", "--model", "boundary", "--d", "2", "--alpha", "3", "--n", "3", "--reps", "5", "--seed", "1"],
        ["simulate-maxima", "--model", "boundary", "--d", "1", "--alpha", "1", "--n", "3", "--reps", "5", "--seed", "1"],
        ["simulate-maxima", "--model", "pareto", "--theta", "0.5", "--d", "2", "--alpha", "1", "--n", "3", "--reps", "5", "--seed", "1"],
        ["limit", "sample", "--model", "mma", "--d", "2", "--alpha", "1", "--seed", "1", "--delta", "-1"],
        ["simulate-pp", "--model", "mma", "--d", "2", "--alpha", "1", "--n", "2", "--reps", "2", "--seed", "1", "--delta", "0"],
        ["simulate-maxima", "--model", "pareto", "--d", "2", "--alpha", "1", "--theta", "1.5", "--n", "2", "--reps", "5", "--seed", "1"],
        # (2d-1)^(n/alpha) overflows a float: a configuration error, not a tolerance failure
        ["simulate-maxima", "--model", "mma", "--d", "2", "--alpha", "0.01", "--n", "8", "--reps", "5", "--seed", "1"],
        ["simulate-pp", "--model", "mma", "--d", "2", "--alpha", "0.01", "--n", "8", "--reps", "2", "--seed", "1"],
        ["simulate-maxima", "--model", "boundary", "--d", "2", "--alpha", "0.02", "--n", "8", "--reps", "5", "--seed", "1"],
        # the maxima constant K = (K^alpha)^(1/alpha) overflows a float
        ["limit", "kx", "--model", "mma", "--d", "2", "--alpha", "0.005", "--seed", "1", "--f-table", "KX_KERNEL"],
    ],
)
def test_cli_invalid_model_values_exit_2(argv, tmp_path, capsys):
    if "KX_KERNEL" in argv:
        # the limit-kx benchmark kernel, f(t) = levels[|t|]
        levels = {0: 1.0, 1: 0.6, 2: 0.3, 3: 0.2}
        table = {format_word(t): levels[len(t)] for t in enumerate_ball(2, 3)}
        path = tmp_path / "kx.json"
        path.write_text(json.dumps({"w_masses": {"w0": 1.0}, "f_table": {"w0": table}}))
        argv = [str(path) if a == "KX_KERNEL" else a for a in argv]
    assert cli_main(argv) == 2
    assert "configuration error" in capsys.readouterr().err


def test_config_validation_rejects_model_and_delta_values():
    def keys(model, params):
        cfg = ExperimentConfig(kind="pp", model=model, n=2, reps=1, params=params)
        with pytest.raises(ConfigError) as ei:
            validate_config(cfg)
        return ei.value.offending_keys

    ok = {"variant": "mma", "d": 2, "alpha": 1.0}
    assert keys(ok, {"delta": 0}) == ["params.delta"]
    assert keys(ok, {"num_terms": 0}) == ["params.num_terms"]
    assert keys({**ok, "d": 1}, {}) == ["model"]
    assert keys({**ok, "alpha": 2.0}, {}) == ["model"]
    assert keys({"variant": "pareto", "d": 2, "alpha": 1.0, "theta": 0.5}, {}) == ["model"]
    assert keys({**ok, "alpha": 0.002}, {}) == ["model.alpha", "n"]  # 3^(2/0.002) overflows
    # the limit experiments need a mixed moving average
    for kind in ("limit-kx", "limit-laplace", "limit-sample"):
        cfg = ExperimentConfig(kind=kind, model={"variant": "boundary", "d": 2, "alpha": 1.0}, reps=1)
        with pytest.raises(ConfigError) as ei:
            validate_config(cfg)
        assert ei.value.offending_keys == ["model"]
