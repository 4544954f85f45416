"""Statistics helpers, configuration validation, run dispatch, and the CLI."""

import argparse
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

from stabletree.cli import build_parser, main as cli_main
from stabletree.errors import ConfigError
from stabletree.fields import FieldSimulator
from stabletree.free_group import enumerate_ball, format_word
from stabletree.harness import (
    AtomRecords,
    ExperimentConfig,
    ExperimentResult,
    SELFTESTS,
    build_model,
    run,
    selftest,
    validate_config,
)
from stabletree.rng import substream
from stabletree.stats import batch_mean_ci, empirical_cdf_table, ks_distance, quantiles

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


def test_quantiles_match_numpy():
    # np.quantile's linear method bit for bit: heavy tails, ties, scales over ten
    # decades, sizes from 2 up, and samples holding inf or NaN
    rng = substream(703, "quantiles")
    levels = (0.0, 0.1, 0.25, 1 / 3, 0.5, 0.75, 0.9, 0.999, 1.0)
    sizes = range(2, 202)
    samples = [[5.0], [1.0, np.inf], [-np.inf, 2.0, np.inf], [np.nan, 1.0, 2.0]]
    samples += [rng.standard_cauchy(n) for n in sizes]
    samples += [rng.integers(0, 5, n).astype(float) for n in sizes]
    samples += [rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5) for n in sizes]
    with np.errstate(invalid="ignore"):
        for x in samples:
            ref = np.array([np.quantile(x, q) for q in levels])
            assert np.array(quantiles(x, levels)).tobytes() == ref.tobytes(), x


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


# The console-script step of CI runs this same line.
NO_SCIPY = (
    "import sys, stabletree.harness, stabletree.stats, stabletree.limit_process; "
    "from stabletree.fields import BoundaryField, maxima_experiment; "
    "r = maxima_experiment(BoundaryField(2, 1.0), 4, 50, None, 1, s_grid=[0.5, 1.0, 2.0]); "
    "stabletree.stats.batch_mean_ci([x for *_, x in r.records]); "
    "leaked = [m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent', 'multiprocessing') "
    "or m in ('stabletree.boundary', 'numpy.ma')]; "
    "assert not leaked, leaked"
)
NO_PROCESS_POOL = (
    "import sys, stabletree.harness, stabletree.stats, stabletree.limit_process; "
    "leaked = [m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')]; "
    "assert not leaked, leaked"
)

# The package root imports no module; a run imports only the modules it reaches.
ONLY_REACHED_MODULES = """
import sys
loaded = lambda: {m for m in sys.modules if m.startswith("stabletree.")}
import stabletree
assert not loaded(), loaded()
import stabletree.harness, stabletree.stats
core = {
    "stabletree." + m
    for m in ("errors", "free_group", "fields", "mma_plan", "rng", "stable", "stats", "harness")
}
assert loaded() == core, loaded() ^ core
import stabletree.limit_process
from stabletree.harness import ExperimentConfig, run
run(ExperimentConfig(kind="limit-sample", model={"variant": "mma", "d": 2, "alpha": 1.0}, reps=2, seed=1))
assert loaded() == core | {"stabletree.limit_process", "stabletree.subgraphs"}, loaded() - core
"""


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


def test_imports_only_reached_modules():
    _run_fresh_interpreter(ONLY_REACHED_MODULES)


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
    assert payload["summary"]["num_terms"] is None  # drawn exactly, with no series


PARETO = {"variant": "pareto", "d": 2, "alpha": 1.0, "theta": 3.0}
HEAVY_PARETO = {"variant": "pareto", "d": 2, "alpha": 1.0, "theta": 1.5}  # E[P^2] infinite


@pytest.mark.parametrize(
    "kind,model,num_terms,bound",
    [
        ("maxima", PARETO, 400, "finite"),
        ("pp", PARETO, 400, "finite"),
        ("maxima", PARETO, 2, None),  # N <= 2/alpha: infinite
        ("maxima", {"variant": "shift", "d": 2, "alpha": 1.0}, None, None),
        ("pp", {"variant": "mma", "d": 2, "alpha": 1.0, "point_mass": True}, None, None),
        ("maxima", HEAVY_PARETO, 50, None),  # theta <= 2: no bound, and no rule
        ("pp", HEAVY_PARETO, 50, None),
        ("pp", PARETO, np.int64(50), "finite"),  # the record holds a Python int
    ],
)
def test_diagnostics_report_approximations(kind, model, num_terms, bound, tmp_path):
    # the series length and the remainder bound sit next to the scale, JSON null
    # when the model is exact or the bound infinite; records and summary are untouched
    cfg = ExperimentConfig(kind=kind, model=model, n=3, reps=4, seed=7, params={"num_terms": num_terms})
    res = run(cfg)
    approx = res.diagnostics["approximations"]
    assert approx == FieldSimulator(build_model(model), 3, num_terms).meta
    assert approx["num_terms"] == num_terms
    assert approx["scale"] == res.summary["scale"]
    if bound is None:
        assert approx["remainder_bound"] is None
    else:
        assert approx["remainder_bound"] > 0.0
    res.write_json(tmp_path / "out.json")
    payload = json.loads((tmp_path / "out.json").read_text(), parse_constant=pytest.fail)
    assert payload["diagnostics"]["approximations"] == approx
    assert run(cfg).summary == res.summary


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


# the boundary config of CI's worker-count check: n=5, 40 reps, seed 1, one worker;
# written by the exact cylinder draw, eight replications per pass
BOUNDARY_MAXIMA_CSV_SHA256 = "dd289559977c0da9f1ba3754112e3a409c413f1e0303262b32adfb74f87a59bf"


def test_boundary_maxima_csv_pinned(tmp_path):
    cfg = ExperimentConfig(
        kind="maxima", model={"variant": "boundary", "d": 2, "alpha": 1.0},
        n=5, reps=40, seed=1, params={"workers": 1},
    )
    run(cfg).write_csv(tmp_path / "maxima.csv")
    digest = hashlib.sha256((tmp_path / "maxima.csv").read_bytes()).hexdigest()
    assert digest == BOUNDARY_MAXIMA_CSV_SHA256


# a two-atom kernel at d = 3 that is not level-symmetric, of radii 2 and 1; atom "a" reads
# noise classes between C_n and its outer shell
D3_R2 = {
    "variant": "mma", "d": 3, "w_masses": {"a": 1.0, "b": 0.5},
    "f_table": {
        "a": {"e": 1.0, "a1": 0.6, "a3": 0.6, "a2^-1": -0.4, "a1.a3": 0.3, "a3^-1.a2^-1": 0.2},
        "b": {"a3": 0.7, "a2^-1": -0.5},
    },
}
# the radius-3 MMA configs of CI's records checks at alpha = 1.3: simulate-pp at n=4, 20 reps,
# and simulate-maxima at n=4, 40 reps on one worker, both seed 1, and the d = 3 config,
# simulate-pp at alpha = 0.8, n=3, 20 reps, seed 1; written by the draw of one SaS(1) call
# per replication with every constant in the read values, so any change to an MMA draw's
# floats shows
MMA_CSV_CASES = {
    "d2-pp": (
        "pp", {**LEVELS_M3, "alpha": 1.3}, 4, 20, {},
        "374716bb553fe1d42cfdc107c0cb2ac5552c7dba59c4a58adb464cfc4ecdffef",
    ),
    "d2-maxima": (
        "maxima", {**LEVELS_M3, "alpha": 1.3}, 4, 40, {"workers": 1},
        "ee54c0f505f430ac0cec3918398f6f28bb0b2dcff69f626baf68530ad0a8c9c5",
    ),
    "d3-pp": (
        "pp", {**D3_R2, "alpha": 0.8}, 3, 20, {},
        "937e1f5acceea369bb24f486787bbff20bb50e365f5863042ff3cc1d585a9044",
    ),
}


@pytest.mark.parametrize("case", sorted(MMA_CSV_CASES))
def test_mma_csv_pinned(case, tmp_path):
    kind, model, n, reps, params, digest = MMA_CSV_CASES[case]
    cfg = ExperimentConfig(kind=kind, model=model, n=n, reps=reps, seed=1, params=params)
    run(cfg).write_csv(tmp_path / "out.csv")
    assert hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest() == digest


def _assert_csv_matches_row_writer(result, rows, tmp_path):
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
            "--ks-tol", "1e-9",
        ]
    )
    assert code == 1
    capsys.readouterr()


def test_cli_missing_seed_is_usage_error(capsys):
    model = ["--model", "mma", "--d", "2", "--alpha", "1.0"]
    for command in (
        ["simulate-maxima", *model, "--n", "3", "--reps", "5"],
        ["simulate-pp", *model, "--n", "3", "--reps", "5"],
        ["limit", "laplace", *model],
        ["limit", "sample", *model],
    ):
        with pytest.raises(SystemExit) as ei:
            cli_main(command)
        assert ei.value.code == 2
        assert "required: --seed" in capsys.readouterr().err


def test_cli_limit_kx_seed_is_optional(capsys):
    # limit kx draws no random number, so its seed changes nothing
    kx = ["limit", "kx", "--model", "mma", "--d", "2", "--alpha", "1.0"]
    assert cli_main(kx) == 0
    unseeded = capsys.readouterr().out
    assert cli_main(kx + ["--seed", "1"]) == 0
    assert capsys.readouterr().out == unseeded


# stdout of the two check commands and the selftest report, taken before the unused
# RNG, prefix-length and budget parameters left boundary and free_group
VERIFY_LEMMA_STDOUT_SHA256 = "2300f6bd88f8425627970db74348ca1163f3eed00f0fe50d438924a713f29d2b"
VERIFY_BOUNDARY_STDOUT_SHA256 = "abe7c185f5075a7e5ae254402eb6b7564fcc009adb92bc59742b0ba1303e18b4"
SELFTEST_ALL_SHA256 = "a0f56d478cdeabb9776f39b53790169d38b9697e08748a0c36a735c416ce9b1b"


def test_cli_verify_lemma(capsys):
    code = cli_main(["verify-lemma", "--d", "2", "--ell-max", "2", "--k-max", "3", "--samples", "5", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["passed"]
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_LEMMA_STDOUT_SHA256


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
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["weakly_wandering"]["pairwise_disjoint"]
    assert payload["disjoint_translates"]["pairwise_disjoint"]
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_BOUNDARY_STDOUT_SHA256


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
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    assert digest == SELFTEST_ALL_SHA256


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
        # a maxima experiment needs two replications; the Laplace test function theta * 1(|x| > s)
        # needs theta >= 0 and s > 0; a limit sample needs one replication
        ["simulate-maxima", "--model", "boundary", "--d", "2", "--alpha", "1", "--n", "3", "--reps", "1", "--seed", "1"],
        ["limit", "laplace", "--model", "mma", "--d", "2", "--alpha", "1", "--seed", "1", "--theta-g", "-1"],
        ["limit", "laplace", "--model", "mma", "--d", "2", "--alpha", "1", "--seed", "1", "--threshold", "0"],
        ["limit", "sample", "--model", "mma", "--d", "2", "--alpha", "1", "--seed", "1", "--reps", "0"],
        # M_n leaves the float range in about a quarter of the replications; the
        # Laplace run simulates the field over E_4, where it leaves it in nearly all
        ["simulate-maxima", "--model", "boundary", "--d", "2", "--alpha", "0.0035", "--n", "1", "--reps", "5", "--seed", "1"],
        ["limit", "laplace", "--model", "mma", "--d", "2", "--alpha", "0.005", "--n", "4", "--reps", "2", "--seed", "1"],
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


def test_small_alpha_rule_bounds_the_chance_of_leaving_the_float_range():
    # M_n / scale(n) has the Frechet tail c_alpha x^-alpha: a replication passes the largest
    # float with chance about c_alpha (scale(n) / largest float)^alpha, at most OVERFLOW_CHANCE
    def boundary(alpha, n):
        return ExperimentConfig(kind="maxima", model={"variant": "boundary", "d": 2, "alpha": alpha},
                                n=n, reps=2, seed=1)

    # 0.25 at alpha = 0.0035, n = 1 (51 of 200 maxima were inf or NaN), 1.5e-4 at alpha = 0.0248
    for alpha, n in ((0.0035, 1), (0.0248, 8), (0.041, 8)):
        with pytest.raises(ConfigError) as ei:
            validate_config(boundary(alpha, n))
        assert ei.value.offending_keys == ["model.alpha", "n"]
    for alpha, n in ((0.05, 8), (0.05, 10), (0.1, 8)):
        res = run(boundary(alpha, n))
        assert all(0.0 < sm <= bm < np.inf for _, bm, sm, _ in res.records)


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
    # model values are typed like params: no bools, no strings, an integral rank
    assert keys({**ok, "d": 2.7}, {}) == ["model.d"]
    assert keys({**ok, "d": "2"}, {}) == ["model.d"]
    assert keys({**ok, "d": True}, {}) == ["model.d"]
    assert keys({**ok, "alpha": "1"}, {}) == ["model.alpha"]
    assert keys({"variant": "pareto", "d": 2, "alpha": 1.0, "theta": "3"}, {}) == ["model.theta"]
    # an mma kernel is the point mass or both tables, never a part of one next to the other
    tables = {"w_masses": {"w0": 1.0}, "f_table": {"w0": {"e": 1.0}}}
    assert keys({**ok, "w_masses": {"w0": 2.0}}, {}) == ["model.w_masses"]
    assert keys({**ok, "point_mass": True, **tables}, {}) == [
        "model.f_table", "model.point_mass", "model.w_masses",
    ]
    assert keys({**ok, "point_mass": False}, {}) == ["model.point_mass"]
    # kernel masses and values are numbers, not strings or bools
    assert keys({**ok, **tables, "w_masses": {"w0": "2"}}, {}) == ["model.w_masses"]
    assert keys({**ok, **tables, "w_masses": {"w0": True}}, {}) == ["model.w_masses"]
    assert keys({**ok, **tables, "f_table": {"w0": {"e": "1.5"}}}, {}) == ["model.f_table"]
    assert keys({**ok, **tables, "f_table": {"w0": {"e": None}}}, {}) == ["model.f_table"]

    def run_keys(kind, reps, params):
        cfg = ExperimentConfig(kind=kind, model=ok, n=2, reps=reps, params=params)
        with pytest.raises(ConfigError) as ei:
            validate_config(cfg)
        return ei.value.offending_keys

    assert run_keys("maxima", 1, {}) == ["reps"]
    assert run_keys("maxima", "5", {}) == ["reps"]
    for field, value in (("n", 2.5), ("n", True), ("seed", True)):
        cfg = ExperimentConfig(**{"kind": "maxima", "model": ok, "n": 2, "reps": 2, "seed": 1, field: value})
        with pytest.raises(ConfigError) as ei:
            validate_config(cfg)
        assert ei.value.offending_keys == [field]
    assert run_keys("limit-sample", 0, {}) == ["reps"]
    assert run_keys("limit-laplace", 1, {"theta": -1.0}) == ["params.theta"]
    assert run_keys("limit-laplace", 1, {"threshold": 0.0}) == ["params.threshold"]
    assert run_keys("limit-laplace", 1, {"theta": float("nan"), "threshold": -1.0}) == [
        "params.theta", "params.threshold",
    ]
    # the limit experiments need a mixed moving average
    for kind in ("limit-kx", "limit-laplace", "limit-sample"):
        cfg = ExperimentConfig(kind=kind, model={"variant": "boundary", "d": 2, "alpha": 1.0}, reps=1)
        with pytest.raises(ConfigError) as ei:
            validate_config(cfg)
        assert ei.value.offending_keys == ["model"]


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("pp", "delta", "x"),
        ("pp", "delta", None),
        ("pp", "delta", True),
        ("limit-sample", "delta", "0.5"),
        ("pp", "num_terms", 2.5),
        ("pp", "num_terms", "many"),
        ("maxima", "num_terms", True),
        ("limit-laplace", "theta", "x"),
        ("limit-laplace", "threshold", None),
        ("maxima", "workers", "two"),
        ("maxima", "workers", 1.5),
        ("maxima", "workers", -1),
        ("maxima", "s_grid", ["a"]),
        ("maxima", "s_grid", "0.5"),
    ],
)
def test_config_validation_rejects_param_types(kind, key, value):
    model = {"variant": "mma", "d": 2, "alpha": 1.0}
    cfg = ExperimentConfig(kind=kind, model=model, n=2, reps=2, seed=1, params={key: value})
    with pytest.raises(ConfigError) as ei:
        validate_config(cfg)
    assert ei.value.offending_keys == [f"params.{key}"]


def test_config_validation_keeps_default_params():
    model = {"variant": "mma", "d": 2, "alpha": 1.0}
    for params in ({"workers": None}, {"workers": 0}, {"num_terms": None}, {"s_grid": None},
                   {"s_grid": np.array([0.5, 1.0])}, {"workers": np.int64(2)}):
        validate_config(ExperimentConfig(kind="maxima", model=model, n=2, reps=2, seed=1, params=params))
    validate_config(ExperimentConfig(kind="maxima", model=PARETO, n=2, reps=2, seed=1,
                                     params={"num_terms": np.int64(3), "workers": 2}))


MMA = {"variant": "mma", "d": 2, "alpha": 1.0}
ALL_KINDS = ("maxima", "pp", "limit-kx", "limit-laplace", "limit-sample")


def _offending_keys(**fields):
    cfg = ExperimentConfig(**{"kind": "pp", "model": MMA, "n": 2, "reps": 2, "seed": 1, **fields})
    with pytest.raises(ConfigError) as ei:
        validate_config(cfg)
    return ei.value.offending_keys


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_config_validation_rejects_a_negative_seed(kind):
    # a Philox key is a non-negative integer, also for the kind that draws nothing
    assert _offending_keys(kind=kind, seed=-1) == ["seed"]


@pytest.mark.parametrize(
    "kind, tolerances, key",
    [
        ("maxima", {"ks": "abc"}, "tolerances.ks"),
        ("maxima", {"ks": True}, "tolerances.ks"),
        ("maxima", {"ks": -0.1}, "tolerances.ks"),
        ("maxima", {"ks": float("nan")}, "tolerances.ks"),
        ("limit-laplace", {"laplace": "0.05"}, "tolerances.laplace"),
        ("limit-laplace", {"laplace": -1}, "tolerances.laplace"),
        ("maxima", None, "tolerances"),
        ("maxima", {"ks": 0.1}, "tolerances.ks"),  # nothing to test: mma has no limit CDF
        # a tolerance the kind never tests: the check asked for would never run
        ("maxima", {"ks": None, "other": "x"}, "tolerances.other"),
        ("maxima", {"kss": 0.01}, "tolerances.kss"),
        ("pp", {"ks": 0.1}, "tolerances.ks"),
        ("limit-kx", {"laplace": 0.1}, "tolerances.laplace"),
    ],
)
def test_config_validation_rejects_tolerance_values(kind, tolerances, key):
    assert _offending_keys(kind=kind, tolerances=tolerances) == [key]


@pytest.mark.parametrize(
    "fields, keys",
    [
        ({"params": None}, ["params"]),
        ({"params": []}, ["params"]),
        ({"kind": "limit-kx", "model": "mma"}, ["model"]),
        ({"model": "mma"}, ["model"]),
        ({"model": {"variant": ["mma"], "d": 2, "alpha": 1.0}}, ["model.variant"]),
        ({"kind": None}, ["kind"]),
        ({"kind": ["x"]}, ["kind"]),
        ({"kind": "limit-laplace", "n": -3}, ["n"]),
    ],
)
def test_config_validation_rejects_malformed_fields(fields, keys):
    assert _offending_keys(**fields) == keys


def test_config_validation_accepts_tolerances_and_unread_keys():
    # a tolerance may be None (no test) or any real >= 0; a params key the kind does not read
    # passes unchecked
    validate_config(ExperimentConfig(kind="maxima", model=MMA, n=2, reps=2, seed=1,
                                     tolerances={"ks": None}))
    validate_config(ExperimentConfig(kind="limit-laplace", model=MMA, n=1, reps=1, seed=0,
                                     tolerances={"laplace": 0}, params={"num_terms": 0}))


@pytest.mark.parametrize(
    "argv, key",
    [
        (["simulate-maxima", "--model", "boundary", "--d", "2", "--alpha", "1", "--n", "3",
          "--reps", "5", "--seed", "-1"], "seed"),
        (["simulate-maxima", "--model", "boundary", "--theta", "3", "--d", "2", "--alpha", "1",
          "--n", "3", "--reps", "5", "--seed", "1"], "theta"),
        (["limit", "kx", "--model", "mma", "--theta", "3", "--d", "2", "--alpha", "1",
          "--seed", "1"], "theta"),
        (["simulate-maxima", "--model", "pareto", "--d", "2", "--alpha", "1", "--n", "3",
          "--reps", "5", "--seed", "1"], "theta"),
    ],
)
def test_cli_rejects_a_negative_seed_and_unread_model_options(argv, key, capsys):
    # the model block holds every model option given, and build_model judges it
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and f"'{key}'" in err


@pytest.mark.parametrize(
    "argv, params",
    [
        (["simulate-maxima", "--model", "shift", "--n", "2", "--reps", "3"],
         {"num_terms", "workers", "s_grid"}),
        (["simulate-pp", "--model", "mma", "--n", "2", "--reps", "2"], {"delta", "num_terms"}),
        (["limit", "kx", "--model", "mma"], set()),
        (["limit", "laplace", "--model", "mma"], {"theta", "threshold"}),
        (["limit", "sample", "--model", "mma", "--reps", "2"], {"delta"}),
    ],
)
def test_cli_echoes_only_the_params_its_kind_reads(argv, params, tmp_path, capsys):
    path = tmp_path / "out.json"
    assert cli_main(argv + ["--d", "2", "--alpha", "1.0", "--seed", "1", "--json", str(path)]) == 0
    capsys.readouterr()
    assert set(json.loads(path.read_text())["config"]["params"]) == params


@pytest.mark.parametrize(
    "argv, kind, n, reps",
    [
        (["simulate-pp", "--n", "3", "--reps", "4"], "pp", 3, 4),
        (["limit", "laplace"], "limit-laplace", 0, 1),
        (["limit", "sample"], "limit-sample", 0, 1),
    ],
)
def test_cli_and_api_read_the_same_defaults(argv, kind, n, reps, tmp_path, capsys):
    # a command given only its required options runs as the config with empty params
    csv_path = tmp_path / "cli.csv"
    model = ["--model", "mma", "--d", "2", "--alpha", "1.0", "--seed", "5"]
    assert cli_main(argv + model + ["--csv", str(csv_path)]) == 0
    res = run(ExperimentConfig(kind=kind, model=MMA, n=n, reps=reps, seed=5, params={}))
    assert capsys.readouterr().out == json.dumps(res.summary, indent=2, sort_keys=True, default=str) + "\n"
    res.write_csv(tmp_path / "api.csv")
    assert csv_path.read_bytes() == (tmp_path / "api.csv").read_bytes()


@pytest.mark.parametrize("kind", ["maxima", "pp"])
def test_config_validation_needs_num_terms_for_a_heavy_pareto_field(kind):
    # theta <= 2: no finite second moment, so no rule picks the series length
    heavy = {"variant": "pareto", "d": 2, "alpha": 1.0, "theta": 2.0}
    assert _offending_keys(kind=kind, model=heavy, params={}) == ["params.num_terms"]


def test_cli_rejects_a_heavy_pareto_field_without_num_terms(capsys):
    argv = ["simulate-maxima", "--model", "pareto", "--theta", "2", "--d", "2", "--alpha", "1",
            "--n", "2", "--reps", "5", "--seed", "1"]
    assert cli_main(argv) == 2
    assert "params.num_terms" in capsys.readouterr().err


def test_cli_selftest_scopes_are_the_harness_scopes():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    scope = next(a for a in sub.choices["selftest"]._actions if a.dest == "scope")
    assert list(scope.choices) == list(SELFTESTS) == [
        "combinatorics", "boundary", "stable", "subgraphs", "all"
    ]
    assert SELFTESTS["all"] == sum((SELFTESTS[s] for s in list(SELFTESTS)[:-1]), ())


def test_result_echoes_numpy_params_as_json_values(tmp_path):
    # a programmatic config may carry numpy values; the result echoes them as a
    # list and a number, and its JSON is written
    params = {"s_grid": np.array([0.5, 1.0]), "num_terms": np.int64(3)}
    res = run(ExperimentConfig(kind="maxima", model=PARETO, n=3, reps=5, seed=1, params=params))
    assert res.config["params"] == {"s_grid": [0.5, 1.0], "num_terms": 3}
    assert type(res.config["params"]["num_terms"]) is int
    res.write_json(tmp_path / "out.json")
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["config"]["params"]["s_grid"] == [0.5, 1.0]
    assert [row["s"] for row in payload["summary"]["ecdf"]] == [0.5, 1.0]


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--d", "1", "--n", "2"],
        ["enumerate", "--d", "2", "--n", "-1"],
        ["enumerate", "--d", "2", "--n", "-1", "--sphere"],
        ["verify-boundary", "--depth-cap", "0"],
        ["verify-boundary", "--translate-n", "0"],
        ["verify-lemma", "--d", "1"],
        # these would check nothing and report a pass
        ["verify-lemma", "--samples", "0"],
        ["verify-lemma", "--ell-max", "0"],
        ["verify-lemma", "--k-max", "-1"],
    ],
)
def test_cli_check_commands_reject_bad_arguments(argv, capsys):
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:") and captured.out == ""


@pytest.mark.parametrize(
    "argv, kernel, key",
    [
        # ran with a 9-term series and reported remainder_bound: null
        (["simulate-maxima", "--model", "pareto", "--theta", "inf", "--n", "3", "--reps", "5"],
         None, "theta"),
        # wrote a bare NaN, which is not JSON, into the result
        (["simulate-maxima", "--model", "boundary", "--n", "3", "--reps", "5", "--s-grid", "nan"],
         None, "params.s_grid"),
        # reported analytic: NaN
        (["limit", "laplace", "--model", "mma", "--theta-g", "inf"], None, "params.theta"),
        # gave K = NaN, and K = inf with formulas_agree: false
        (["limit", "kx", "--model", "mma"], ({"w0": 1.0}, {"w0": {"e": float("nan")}}),
         "model.f_table"),
        (["limit", "kx", "--model", "mma"], ({"w0": float("inf")}, {"w0": {"e": 1.0}}),
         "model.w_masses"),
    ],
)
def test_cli_rejects_non_finite_numbers(argv, kernel, key, tmp_path, capsys):
    if kernel is not None:
        path = tmp_path / "kernel.json"
        path.write_text(json.dumps({"w_masses": kernel[0], "f_table": kernel[1]}))
        argv = argv + ["--f-table", str(path)]
    assert cli_main(argv + ["--d", "2", "--alpha", "1.0", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and key in err


def test_config_validation_accepts_integers_beyond_the_float_range():
    # an integer is finite, though math.isfinite overflows on one this large
    validate_config(ExperimentConfig(kind="maxima", model=MMA, n=2, reps=2, seed=10**400,
                                     params={"workers": 10**400}))


@pytest.mark.parametrize("kind", ["maxima", "pp"])
@pytest.mark.parametrize(
    "model",
    [{"variant": "boundary", "d": 2, "alpha": 1.0}, {"variant": "shift", "d": 2, "alpha": 1.3}, MMA],
)
def test_config_validation_rejects_num_terms_on_an_exact_draw(kind, model):
    # a field drawn exactly has no series, and ran with its exact draw as if
    # no num_terms had been given; None still means the default
    assert _offending_keys(kind=kind, model=model, params={"num_terms": 50}) == ["params.num_terms"]
    validate_config(ExperimentConfig(kind=kind, model=model, n=2, reps=2, seed=1,
                                     params={"num_terms": None}))


def test_cli_num_terms_on_an_exact_draw_is_a_config_error(capsys):
    argv = ["simulate-maxima", "--d", "2", "--alpha", "1", "--n", "3", "--reps", "5", "--seed", "1",
            "--num-terms", "50"]
    assert cli_main(argv + ["--model", "boundary"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "params.num_terms" in err
    assert cli_main(argv + ["--model", "pareto", "--theta", "3"]) == 0
    capsys.readouterr()


def test_cli_num_terms_beyond_the_float_range_is_a_config_error(capsys):
    # the series' remainder bound overflows; validation reports it, not an OverflowError
    argv = ["simulate-maxima", "--model", "pareto", "--theta", "3", "--d", "2", "--alpha", "1",
            "--n", "3", "--reps", "5", "--seed", "1", "--num-terms", str(10**400)]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "params.num_terms" in err
    assert _offending_keys(kind="pp", model=PARETO, params={"num_terms": 10**400}) == ["params.num_terms"]


def test_cli_laplace_tolerance_failure_exit_code(capsys):
    argv = ["limit", "laplace", "--model", "mma", "--d", "2", "--alpha", "1.0", "--seed", "1",
            "--n", "3", "--reps", "50"]
    assert cli_main(argv + ["--laplace-tol", "0"]) == 1
    assert cli_main(argv + ["--laplace-tol", "1"]) == 0
    capsys.readouterr()


def test_config_validation_rejects_a_laplace_tolerance_without_an_empirical_side():
    # at n = 0 no field is drawn, and the run reported passed: null; None is no test
    keys = _offending_keys(kind="limit-laplace", n=0, tolerances={"laplace": 0})
    assert keys == ["tolerances.laplace"]
    validate_config(ExperimentConfig(kind="limit-laplace", model=MMA, reps=1,
                                     tolerances={"laplace": None}))


@pytest.mark.parametrize(
    "argv, key",
    [
        (["limit", "laplace", "--model", "mma", "--laplace-tol", "0"], "tolerances.laplace"),
        (["simulate-maxima", "--model", "mma", "--n", "2", "--reps", "5", "--ks-tol", "0.1"],
         "tolerances.ks"),
    ],
)
def test_cli_tolerance_with_nothing_to_test_exits_2(argv, key, capsys):
    assert cli_main(argv + ["--d", "2", "--alpha", "1.0", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and key in err


def test_cli_experiment_commands_take_only_the_options_their_kind_reads():
    common = {"-h", "--help", "--model", "--d", "--alpha", "--theta", "--f-table", "--seed",
              "--csv", "--json"}
    expected = {
        ("simulate-maxima",): {"--n", "--reps", "--num-terms", "--workers", "--s-grid", "--ks-tol"},
        ("simulate-pp",): {"--n", "--reps", "--delta", "--num-terms"},
        ("limit", "kx"): set(),
        ("limit", "laplace"): {"--n", "--reps", "--theta-g", "--threshold", "--laplace-tol"},
        ("limit", "sample"): {"--reps", "--delta"},
    }
    for command, options in expected.items():
        parser = build_parser()
        for name in command:
            sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            parser = sub.choices[name]
        assert {s for a in parser._actions for s in a.option_strings} == common | options, command


@pytest.mark.parametrize(
    "argv",
    [
        ["limit", "kx", "--n", "2"],
        ["limit", "kx", "--reps", "9"],
        ["limit", "kx", "--delta", "0.1"],
        ["limit", "kx", "--theta-g", "5"],
        ["limit", "kx", "--threshold", "2"],
        ["limit", "kx", "--laplace-tol", "0"],
        ["limit", "kx", "--laplace-tol", "0", "--theta-g", "5", "--reps", "9"],
        ["limit", "laplace", "--delta", "0.1"],
        ["limit", "sample", "--n", "3"],
        ["limit", "sample", "--theta-g", "5"],
        ["limit", "sample", "--threshold", "2"],
        ["limit", "sample", "--laplace-tol", "0"],
    ],
)
def test_cli_rejects_an_option_the_command_does_not_read(argv, capsys):
    # each of these ran and dropped the option
    with pytest.raises(SystemExit) as ei:
        cli_main(argv + ["--model", "mma", "--d", "2", "--alpha", "1.0", "--seed", "1"])
    assert ei.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[2:]) in capsys.readouterr().err
