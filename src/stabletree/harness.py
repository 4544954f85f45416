"""Experiment configuration, dispatch, result emission, and self-tests.

Every experiment is a pure function of (config, seed): the config is
validated up front, echoed verbatim into the result for provenance, and
the record payload is reproducible bit for bit for a fixed seed and any
worker count.  Results are written as a CSV of per-replication records
plus a JSON summary.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .free_group import parse_word
from .fields import (
    BoundaryField,
    MixedMovingAverage,
    ParetoField,
    ShiftField,
    maxima_experiment,
    mma_point_mass,
    FieldSimulator,
)
from .rng import substream
from .stable import stable_tail_constant

OVERFLOW_CHANCE = 1e-9  # largest admitted chance that a replication's M_n is no float


@dataclass
class ExperimentConfig:
    kind: str
    model: dict
    n: int = 0
    reps: int = 0
    seed: int = 0
    params: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)


class AtomRecords:
    """Point-process records kept as one float64 array of atoms per replication.

    Stands for the rows ``(rep, atom)``, replication by replication and each
    block in its stored order; ``len`` is the row count.  The blocks are
    read-only views.
    """

    def __init__(self, blocks):
        self.blocks = []
        for block in blocks:
            view = np.asarray(block, dtype=np.float64).view()
            view.flags.writeable = False
            self.blocks.append(view)

    def __len__(self):
        return sum(len(b) for b in self.blocks)

    def write_rows(self, fh):
        """Write the rows as csv.writer would, one write per replication.

        csv writes a float as its repr, a list's repr joins the same reprs
        with ", ", and no float repr contains ", ", so each block's text is
        its list repr with every separator turned into a row break.
        """
        for rep, block in enumerate(self.blocks):
            if len(block):
                lead = f"{rep},"
                fh.write(lead + repr(block.tolist())[1:-1].replace(", ", "\r\n" + lead) + "\r\n")


@dataclass
class ExperimentResult:
    columns: list
    records: list | AtomRecords
    summary: dict
    passed: bool | None
    diagnostics: dict
    config: dict = field(default_factory=dict)  # the echo that ``run`` fills in

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf8") as fh:
            w = csv.writer(fh)
            w.writerow(self.columns)
            if isinstance(self.records, AtomRecords):
                self.records.write_rows(fh)
            else:
                w.writerows(self.records)

    def write_json(self, path):
        payload = {
            "config": self.config,
            "summary": self.summary,
            "passed": self.passed,
            "diagnostics": self.diagnostics,
        }
        with open(path, "w", encoding="utf8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _mma_model(d: int, alpha: float, **kernel):
    """The unit point mass (no kernel keys, or point_mass: true) or the kernel of both tables."""
    given = sorted(kernel)
    point_mass_ok = kernel.get("point_mass", True) is True
    if given not in ([], ["point_mass"], ["f_table", "w_masses"]) or not point_mass_ok:
        raise ConfigError(
            f"an mma kernel is point_mass: true or both w_masses and f_table, got {given}",
            [f"model.{k}" for k in given],
        )
    if "f_table" not in kernel:
        return mma_point_mass(d, alpha)
    objects = [kernel["w_masses"], kernel["f_table"]]
    if isinstance(kernel["f_table"], dict):
        objects += kernel["f_table"].values()
    if not all(isinstance(x, dict) for x in objects):
        raise ValueError("w_masses, f_table and every f_table entry must be JSON objects")
    masses = {str(k): _number(v, "w_masses") for k, v in kernel["w_masses"].items()}
    tables = {
        str(w): {parse_word(d, t): _number(v, "f_table") for t, v in tab.items()}
        for w, tab in kernel["f_table"].items()
    }
    return MixedMovingAverage.from_tables(d, alpha, masses, tables)


# variant -> (its constructor, the keys it requires in argument order, the keys it may take)
VARIANTS = {
    "boundary": (BoundaryField, ("d", "alpha"), ()),
    "shift": (ShiftField, ("d", "alpha"), ()),
    "pareto": (ParetoField, ("d", "alpha", "theta"), ()),
    "mma": (_mma_model, ("d", "alpha"), ("w_masses", "f_table", "point_mass")),
}


def build_model(spec: dict):
    if not isinstance(spec, dict):
        raise ConfigError(f"model must be a JSON object, got {spec!r}", ["model"])
    if "variant" not in spec:
        raise ConfigError("model.variant missing", ["model.variant"])
    variant = spec["variant"]
    if not isinstance(variant, str) or variant not in VARIANTS:
        raise ConfigError(f"unknown model variant {variant!r}", ["model.variant"])
    make, required, optional = VARIANTS[variant]
    keys = set(spec) - {"variant"}
    missing = set(required) - keys
    extra = keys - set(required) - set(optional)
    if missing or extra:
        raise ConfigError(
            f"bad keys for model {variant}: missing {sorted(missing)}, unknown {sorted(extra)}",
            [f"model.{k}" for k in sorted(missing | extra)],
        )
    bad = sorted(k for k in required if not _real(spec[k], integral=k == "d"))
    if bad:
        raise ConfigError(f"invalid model values: {bad}", [f"model.{k}" for k in bad])
    args = [int(spec[k]) if k == "d" else float(spec[k]) for k in required]
    try:
        return make(*args, **{k: spec[k] for k in optional if k in spec})
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:  # out-of-range or non-numeric values, bad kernel words
        raise ConfigError(f"invalid model {variant}: {exc}", ["model"]) from exc


def load_f_table_file(path):
    """JSON kernel file: {"w_masses": {name: mass}, "f_table": {name: {word: value}}}."""
    try:
        with open(path, "r", encoding="utf8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise ConfigError(f"cannot read kernel file {path}: {exc}", ["f_table"]) from exc
    if not isinstance(data, dict):
        raise ConfigError("kernel file must hold a JSON object", ["f_table"])
    for key in ("w_masses", "f_table"):
        if key not in data:
            raise ConfigError(f"kernel file missing {key!r}", [key])
    return data["w_masses"], data["f_table"]


def _real(value, integral=False) -> bool:
    """A finite real number and not a bool; an integer when ``integral``."""
    kind = numbers.Integral if integral else numbers.Real
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    # an int is finite, and math.isfinite raises OverflowError on one beyond the float range
    return isinstance(value, numbers.Integral) or math.isfinite(value)


def _number(value, key: str) -> float:
    """A kernel mass or value as a float; anything but a finite real number is a ConfigError."""
    if not _real(value):
        raise ConfigError(f"model.{key} holds {value!r}, not a finite number", [f"model.{key}"])
    return float(value)


def _echo(cfg: ExperimentConfig) -> dict:
    """The config as the result echoes it, numpy arrays and scalars turned into JSON values."""
    return json.loads(json.dumps(asdict(cfg), default=lambda value: value.tolist()))


class Option(NamedTuple):
    """A params or tolerances key: its CLI flag, default, check and argparse keywords."""

    flag: str
    default: object  # what a run reads when the key is absent; None passes where it is the default
    valid: Callable  # the test any other value passes
    type: type
    help: str | None = None
    nargs: str | None = None


OPTIONS = {
    "num_terms": Option("--num-terms", None, lambda v: _real(v, integral=True) and v >= 1, int),
    "workers": Option("--workers", None, lambda v: _real(v, integral=True) and v >= 0, int),
    "s_grid": Option(
        "--s-grid", None, lambda v: isinstance(v, (list, tuple, np.ndarray)) and all(map(_real, v)),
        float, nargs="*",
    ),
    "delta": Option("--delta", 0.5, lambda v: _real(v) and v > 0.0, float),
    # the Laplace test function theta * 1(|x| > threshold)
    "theta": Option(
        "--theta-g", 1.0, lambda v: _real(v) and v >= 0.0, float, "test function height"
    ),
    "threshold": Option(
        "--threshold", 1.0, lambda v: _real(v) and v > 0.0, float, "test function threshold"
    ),
    # the largest KS distance and Laplace gap that pass; None: no test
    "ks": Option("--ks-tol", None, lambda v: _real(v) and v >= 0.0, float),
    "laplace": Option(
        "--laplace-tol", None, lambda v: _real(v) and v >= 0.0, float, "largest passing Laplace gap"
    ),
}


def _param(cfg: ExperimentConfig, key: str):
    """The value of a params key, or its default where it is absent."""
    return cfg.params.get(key, OPTIONS[key].default)


def validate_config(cfg: ExperimentConfig):
    """Check the configuration and return the model it builds."""
    bad = [key for key in ("n", "reps", "seed") if not _real(getattr(cfg, key), integral=True)]
    kind = KINDS.get(cfg.kind) if isinstance(cfg.kind, str) else None
    if kind is None:
        raise ConfigError(f"unknown experiment kind {cfg.kind!r}", bad + ["kind"])
    if "n" not in bad and kind.draws_from is not None and cfg.n < 0:
        bad.append("n")
    if "reps" not in bad and cfg.reps < kind.min_reps:
        bad.append("reps")
    if "seed" not in bad and cfg.seed < 0:
        bad.append("seed")  # the entropy of a numpy SeedSequence is a non-negative integer
    for block, keys in (("params", kind.params), ("tolerances", kind.tolerances)):
        values = getattr(cfg, block)
        if not isinstance(values, dict):
            bad.append(block)
            continue
        for key in keys:
            opt, value = OPTIONS[key], values.get(key)
            if key in values and not ((value is None and opt.default is None) or opt.valid(value)):
                bad.append(f"{block}.{key}")
        if block == "tolerances":  # a check asked for that the kind never makes
            bad.extend(f"tolerances.{key}" for key in values if key not in keys)
    if kind.needs_mma and not (isinstance(cfg.model, dict) and cfg.model.get("variant") == "mma"):
        bad.append("model")
    if bad:
        raise ConfigError(f"invalid configuration keys: {sorted(bad)}", bad)
    model = build_model(cfg.model)  # raises ConfigError on bad model blocks and values
    # a tolerance needs what it is tested on: the model's limit CDF (the KS distance of the
    # scaled maxima) or an empirical side drawn over E_n (the Laplace gap)
    testable = {
        "ks": lambda: model.limit_cdf() is not None,
        "laplace": lambda: cfg.n >= kind.draws_from,
    }
    untested = [
        f"tolerances.{key}"
        for key in kind.tolerances
        if cfg.tolerances.get(key) is not None and not testable[key]()
    ]
    if untested:
        raise ConfigError(
            f"nothing to test {untested} on: the model has no limit CDF (ks), "
            f"or n = {cfg.n} draws no empirical side (laplace)",
            untested,
        )
    if kind.draws_from is not None and cfg.n >= kind.draws_from:
        # the run simulates the field over E_n.  M_n / scale(n) has the Frechet tail
        # c_alpha x^-alpha, so a replication passes the largest float with probability
        # about c_alpha (scale(n) / largest float)^alpha
        try:
            ratio = model.scale(cfg.n) / np.finfo(float).max
        except OverflowError:
            ratio = np.inf
        chance = stable_tail_constant(model.alpha) * ratio**model.alpha
        if chance > OVERFLOW_CHANCE:
            raise ConfigError(
                f"alpha = {model.alpha} is too small for n = {cfg.n}: M_n leaves the float "
                f"range with probability about {min(chance, 1.0):.2g} per replication",
                ["model.alpha", "n"],
            )
    if "num_terms" in kind.params:  # after the check above, which keeps scale(n) a float
        num_terms = _param(cfg, "num_terms")
        try:
            series = model.series(cfg.n, num_terms)
        except OverflowError:  # the remainder bound of a series longer than any float
            msg = f"params.num_terms = {num_terms} is too large"
            raise ConfigError(msg, ["params.num_terms"]) from None
        if series is None and num_terms is not None:
            raise ConfigError(
                f"params.num_terms = {num_terms} sets a series length, but the "
                f"{cfg.model['variant']} field is drawn exactly, with no series",
                ["params.num_terms"],
            )
    return model


def run(cfg: ExperimentConfig) -> ExperimentResult:
    """Validate, dispatch, and collect one experiment."""
    model = validate_config(cfg)
    kind = KINDS[cfg.kind]
    t0 = time.monotonic()
    result = kind.runner(cfg, model)
    result.config = _echo(cfg)
    result.diagnostics["wall_seconds"] = time.monotonic() - t0
    if kind.role is not None:
        result.diagnostics["rng_streams"] = f"philox(seed={cfg.seed}, role={kind.role!r}, rep)"
    return result


def _run_maxima(cfg: ExperimentConfig, model) -> ExperimentResult:
    res = maxima_experiment(
        model,
        cfg.n,
        cfg.reps,
        _param(cfg, "num_terms"),
        cfg.seed,
        s_grid=_param(cfg, "s_grid"),
        workers=_param(cfg, "workers") or 1,  # None or 0: one
    )
    summary = {
        "scale": res.approximations["scale"],
        "num_terms": res.approximations["num_terms"],
        "quantiles": {str(k): v for k, v in res.quantiles.items()},
        "ks_distance": res.ks_distance,
        "ecdf": res.ecdf,
    }
    tol = cfg.tolerances.get("ks")  # validate_config admits one only for a model with a limit CDF
    passed = None if tol is None else bool(res.ks_distance <= tol)
    return ExperimentResult(
        columns=["rep", "ball_max", "sphere_max", "scaled_ball_max"],
        records=res.records,
        summary=summary,
        passed=passed,
        diagnostics={"elapsed_seconds": res.elapsed_seconds, "approximations": res.approximations},
    )


def _run_pp(cfg: ExperimentConfig, model) -> ExperimentResult:
    delta = float(_param(cfg, "delta"))
    sim = FieldSimulator(model, cfg.n, _param(cfg, "num_terms"))
    scale = sim.meta["scale"]
    blocks = []
    for rep in range(cfg.reps):
        values = sim.values(substream(cfg.seed, "pp", rep)) / scale
        blocks.append(np.sort(values[np.abs(values) > delta])[::-1])
    counts = [len(b) for b in blocks]
    summary = {
        "delta": delta,
        "scale": scale,
        "mean_atoms": float(np.mean(counts)),
        "max_atoms": int(max(counts)),
    }
    return ExperimentResult(
        columns=["rep", "scaled_atom"],
        records=AtomRecords(blocks),
        summary=summary,
        passed=None,
        diagnostics={"approximations": sim.meta},
    )


def _run_limit_kx(cfg: ExperimentConfig, model) -> ExperimentResult:
    from .limit_process import maxima_constant_comparison

    comp = maxima_constant_comparison(model)
    return ExperimentResult(
        columns=["key", "value"],
        records=sorted(comp.items()),
        summary=comp,
        passed=None,
        diagnostics={},
    )


def _run_limit_laplace(cfg: ExperimentConfig, model) -> ExperimentResult:
    from .limit_process import PiecewiseConstant, empirical_laplace, laplace_functional

    theta = float(_param(cfg, "theta"))
    s = float(_param(cfg, "threshold"))
    g = PiecewiseConstant.threshold(theta, s)
    ana = laplace_functional(model, g)
    emp = None
    if cfg.n > 0:
        emp = empirical_laplace(model, g, cfg.n, cfg.reps, cfg.seed)
    summary = {
        "analytic": ana.value,
        "level_symmetric": ana.level_symmetric_value,
        "empirical": emp,
    }
    tol = cfg.tolerances.get("laplace")  # validate_config admits one only where emp is drawn
    passed = None if tol is None else bool(abs(emp - ana.value) <= tol)
    return ExperimentResult(
        columns=["key", "value"],
        records=[(k, v) for k, v in summary.items() if isinstance(v, (int, float))],
        summary=summary,
        passed=passed,
        diagnostics={},
    )


def _run_limit_sample(cfg: ExperimentConfig, model) -> ExperimentResult:
    from .limit_process import sample_limit_point_process

    delta = float(_param(cfg, "delta"))
    blocks = []
    for rep in range(cfg.reps):
        atoms = sample_limit_point_process(model, delta, substream(cfg.seed, "nstar", rep))
        blocks.append(np.sort(atoms)[::-1])
    summary = {"delta": delta, "mean_atoms": float(np.mean([len(b) for b in blocks]))}
    return ExperimentResult(
        columns=["rep", "atom"],
        records=AtomRecords(blocks),
        summary=summary,
        passed=None,
        diagnostics={},
    )


class Kind(NamedTuple):
    """What validation, dispatch and the CLI know of one experiment kind."""

    runner: Callable  # (config, model) -> ExperimentResult
    role: str | None  # the role of its RNG streams; None: it draws no random numbers
    min_reps: int
    params: tuple  # the params keys it reads, in check order
    tolerances: tuple  # the tolerances keys it reads
    draws_from: int | None  # it draws the field over E_n when n >= draws_from; None: never
    needs_mma: bool  # the limit process is derived for mixed moving averages only
    help: str  # the help of its CLI command


KINDS = {
    "maxima": Kind(_run_maxima, "maxima", 2, ("num_terms", "workers", "s_grid"), ("ks",), 0, False,
                   "replicated scaled partial maxima"),
    "pp": Kind(_run_pp, "pp", 1, ("delta", "num_terms"), (), 0, False,
               "empirical scaled point-process atoms above delta"),
    "limit-kx": Kind(_run_limit_kx, None, 0, (), (), None, True,
                     "the maxima constant K_X by both formulas"),
    "limit-laplace": Kind(_run_limit_laplace, "laplace", 1, ("theta", "threshold"), ("laplace",),
                          1, True, "the Laplace functional, analytic and empirical"),
    "limit-sample": Kind(_run_limit_sample, "nstar", 1, ("delta",), (), None, True,
                         "samples of the limit point process above delta"),
}


# ---------------------------------------------------------------------------
# Self-tests: quick oracle suites per module
# ---------------------------------------------------------------------------

def selftest(scope: str = "all") -> dict:
    """Machine-readable pass/fail for the per-module oracle checks."""
    if scope not in SELFTESTS:
        raise ConfigError(f"scope must be one of {tuple(SELFTESTS)}", ["scope"])
    checks = [check for suite in SELFTESTS[scope] for check in suite()]
    return {
        "scope": scope,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


def _check(name, passed, detail=""):
    return {"name": name, "passed": bool(passed), "detail": str(detail)}


def _selftest_combinatorics():
    from .free_group import ball_size, enumerate_ball, enumerate_sphere, sphere_size

    ok = True
    for d in (2, 3):
        for n in range(0, 5):
            ok &= sum(1 for _ in enumerate_ball(d, n)) == ball_size(d, n)
            ok &= sum(1 for _ in enumerate_sphere(d, n)) == sphere_size(d, n)
    yield _check("ball and sphere counts match closed forms", ok)
    ok = all(
        (2 * d - 1) ** n <= ball_size(d, n) <= d * (2 * d - 1) ** n / (d - 1)
        for d in (2, 3)
        for n in range(0, 12)
    )
    yield _check("ball size within the geometric envelope", ok)


def _selftest_boundary():
    from fractions import Fraction

    from .boundary import (
        CylinderSet,
        act_on_boundary,
        rn_derivative,
        sample_boundary,
        verify_weakly_wandering,
    )
    from .free_group import Word, multiply

    full = CylinderSet.full(2)
    yield _check("level-1 cylinders tile the boundary", full.measure == 1)
    rng = substream(7, "selftest-boundary")
    ok = True
    for _ in range(200):
        omega = sample_boundary(2, 12, rng)
        u = Word(2, omega.letters[:2])
        v = Word(2, (2,)) if u.letters[0] != -2 else Word(2, (1,))
        lhs = rn_derivative(multiply(u, v), omega)
        rhs = rn_derivative(u, omega) * rn_derivative(v, act_on_boundary(u, omega))
        ok &= lhs == rhs and isinstance(lhs, Fraction)
    yield _check("cocycle identity for the derivative (exact rationals)", ok)
    rep = verify_weakly_wandering(2, 8)
    deficits = [1 - c for c in rep.covered_by_cap]
    shrinking = all(b < a for a, b in zip(deficits[1:], deficits[2:]))
    yield _check(
        "weakly wandering family disjoint with vanishing deficit",
        rep.pairwise_disjoint and shrinking and rep.deficit < Fraction(1, 7),
        f"deficit={rep.deficit}",
    )


def _selftest_stable():
    from .stable import (
        sample_sas,
        stable_tail_constant,
        stable_tail_constant_quadrature,
    )

    worst = max(
        abs(stable_tail_constant(a) - stable_tail_constant_quadrature(a))
        for a in (0.4, 0.8, 1.0, 1.2, 1.6)
    )
    yield _check("tail constant: closed form vs quadrature", worst < 1e-8, f"max err {worst:.2e}")
    rng = substream(11, "selftest-stable")
    x = sample_sas(rng, 1.0, 1.0, size=200_000)
    med = float(np.median(np.abs(x)))
    yield _check("Cauchy median of |X| near 1", abs(med - 1.0) < 0.02, f"median {med:.4f}")


def _selftest_subgraphs():
    from fractions import Fraction

    from .subgraphs import anchor_pmf, anchor_pmf_tail, check_sphere_counts

    total = sum(anchor_pmf(-j, 2) for j in range(0, 40)) + anchor_pmf_tail(-40, 2)
    yield _check("anchor pmf sums to 1 exactly", total == Fraction(1))
    rows = check_sphere_counts(2, ell_max=2, k_max=4, samples=1, seed=13)
    yield _check("sphere counts match the closed form", all(r["all_match"] for r in rows))


SELFTESTS = {  # scope -> its suites, in check order
    "combinatorics": (_selftest_combinatorics,),
    "boundary": (_selftest_boundary,),
    "stable": (_selftest_stable,),
    "subgraphs": (_selftest_subgraphs,),
}
SELFTESTS["all"] = tuple(suite for suites in SELFTESTS.values() for suite in suites)
