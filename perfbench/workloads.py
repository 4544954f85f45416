"""The benchmark workloads: experiment configs made from a seed, and their gates.

Every workload uses rank d = 2 and alpha = 1.  Kernels are level-symmetric
mixed-moving-average tables, f(t) = levels[|t|], written out as word-string
``f_table`` documents the same way a kernel file given to the CLI is.  The
configs are plain JSON so that the program only ever receives the generated
``ExperimentConfig``; nothing here imports the program.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass, field, replace

D = 2
ALPHA = 1.0
# A count gate accepts a mean within this many standard errors of its reference.
COUNT_GATE_SE = 4.0
# KS bound on the scaled boundary-field maxima, the same bound acceptance check A6 uses.
KS_TOL = 0.08
# The two maxima-constant formulas coincide at alpha = 1; relative tolerance.
KX_REL_TOL = 1e-9

LAYERS = (
    "free_group",
    "fields",
    "stable",
    "rng",
    "stats",
    "subgraphs",
    "limit_process",
    "harness",
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    n: int = 0
    reps: int = 0
    levels: dict | None = None  # kernel levels; None for the boundary field
    params: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    bypassed: tuple = ()  # layers this workload never reaches: they must trace as 0

    @property
    def modules(self) -> list:
        """The program modules the workload reaches; imported during set-up."""
        mods = ["stabletree.harness", "stabletree.stats"]
        if self.kind.startswith("limit-"):
            mods.append("stabletree.limit_process")
        return mods


FULL = {
    w.name: w
    for w in (
        Workload(
            "maxima-boundary", "maxima", n=8, reps=2000,
            params={"s_grid": [0.5, 1.0, 2.0, 4.0], "workers": 1},
            tolerances={"ks": KS_TOL},
            bypassed=("subgraphs", "limit_process"),
        ),
        Workload(
            "pp-mma", "pp", n=8, reps=400,
            levels={0: 1.0, 1: 0.6, 2: 0.3},
            params={"delta": 0.5},
            bypassed=("stats", "subgraphs", "limit_process"),
        ),
        Workload(
            "limit-kx", "limit-kx",
            levels={0: 1.0, 1: 0.6, 2: 0.3, 3: 0.2},
            params={"mc_subgraphs": 4000},
            bypassed=("fields", "stable", "rng", "stats"),
        ),
        Workload(
            "limit-sample", "limit-sample", reps=200,
            levels={0: 1.0, 1: 0.6},
            params={"delta": 0.1},
            bypassed=("fields", "stable", "stats"),
        ),
    )
}

# Small sizes for the benchmark's own self-test: same kinds and gates, seconds per sample.
REDUCED = {
    "maxima-boundary": replace(FULL["maxima-boundary"], n=6, reps=400),
    "pp-mma": replace(FULL["pp-mma"], n=5, reps=40),
    "limit-kx": replace(FULL["limit-kx"], levels={0: 1.0, 1: 0.6, 2: 0.3}),
    "limit-sample": replace(FULL["limit-sample"], reps=20),
}


def ball_size(d: int, n: int) -> int:
    """|E_n| = 1 + 2d((2d-1)^n - 1)/(2d-2)."""
    return 1 + d * ((2 * d - 1) ** n - 1) // (d - 1)


def _reduced_words(d: int, m: int):
    """Reduced words of length <= m as tuples of signed generator indices."""
    letters = [s * i for i in range(1, d + 1) for s in (1, -1)]
    layer = [()]
    out = [()]
    for _ in range(m):
        layer = [w + (g,) for w in layer for g in letters if not (w and w[-1] == -g)]
        out.extend(layer)
    return out


def _format(word: tuple) -> str:
    if not word:
        return "e"
    return ".".join(f"a{abs(g)}" + ("^-1" if g < 0 else "") for g in word)


def kernel_table(levels: dict) -> dict:
    """The word-string f_table of the level-symmetric kernel f(t) = levels[|t|]."""
    return {
        _format(w): float(levels[len(w)])
        for w in _reduced_words(D, max(levels))
        if levels.get(len(w), 0.0) != 0.0
    }


def experiment_config(w: Workload, seed: int) -> dict:
    """Keyword arguments of the ExperimentConfig for workload ``w`` at ``seed``."""
    if w.levels is None:
        model = {"variant": "boundary", "d": D, "alpha": ALPHA}
    else:
        model = {
            "variant": "mma", "d": D, "alpha": ALPHA,
            "w_masses": {"w0": 1.0},
            "f_table": {"w0": kernel_table(w.levels)},
        }
    return {
        "kind": w.kind, "model": model, "n": w.n, "reps": w.reps, "seed": int(seed),
        "params": dict(w.params), "tolerances": dict(w.tolerances),
    }


def size_block(w: Workload) -> dict:
    """The workload's size for the provenance block."""
    m = max(w.levels) if w.levels else 0
    return {
        "d": D, "alpha": ALPHA, "n": w.n, "ball_sites": ball_size(D, w.n) if w.n else None,
        "noise_sites": ball_size(D, w.n + m) if w.levels and w.n else None,
        "reps": w.reps, "kernel": w.levels or "boundary", "delta": w.params.get("delta"),
    }


def pp_expected_atoms(w: Workload) -> float:
    """Exact E[#atoms per replication] of the scaled field above delta.

    At alpha = 1 each X_e is Cauchy with scale noise_scale * sum|f|, where the
    noise scale (2 mass / c_1)^(1/alpha) is pi for unit mass, and the scaling
    constant is (2d-1)^(n/alpha).
    """
    if ALPHA != 1.0:
        raise ValueError("the closed form below holds at alpha = 1 only")
    m = max(w.levels)
    word_counts = [ball_size(D, j) - (ball_size(D, j - 1) if j else 0) for j in range(m + 1)]
    gamma = math.pi * sum(abs(w.levels.get(j, 0.0)) * word_counts[j] for j in range(m + 1))
    x = w.params["delta"] * (2 * D - 1) ** (w.n / ALPHA)
    return ball_size(D, w.n) * (2.0 / math.pi) * math.atan(gamma / x)


def read_records(path) -> list:
    """The CSV rows below the header."""
    with open(path, newline="", encoding="utf8") as fh:
        return list(csv.reader(fh))[1:]


def _count_gate(name: str, per_rep: list, expected: float) -> tuple:
    mean = statistics.fmean(per_rep)
    se = statistics.stdev(per_rep) / math.sqrt(len(per_rep))
    ok = abs(mean - expected) <= COUNT_GATE_SE * se
    return name, ok, f"mean {mean:.3f} vs exact {expected:.3f} (se {se:.3f})"


def _atoms_per_rep(rows: list, reps: int) -> list:
    counts = [0] * reps
    for row in rows:
        counts[int(row[0])] += 1
    return counts


def gates(w: Workload, rows: list, doc: dict, reference: dict) -> list:
    """Correctness checks on one sample's CSV rows and JSON document.

    Returns [(gate name, passed, detail)].  ``reference`` holds values the
    sample computed from the program after its timed region
    (``expected_atom_count`` for limit-sample).
    """
    out = []
    if w.kind == "maxima":
        out.append(("ks", doc["passed"] is True,
                    f"KS {doc['summary']['ks_distance']:.4f} <= {KS_TOL}"))
        out.append(("rows", len(rows) == w.reps, f"{len(rows)} rows for {w.reps} reps"))
        bad = sum(1 for r in rows if float(r[2]) > float(r[1]))
        out.append(("sphere_max<=ball_max", bad == 0, f"{bad} rows violate"))
    elif w.kind in ("pp", "limit-sample"):
        delta = w.params["delta"]
        bad = sum(1 for r in rows if not abs(float(r[1])) > delta)
        out.append(("atoms>delta", bad == 0, f"{bad} atoms at or below delta"))
        expected = pp_expected_atoms(w) if w.kind == "pp" else reference["expected_atoms"]
        out.append(_count_gate("mean_atoms", _atoms_per_rep(rows, w.reps), expected))
    elif w.kind == "limit-kx":
        s = doc["summary"]
        out.append(("general_exact", s["general_exact"] is True, ""))
        out.append(("formulas_agree", s.get("formulas_agree") is True, ""))
        gen, sym = s["general_alpha_power"], s["level_symmetric_alpha_power"]
        rel = abs(gen - sym) / abs(gen)
        out.append(("alpha1_match", rel <= KX_REL_TOL, f"{gen!r} vs {sym!r}, rel {rel:.1e}"))
    return out
