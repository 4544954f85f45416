"""Benchmark of the stabletree experiments, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pp-mma --seed 1 --seconds 20 --trace 0

Each sample runs one experiment in a fresh interpreter (``sample.py``), the
way each CLI call does: it pays for the imports, the ``ball_layout`` cache and
the plan builds every time.  Samples run one after another (a closed loop with
one client and ``workers=1``) until ``--seconds`` have passed, all with the
same config, so they must all write the same records.

With ``--trace 0`` the result holds the end-to-end metrics, medians over the
samples: ``setup_s`` (interpreter start until the modules the workload
reaches are imported and the config is validated), ``run_s`` (wall time of
``harness.run`` plus writing the CSV, the JSON and the printed summary),
``cpu_s`` (process CPU time over the same span, children included) and
``peak_rss_mb`` (the sample's maximum resident set).  The three times are
host-scaled: each sample's raw seconds times ``calibrate.REFERENCE_S`` over
the time the sample took for the fixed reference task of ``calibrate.py``,
which it runs just before and just after its timed region, so that drift in
the speed of a shared host cancels.  The raw medians are printed beside
them.  With ``--trace 1`` untraced and traced samples alternate, and the
result holds the per-layer metrics of ``tracer.layer_metrics`` (medians over
traced samples, in raw seconds), the median reference-task time
``host.task_s``, the error rate, and ``trace.overhead_s``, traced minus
untraced median host-scaled ``run_s``.

Every sample's outputs pass the workload's gates (``workloads.gates``) and
the sha256 digest of its CSV records; a sample that raises, fails a gate or
writes other records than the first sample counts as failed, and the
benchmark then exits 1.  Without the program under ``src/`` it exits 2.
The last line of standard output is the JSON result; lines before it give
the provenance, the records digest, the gate verdicts and each metric's
median, sample count and tail percentile.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

import calibrate
import tracer
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
SAMPLE_TIMEOUT_S = 120
END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
HOST_SCALED = ("setup_s", "run_s", "cpu_s")
LAYER_UNITS = {
    "_s": "s", ".s": "s", "_ms_p50": "ms", "_ms_p90": "ms",
    "_ratio": "ratio", "_share": "ratio", "_per_path": "ratio", "error_rate": "ratio",
}


class SampleFailed(Exception):
    pass


def program_present() -> bool:
    return (ROOT / "src" / "stabletree" / "harness.py").is_file()


def run_sample(w: wl.Workload, config: dict, traced: bool) -> dict:
    """Run one sample in a fresh interpreter and check its outputs."""
    out_dir = OUT_ROOT / uuid.uuid4().hex
    out_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        spec = {"modules": w.modules, "config": config, "out_dir": str(out_dir), "trace": traced}
        spec["t_spawn"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "sample.py"), json.dumps(spec)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise SampleFailed(f"sample exceeded {SAMPLE_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise SampleFailed(f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(out["program_file"]).resolve().is_relative_to(ROOT / "src"):
            raise SampleFailed(f"imported the program from {out['program_file']}")
        csv_path = out_dir / "records.csv"
        csv_bytes = csv_path.read_bytes()
        rows = wl.read_records(csv_path)
        doc = json.loads((out_dir / "result.json").read_text(encoding="utf8"))
        out["digest"] = hashlib.sha256(csv_bytes).hexdigest()
        out["gates"] = wl.gates(w, rows, doc, out["reference"])
        out["traced"] = traced
        if traced:
            trace = json.loads((out_dir / "trace.json").read_text(encoding="utf8"))
            out["layers"] = tracer.layer_metrics(trace, out["run_s"], len(csv_bytes))
            out["untraced_targets"] = trace["missing"]
        return out
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def run_workload(w: wl.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Sample ``w`` until ``seconds`` have passed; alternate traced samples if ``trace``."""
    config = wl.experiment_config(w, seed)
    kinds = (False, True) if trace else (False,)
    samples, errors = [], []
    start = time.monotonic()
    try:
        while True:
            attempted = len(samples) + len(errors)
            elapsed = time.monotonic() - start
            # stop before a sample that would end past the deadline, once each kind ran
            if attempted >= len(kinds) and elapsed * (attempted + 1) / attempted > seconds:
                break
            traced = kinds[attempted % len(kinds)]
            try:
                samples.append(run_sample(w, config, traced))
            except SampleFailed as exc:
                errors.append(str(exc))
    finally:
        shutil.rmtree(OUT_ROOT, ignore_errors=True)
    digest = samples[0]["digest"] if samples else None
    failed = len(errors)
    for s in samples:
        s["ok"] = s["digest"] == digest and all(ok for _, ok, _ in s["gates"])
        failed += not s["ok"]
    return {"workload": w, "seed": seed, "samples": samples, "errors": errors,
            "attempted": len(samples) + len(errors), "failed": failed, "digest": digest}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def tail_percentile(values: list):
    """(p, value) for the highest of p50/p75/p90/p95/p99 with >= 10 samples beyond it."""
    best = None
    for p in (50, 75, 90, 95, 99):
        if len(values) * (100 - p) / 100 >= 10:
            best = (p, statistics.quantiles(values, n=100, method="inclusive")[p - 1])
    return best


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf8").strip()
    except OSError:
        return ""


def git_revision() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        ref = head[5:]
        rev = _read(ROOT / ".git" / ref)
        if not rev:
            packed = _read(ROOT / ".git" / "packed-refs").splitlines()
            rev = next((ln.split()[0] for ln in packed if ln.endswith(" " + ref)), "")
        return rev or "unknown"
    return head or "unavailable (not a git checkout)"


def cpu_info() -> dict:
    model = next(
        (ln.split(":", 1)[1].strip() for ln in _read(Path("/proc/cpuinfo")).splitlines()
         if ln.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size")
    return {"nproc": os.cpu_count(), "cpu_model": model, **caches}


def provenance(res: dict, seconds: float) -> dict:
    versions = res["samples"][0]["versions"] if res["samples"] else {}
    w = res["workload"]
    return {
        **versions, "git_revision": git_revision(), **cpu_info(),
        "workload": w.name, "seed": res["seed"], "seconds": seconds, "size": wl.size_block(w),
    }


def metric_values(samples: list, name: str) -> list:
    """``name`` of each sample, host-scaled if it is a time."""
    if name in HOST_SCALED:
        return [s[name] * calibrate.REFERENCE_S / s["host_s"] for s in samples]
    return [s[name] for s in samples]


def median_metric(samples: list, name: str) -> float:
    return statistics.median(metric_values(samples, name))


def summarize(res: dict, trace: bool) -> dict:
    """The result object: gates and digest folded into correct/failed, plus medians."""
    plain = [s for s in res["samples"] if not s["traced"]]
    traced = [s for s in res["samples"] if s["traced"]]
    metrics = {}
    if trace:
        for name in traced[0]["layers"] if traced else ():
            value = statistics.median(s["layers"][name] for s in traced)
            metrics[name] = {"value": value, "unit": layer_unit(name)}
        if plain and traced:
            overhead = median_metric(traced, "run_s") - median_metric(plain, "run_s")
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        if res["samples"]:
            host_s = statistics.median(s["host_s"] for s in res["samples"])
            metrics["host.task_s"] = {"value": host_s, "unit": "s"}
        metrics["error_rate"] = {"value": res["failed"] / res["attempted"], "unit": "ratio"}
    elif plain:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": median_metric(plain, name), "unit": unit}
    return {
        "correct": res["failed"] == 0 and bool(metrics),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def report_lines(res: dict, seconds: float) -> list:
    w, samples = res["workload"], res["samples"]
    lines = [
        "provenance " + json.dumps(provenance(res, seconds), sort_keys=True),
        f"workload {w.name} seed {res['seed']}: {res['attempted']} samples "
        f"({sum(s['traced'] for s in samples)} traced), {res['failed']} failed",
        f"records digest sha256:{res['digest']} "
        f"({sum(s['digest'] == res['digest'] for s in samples)}/{len(samples)} samples agree)",
    ]
    for err in res["errors"]:
        lines.append("error " + err.replace("\n", " | "))
    missing = sorted({m for s in samples for m in s.get("untraced_targets", ())})
    if missing:
        lines.append("trace targets not found in the program: " + ", ".join(missing))
    if samples:
        for name, ok, detail in samples[0]["gates"]:
            lines.append(f"gate {name}: {'pass' if ok else 'FAIL'} {detail}".rstrip())
    plain = [s for s in samples if not s["traced"]]
    for name, unit in END_TO_END.items():
        values = metric_values(plain, name)
        if values:
            tail = tail_percentile(values)
            tail_text = f"p{tail[0]} {tail[1]:.4f}" if tail else "none (< 20 samples)"
            raw_text = ""
            if name in HOST_SCALED:
                raw_text = f", raw median {statistics.median(s[name] for s in plain):.4f} {unit}"
            lines.append(f"metric {name}: median {statistics.median(values):.4f} {unit}, "
                         f"n={len(values)}, tail {tail_text}{raw_text}")
    if plain:
        host_s = statistics.median(s["host_s"] for s in plain)
        lines.append(f"host reference task: median {host_s:.4f} s, reference {calibrate.REFERENCE_S} s")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.FULL))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind like Ctrl-C, so that the running sample is killed and awaited.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not program_present():
        print(f"stabletree sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    res = run_workload(wl.FULL[args.workload], args.seed, args.seconds, bool(args.trace))
    result = summarize(res, bool(args.trace))
    for line in report_lines(res, args.seconds):
        print(line)
    if not result["metrics"]:
        print("no sample completed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
