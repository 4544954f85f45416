"""One benchmark sample, run in a fresh interpreter by ``run.py``.

Usage: python3 perfbench/sample.py '<json spec>'

The spec names the program modules to import, the ExperimentConfig, the
output directory, whether to trace, and ``t_spawn``, the CLOCK_MONOTONIC
reading the parent took just before starting this interpreter.  The sample

1. imports the modules and validates the config (set-up, timed from t_spawn);
2. runs ``harness.run`` and writes the CSV, the JSON and the printed summary
   the way the CLI does (the timed run, with CPU time over the same span),
   timing the reference task of ``calibrate.py`` just before and just after;
3. writes its trace, when tracing, and any reference values its gates need;
4. prints one JSON line with its measurements, all in raw seconds.
"""

import contextlib
import importlib
import json
import os
import platform
import resource
import sys
import time


def _cpu_s() -> float:
    """CPU time of this process and of any children it has waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def main() -> int:
    spec = json.loads(sys.argv[1])
    for name in spec["modules"]:
        importlib.import_module(name)
    from stabletree import harness

    cfg = harness.ExperimentConfig(**spec["config"])
    harness.validate_config(cfg)
    setup_s = time.monotonic() - spec["t_spawn"]

    import calibrate  # after set-up, so that it cannot hide a lazier import of numpy

    host_s = calibrate.task_s()
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    csv_path = os.path.join(spec["out_dir"], "records.csv")
    json_path = os.path.join(spec["out_dir"], "result.json")
    emit_span = tracer.span("harness.emit") if tracer else contextlib.nullcontext()

    with open(os.devnull, "w", encoding="utf8") as console:
        t0, c0 = time.perf_counter(), _cpu_s()
        result = harness.run(cfg)
        with emit_span:
            result.write_csv(csv_path)
            result.write_json(json_path)
            print(json.dumps(result.summary, indent=2, sort_keys=True, default=str), file=console)
        run_s, cpu_s = time.perf_counter() - t0, _cpu_s() - c0
    peak_rss_mb = _peak_rss_mb()

    host_s = (host_s + calibrate.task_s()) / 2
    if tracer:
        tracer.uninstall()
        with open(os.path.join(spec["out_dir"], "trace.json"), "w", encoding="utf8") as fh:
            json.dump(tracer.dump(), fh)

    reference = {}
    if cfg.kind == "limit-sample":
        from stabletree.limit_process import expected_atom_count

        model = harness.build_model(cfg.model)
        reference["expected_atoms"] = expected_atom_count(model, float(cfg.params["delta"])).value

    import numpy
    import scipy
    import stabletree

    print(json.dumps({
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "host_s": host_s,
        "reference": reference,
        "program_file": stabletree.__file__,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "stabletree": stabletree.__version__,
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
