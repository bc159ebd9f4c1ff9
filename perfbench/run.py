"""cheatlab benchmark: corridor-evolve, room-flight and pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload from the root of a checkout and prints, as its last
stdout line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
of a traced run with --trace 1. `--workload all` runs every workload,
each in its own process, and prints a table; with --trace 1 it runs each
workload untraced and traced and prints the tracing overhead.

BLAS is pinned to one thread before numpy loads. Machine facts (cores,
numpy and OpenBLAS versions, the BLAS thread count read back from the
library, load average, and a busy flag when the load at the start shows
another busy process) go to stderr.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUSY_LOAD = 1.5  # 1-min load above this at start: something else is running

END_TO_END = {  # name: (unit, lower is better)
    "setup_s": ("s", True),
    "peak_rss_mib": ("MiB", True),
    "evolve_genome_steps_per_s": ("genome-steps/s", False),
    "flight_steps_per_s": ("steps/s", False),
    "pipeline_s": ("s", True),
}


def blas_threads() -> int | None:
    """Thread count in effect, read back from numpy's OpenBLAS."""
    import ctypes

    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs")
                      .glob("libscipy_openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    load1 = os.getloadavg()[0]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "load1_at_start": load1,
        "busy": load1 > BUSY_LOAD,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    src = ROOT / "src"
    if not (src / "cheatlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cheatlab package under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import cheatlab

    if Path(cheatlab.__file__).resolve().parent != (src / "cheatlab").resolve():
        sys.exit(f"perfbench: imported cheatlab from {cheatlab.__file__}")
    import checks
    from cheatlab import cli
    from tracing import StageClock, Tracer
    from workloads import WORKLOADS

    facts = machine_facts()
    print(f"machine: {json.dumps(facts)}", file=sys.stderr)
    if facts["busy"]:
        print("machine: BUSY - another process was running at start",
              file=sys.stderr)
    tracer = Tracer() if trace else None
    clock = StageClock(cli)

    def scope(name):
        clock.scope = name
        if tracer:
            tracer.scope = name

    workdir = HERE / "_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[name](seed, workdir, clock)
        setup_walls = []
        for i in range(wl.setups):
            scope("setup")
            t0 = time.perf_counter()
            wl.setup(i)
            setup_walls.append(time.perf_counter() - t0)
            scope(None)
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            scope("timed")
            ops, lost = wl.round()
            scope(None)
            attempted += ops
            failed += lost
            if time.perf_counter() - start >= seconds:
                break
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            wl.check()
            correct = True
        except checks.CheckFailed as err:
            print(f"check failed: {err}", file=sys.stderr)
            correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = {"setup_s": statistics.median(setup_walls),
              "peak_rss_mib": peak_rss_mib, **wl.metrics()}
    e2e = {k: {"value": values[k], "unit": unit}
           for k, (unit, _) in END_TO_END.items()}
    rounds = len(wl.round_facts)
    print(f"# {name}: set-ups {[round(s, 3) for s in setup_walls]} s, "
          f"rounds {[round(r, 3) for r in wl.round_figures()]}", file=sys.stderr)
    if not tracer:
        metrics = e2e
    else:
        print(f"# end-to-end under tracing: {json.dumps(e2e)}")
        layer = tracer.report(wl.setups, rounds, clock.history)
        cost = tracer.wrapper_cost()
        calls = sum(n for (sc, _), n in tracer.calls.items() if sc == "timed") / rounds
        print(f"# tracing: {calls:.0f} traced calls per round at {1e6 * cost:.2f} us "
              f"each, about {calls * cost:.3f} s per round", file=sys.stderr)
        silent = sorted(k[:-6] for k, v in layer.items()
                        if k.endswith(".calls") and v == 0)
        if silent:
            sys.exit(f"perfbench: traced functions with no calls on {name}: {silent}")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.startswith("container.bytes"):
        return "B"
    return "ratio" if name.endswith("_ratio") else "s"


def run_child(name: str, args, trace: int) -> tuple[dict, dict | None]:
    """One workload in its own process; returns its result and, for a
    traced run, its end-to-end figures under tracing."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"perfbench: {name} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    under = None
    for line in lines:
        if line.startswith("# end-to-end under tracing: "):
            under = json.loads(line.split(": ", 1)[1])
    return json.loads(lines[-1]), under


def main(argv=None) -> int:
    names = ("corridor-evolve", "room-flight", "pipeline")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*names, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        print(json.dumps(result))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, _ = run_child(name, args, 0)
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<28} {m['value']:>14.6g} {m['unit']}")
        if args.trace:
            layers, under = run_child(name, args, 1)
            for metric, m in result["metrics"].items():
                ratio = under[metric]["value"] / m["value"]
                worse = ratio - 1.0 if END_TO_END[metric][1] else 1.0 / ratio - 1.0
                print(f"  traced run worse on {metric:<28} by {worse:+.1%}")
            for metric, m in layers["metrics"].items():
                print(f"  {metric:<48} {m['value']:>14.6g} {m['unit']}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
