"""Benchmark of cooprob: two workloads, end-to-end metrics, a traced run.

    python3 bench/run.py --workload tables2 --seed 1 --seconds 50 --trace 0
    python3 bench/run.py                       # every workload, one after another

Run from a checkout: the benchmark puts ``src/`` on the path itself, for its
own process and for the set-up probes it starts, so nothing needs to be
installed. Each workload runs in its own fresh interpreter as a
single-threaded closed loop for ``--seconds`` of wall time, in whole
rounds. The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones (see README.md). The exit code is 1 if any output fails its
reference check and 2 if the program cannot be found or imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("tables2", "solvers")
SETUP_PROBES = 4  # fresh interpreters that set up once more, for the setup median

# one thread per pool on this 2-core machine; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)
sys.path.insert(0, str(SRC))


def setup(name: str, seed: int):
    """Import cooprob and run the workload's warm-up calls; return
    (seconds spent on those two, the workload). Importing the benchmark's
    own modules in between is not counted."""
    t0 = time.perf_counter()
    import cooprob  # noqa: F401

    t1 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name](seed, str(OUT))
    t2 = time.perf_counter()
    wl.warm_up()
    return (t1 - t0) + (time.perf_counter() - t2), wl


def measure(wl, seconds: float | None = None, rounds: int | None = None) -> dict:
    """Run whole rounds until ``seconds`` of wall time have passed, or for
    ``rounds`` rounds. Only the calls themselves are timed; the span of wall
    time, which includes the untimed work between calls, sets how much of
    the host's slow and fast phases a run averages over."""
    from cooprob.errors import CooprobError
    from workloads import Failed

    perf = time.perf_counter
    latencies = array("d")
    timed, attempted, failed, done = 0.0, 0, 0, 0
    start = perf()
    while (perf() - start < seconds) if rounds is None else (done < rounds):
        ops = wl.next_round()
        round_s = 0.0
        for fn, arg in ops:
            t0 = perf()
            try:
                out = fn(arg)
            except CooprobError as exc:
                out = Failed(type(exc).__name__)
            t1 = perf()
            latencies.append(t1 - t0)
            round_s += t1 - t0
            if isinstance(out, Failed):
                failed += 1
            wl.digest((fn, arg), out)
        timed += round_s
        attempted += len(ops)
        done += 1
    return {"latencies": latencies, "timed": timed, "attempted": attempted, "failed": failed, "rounds": done}


def percentile(values, pct: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), pct))


def block_percentile(res: dict, block_rounds: int, pct: float) -> float:
    """The mean over blocks of ``block_rounds`` whole rounds of the ``pct``
    percentile of the operation times in each block.

    The host runs in slow and fast phases of seconds to tens of seconds. A
    percentile of the whole run moves out of proportion with the share of
    slow phases in it, jumping between the fast and the slow level; a block
    is short beside a phase, and the mean over blocks moves in proportion."""
    import numpy as np

    lat = np.asarray(res["latencies"])
    size = block_rounds * res["attempted"] // res["rounds"]  # every round has as many operations
    blocks = len(lat) // size
    if not blocks:
        return percentile(lat, pct)
    return float(np.percentile(lat[: blocks * size].reshape(blocks, size), pct, axis=1).mean())


def setup_probe(name: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name],
        capture_output=True, text=True, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_plain(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setup_s, wl = setup(name, seed)
    res = measure(wl, seconds=seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    errors = wl.final_errors()
    setups = [setup_s] + [setup_probe(name) for _ in range(SETUP_PROBES)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (res["attempted"] / res["timed"], "1/s"),
        "op_p50_ms": (block_percentile(res, wl.block_rounds, 50) * 1e3, "ms"),
        "op_tail_ms": (block_percentile(res, wl.block_rounds, wl.tail_pct) * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return res | {"errors": errors}, metrics


def run_traced(name: str, seed: int) -> tuple[dict, dict]:
    """The workload's fixed number of rounds untraced, then the same rounds
    (same seed, same inputs) traced. Per-layer numbers come from the traced
    pass; the difference between the passes is the tracing overhead."""
    import tracing

    _, plain = setup(name, seed)
    _, traced = setup(name, seed)
    base = measure(plain, rounds=plain.trace_rounds)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = measure(traced, rounds=traced.trace_rounds)
    finally:
        tracer.uninstall()
    errors = plain.final_errors() + traced.final_errors()
    values = tracer.metrics()
    values |= tracing.import_times(dict(os.environ))
    values["cli.output_bytes"] = getattr(traced, "output_bytes", 0)
    values["trace.overhead.wall_s"] = res["timed"] - base["timed"]
    values["trace.overhead.op_p50_ms"] = (percentile(res["latencies"], 50) - percentile(base["latencies"], 50)) * 1e3
    metrics = {key: (values[key], unit) for key, unit in tracing.METRICS.items()}
    return res | {"errors": errors}, metrics


def run_one(args) -> int:
    if not (SRC / "cooprob" / "__init__.py").is_file():
        print(f"error: no cooprob package under {SRC}", file=sys.stderr)
        return 2
    try:
        import cooprob  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import cooprob: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.trace:
        res, metrics = run_traced(args.workload, args.seed)
    else:
        res, metrics = run_plain(args.workload, args.seed, args.seconds)
    for err in res["errors"][:20]:
        print(f"MISMATCH {args.workload}: {err}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {key:48s} {value:14.6g} {unit}")
    result = {
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own interpreter; exit non-zero if any fails."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        code = code or proc.returncode
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(json.dumps(results))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        print(setup(args.workload, 0)[0])
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
