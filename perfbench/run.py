"""homophily-lab benchmark: one workload per process, timed end to end.

    python3 perfbench/run.py --workload mc_panels --seed 1 --seconds 36 --trace 0
    python3 perfbench/compare.py BASE_DIR NEW_DIR

Run from the root of a source checkout; the program is imported from its
``src/``. A run repeats the workload's pass (see workloads.py) for about
``--seconds``, at least three times; the first pass warms the process and
is checked but not timed. With ``--trace 0`` the last line of stdout is a JSON object
with every end-to-end metric of BENCHMARK.json; with ``--trace 1`` untraced
and traced passes alternate and it carries every per-layer metric instead.
End-to-end times are seconds at the reference speed of speed.py. A full
record (quartiles, raw times, counts, versions, failures) is written to
``--record``, and spans of traced passes beside it. See README.md.
"""

from __future__ import annotations

import os

# one thread, and no seed from the environment: every seed is passed explicitly
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HOMOPHILY_LAB_SEED", None)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from speed import SpeedGauge  # noqa: E402
from workloads import WORKLOADS, Calls  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
_SETUP_CODE = (
    "import homophily_lab.cli as cli; cli.build_parser(); "
    "print(cli.__file__, flush=True)"
)


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """The package modules, imported from this checkout's src/ only."""
    package_dir = SRC / "homophily_lab"
    if not (package_dir / "__init__.py").is_file():
        raise ProgramMissing(f"no homophily_lab package under {SRC}")
    sys.path.insert(0, str(SRC))
    names = ("cli", "graphgen", "model", "montecarlo", "sweep")
    # importlib, not attribute access: the package's function `sweep`
    # shadows its module of the same name
    lab = SimpleNamespace(**{n: importlib.import_module(f"homophily_lab.{n}") for n in names})
    if Path(lab.cli.__file__).resolve().parent != package_dir.resolve():
        raise ProgramMissing(f"homophily_lab imported from {lab.cli.__file__}, not {SRC}")
    return lab


def measure_setup(gauge: SpeedGauge) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until it has imported
    homophily_lab.cli and built its parser, once per sample: raw, and at
    the gauge's reference speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _SETUP_CODE], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=SETUP_TIMEOUT_S)
        if code != 0 or not line.strip():
            raise ProgramMissing(f"set-up child exited with {code}")
        raw.append(elapsed)
        scaled.append(gauge.scale(elapsed))
    return raw, scaled


def summary(values) -> dict:
    values = [float(v) for v in values]
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "samples": len(values), "values": values}


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
        "machine": platform.machine(),
    }


def run_passes(workload, lab, gauge: SpeedGauge, seconds: float, trace: bool, tmp_root: Path):
    """Closed loop of passes. The first pass warms the process (heap growth,
    first calls) and is not timed; its outputs are checked, and every later
    pass must reproduce them exactly (same seed, same work). A pass's wall
    time is the sum of its calls' times at the reference speed. Passes run
    until ``seconds`` of raw call time, the first pass included, is spent."""
    tracer = spans.Tracer() if trace else None
    binding_list = spans.bindings(lab) if trace else None
    plain_walls, traced_walls, raw_walls, layer_samples, timings = [], [], [], [], []
    attempted = 0
    failures: list[dict] = []
    first = counts = None
    min_passes = 5 if trace else 3
    index = 0
    spent = []
    while True:
        traced = trace and index > 0 and index % 2 == 0
        calls = Calls(lab.cli, gauge)
        with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
            if traced:
                tracer.run_id = index
                tracer.install(binding_list)
            try:
                raw = workload.run(calls, Path(tmp))
            finally:
                if traced:
                    tracer.restore()
            outputs = workload.collect(raw, calls)
            fingerprint = workload.fingerprint(outputs)
            if first is None:
                first = fingerprint
                stats = checks.StatChecks()
                try:
                    counts = workload.work(outputs)
                    workload.verify(outputs, calls, stats)
                except (KeyError, ValueError, TypeError) as err:
                    # outputs too malformed to check: every operation failed
                    counts = (0, 0.0)
                    for op in calls.ops:
                        calls.fail(op, f"outputs cannot be checked: {err!r}")
                for op, message in stats.evaluate():
                    calls.fail(op, message)
            else:
                for op, value in fingerprint.items():
                    if value != first.get(op):
                        calls.fail(op, "output differs from the first pass with the same seed")
        del raw, outputs
        attempted += len(calls.ops)
        failures += [{"pass": index, "op": op, "reason": why} for op, why in calls.failed.items()]
        if traced:
            traced_walls.append(calls.scaled_s)
            layer_samples.append(spans.layer_metrics(tracer.spans, index, calls.raw_s))
        elif index > 0:
            plain_walls.append(calls.scaled_s)
            raw_walls.append(calls.raw_s)
        timings += [(index, *timing) for timing in calls.timings]
        index += 1
        spent.append(calls.raw_s)
        if index >= min_passes and sum(spent) + statistics.median(spent) > seconds:
            break
    return SimpleNamespace(plain_walls=plain_walls, traced_walls=traced_walls, raw_walls=raw_walls,
                           timings=timings,
                           layer_samples=layer_samples, attempted=attempted,
                           failures=failures, counts=counts, tracer=tracer)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=ROOT / "perfbench" / "out",
                        help="directory for the run record and spans")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be in [0, 2^64)")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        lab = load_program()
        gauge = SpeedGauge()
        setup_raw, setup = measure_setup(gauge)
    except (ProgramMissing, ImportError, OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: cannot load the program: {err}", file=sys.stderr)
        return 2

    args.record.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](lab, args.seed)
    res = run_passes(workload, lab, gauge, args.seconds, bool(args.trace), args.record)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    replicates, edges = res.counts
    failed = len(res.failures)  # at most one per operation and pass

    samples = {
        "wall_s": res.plain_walls,
        "setup_s": setup,
        "peak_rss_mb": [peak_rss_mb],
        "success_ratio": [1.0 - failed / res.attempted],
        "replicates_per_s": [replicates / w for w in res.plain_walls],
        "edges_per_s": [edges / w for w in res.plain_walls],
    }
    if args.trace:
        for key in res.layer_samples[0]:
            samples[key] = [layer[key] for layer in res.layer_samples]
        overhead = statistics.median(res.traced_walls) / statistics.median(res.plain_walls) - 1.0
        samples["trace.overhead_ratio"] = [overhead]
    summaries = {name: summary(values) for name, values in samples.items()}
    raw = {"wall_s": summary(res.raw_walls), "setup_s": summary(setup_raw),
           "reference_kernel_s": summary([seconds for _, seconds in gauge.samples]),
           "calls": res.timings, "kernels": gauge.samples}

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": summaries[m["name"]]["median"], "unit": m["unit"]}
               for m in wanted}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "timed_passes": len(res.plain_walls) + len(res.traced_walls),
        "per_pass": {"replicates": replicates, "edges": edges},
        "environment": environment(args.seed),
        "correct": failed == 0,
        "attempted": res.attempted,
        "failed": failed,
        "failures": res.failures,
        "metrics": summaries,
        "raw": raw,
    }
    (args.record / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if res.tracer is not None:
        res.tracer.write(args.record / f"{stem}-spans.jsonl")
    for f in res.failures:
        print(f"perfbench: pass {f['pass']} {f['op']}: {f['reason']}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": res.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
