"""Benchmark of the forms4d CLI, driven in-process.

    python3 perfbench/run.py --workload smith --seed 1 --seconds 30 --trace 0

One client calls `forms4d.cli.main(argv)` in a closed loop, one operation at
a time, with stdout captured. The library is imported from this checkout's
`src/`, so the benchmark measures the code next to it. Inputs come from the
seed (see workloads.py); every output is checked by an oracle outside the
timed region.

--trace 0 measures the end-to-end metrics over whole blocks, about
--seconds of operation time, with the set-up probes spread over the run.
Times are scaled to a reference machine speed (see calibrate.py).
--trace 1 runs a fixed, seed-determined list of blocks, each once untraced
and once with the per-layer wrappers of tracing.py, and reports per-layer
metrics and the tracing overhead.
`--workload all` runs every workload in turn, each in its own process.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. `failed` counts failures only; outcomes that are a workload's
known defect are counted and printed apart. Details (commit, Python, CPU
count, unscaled metrics, outcomes by cause) go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from calibrate import Speedometer, kernel_median, REFERENCE_S  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import INPUT, WORKLOADS, OracleError  # noqa: E402

SETUP_GROUPS = 3  # groups of set-up probes, spread evenly over the operation time
SETUP_PER_GROUP = 5  # fresh interpreters timed for setup_s in each group
MIN_OPS = 110  # enough that at least ten samples lie beyond p90
WALL_LIMIT_S = 120.0  # no new block starts after this much wall time in the loop
# Traced runs and warm-ups abandon an operation only when it is far past any
# normal one, so that deadline outcomes, and with them the counts, repeat.
TRACE_DEADLINE_S = 10.0
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {trace: {m["name"]: m["unit"] for m in SPEC[key]}
         for trace, key in ((0, "end_to_end"), (1, "per_layer"))}


def load_cli():
    """Import forms4d from this checkout's src/ and return the package."""
    sys.path.insert(0, str(SRC))
    import forms4d
    import forms4d.cli

    if Path(forms4d.__file__).resolve().parent != SRC / "forms4d":
        raise SystemExit(f"error: imported forms4d from {forms4d.__file__}, not {SRC}")
    return forms4d


def commit() -> str:
    """HEAD of the git repository whose top level is this checkout, else "unknown"."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    top, head = proc.stdout.split()
    return head if Path(top).resolve() == ROOT else "unknown"


def environment() -> dict:
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


# --- one operation ---------------------------------------------------------------------

class Deadline(BaseException):
    """Raised by the interval timer when an operation overruns its deadline.

    A BaseException, so that no `except Exception` in the library swallows it.
    """


def _expire(signum, frame):
    raise Deadline


DIGIT_LIMIT = "integer string conversion"  # in the ValueError of Python's int->str limit


def execute(main, op, workdir: Path, deadline: float) -> tuple[int | None, str, float, str | None]:
    """Run one CLI call; returns (exit code, stdout, seconds, escaped exception).

    The escaped exception is its class name, with "(digit limit)" appended
    for the int->str limit. A call still running after `deadline` seconds is
    abandoned and reported as escaped "Deadline".
    """
    argv = op.argv
    if op.doc is not None:
        path = workdir / "input.json"
        path.write_text(json.dumps(op.doc), encoding="utf-8")
        argv = [str(path) if a == INPUT else a for a in argv]
    buf = io.StringIO()
    code, escaped = None, None
    start = time.perf_counter()
    try:
        # the timer runs only inside the redirect, so it never fires while
        # redirect_stdout is restoring sys.stdout
        with contextlib.redirect_stdout(buf):
            try:
                signal.setitimer(signal.ITIMER_REAL, deadline)
                code = main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        escaped = "Deadline"
    except Exception as exc:  # escaped cli.main: a failed operation, not a benchmark error
        escaped = type(exc).__name__
        if isinstance(exc, ValueError) and DIGIT_LIMIT in str(exc):
            escaped += " (digit limit)"
    return code, buf.getvalue(), time.perf_counter() - start, escaped


def judge(op, code, out: str, escaped: str | None) -> str | None:
    """Failure cause, or None when the operation passed its oracle."""
    if escaped == "Deadline":
        return "over the deadline"
    if escaped is not None:
        return f"uncaught {escaped}"
    try:
        op.check(code, out)
    except (OracleError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"oracle: {exc}"
    return None


class Tally:
    """Latency samples and outcomes of a sequence of operations.

    An operation is ok, ends in the workload's known defect (a documented
    failure of the program that the workload keeps visible, see
    workloads.py), or failed: any other escaped exception, unexpected exit
    code, oracle rejection or deadline hit.
    """

    def __init__(self, known_defect: frozenset[str]) -> None:
        self.known_defect = known_defect
        self.samples: list[float] = []
        self.ok = 0
        self.defect = 0
        self.by_kind: Counter[str] = Counter()
        self.time_by_kind: Counter[str] = Counter()
        self.outcomes: Counter[str] = Counter()  # "kind: cause" of every operation not ok
        self.repeated = 0

    def add(self, op, elapsed: float, cause: str | None) -> None:
        self.samples.append(elapsed)
        self.by_kind[op.kind] += 1
        self.time_by_kind[op.kind] += elapsed
        self.repeated += op.repeated
        if cause is None:
            self.ok += 1
            return
        outcome = f"{op.kind}: {cause}"
        self.outcomes[outcome] += 1
        self.defect += outcome in self.known_defect

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return self.attempted - self.ok - self.defect

    @property
    def failures(self) -> list[str]:
        return sorted(set(self.outcomes) - self.known_defect)

    @property
    def ops_per_s(self) -> float:
        return self.ok / sum(self.samples)

    def details(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "known_defect": self.defect,
            "known_defect_fraction": self.defect / self.attempted,
            "repeated_input_share": self.repeated / self.attempted,
            "outcomes": dict(self.outcomes.most_common()),
            "ops_by_kind": dict(self.by_kind),
            "seconds_by_kind": dict(self.time_by_kind),
        }


def run_ops(main, ops, workdir: Path, tally: Tally, deadline: float | None = None,
            tracer: Tracer | None = None, speed: Speedometer | None = None) -> None:
    """`deadline` overrides each operation's own."""
    for op in ops:
        if tracer is not None:
            tracer.begin_op(tally.attempted)
        code, out, elapsed, escaped = execute(main, op, workdir, deadline or op.deadline_s)
        if speed is not None:
            speed.after_op(elapsed)
        if tracer is not None:
            tracer.end_op()
            counts = tracer.counts
            counts["cli.output_bytes"] += len(out.encode())
            counts["cli.exit_1"] += code == 1
            counts["cli.exit_2"] += code == 2
            counts["cli.uncaught"] += escaped not in (None, "Deadline")
            counts["run.deadline_exceeded"] += escaped == "Deadline"
        tally.add(op, elapsed, judge(op, code, out, escaped))


# --- set-up -------------------------------------------------------------------------------

def warm_up(main, ops, workdir: Path) -> list:
    return [(op, *execute(main, op, workdir, TRACE_DEADLINE_S)) for op in ops]


def check_warm_up(results: list) -> None:
    for op, code, out, _, escaped in results:
        cause = judge(op, code, out, escaped)
        if cause is not None:
            raise SystemExit(f"error: warm-up {op.kind} failed: {cause}")


def setup_probe(workload, workdir: Path) -> None:
    """Child process: time importing forms4d plus the warm-up operations."""
    ops = workload.warmup()  # input generation stays outside the timed span
    signal.signal(signal.SIGALRM, _expire)
    start = time.perf_counter()
    package = load_cli()
    results = warm_up(package.cli.main, ops, workdir)
    elapsed = time.perf_counter() - start
    check_warm_up(results)
    print(elapsed, kernel_median(7))


def measure_setup(workload, workdir: Path, samples: int) -> list[tuple[float, float]]:
    """(seconds, median kernel seconds) of `samples` set-up probes."""
    out = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload.name, "--workdir", str(workdir)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        elapsed, kernel = proc.stdout.split()[-2:]
        out.append((float(elapsed), float(kernel)))
    return out


# --- the two kinds of run ---------------------------------------------------------------------

def timed_run(main, workload, seed: int, seconds: float, workdir: Path) -> tuple[Tally, dict]:
    """Whole blocks until the operation time is nearest `seconds`, with at least
    MIN_OPS operations. SETUP_GROUPS groups of set-up probes are spread evenly
    over the operation time. Every time is scaled to the reference speed of the
    calibration kernel timed next to it; the raw values go to the details."""
    tally = Tally(workload.known_defect)
    speed = Speedometer()
    setup: list[tuple[float, float]] = []
    loop_start = time.perf_counter()
    blocks = 0
    while True:
        op_time = sum(tally.samples)
        if len(setup) < SETUP_GROUPS * SETUP_PER_GROUP \
                and op_time >= len(setup) // SETUP_PER_GROUP * seconds / SETUP_GROUPS:
            setup += measure_setup(workload, workdir, SETUP_PER_GROUP)
        block_first = tally.attempted
        run_ops(main, workload.block(seed, blocks), workdir, tally, speed=speed)
        blocks += 1
        half_block = sum(tally.samples[block_first:]) / 2
        done = sum(tally.samples) + half_block >= seconds and tally.attempted >= MIN_OPS
        if done and len(setup) == SETUP_GROUPS * SETUP_PER_GROUP:
            break
        if time.perf_counter() - loop_start > WALL_LIMIT_S:
            print(f"note: stopped after {blocks} blocks at the wall-time limit")
            break

    def latency(samples: list[float], ok: int) -> dict:
        return {
            "ops_per_s": ok / sum(samples),
            "latency_p50_ms": statistics.median(samples) * 1000,
            "latency_p90_ms": statistics.quantiles(samples, n=10, method="inclusive")[8] * 1000,
        }

    factors = speed.factors()
    scaled = [t * f for t, f in zip(tally.samples, factors)]
    setup_scaled = [t * REFERENCE_S / k for t, k in setup]
    metrics = latency(scaled, tally.ok)
    metrics["setup_s"] = statistics.median(setup_scaled)
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = latency(tally.samples, tally.ok) | {"setup_s": statistics.median(t for t, _ in setup)}
    extra = {"blocks": blocks, "measured_s": sum(tally.samples), "raw_metrics": raw,
             "speed_factor_median": statistics.median(factors),
             "kernel_samples": len(speed.kernel), "setup_samples": setup}
    return tally, metrics | {"_extra": extra}


def traced_run(package, workload, seed: int, seconds: float, workdir: Path,
               spans_path: Path) -> tuple[Tally, dict]:
    # A fixed block count, so the deterministic counts repeat for a seed. Each
    # block runs untraced and traced, in alternating order, so the overhead
    # estimate carries no order bias.
    blocks = max(1, round(seconds / (2 * workload.block_seconds)))
    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", package.cli.main)
    plain, traced = Tally(workload.known_defect), Tally(workload.known_defect)
    for b in range(blocks):
        ops = workload.block(seed, b)
        for tracing in (False, True) if b % 2 == 0 else (True, False):
            if not tracing:
                run_ops(package.cli.main, ops, workdir, plain, TRACE_DEADLINE_S)
                continue
            tracer.install(package)
            try:
                run_ops(traced_main, ops, workdir, traced, TRACE_DEADLINE_S, tracer)
            finally:
                tracer.uninstall()
    tracer.write_spans(spans_path)

    layers = tracer.layer_metrics()
    layers["run.known_defect_fraction"] = traced.defect / traced.attempted
    layers["run.ops_per_s_untraced"] = plain.ops_per_s
    layers["run.ops_per_s_traced"] = traced.ops_per_s
    layers["run.tracing_overhead"] = 1 - traced.ops_per_s / plain.ops_per_s
    metrics = {name: layers.get(name, 0) for name in UNITS[1]}
    return traced, metrics | {"_extra": {"blocks": blocks, "all_layers": layers,
                                         "spans": len(tracer.span_name),
                                         "untraced_failures": plain.failures}}


# --- entry points ---------------------------------------------------------------------------

def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    env = environment()
    print(f"forms4d benchmark  workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}  commit={env['commit'][:12]} "
          f"python={env['python']} nproc={env['nproc']}")
    workdir = HERE / "_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    results = HERE / "results"
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _expire)
    try:
        package = load_cli()
        check_warm_up(warm_up(package.cli.main, workload.warmup(), workdir))
        results.mkdir(exist_ok=True)
        if args.trace:
            tally, metrics = traced_run(package, workload, args.seed, args.seconds, workdir,
                                        results / f"{stem}-spans.json")
        else:
            tally, metrics = timed_run(package.cli.main, workload, args.seed, args.seconds,
                                       workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    extra = metrics.pop("_extra")
    units = UNITS[args.trace]
    details = tally.details()
    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, **details, **extra, "metrics": metrics,
    }
    (results / f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True))

    for name in units:
        print(f"  {name:<58} {metrics[name]:>14.6g} {units[name]}")
    if "raw_metrics" in extra:
        raw = ", ".join(f"{k} {v:.6g}" for k, v in extra["raw_metrics"].items())
        print(f"  unscaled: {raw} (speed factor {extra['speed_factor_median']:.3f})")
    print(f"  {'known_defect_fraction':<58} {details['known_defect_fraction']:>14.6g} ratio "
          f"({tally.defect} of {tally.attempted})")
    print(f"  {'failed':<58} {tally.failed:>14d} of {tally.attempted}")
    for cause, count in tally.outcomes.most_common():
        label = "known defect" if cause in workload.known_defect else "FAILED"
        print(f"    {count:>6}  {label}: {cause}")
    unexpected = sorted(set(tally.failures) | set(extra.get("untraced_failures", ())))
    for cause in unexpected:
        print(f"  unexpected failure: {cause}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            timeout=600, check=False,
        )
        status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "forms4d" / "cli.py").is_file():
        print(f"error: {SRC / 'forms4d'} not found; run from a forms4d checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(WORKLOADS[args.workload], args.workdir)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
