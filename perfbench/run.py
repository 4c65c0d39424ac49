"""Benchmark of minmaxlp: one workload per run, a closed loop with one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's programs from the seed, runs its operations
round-robin, one at a time, for S seconds (whole rounds), checks every
output against HiGHS answers computed in another process, and prints one
JSON object as the last line of stdout: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` every round runs each operation once
plain and once traced, and the metrics are the per-layer ones plus the
tracing overhead.  See perfbench/README.md.
"""

import os

# one BLAS/OpenMP thread, for this process and every process it starts;
# set before numpy is first imported
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
SRC = HERE.parent / "src"
OUT = HERE / "out"

# at most this many problem descriptions go to stderr
MAX_REPORTS = 10
CHILD_TIMEOUT_S = 150
SETUP_EVERY_S = 4.0


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def _import_program():
    """Import minmaxlp from this checkout's src, never from elsewhere."""
    if not (SRC / "minmaxlp" / "__init__.py").is_file():
        _die(f"no minmaxlp package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import minmaxlp

    if Path(minmaxlp.__file__).resolve().parent != SRC / "minmaxlp":
        _die(f"imported minmaxlp from {minmaxlp.__file__}, not from {SRC}")


def fresh_start(name: str, seed: int, cold: Path) -> float:
    """Wall time of a fresh interpreter that imports minmaxlp and runs the
    workload's first operation once."""
    cold.mkdir()
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "cold.py"), name, str(seed), str(cold)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        _die(f"fresh start failed:\n{proc.stderr.decode(errors='replace')}")
    return elapsed


def reference(workload, epigraphs: list, workdir: Path) -> dict:
    """HiGHS answers for every program and every min-max instance, from a
    separate process so scipy never loads here."""
    import numpy as np

    arrays = {}
    for k, program in enumerate(workload.programs):
        lp = program.lp
        arrays.update({f"A{k}": lp.A, f"b{k}": lp.b, f"c{k}": lp.c,
                       f"maximize{k}": np.array(lp.sense.value == "maximize")})
    for j, (G, h) in enumerate(epigraphs):
        arrays.update({f"G{j}": np.array(G, dtype=float), f"h{j}": np.array(h, dtype=float)})
    inputs, answers = workdir / "reference.npz", workdir / "reference.json"
    np.savez(inputs, **arrays)
    proc = subprocess.run(
        [sys.executable, str(HERE / "reference.py"), str(inputs), str(answers)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        _die(f"reference process failed:\n{proc.stderr.decode(errors='replace')}")
    with open(answers) as f:
        return json.load(f)


class Checker:
    """Counts failed operations and wrong answers, reporting the first few."""

    def __init__(self):
        self.failed = 0
        self.wrong = 0
        self._reported = 0

    def _report(self, op, message):
        if self._reported < MAX_REPORTS:
            print(f"perfbench: {op.label}: {message}", file=sys.stderr)
        self._reported += 1

    def differs(self, op):
        self.wrong += 1
        self._report(op, "output differs from the first round's")

    def raised(self, op, exc):
        self.failed += 1
        self._report(op, f"raised {type(exc).__name__}: {exc}")

    def check(self, op, output, ref, epi):
        import workloads

        try:
            op.check(output, ref, epi)
        except workloads.Failed as exc:
            self.failed += 1
            self._report(op, f"failed: {exc}")
        except (workloads.WrongAnswer, *workloads.MALFORMED) as exc:
            self.wrong += 1
            self._report(op, f"wrong answer: {exc}")


def _call(op, tracer, i: int, repeat: int):
    """One timed call of an operation: (seconds, output, exception)."""
    if op.output is not None and os.path.exists(op.output):
        os.remove(op.output)
    if tracer is not None:
        tracer.install(i, repeat)
    start = time.perf_counter()
    try:
        output, error = op.run(), None
    except Exception as exc:  # an operation that raises counts as failed
        output, error = None, exc
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    if op.output is not None and error is None:
        try:
            with open(op.output, "rb") as f:
                output = (output, f.read())
        except FileNotFoundError:
            output = (output, None)
    return elapsed, output, error


def _first_round_answers(wl, outputs, workdir):
    """HiGHS answers for the programs and for the min-max instances in the
    first round's outputs; returns (answers, {op index: (output, optimum)}).
    Later rounds must reproduce those outputs' bytes, which the CLI promises
    for a fixed seed, so HiGHS solves each instance once."""
    pairs = {}
    for i, output in outputs:
        op = wl.operations[i]
        pair = op.epigraph(output) if op.epigraph else None
        if pair is not None and i not in pairs:
            pairs[i] = (output, pair)
    answers = reference(wl, [pair for _, pair in pairs.values()], workdir)
    optima = answers["epigraph"]
    return answers, {i: (output, optima[j]) for j, (i, (output, _)) in enumerate(pairs.items())}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from spans import METRICS, REQUIRED, Tracer

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.build(name, seed, str(workdir))
        ops = wl.operations
        checker = Checker()
        tracer = Tracer() if trace else None
        n = len(ops)
        best = [float("inf")] * n  # fastest plain repeat of each operation
        best_traced = [float("inf")] * n
        best_repeat = [-1] * n  # the repeat that gave best_traced
        attempted, measured, repeat = 0, 0.0, 0
        # a fresh start before the first round and then before the first
        # round after every further SETUP_EVERY_S of measuring, so that
        # setup_s, their median, samples the host's fast and slow phases
        # across the whole run rather than the few seconds that back-to-back
        # starts would take
        setups = []
        while repeat == 0 or measured < seconds:
            if not trace and measured >= len(setups) * SETUP_EVERY_S:
                setups.append(fresh_start(name, seed, workdir / f"cold-{repeat}"))
            outputs = []
            round_start = time.perf_counter()
            for i, op in enumerate(ops):
                for traced in (False, True) if trace else (False,):
                    elapsed, output, error = _call(op, tracer if traced else None, i, repeat)
                    attempted += 1
                    if error is not None:
                        checker.raised(op, error)
                        continue
                    if not traced:
                        best[i] = min(best[i], elapsed)
                    elif elapsed < best_traced[i]:
                        best_traced[i], best_repeat[i] = elapsed, repeat
                    outputs.append((i, output))
            measured += time.perf_counter() - round_start
            if repeat == 0:
                answers, first = _first_round_answers(wl, outputs, workdir)
            for i, output in outputs:
                op = ops[i]
                output_and_optimum = first.get(i)
                if output_and_optimum is None:
                    checker.check(op, output, answers["programs"][op.program], None)
                elif output != output_and_optimum[0]:
                    checker.differs(op)
                else:
                    checker.check(op, output, answers["programs"][op.program],
                                  output_and_optimum[1])
            repeat += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": checker.wrong == 0, "attempted": attempted, "failed": checker.failed}
    done = [i for i in range(n) if best[i] < float("inf")]
    if not done:
        _die("no operation completed")
    if not trace:
        times = sorted(best[i] for i in done)
        # the highest percentile with at least ten operations beyond it
        tail = times[len(times) - 11] if len(times) > 10 else times[-1]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "op_tail_ms": (tail * 1e3, "ms"),
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        trace_path = OUT / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(trace_path)
        print(f"perfbench: spans written to {trace_path}", file=sys.stderr)
        for binding in tracer.missing:
            print(f"perfbench: {binding} no longer exists; not traced", file=sys.stderr)
        calls = tracer.calls()
        silent = sorted(span for span in REQUIRED[name] if calls[span] == 0)
        if silent:
            _die(f"no calls recorded on {name} for {', '.join(silent)}, "
                 "whose layers must run there; the trace is out of date")
        done = [i for i in done if best_repeat[i] >= 0]
        per_op = [tracer.layers(i, best_repeat[i]) for i in done]
        metrics = {key: (statistics.fmean(p[key] for p in per_op), unit)
                   for key, unit in METRICS.items()}
        overhead = sum(best_traced[i] for i in done) / sum(best[i] for i in done) - 1.0
        metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
