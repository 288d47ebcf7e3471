"""Run one workload of the layer-waterfall benchmark and print its metrics.

    python3 layerbench/run.py --workload collect-inline --seed 1 --seconds 20 --trace 0

Run it from the repository root (or any checkout of it): the program is
imported from the checkout's own ``src/``.  With ``--trace 0`` every
operation is timed untraced and the end-to-end metrics are printed; with
``--trace 1`` every operation runs untraced and then traced with the same
seed, and the per-layer metrics are printed.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; everything else goes to standard error.  An
operation, or a check of its output, that raises counts as failed; the run
still prints its result and exits 0.  A run must end within 180 s: operations
not started by :data:`DEADLINE_S` count as attempted and failed.  The run
exits 2, printing no result, when the program cannot be imported from
``src/``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Chrome traces of ``--trace 1`` runs and each run's temporary directory
#: (git-ignored).
OUT_DIR = ROOT / "layerbench" / "out"
#: A run must end within 180 s of its start.  No operation starts later than
#: this; those left over count as attempted and failed, so the result line
#: shows a run that was cut short.
DEADLINE_S = 140.0
#: How long to wait for threads an operation left behind.
THREAD_JOIN_S = 10.0
WORKLOAD_NAMES = (
    "collect-inline", "collect-gateway", "classify-privshape", "classify-patternldp",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    import repro

    location = Path(repro.__file__).resolve()
    if source.resolve() not in location.parents:
        raise ImportError(f"repro was imported from {location}, not from {source}")
    return repro


def peak_rss_mb() -> float:
    """Peak resident memory of this process in MiB; 0.0 if the host will not say."""
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is in bytes on macOS and in KiB elsewhere.
        return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0
    except Exception:  # a host probe must never end the run
        pass
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) / 1024.0
    except Exception:  # same: the probe must not raise
        pass
    return 0.0


def fast_quartile(population: int, seconds: list[float]) -> float:
    """The 75th percentile of the operations' users/s (0.0 if none succeeded).

    Other tenants of a shared machine slow operations in bursts that last
    from seconds to about a minute, and never speed them up.  The median of
    one run moves with those bursts; the fast quartile stays with the
    program's own cost (see README.md).
    """
    rates = sorted(population / s for s in seconds if s > 0)
    if len(rates) < 2:
        return rates[0] if rates else 0.0
    return statistics.quantiles(rates, n=4)[2]


def join_new_threads(baseline: set) -> list[str]:
    """Wait for threads started since ``baseline``; names of those still alive."""
    deadline = time.monotonic() + THREAD_JOIN_S
    for thread in threading.enumerate():
        if thread not in baseline:
            thread.join(max(0.0, deadline - time.monotonic()))
    return [t.name for t in threading.enumerate() if t not in baseline and t.is_alive()]


def report(label: str) -> None:
    print(f"layerbench: {label}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Run:
    """One benchmark run: set-up, the operations, and the result line."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.seconds: list[float] = []
        self.layers: list[dict[str, float]] = []
        self.spans: list = []
        self.setup: dict[str, float] = {}

    def execute(self, workload, seeds: list[int]) -> None:
        from layerbench.checks import CheckFailed
        from layerbench.layers import TARGETS, operation_metrics
        from layerbench.tracer import Tracer, recording

        baseline = set(threading.enumerate())
        traced = bool(self.args.trace)
        missing_reported = False
        for index, seed in enumerate(seeds):
            if index and time.perf_counter() - STARTED > DEADLINE_S:
                skipped = len(seeds) - index
                self.attempted += skipped
                self.failed += skipped
                print(f"layerbench: deadline reached, {skipped} operations not run "
                      "(counted failed)", file=sys.stderr)
                break
            if "setup_s" not in self.setup:
                self.setup["setup_s"] = time.perf_counter() - STARTED
            self.attempted += 1
            try:
                workload.reset()
                with recording(workload.recorded, workload.observe):
                    started = time.perf_counter()
                    result = workload.run(seed)
                    seconds = time.perf_counter() - started
                workload.check(seed, result, first=index == 0)
                if traced:
                    tracer = Tracer()
                    with tracer.installed(TARGETS):
                        started = time.perf_counter()
                        again = workload.run(seed)
                        ended = time.perf_counter()
                    if tracer.missing and not missing_reported:
                        missing_reported = True
                        print("layerbench: not traced, no longer in the program: "
                              + ", ".join(tracer.missing), file=sys.stderr)
                    if (
                        again.fingerprint() != result.fingerprint()
                        or again.metrics.get("accuracy") != result.metrics.get("accuracy")
                    ):
                        raise CheckFailed("the traced operation's result differs")
                    self.layers.append(
                        operation_metrics(
                            tracer, start=started, end=ended,
                            thread=threading.get_ident(),
                            population=workload.population,
                            untraced_seconds=seconds,
                        )
                    )
                    self.spans.extend(tracer.spans)
                leftover = join_new_threads(baseline)
                if leftover:
                    raise RuntimeError(f"threads still running: {leftover}")
            except CheckFailed:
                self.failed += 1
                self.correct = False
                report(f"operation {index} (seed {seed}) produced a wrong output")
            except Exception:  # one failed operation must not end the run
                self.failed += 1
                report(f"operation {index} (seed {seed}) failed")
            else:
                self.seconds.append(seconds)
                print(f"layerbench: operation {index} (seed {seed}) took {seconds:.4f} s",
                      file=sys.stderr)
        leftover = join_new_threads(baseline)
        if leftover:
            print(f"layerbench: threads still running at exit: {leftover}", file=sys.stderr)

    def metrics(self, population: int) -> dict:
        from layerbench.layers import PER_LAYER

        if not self.args.trace:
            values = {
                "users_per_s": (fast_quartile(population, self.seconds), "users/s"),
                "setup_s": (self.setup.get("setup_s", 0.0), "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
            return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
        metrics = {}
        for name, (unit, _) in PER_LAYER.items():
            if name in self.setup:
                value = self.setup[name]
            elif self.layers:
                value = statistics.fmean(layer.get(name, 0.0) for layer in self.layers)
            else:
                value = 0.0
            metrics[name] = {"value": value, "unit": unit}
        return metrics

    def write_trace(self) -> None:
        from layerbench.tracer import write_chrome_trace

        if not self.spans:
            return
        try:
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            path = OUT_DIR / f"{self.args.workload}-seed{self.args.seed}.trace.json"
            write_chrome_trace(path, self.spans, min(span.start for span in self.spans))
            print(f"layerbench: wrote {path}", file=sys.stderr)
        except OSError:
            report("could not write the Chrome trace")


def fresh_temporary_directory() -> str:
    """A new, empty directory in the git-ignored output directory."""
    try:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        return tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    except OSError:  # a read-only checkout: use the system's
        return tempfile.mkdtemp(prefix="layerbench-")


def main(argv=None) -> int:
    args = parse_args(argv)
    scratch = fresh_temporary_directory()
    tempfile.tempdir = scratch
    try:
        with contextlib.redirect_stdout(sys.stderr):
            outcome = benchmark(args)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)
    if outcome is None:
        return 2
    print(json.dumps(outcome), flush=True)
    return 0


def benchmark(args: argparse.Namespace) -> dict | None:
    started = time.perf_counter()
    try:
        import_program()
    except ImportError as exc:
        print(f"layerbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return None
    run = Run(args)
    run.setup["setup.import_s"] = time.perf_counter() - started

    sys.path.append(str(ROOT))
    from layerbench.workloads import WORKLOADS, operation_seeds

    workload = WORKLOADS[args.workload](args.seed)
    seeds = operation_seeds(args.seed, workload.operation_count(args.seconds, bool(args.trace)))
    for step, name in ((lambda: workload.build_inputs(seeds), "setup.inputs_s"),
                       (workload.warm_up, "setup.warmup_s")):
        started = time.perf_counter()
        try:
            step()
        except Exception:  # the operations will fail and be counted
            report(f"{name} raised")
        run.setup[name] = time.perf_counter() - started

    print("layerbench: set-up " + ", ".join(f"{k} {v:.4f} s" for k, v in run.setup.items()),
          file=sys.stderr)
    run.execute(workload, seeds)
    if args.trace:
        run.write_trace()
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": run.metrics(workload.population),
    }


if __name__ == "__main__":
    sys.exit(main())
