"""Benchmark of norminfer on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload train-snli --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke --out smoke.json

Each invocation measures one workload in this process, a closed loop with
one client: an operation starts when the previous one has finished and
been checked. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it holds the full record (environment,
configuration, sample counts), which is also written under ``.perfbench/``
with the spans of a traced run.

``--smoke`` runs every workload, untraced and traced, on a toy model and
writes all records to ``--out``. See README.md in this directory for the
workloads and metrics.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOAD_NAMES = ("train-snli", "infer-long", "conflicts-cli")

# One BLAS thread: steadier than two on a shared two-core box, and never
# more than the machine has.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit, better, bound); bound is the share of the parent's median
# by which the metric may worsen.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ok_frac", "frac", "higher", 0.01),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("pairs_per_s", "1/s", "higher", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("op_tail_s", "s", "lower", 0.25),
]

PER_LAYER = [
    ("text.encode_s", "s", "lower"),
    ("text.vocab_s", "s", "lower"),
    ("model.forward_s", "s", "lower"),
    ("model.forward_calls", "count", "lower"),
    ("model.pairs_per_call", "count", "higher"),
    ("model.make_batch_s", "s", "lower"),
    ("model.pad_frac", "frac", "lower"),
    ("tensor.matmul_s", "s", "lower"),
    ("tensor.softmax_s", "s", "lower"),
    ("tensor.masked_fill_s", "s", "lower"),
    ("tensor.scale_s", "s", "lower"),
    ("tensor.gelu_s", "s", "lower"),
    ("tensor.layer_norm_s", "s", "lower"),
    ("tensor.add_s", "s", "lower"),
    ("tensor.embedding_lookup_s", "s", "lower"),
    ("tensor.layout_s", "s", "lower"),
    ("tensor.ops", "count", "lower"),
    ("tensor.backward_s", "s", "lower"),
    ("tensor.tape_records", "count", "lower"),
    ("training.self_s", "s", "lower"),
    ("training.step_p50_s", "s", "lower"),
    ("training.step_tail_s", "s", "lower"),
    ("training.loss_s", "s", "lower"),
    ("training.clip_s", "s", "lower"),
    ("training.adam_s", "s", "lower"),
    ("training.evaluate_s", "s", "lower"),
    ("training.snapshot_s", "s", "lower"),
    ("training.make_batches_s", "s", "lower"),
    ("training.steps", "count", "lower"),
    ("training.loss_end", "nats", "lower"),
    ("estimator.predict_proba_s", "s", "lower"),
    ("conflicts.analyze_s", "s", "lower"),
    ("conflicts.forward_calls_per_report", "count", "lower"),
    ("conflicts.report_s", "s", "lower"),
    ("persistence.load_s", "s", "lower"),
    ("persistence.save_s", "s", "lower"),
    ("persistence.checkpoint_mb", "MiB", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.accounted_frac", "frac", "higher"),
    ("trace.spans", "count", "lower"),
]

# Share of the traced wall time the per-layer self times must account for.
ACCOUNTING_TOLERANCE = 0.10
MAX_REPORTED_ERRORS = 5
# Short enough that a smoke run makes one operation per phase.
SMOKE_SECONDS = 0.01


def pin_blas_threads() -> None:
    """Must run before numpy is first imported."""
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)


def import_program():
    """Import norminfer from this checkout's ``src``, nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import norminfer
    except ImportError as exc:
        raise SystemExit(f"cannot import norminfer from {SRC}: {exc}") from None
    if Path(norminfer.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"norminfer was imported from {norminfer.__file__}, not from {SRC}")
    return norminfer


def latency(values: list[float]) -> dict:
    """Median, and the value at the highest whole percentile that has at
    least ten samples beyond it (never below the median)."""
    import numpy as np

    n = len(values)
    if n == 0:
        return {"n": 0, "p50": 0.0, "tail": 0.0, "tail_percentile": 0}
    percentile = max(50, math.floor(100 * (1 - 10 / n)))
    return {
        "n": n,
        "p50": float(np.percentile(values, 50)),
        "tail": float(np.percentile(values, percentile)),
        "tail_percentile": percentile,
    }


class OpLog:
    """Attempted and failed operations, and the reference fingerprint every
    repeat must reproduce."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(message)
            print(f"operation failed: {message}", file=sys.stderr)


def run_op(workload, log: OpLog, tracer=None) -> float | None:
    """One checked operation; its wall time, or None if it failed."""
    workload.prepare()
    log.attempted += 1
    try:
        start = time.perf_counter()
        with tracer.op() if tracer else contextlib.nullcontext():
            output = workload.run()
        elapsed = time.perf_counter() - start
        fingerprint = workload.check(output)
    # the boundary around the program under test: any error it raises, and
    # any failed output check, counts as a failed operation
    except Exception as exc:  # noqa: BLE001
        if not log.errors:
            traceback.print_exc()
        log.fail(f"{type(exc).__name__}: {exc}")
        return None
    if log.reference is None:
        log.reference = fingerprint
    elif fingerprint != log.reference:
        log.fail("output differs from the first operation's")
        return None
    return elapsed


def measure(workload, budget_s: float, log: OpLog, tracer=None) -> list[float]:
    """Closed loop for about ``budget_s`` seconds, at least one operation.
    An operation is not started if a typical one would overrun the budget."""
    times: list[float] = []
    begin = time.perf_counter()
    attempts = 0
    while True:
        elapsed = time.perf_counter() - begin
        typical = statistics.median(times) if times else 0.0
        if attempts and elapsed + typical > budget_s:
            return times
        attempts += 1
        op_time = run_op(workload, log, tracer)
        if op_time is not None:
            times.append(op_time)


def git_sha() -> str:
    """HEAD of the checkout, read without running git; "unknown" outside a
    repository."""
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
    return "unknown"


def blas_info() -> dict:
    import numpy as np

    info = {"threads_pinned": BLAS_THREADS, "env": {k: os.environ.get(k) for k in BLAS_ENV}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(
            name=blas.get("name"),
            version=blas.get("version"),
            build=blas.get("openblas configuration"),
        )
    except (AttributeError, KeyError, TypeError):
        pass
    info["threads_reported"] = _openblas_threads()
    return info


def _openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(scale, seconds: float) -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "scale": scale.name,
        "model_config": scale.model_config().to_dict(),
        "train_config": scale.train_config().to_dict(),
        "counts": {
            "train_pairs": scale.train_pairs,
            "val_pairs": scale.val_pairs,
            "infer_pairs": scale.infer_pairs,
            "setup_repeats": scale.setup_repeats,
        },
        "seconds": seconds,
    }


def metric_block(values: dict, specs) -> dict:
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit, *_ in specs}


def run_workload(name: str, scale, seed: int, seconds: float, trace: bool, import_s: float):
    """Set up, warm up and measure one workload; returns (result, record,
    tracer or None)."""
    from tracing import Tracer
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        workload = WORKLOADS[name](scale, seed, workdir)
        setup_times = []
        for _ in range(scale.setup_repeats):
            workload.reset()
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)

        log = OpLog()
        run_op(workload, log)  # warm-up: untimed, but checked
        samples = {"setup": len(setup_times)}
        notes = []
        if not trace:
            times = measure(workload, seconds, log)
            op = latency(times)
            values = {
                "setup_s": import_s + statistics.median(setup_times),
                "ok_frac": (log.attempted - log.failed) / log.attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                # work over time rather than a median of per-operation rates:
                # the host alternates between fast and slow spells lasting
                # seconds, and a median jumps between them
                "pairs_per_s": workload.pairs_per_op * len(times) / sum(times) if times else 0.0,
                "op_p50_s": op["p50"],
                "op_tail_s": op["tail"],
            }
            samples["op"] = op
            metrics = metric_block(values, END_TO_END)
            tracer = None
        else:
            untraced = measure(workload, seconds / 3, log)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(workload, 2 * seconds / 3, log, tracer)
            finally:
                tracer.uninstall()
            values, steps = tracer.layers(latency)
            values.update(workload.setup_layers)
            if untraced and traced:
                base = statistics.median(untraced)
                values["trace.overhead_frac"] = (statistics.median(traced) - base) / base
            samples.update(untraced=len(untraced), traced=len(traced), **steps)
            if abs(values["trace.accounted_frac"] - 1) > ACCOUNTING_TOLERANCE:
                notes.append(
                    f"per-layer self times cover {values['trace.accounted_frac']:.3f} "
                    "of the traced wall time"
                )
            metrics = metric_block(values, PER_LAYER)
            times = traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = log.failed == 0 and bool(times) and not notes
    result = {
        "correct": correct,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "result": result,
        "failed_frac": log.failed / log.attempted,
        "errors": log.errors + notes,
        "samples": samples,
        "setup_times_s": setup_times,
        "import_s": import_s,
        "op_times_s": times,
    }
    return result, record, tracer


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, untraced and traced, on a toy model")
    parser.add_argument("--out", type=Path, help="where --smoke writes its records")
    args = parser.parse_args(argv)
    if args.smoke == bool(args.workload):
        parser.error("give exactly one of --workload and --smoke")
    if args.smoke and args.out is None:
        parser.error("--smoke needs --out")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    import_program()
    import_s = time.perf_counter() - PROCESS_START
    from workloads import PAPER, TOY

    # run_cli configures logging only when the root logger has no handler;
    # this one keeps the program's log records out of the benchmark output
    logging.getLogger().addHandler(logging.NullHandler())

    if args.smoke:
        records = []
        for name in WORKLOAD_NAMES:
            for trace in (False, True):
                _, record, _ = run_workload(name, TOY, args.seed, SMOKE_SECONDS, trace, import_s)
                record["environment"] = environment(TOY, SMOKE_SECONDS)
                records.append(record)
        args.out.write_text(json.dumps({"runs": records}, indent=1) + "\n")
        correct = all(r["result"]["correct"] for r in records)
        print(json.dumps({"smoke": True, "correct": correct, "runs": len(records)}))
        return 0 if correct else 1

    result, record, tracer = run_workload(
        args.workload, PAPER, args.seed, args.seconds, bool(args.trace), import_s
    )
    record["environment"] = environment(PAPER, args.seconds)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        # one spans file per workload, replaced by the next traced run
        tracer.write(OUT / f"{args.workload}.spans.tsv")
    if not record["op_times_s"]:
        print("no operation succeeded", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
