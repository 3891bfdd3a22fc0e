"""Benchmark for padicgabor: closed-loop CLI workloads with output oracles.

Run from the repository root:

    python3 perfbench/run.py --workload tf-analysis --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 26 --trace 1

One process runs one workload: one client sends one op (one in-process
``padicgabor.cli.main`` call) at a time, in whole passes over the workload's op
list, until --seconds have elapsed.  ``--workload all`` runs every workload
that way, one process after another.  With ``--trace 0`` the result holds the
end-to-end metrics.  With ``--trace 1`` untraced and traced passes alternate,
and the result holds the per-layer metrics, including the tracing overhead.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; ``--out FILE`` also writes the full record (samples and
run metadata).
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from layertrace import Tracer
from workloads import WORKLOADS, make_ops, write_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS = ROOT / ".perfbench_out"

# (metric, unit, better) reported by an untraced run
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pass_p50_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("cpu_s_per_op", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
SETUP_PROBES = 7  # at least; one more runs after every untraced pass
LOAD = {"loop": "closed", "clients": 1, "processes": "one per workload, run one after another"}


@dataclass
class Loop:
    """Samples of one measuring loop."""

    pass_s: list[float] = field(default_factory=list)  # summed op wall time, per pass
    op_s: float = 0.0
    cpu_s: float = 0.0
    ops: int = 0
    failures: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)


def run_op(cli, argv: list[str]) -> tuple[float, float, object, str]:
    """(wall s, process CPU s, exit code or failure text, captured stdout) of one op."""
    out, err = io.StringIO(), io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = f"exit {exc.code}"
    except Exception as exc:  # a traceback is a failed op, not a failed benchmark
        rc = f"raised {type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if rc != 0 and err.getvalue():
        rc = f"{rc}: {err.getvalue().strip()[:200]}"
    return wall, cpu, rc, out.getvalue()


def judge(op, rc, out: str, verdicts: dict) -> str | None:
    """None if the op exited 0 with output its oracle accepts and every pass agrees."""
    if rc != 0:
        return f"exit {rc}"
    digest = hashlib.sha256(out.encode()).hexdigest()
    if op.name in verdicts:
        first, why = verdicts[op.name]
        return why if digest == first else "output differs from an earlier pass"
    try:
        why = op.check(out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        why = f"unreadable output: {exc!r}"
    verdicts[op.name] = (digest, why)
    return why


def run_pass(ops, loop: Loop, verdicts: dict, tracer: Tracer | None = None) -> None:
    """One pass over ops, added to loop; a tracer is installed for this pass only."""
    from padicgabor import cli

    pass_s = 0.0
    if tracer:
        tracer.install()
    try:
        for op in ops:
            argv = op.args()
            if tracer:
                tracer.begin_op(loop.ops, len(loop.pass_s))
            wall, cpu, rc, out = run_op(cli, argv)
            if tracer:
                tracer.end_op(wall, len(out))
            pass_s += wall
            loop.op_s += wall
            loop.cpu_s += cpu
            loop.ops += 1
            why = judge(op, rc, out, verdicts)
            if why:
                loop.failures.append(f"{op.name}: {why}")
    finally:
        if tracer:
            tracer.uninstall()
    loop.pass_s.append(pass_s)


def measure(ops, seconds: float, verdicts: dict, tracer: Tracer | None = None):
    """Whole passes over ops, at least one, until `seconds` have elapsed.

    A set-up probe runs after every untraced pass, so the set-up samples span
    the same stretch of time as the passes.  With a tracer, untraced and traced
    passes alternate, so both see the same machine load and their difference
    is the tracing overhead.  Returns the untraced and the traced loop.
    """
    plain, traced = Loop(), Loop()
    start = time.perf_counter()
    while not plain.pass_s or time.perf_counter() - start < seconds:
        run_pass(ops, plain, verdicts)
        plain.setup_s.append(setup_sample())
        if tracer:
            run_pass(ops, traced, verdicts, tracer)
    while len(plain.setup_s) < SETUP_PROBES:
        plain.setup_s.append(setup_sample())
    return plain, traced


def setup_sample() -> float:
    """One cold start in a fresh interpreter: first line to package imported."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
    return float(subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                                check=True).stdout)


def end_to_end(loop: Loop) -> dict:
    values = {
        "setup_s": statistics.median(loop.setup_s),
        "pass_p50_s": statistics.median(loop.pass_s),
        "ops_per_s": loop.ops / loop.op_s,
        "cpu_s_per_op": loop.cpu_s / loop.ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def _git_sha() -> str | None:
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


def _process_threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def run_meta(args) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "process_threads": _process_threads(),
        "git_sha": _git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": LOAD,
    }


def _loop_record(loop: Loop) -> dict:
    return {"passes": len(loop.pass_s), "ops": loop.ops, "failed": len(loop.failures),
            "pass_s": loop.pass_s, "setup_s": loop.setup_s, "failures": loop.failures[:20]}


def _write_json(path: str, doc) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")


def run_one(args) -> int:
    if not (SRC / "padicgabor" / "__init__.py").is_file():
        print(f"perfbench: no padicgabor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import padicgabor

    if Path(padicgabor.__file__).resolve().parent != (SRC / "padicgabor").resolve():
        print(f"perfbench: padicgabor imported from {padicgabor.__file__}", file=sys.stderr)
        return 2
    ops = make_ops(args.workload, args.seed)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    verdicts: dict = {}
    tracer = Tracer() if args.trace else None
    try:
        write_configs(ops, workdir)
        plain, traced = measure(ops, args.seconds, verdicts, tracer)
    finally:
        shutil.rmtree(workdir)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    loops = [plain, traced] if tracer else [plain]
    attempted = sum(loop.ops for loop in loops)
    failed = sum(len(loop.failures) for loop in loops)
    e2e = end_to_end(plain)
    record = {"meta": run_meta(args), "end_to_end": e2e, "untraced": _loop_record(plain)}
    print(f"# {args.workload} seed={args.seed} passes={len(plain.pass_s)} ops={plain.ops} "
          f"failed={len(plain.failures)} (untraced)")
    _print_metrics(e2e)
    print(f"  {'failed_ops_ratio':42s} {failed / attempted:.6g} 1")
    for why in [f for loop in loops for f in loop.failures][:5]:
        print(f"  FAILED {why}")
    metrics = e2e
    if tracer:
        metrics = tracer.metrics(plain.pass_s, traced.pass_s)
        record["traced"] = _loop_record(traced)
        record["per_layer"] = metrics
        SPANS.mkdir(exist_ok=True)
        spans = SPANS / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans)
        print(f"# traced passes={len(traced.pass_s)} spans={len(tracer.spans)} -> {spans}")
        _print_metrics(metrics)
    print(f"# meta {json.dumps(record['meta'], sort_keys=True)}")
    if args.out:
        _write_json(args.out, record)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results, records = {}, {}
    WORK.mkdir(exist_ok=True)
    for name in WORKLOADS:
        out = WORK / f"all-{os.getpid()}-{name}.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines), flush=True)
        results[name] = json.loads(last)
        records[name] = json.loads(out.read_text())
        out.unlink()
    with contextlib.suppress(OSError):
        WORK.rmdir()
    if args.out:
        _write_json(args.out, records)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record (JSON) here")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
