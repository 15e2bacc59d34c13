"""Benchmark harness for lateralvdw.

    python3 perfbench/run.py --workload {cli-cold,sweep,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ./src; inputs
are generated from the seed before any timing starts, and every output is
checked against an independent route (see checks.py).

--trace 0 measures the end-to-end metrics with tracing off: ops run in
whole blocks until their summed latency reaches --seconds (and at least
MIN_OPS ops have run).  --trace 1 runs a fixed list of blocks untraced and
then again traced, and reports the per-layer metrics.  Metric names and
units come from BENCHMARK.json.  The last line of stdout is the result
object; the line before it is a report with the environment, the sample
counts, the tail percentile, fail_ratio and max_rel_err.  The exit status
is 1 when any output check failed and 2 or 3 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
MIN_OPS = 20
# Untraced seconds per block; sizes the fixed op list of a traced run, so
# that its per-layer counts repeat exactly for a seed.
NOMINAL_BLOCK_S = {"cli-cold": 4.5, "sweep": 4.0, "oracle": 2.2}
IMPORT_MODULES = {
    "import.lateralvdw_s": "lateralvdw",
    "import.scipy_integrate_s": "scipy.integrate",
    "import.scipy_constants_s": "scipy.constants",
}


@dataclass
class Outcome:
    seconds: float
    check: "checks.Check"  # noqa: F821 - imported once src is on sys.path
    bytes_written: int = 0
    rss_kib: int = 0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment(args, load: tuple) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load),
        "seed": args.seed,
        "traced": bool(args.trace),
    }


class Runner:
    """Executes one op of a workload and checks its output."""

    def __init__(self, workload: str, env: dict):
        import checks
        import workloads

        self.workload = workload
        self.env = env
        self.checks = checks
        self.workloads = workloads
        self.work_dir = str(WORK)

    def run(self, op, tracer=None, traced_prefix=None) -> Outcome:
        start = time.perf_counter()
        try:
            if self.workload == "cli-cold":
                return self._cli_cold(op, traced_prefix)
            return self._in_process(op, tracer)
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            reason = f"{type(exc).__name__}: {exc}"
            return Outcome(time.perf_counter() - start, self.checks.Check(True, 0.0, 0, reason))

    def _cli_cold(self, request, traced_prefix) -> Outcome:
        command = [sys.executable, "-m", "lateralvdw"]
        if traced_prefix is not None:
            command = [sys.executable, str(HERE / "traced_child.py"), traced_prefix]
        seconds, code, path, rss = self.workloads.run_cli_process(
            command, request, self.work_dir, self.env)
        check = self.checks.check_cli_output(request, code, path)
        return Outcome(seconds, check, _size(path), rss)

    def _in_process(self, op, tracer) -> Outcome:
        if tracer is not None:
            tracer.active = True
            tracer.begin("bench.op")
        try:
            if self.workload == "oracle":
                seconds, results = self.workloads.run_oracle(op)
            else:
                seconds, code, path = self.workloads.run_cli_in_process(op, self.work_dir)
        finally:
            if tracer is not None:
                tracer.end()
                tracer.active = False
        if self.workload == "oracle":
            return Outcome(seconds, self.checks.check_oracle(op, results))
        return Outcome(seconds, self.checks.check_cli_output(op, code, path), _size(path))


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def smoke(runner_env: dict) -> list[str]:
    """Minimal requests through the checker; exactly the perturbed one must fail."""
    import workloads

    runner = Runner("sweep", runner_env)
    problems = []
    for request in workloads.smoke_requests():
        outcome = runner.run(request)
        expect_fail = "f3_scale" in request
        if outcome.check.failed != expect_fail:
            problems.append(f"{request['verb']} {'passed' if expect_fail else 'failed'}"
                            f" the checker: {outcome.check.reason}")
    return problems


def setup_seconds(workload: str, seed: int, env: dict) -> list[float]:
    """Fresh interpreter until lateralvdw is imported and the inputs exist."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, env=env, cwd=ROOT, check=True)
        samples.append(float(done.stdout.split()[-1]) - start)
    return samples


def import_seconds(env: dict) -> dict:
    """Cumulative import time per module from ``python -X importtime``."""
    samples = {metric: [] for metric in IMPORT_MODULES}
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import lateralvdw"],
            capture_output=True, text=True, env=env, cwd=ROOT, check=True)
        cumulative = {}
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cum, name = line[len("import time:"):].split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) * 1e-6
        for metric, module in IMPORT_MODULES.items():
            samples[metric].append(cumulative[module])
    return {metric: statistics.median(values) for metric, values in samples.items()}


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it: (percentile, value)."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - 10, 1)
    return 100.0 * rank / n, ordered[rank - 1]


def timed_run(runner: Runner, blocks, seconds: float) -> dict:
    outcomes, op_time, n_blocks = [], 0.0, 0
    for block in blocks:
        if op_time >= seconds and len(outcomes) >= MIN_OPS:
            break
        for op in block:
            outcome = runner.run(op)
            outcomes.append(outcome)
            op_time += outcome.seconds
        n_blocks += 1
    return {"outcomes": outcomes, "blocks": n_blocks}


def traced_run(runner: Runner, blocks, seconds: float) -> dict:
    import spans

    n_blocks = max(1, math.ceil(seconds / 2.0 / NOMINAL_BLOCK_S[runner.workload]))
    ops = [op for block in blocks[:n_blocks] for op in block]
    untraced = [runner.run(op) for op in ops]
    span_dir = WORK / "spans"
    span_dir.mkdir(exist_ok=True)
    traced, summaries = [], []
    if runner.workload == "cli-cold":
        for k, op in enumerate(ops):
            prefix = str(span_dir / f"cli-cold-op{k}")
            for stale in (prefix + ".json", prefix + ".npz"):
                Path(stale).unlink(missing_ok=True)
            traced.append(runner.run(op, traced_prefix=prefix))
            try:
                with open(prefix + ".json", encoding="utf-8") as fh:
                    summaries.append(json.load(fh))
            except OSError:
                traced[-1].check.failed = True
        summary = spans.merge_summaries(summaries)
    else:
        tracer = spans.Tracer()
        tracer.install()
        try:
            for k, op in enumerate(ops):
                tracer.op_id = k
                traced.append(runner.run(op, tracer=tracer))
        finally:
            tracer.uninstall()
        tracer.write_spans(span_dir / f"{runner.workload}.npz")
        summary = tracer.summary()
    layers = spans.layer_metrics(summary)
    layers["cli.bytes_written"] = sum(o.bytes_written for o in traced)
    layers["trace.overhead_ratio"] = (
        sum(o.seconds for o in traced) / sum(o.seconds for o in untraced))
    return {"outcomes": untraced + traced, "blocks": n_blocks, "layers": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli-cold", "sweep", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load = os.getloadavg()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "lateralvdw" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a lateralvdw checkout; {SRC} or {spec_path} is missing",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    env = child_env()

    problems = smoke(env)
    if problems:
        print("error: the output checker is vacuous or broken: " + "; ".join(problems),
              file=sys.stderr)
        return 3

    import workloads

    blocks = workloads.generate(args.workload, args.seed)
    runner = Runner(args.workload, env)
    report = {"workload": args.workload, "env": environment(args, load)}
    if args.trace:
        wanted = spec["per_layer"]
        imports = import_seconds(env)
        run = traced_run(runner, blocks, args.seconds)
    else:
        wanted = spec["end_to_end"]
        setup = setup_seconds(args.workload, args.seed, env)
        run = timed_run(runner, blocks, args.seconds)

    outcomes = run["outcomes"]
    attempted = len(outcomes)
    failed = sum(o.check.failed for o in outcomes)
    max_err = max(o.check.max_err for o in outcomes)
    report.update(blocks=run["blocks"], samples=attempted, failed=failed,
                  fail_ratio=failed / attempted, max_rel_err=max_err,
                  failures=[o.check.reason for o in outcomes if o.check.failed][:5])

    if args.trace:
        values = dict(run["layers"], **imports)
        values["check.fail_ratio"] = failed / attempted
        values["check.max_rel_err"] = max_err
    else:
        latencies_ms = [o.seconds * 1e3 for o in outcomes]
        busy = sum(o.seconds for o in outcomes)
        percentile, tail_ms = tail(latencies_ms)
        if args.workload == "cli-cold":
            peak_kib = max(o.rss_kib for o in outcomes)
        else:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": statistics.median(setup),
            "op_p50_ms": statistics.median(latencies_ms),
            "op_tail_ms": tail_ms,
            "ops_per_s": attempted / busy,
            "rows_per_s": sum(o.check.rows for o in outcomes) / busy,
            "peak_rss_mb": peak_kib / 1024.0,
        }
        report.update(tail_percentile=percentile, setup_samples=len(setup),
                      busy_s=busy)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = failed == 0
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
