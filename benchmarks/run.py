"""privarch benchmark: one workload, one seed, one closed-loop client.

    python3 benchmarks/run.py --workload pipeline --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. The run generates its inputs from the seed under
`.bench_out/`, warms up with untimed ops for a few seconds, then calls
`privarch.cli.main` in process, one op after another, for `--seconds`
(then on to the end of the pass over its inputs, and until at least 100 ops
ran and ten latencies lie beyond p90, but no longer than two minutes), and
checks every verdict against the answer the generator knows. The last line
of standard output is one JSON object: with `--trace 0` the end-to-end
metrics, with `--trace 1` the per-layer metrics of a traced run (see
spans.py) plus the tracing overhead. The line before it summarises the run,
and says whether the two-minute cap cut the loop short. The exit code is 0
when every op got its known answer, 1 when some did not, 2 when the
benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import SIZES, WORKLOADS, WrongAnswer, describe  # noqa: E402

# Latest a run may keep measuring, so a slow machine still exits in time.
HARD_CAP_S = 120.0
# Set-ups per run; `setup_s` is their median.
SETUPS = 5


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def is_privarch(module: str) -> bool:
    return module == "privarch" or module.startswith("privarch.")


def quiet(main):
    def run(argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)

    return run


def setup(name: str, seed: int, size, work: Path) -> tuple[object, list, float]:
    """One set-up: import the package afresh and write the inputs to `work`.
    Returns the CLI module, the pool of inputs and the seconds taken."""
    for module in [m for m in sys.modules if is_privarch(m)]:
        del sys.modules[module]
    shutil.rmtree(work, ignore_errors=True)
    start = perf_counter()
    cli = importlib.import_module("privarch.cli")
    work.mkdir(parents=True)
    pool = WORKLOADS[name][0](random.Random(seed), size, work, ROOT / "fixtures", quiet(cli.main))
    elapsed = perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        fail(f"imported privarch from {cli.__file__}, not from this checkout")
    return cli, pool, elapsed


class Loop:
    """Closed loop over the pool, from its first item, for `seconds`."""

    def __init__(self, name: str, size, pool: list, main, tracer=None):
        self.op_fn = WORKLOADS[name][1]
        self.size = size
        self.pool = pool
        self.main = main
        self.tracer = tracer
        self.latencies: list[float] = []
        self.busy = 0.0
        self.attempted = self.failed = self.checks = 0
        self.settled = self.negatives = 0
        self.truncated = False

    def call(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.main(argv)
        self.busy += perf_counter() - start
        self.checks += argv[0] == "check"
        if rc == 2:
            raise WrongAnswer(f"{argv[0]} exited 2: {err.getvalue().strip()}")
        return rc, out.getvalue()

    def run(self, seconds: float, min_ops: int, *others: "Loop", beyond_p90: int = 0) -> None:
        """Step this loop, and each of `others` after it on the same item,
        until `seconds` have passed, `min_ops` ops were attempted, at least
        `beyond_p90` latencies lie beyond p90, and the last pass over the
        pool is complete, so every run weighs each input of the pool
        equally. At `HARD_CAP_S` it stops regardless and sets `truncated`."""
        start = perf_counter()
        while True:
            elapsed = perf_counter() - start
            if (
                elapsed >= seconds
                and self.attempted >= min_ops
                and self.attempted % len(self.pool) == 0
                and tail_count(self.latencies) >= beyond_p90
            ):
                return
            if elapsed >= HARD_CAP_S:
                self.truncated = True
                return
            for loop in (self, *others):
                loop.step()

    def warm_up(self, seconds: float) -> None:
        """Untimed ops from the start of the pool, at least one, for
        `seconds`: the fresh import's code specializes and the heap grows
        before any op is timed. Their verdicts are still checked."""
        start = perf_counter()
        self.step()
        while perf_counter() - start < seconds:
            self.step()

    def step(self) -> None:
        item = self.pool[self.attempted % len(self.pool)]
        # Each op starts from the same collector state, and a collection
        # during it walks only what the op made, as in a fresh CLI process.
        gc.collect()
        gc.freeze()
        if self.tracer is not None:
            self.tracer.op = self.attempted
            self.tracer.install()
        self.attempted += 1
        self.busy = 0.0
        try:
            decided = self.op_fn(item, self.call, self.size)
        except (Exception, SystemExit) as exc:
            self.failed += 1
            if self.failed <= 5:
                print(f"op {self.attempted - 1} failed: {exc!r}", file=sys.stderr)
            return
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        self.latencies.append(self.busy)
        if decided is not None:
            self.settled += decided[0]
            self.negatives += decided[1]


def p50_p90(values: list[float]) -> tuple[float, float]:
    """Median and 90th percentile, interpolated between order statistics."""
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[4], deciles[8]


def tail_count(latencies: list[float]) -> int:
    p90 = p50_p90(latencies)[1]
    return sum(x > p90 for x in latencies)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "privarch" / "cli.py").is_file():
        fail(f"no privarch sources under {ROOT / 'src'}")
    if not (ROOT / "fixtures").is_dir():
        fail(f"no fixtures directory under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    size = SIZES[args.size]

    out_dir = ROOT / ".bench_out"
    work = out_dir / f"work-{args.workload}-{args.seed}"
    try:
        setups = []
        for _ in range(SETUPS):
            cli, pool, elapsed = setup(args.workload, args.seed, size, work)
            setups.append(elapsed)
        warm = Loop(args.workload, size, pool, cli.main)
        warm.warm_up(size.warmup_s)
        if args.trace:
            result, summary = traced(args, size, pool, cli, out_dir, warm)
        else:
            loop = Loop(args.workload, size, pool, cli.main)
            loop.run(args.seconds, size.min_ops, beyond_p90=size.beyond_p90)
            result, summary = untraced(loop, setups, warm)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if summary["truncated"]:
        print(f"warning: stopped at the {HARD_CAP_S:.0f} s cap before the run was complete",
              file=sys.stderr)
    summary.update(
        workload=args.workload,
        seed=args.seed,
        size=args.size,
        inputs=describe(args.workload, pool),
    )
    print(json.dumps({"summary": summary}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _verdict(*loops: Loop) -> dict:
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed}


def _decided(*loops: Loop) -> dict:
    negatives = sum(lp.negatives for lp in loops)
    if not negatives:
        return {}
    return {"decided_ratio": sum(lp.settled for lp in loops) / negatives}


def untraced(loop: Loop, setups: list[float], warm: Loop) -> tuple[dict, dict]:
    lat = loop.latencies
    p50, p90 = p50_p90(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_s.p50": (p50, "s"),
        "op_s.p90": (p90, "s"),
        "ops_per_s": (len(lat) / sum(lat) if lat else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    summary = {
        "op_samples": len(lat),
        "samples_beyond_p90": tail_count(lat),
        "setup_samples": len(setups),
        "warmup_ops": warm.attempted,
        "truncated": loop.truncated,
        **_decided(loop),
    }
    result = _verdict(warm, loop)
    summary["failed_ratio"] = result["failed"] / result["attempted"]
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result, summary


def traced(args, size, pool: list, cli, out_dir: Path, warm: Loop) -> tuple[dict, dict]:
    """Each op runs twice in a row, untraced and then traced, so the two
    p50s compare the same op mix under the same warm state."""
    plain = Loop(args.workload, size, pool, cli.main)
    tracer = spans.Tracer()
    loop = Loop(args.workload, size, pool, tracer.wrap("cli.main", cli.main), tracer)
    plain.run(args.seconds, max(1, size.min_ops // 4), loop)
    ops = max(len(loop.latencies), 1)
    metrics = spans.layer_metrics(tracer.spans, tracer.counts, ops, loop.checks)
    base = p50_p90(plain.latencies)[0]
    p50 = p50_p90(loop.latencies)[0]
    metrics["trace.untraced_op_s.p50"] = (base, "s")
    metrics["trace.op_s.p50"] = (p50, "s")
    metrics["trace.overhead_ratio"] = (p50 / base if base else 0.0, "ratio")
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(tracer.spans))
    summary = {
        "traced_ops": len(loop.latencies),
        "untraced_ops": len(plain.latencies),
        "warmup_ops": warm.attempted,
        "spans": len(tracer.spans),
        "truncated": plain.truncated,
        **_decided(loop),
    }
    result = _verdict(warm, plain, loop)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result, summary


if __name__ == "__main__":
    raise SystemExit(main())
