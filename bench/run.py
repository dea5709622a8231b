"""xlalign benchmark: one workload, one seed, one JSON result.

    python3 bench/run.py --workload joint_b16 --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; xlalign is imported from ``src/``.
After an untimed warm-up round, the workload runs as many whole rounds as
fit in ``--seconds``, at least one, each after repeated fresh setups
(setup_s is the median of their process CPU times). With ``--trace 0`` the
last stdout line holds the end-to-end metrics named in BENCHMARK.json. With
``--trace 1`` every timed round is traced and it holds the per-layer metrics, the tracer's own bookkeeping time among them.
The line before it records the machine and build facts of the run, its
quality figures, the median round and setup times on both clocks, and each
timed round's wall time.
The process exits 1 when any operation or check failed, and 2 without a
result when the checkout has no xlalign sources.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

# pinned before numpy is first imported: one BLAS thread, no worker pool
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("XLALIGN_THREADS", None)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("joint_b16", "eval_10k")
SETUP_MIN_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def attempt(ledger, what, fn, *args):
    """Run fn; an exception counts as one failed operation and yields None."""
    try:
        return fn(*args)
    except Exception as exc:  # any failure is a benchmark outcome, not a crash
        ledger.error(f"{what}: {exc!r}")
        return None


class Clock:
    """Sums the wall and the process CPU time spent inside `with clock:` blocks."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0

    def __enter__(self):
        self._t0 = (time.perf_counter(), time.process_time())
        return self

    def __exit__(self, *exc):
        self.wall += time.perf_counter() - self._t0[0]
        self.cpu += time.process_time() - self._t0[1]


def set_up(workload, seed, size, ledger, context, setup_clocks, seconds):
    """Repeat the setup for at least `seconds`, and at least SETUP_MIN_REPEATS
    times, appending one Clock per setup to `setup_clocks`. A single setup
    of the training workloads takes ~30 ms, too short a window to time alone
    on a shared host. Returns the last state, or None if a setup failed."""
    start = time.perf_counter()
    for n in itertools.count(1):
        clock = Clock()
        with context(), clock:
            state = attempt(ledger, "setup", workload.setup, seed, size)
        if state is None:
            return None
        setup_clocks.append(clock)
        if n >= SETUP_MIN_REPEATS and time.perf_counter() - start >= seconds:
            return state


def rounds(workload, seed, size, seconds, ledger, context):
    """An untimed warm-up round, then as many timed closed-loop rounds as fit
    in `seconds`, at least one, then setups until `seconds` are used up. The
    warm-up takes the first-round costs (allocator growth, cold caches) out of
    the timed rounds; it runs outside `context`, so a traced run traces only
    timed rounds. Each round starts from fresh setups, so setup samples are
    spread over the run like the rounds. A round is verified after its timed
    calls, and every round must repeat the warm-up's quality figures exactly.
    Returns those figures, one Clock per timed round and one Clock per setup
    before a timed round or after the last one."""
    quality, round_clocks, setup_clocks = None, [], []
    start = time.perf_counter()

    def elapsed():
        return time.perf_counter() - start

    n = 0  # rounds run, the warm-up included
    while not round_clocks or elapsed() * (n + 1) / n + size.setup_seconds <= seconds:
        warm_up = n == 0
        ctx = nullcontext if warm_up else context
        state = set_up(workload, seed, size, ledger, ctx, [] if warm_up else setup_clocks,
                       size.setup_seconds)
        if state is None:
            break
        clock = Clock()
        with ctx():
            out = attempt(ledger, f"round {n}", workload.run, state, clock, ledger)
        if out is None:
            break
        attempt(ledger, f"verify round {n}", workload.verify, state, out, ledger)
        if warm_up:
            quality = out.quality
        else:
            ledger.check("a repeated round reproduces the quality figures exactly",
                         out.quality == quality)
            round_clocks.append(clock)
        n += 1
        del state, out  # keeps one round's data out of the next round's peak memory
    if round_clocks:
        set_up(workload, seed, size, ledger, context, setup_clocks,
               max(size.setup_seconds, seconds - elapsed()))
    return quality, round_clocks, setup_clocks


def end_to_end(quality, round_clocks, setup_clocks):
    return {"setup_s": statistics.median(c.cpu for c in setup_clocks),
            "wall_s": statistics.median(c.wall for c in round_clocks),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **quality}


def per_layer(names, tracer, quality, n, n_setups):
    """Per traced round (setups included); a layer that a workload never
    calls reads 0."""
    values = {name: tracer.self_s[name[:-2]] / n for name in names if name.endswith("_s")}
    steps = tracer.counts["autodiff.steps"]
    values.update({
        "autodiff.nodes_per_step": tracer.counts["autodiff.nodes"] / steps if steps else 0.0,
        "encoders.encode_batch_calls": tracer.calls["encoders.encode_batch"] / n,
        "checkpoint.bytes": tracer.counts["checkpoint.bytes"] / n,
        "evaluation.embed_calls_per_sentence": quality.get("embed_calls_per_sentence", 0.0),
        "evaluation.cldc_acc": quality.get("cldc_acc", 0.0),
        "objectives.final_loss": quality.get("final_loss", 0.0),
        "cipher.gen_s": tracer.self_s["cipher.gen"] / n_setups,
        "trace.overhead_s": tracer.overhead_s / n,
    })
    return values


def blas_build(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        return "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def source_loc():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "xlalign").rglob("*.py")))


def facts(np, args, ledger, quality, round_clocks, setup_clocks):
    """What the run ran on, its quality figures, and both clocks' medians."""
    def medians(clocks):
        return {clock: statistics.median(getattr(c, clock) for c in clocks) if clocks else None
                for clock in ("wall", "cpu")}

    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(round_clocks), "setups": len(setup_clocks),
        "round_s": medians(round_clocks), "setup_s": medians(setup_clocks),
        "round_wall_s": [c.wall for c in round_clocks],
        "quality": quality,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas_build(np),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS + ("XLALIGN_THREADS",)},
        "commit": git_commit(), "src_xlalign_loc": source_loc(),
        "failed_frac": ledger.failed / ledger.attempted,
        "failures": ledger.reasons,
    }


def measure(args, size, workdir):
    import numpy as np

    import tracing
    import workloads as wl

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    ledger = wl.Ledger()
    workload = wl.make(args.workload, str(workdir))
    tracer = tracing.Tracer()
    context = (lambda: tracing.traced(tracer)) if args.trace else nullcontext
    quality, round_clocks, setup_clocks = rounds(workload, args.seed, size, args.seconds,
                                                 ledger, context)
    values = None
    if round_clocks and args.trace:
        values = per_layer([m["name"] for m in wanted], tracer, quality, len(round_clocks),
                           len(setup_clocks))
    elif round_clocks:
        values = end_to_end(quality, round_clocks, setup_clocks)

    metrics = {} if values is None else {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    result = {"correct": values is not None and ledger.failed == 0,
              "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": metrics}
    return result, facts(np, args, ledger, quality, round_clocks, setup_clocks)


def main(argv=None, size=None):
    args = parse_args(argv)
    if not (SRC / "xlalign" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"bench: no xlalign sources under {SRC}; run it from a source checkout",
              file=sys.stderr)
        return 2
    for path in (str(Path(__file__).resolve().parent), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads as wl

    workdir = ROOT / ".bench_work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result, run_facts = measure(args, size or wl.FULL, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps({"facts": run_facts}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
