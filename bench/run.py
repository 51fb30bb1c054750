"""End-to-end benchmark of the copack CLI.

    python3 bench/run.py --workload search --seed 1 --seconds 40 --trace 0
    python3 bench/run.py                   # every workload, writes bench/out/BENCH_<time>.json

With one workload, the last line of standard output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. Without `--workload`,
each workload runs in its own process, untraced and then traced, and the
results go to one run file. See bench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

END_TO_END = {"setup_s": "s", "yes_s": "s", "no_s": "s", "peak_rss_mb": "MB"}
MIN_ROUNDS = 3  # the medians below need at least this many rounds
MIN_SETUPS = 7
# What `probe` took at the usual speed of the 2-core machine the benchmark
# was tuned on. Reported solve times are
# scaled to a machine on which it takes exactly this long; the speed at a
# solve is read from the probes of the PROBE_WINDOW solves on each side.
PROBE_S = 0.005
PROBE_WINDOW = 5


def probe() -> float:
    """Seconds for a fixed loop of the operations copack's solves spend their
    time on: set copies and unions, tuple-keyed dicts, integer arithmetic.
    Timed next to each solve, it tells how fast the machine runs just then."""
    start = time.perf_counter()
    adj = [set(range(i % 7, i % 7 + 5)) for i in range(300)]
    total = 0
    for _ in range(12):
        copy = [set(x) for x in adj]
        seen = set()
        for i, x in enumerate(copy):
            if i not in seen:
                seen |= x
            total += len(x)
        table = {(i, i & 7): i for i in range(300)}
        total += len(table) + len(seen)
    for i in range(30000):
        total += i * i % 7
    return time.perf_counter() - start


def load_copack():
    """Import copack from this checkout's src/, never from anywhere else."""
    if not (SRC / "copack" / "__init__.py").is_file():
        sys.exit("bench: no copack sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import copack

    if Path(copack.__file__).resolve().parent != SRC / "copack":
        sys.exit("bench: imported copack from %s, not %s" % (copack.__file__, SRC))


def start_cli() -> float:
    """Wall time for a fresh interpreter to import copack and print the
    CLI's help."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "copack.cli", "--help"], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def call_cli(argv):
    """copack.cli.main in this process, stdout captured; (exit code, record)."""
    import copack.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = copack.cli.main(argv)
    lines = buf.getvalue().strip().splitlines()
    record = dict(tok.split("=", 1) for tok in lines[-1].split() if "=" in tok) if lines else {}
    return code, record


def reference_min(path, pd_path, d) -> int:
    """Minimum at degree bound d from a solve on the benchmark's own
    decomposition, which the timed solves must match."""
    code, record = call_cli(["solve", path, "--problem", "bdd", "--d", str(d), "-k", "0",
                             "--decomposition", pd_path])
    if code not in (0, 1) or "min_size" not in record:
        raise RuntimeError("reference solve on %s failed with exit code %s" % (pd_path, code))
    return int(record["min_size"])


class Round:
    """One pass over a workload's operations: each one's time and outcome."""

    def __init__(self, probes: list):
        self.probes = probes  # `probe` before each solve, the whole run's, in run order
        self.first = len(probes)  # where this round's probes start
        self.times: list[float] = []  # per operation, in order
        self.attempted = self.failed = 0
        self.wrong: list[str] = []  # answers that came back and were wrong

    def scale(self, i: int) -> float:
        """Factor from operation i's seconds to seconds at PROBE_S speed: the
        median probe over the PROBE_WINDOW solves before and after it."""
        j = self.first + i
        return PROBE_S / statistics.median(self.probes[max(0, j - PROBE_WINDOW):j + PROBE_WINDOW + 1])


def split_medians(rounds, ops):
    """(yes_s, no_s): each operation's median scaled time over the rounds,
    summed over the operations whose correct answer is yes, and over the
    others."""
    yes = no = 0.0
    for i, op in enumerate(ops):
        t = statistics.median(r.times[i] * r.scale(i) for r in rounds)
        if op.yes:
            yes += t
        else:
            no += t
    return yes, no


def run_op(op, rnd: Round, cli=call_cli):
    """Time one CLI solve, then check its answer outside the timed region."""
    gc.collect()
    rnd.probes.append(probe())
    start = time.perf_counter()
    try:
        code, record = cli(["solve"] + op.argv)
    except Exception as exc:  # a crash fails the operation; it is not an answer
        code, record = repr(exc), {}
    rnd.times.append(time.perf_counter() - start)
    rnd.attempted += 1
    if code not in (0, 1):
        rnd.failed += 1
        print("bench: %s ended with %s" % (op.label, code), file=sys.stderr)
        return
    bad = workloads.problems(op, code, record)
    if bad:
        rnd.failed += 1
        rnd.wrong.append("%s: %s" % (op.label, "; ".join(bad)))


def run_round(ops, probes: list, cli=call_cli) -> Round:
    rnd = Round(probes)
    for op in ops:
        run_op(op, rnd, cli)
    return rnd


def traced_round(ops, probes, tracer):
    """A round with every layer wrapped; (round, its per-layer metrics with
    times scaled like the solves)."""
    import tracing

    tracer.reset()
    uninstall = tracing.install(tracer)
    try:
        rnd = run_round(ops, probes)
    finally:
        uninstall()
    scale = statistics.median(rnd.scale(i) for i in range(len(ops)))
    layers = {k: v * scale if tracing.UNITS[k] == "s" else v for k, v in tracer.metrics().items()}
    return rnd, layers


def measure(ops, seconds: float, trace: bool):
    """Whole rounds until `seconds` are spent (at least MIN_ROUNDS); a new
    round starts only if the last one would still end in time. Untraced, one
    CLI start-up is timed after each round, so that start-up samples spread
    over the run like the solves do. Traced, rounds alternate untraced and
    traced."""
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
    plain, traced, layer_rounds, setups, probes = [], [], [], [], []
    start = time.perf_counter()
    last = 0.0
    while True:
        done = len(plain) + len(traced)
        if done >= MIN_ROUNDS and (not trace or traced) and time.perf_counter() - start + last > seconds:
            break
        t0 = time.perf_counter()
        if tracer is not None and done % 2 == 1:
            rnd, layers = traced_round(ops, probes, tracer)
            traced.append(rnd)
            layer_rounds.append(layers)
        else:
            plain.append(run_round(ops, probes))
            if not trace:
                setups.append(start_cli())
        last = time.perf_counter() - t0
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(start_cli())
    return plain, traced, layer_rounds, setups


def end_to_end(ops, plain, setups):
    yes_s, no_s = split_medians(plain, ops)
    return {
        "setup_s": statistics.median(setups),
        "yes_s": yes_s,
        "no_s": no_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(ops, plain, traced, layer_rounds):
    import tracing

    out = {}
    for name in layer_rounds[0]:
        values = [m[name] for m in layer_rounds]
        if name in tracing.COUNTS:
            if len(set(values)) != 1:
                print("bench: %s differs between rounds: %s" % (name, values), file=sys.stderr)
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    out["trace.overhead_s"] = sum(split_medians(traced, ops)) - sum(split_medians(plain, ops))
    return out


def run_workload(args) -> dict:
    load_copack()
    import tracing

    if not args.trace:
        start_cli()  # writes the bytecode cache; not measured
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=OUT)
    try:
        ops = workloads.build(args.workload, args.seed, args.size, workdir, reference_min)
        run_round(ops[:1], [])  # warm-up, not counted
        plain, traced, layer_rounds, setups = measure(ops, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rounds = plain + traced
    wrong = [w for r in rounds for w in r.wrong]
    for w in sorted(set(wrong)):
        print("bench: wrong answer: %s" % w, file=sys.stderr)
    if args.trace:
        values = per_layer(ops, plain, traced, layer_rounds)
        units = tracing.UNITS
    else:
        values = end_to_end(ops, plain, setups)
        units = END_TO_END
    for name, value in values.items():
        print("%-30s %14.6f %s" % (name, value, units[name]))
    print("rounds %d untraced, %d traced; %d operations per round" % (len(plain), len(traced), len(ops)))
    return {
        "correct": not wrong,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced; one run file."""
    results = {}
    for name in workloads.WORKLOADS:
        results[name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print("bench: %s (trace %d) exited %d" % (name, trace, proc.returncode), file=sys.stderr)
                return proc.returncode
            results[name]["per_layer" if trace else "end_to_end"] = json.loads(proc.stdout.splitlines()[-1])
    print("%-10s %-30s %14s %-6s %9s %6s" % ("workload", "metric", "value", "unit", "attempted", "failed"))
    for name, res in results.items():
        for r in res.values():
            for metric, m in r["metrics"].items():
                print("%-10s %-30s %14.6f %-6s %9d %6d"
                      % (name, metric, m["value"], m["unit"], r["attempted"], r["failed"]))
    OUT.mkdir(parents=True, exist_ok=True)
    path = Path(args.out) if args.out else OUT / time.strftime("BENCH_%Y%m%dT%H%M%SZ.json", time.gmtime())
    record = {
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "python": sys.version.split()[0],
        "workloads": results,
    }
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("wrote %s" % path)
    ok = all(r["correct"] and not r["failed"] for res in results.values() for r in res.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=("search", "pathdp", "cutcount"), default=None,
                    help="one workload; without it, every workload in its own process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0, help="time spent in whole rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--out", default=None, help="run file (all workloads only)")
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
