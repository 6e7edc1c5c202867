"""Benchmark harness for stochastihedron.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
One harness process starts every operation as a child, one at a time (a
closed loop with one client), and times it from outside: from spawn to
exit, with stdout going straight to a file, CPU time and peak RSS from
``os.wait4``.  Outputs are checked by ``check.py`` after the timed part.

With ``--trace 0`` the harness repeats the workload's operations in order
until ``--seconds`` are used up (every operation runs at least once) and
prints the end-to-end metrics: ``wall_s`` and ``cpu_s`` are sums over the
operations of each one's median, ``peak_rss_mb`` the largest peak RSS of
any child, ``setup_s`` the median of the runs of a command that does no
work, five at the start of every pass.  With ``--trace 1`` it runs one untraced pass, then every
operation once more under ``tracer.py``, and prints the per-layer
metrics.  The last line of stdout is the result object; a line before it
records the seed and the machine.  See README.md.
"""

import argparse
import itertools
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time

import tracer
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_run")
RESULTS = os.path.join(ROOT, ".bench_results")

SETUP_ARGV = ["f-vector", "--n", "1"]
SETUP_PER_PASS = 5
# the whole run has to end within 180 s; leave room for the checks
OPS_DEADLINE_S = 150
CHECK_DEADLINE_S = 172
# a child's peak RSS must not depend on what the harness did before
RSS_TOLERANCE_KB = 1024

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


class Run:
    def __init__(self, workload, seed, trace):
        self.started = time.monotonic()
        self.dir = os.path.join(SCRATCH, f"{workload}-{seed}-{trace}-{os.getpid()}")
        self.inputs = os.path.join(self.dir, "inputs")
        os.makedirs(self.inputs)
        self.seed = seed
        self.count = 0
        self.manifest = []

    def spawn(self, argv, deadline):
        """Run one child to its end; wall, CPU and peak RSS as it saw them."""
        self.count += 1
        out = os.path.join(self.dir, f"out-{self.count}")
        err = os.path.join(self.dir, f"err-{self.count}")
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            pid = os.posix_spawn(
                sys.executable, [sys.executable, *argv], ENV,
                file_actions=[(os.POSIX_SPAWN_DUP2, fo.fileno(), 1),
                              (os.POSIX_SPAWN_DUP2, fe.fileno(), 2)],
            )
        pidfd = os.pidfd_open(pid)
        try:
            poll = select.poll()
            poll.register(pidfd, select.POLLIN)
            left = self.started + deadline - time.monotonic()
            timed_out = not poll.poll(max(0, left) * 1000)
            if timed_out:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - t0
        code = -1 if timed_out else os.waitstatus_to_exitcode(status)
        if code != 0:
            with open(err, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            print(f"child {argv} exited {code}:\n{tail}", file=sys.stderr)
        return {"out": out, "exit": code, "wall": wall,
                "cpu": usage.ru_utime + usage.ru_stime, "rss_kb": usage.ru_maxrss}

    def args(self, op):
        return [a.replace("{inputs}", self.inputs) for a in op["argv"]]

    def run_op(self, op):
        if op["kind"] == "cli":
            argv = ["-m", "stochastihedron.cli", *self.args(op)]
        else:
            argv = [os.path.join(BENCH, "apiops.py"), *self.args(op)]
        result = self.spawn(argv, OPS_DEADLINE_S)
        self._record(op, result)
        return result

    def run_traced(self, op):
        trace_dir = os.path.join(self.dir, f"trace-{self.count + 1}")
        os.makedirs(trace_dir)
        spec = {"op": self.count + 1, "kind": op["kind"], "trace_dir": trace_dir,
                "argv": self.args(op),
                "out": os.path.join(self.dir, f"traced-{self.count + 1}")}
        spec_path = os.path.join(self.dir, f"spec-{self.count + 1}.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        result = self.spawn([os.path.join(BENCH, "tracer.py"), spec_path], OPS_DEADLINE_S)
        result["out"] = spec["out"]
        result["trace_dir"] = trace_dir
        self._record(op, result)
        return result

    def _record(self, op, result):
        self.manifest.append({"op": op, "out": result["out"], "exit": result["exit"],
                              "inputs": self.inputs, "seed": self.seed})

    def failures(self):
        """Operations whose output check failed, judged in a child process."""
        path = os.path.join(self.dir, "manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.manifest, fh)
        result = self.spawn([os.path.join(BENCH, "check.py"), path], CHECK_DEADLINE_S)
        try:
            with open(result["out"], encoding="utf-8") as fh:
                verdicts = json.load(fh)
        except (OSError, ValueError):
            verdicts = []
        if result["exit"] != 0 or len(verdicts) != len(self.manifest):
            print("the output checker failed", file=sys.stderr)
            return len(self.manifest)
        for entry, v in zip(self.manifest, verdicts):
            if not v["ok"]:
                print(f"check failed: {entry['op']['argv']}: {v['why']}", file=sys.stderr)
        return sum(not v["ok"] for v in verdicts)


def preflight(run):
    """The library must import from this checkout's src/ and run."""
    probe = run.spawn(["-c", "import stochastihedron; print(stochastihedron.__file__)"],
                      OPS_DEADLINE_S)
    with open(probe["out"], encoding="utf-8") as fh:
        where = fh.read().strip()
    if probe["exit"] != 0 or not where.startswith(SRC + os.sep):
        return False
    return setup(run)["exit"] == 0


def setup(run):
    return run.spawn(["-m", "stochastihedron.cli", *SETUP_ARGV], OPS_DEADLINE_S)


def measure(run, ops, seconds):
    """Cycle through ops in order until the next one would overrun
    `seconds`; every op runs at least once.  Each pass starts with
    SETUP_PER_PASS no-op children, so that set-up time is sampled across
    the whole run, like the operations."""
    results = [[] for _ in ops]
    setups = []
    t0 = time.monotonic()
    for k in itertools.count():
        i = k % len(ops)
        if k >= len(ops):
            now, expected = time.monotonic(), results[i][-1]["wall"]
            if (now - t0 + expected > seconds
                    or now - run.started + expected > OPS_DEADLINE_S):
                break
        if i == 0:
            setups.append([setup(run) for _ in range(SETUP_PER_PASS)])
        results[i].append(run.run_op(ops[i]))
    return results, setups


def end_to_end(run, ops, seconds):
    results, setups = measure(run, ops, seconds)
    # the no-op child's peak RSS must not pick up the harness's: the
    # fresh runs before any work set the reference, and every later run,
    # the last one after all the work, must match it
    fresh_rss = statistics.median(s["rss_kb"] for s in setups[0])
    after = setup(run)
    later = [s for p in setups[1:] for s in p] + [after]
    bad_rss = [s["rss_kb"] for s in later
               if s["exit"] != 0 or abs(s["rss_kb"] - fresh_rss) > RSS_TOLERANCE_KB]
    if bad_rss:
        print(f"peak RSS self-check failed: {bad_rss} KB after work, "
              f"{fresh_rss} KB fresh", file=sys.stderr)
    setups = [s for p in setups for s in p]
    failed = run.failures() + bool(bad_rss) + sum(s["exit"] != 0 for s in setups)
    attempted = sum(len(r) for r in results) + 1 + len(setups)
    metrics = {
        "wall_s": (sum(statistics.median(x["wall"] for x in r) for r in results), "s"),
        "cpu_s": (sum(statistics.median(x["cpu"] for x in r) for r in results), "s"),
        "peak_rss_mb": (max(x["rss_kb"] for r in results for x in r) / 1024, "MB"),
        "setup_s": (statistics.median(s["wall"] for s in setups), "s"),
    }
    samples = [{"argv": op["argv"], "wall": [x["wall"] for x in r],
                "cpu": [x["cpu"] for x in r], "rss_kb": [x["rss_kb"] for x in r]}
               for op, r in zip(ops, results)]
    samples.append({"argv": SETUP_ARGV, "wall": [s["wall"] for s in setups],
                    "rss_kb": [s["rss_kb"] for s in setups],
                    "rss_kb_after_work": after["rss_kb"]})
    return attempted, failed, metrics, samples


def per_layer(run, ops):
    # each operation untraced, then traced, so that drift in machine speed
    # between the two passes does not show as tracing overhead
    plain, traced = [], []
    for op in ops:
        plain.append(run.run_op(op))
        traced.append(run.run_traced(op))
    records = [(op["argv"][0] if op["kind"] == "cli" else None,
                tracer.load(t["trace_dir"])) for op, t in zip(ops, traced)]
    values, violations = tracer.layer_metrics(records)
    if violations:
        print(f"spans that break nesting: {sorted(set(violations))}", file=sys.stderr)
    values["trace.overhead"] = (
        sum(t["wall"] for t in traced) / sum(p["wall"] for p in plain) - 1)
    failed = run.failures() + bool(violations)
    units = dict(tracer.PER_LAYER)
    samples = [{"argv": op["argv"], "wall": p["wall"], "traced_wall": t["wall"]}
               for op, p, t in zip(ops, plain, traced)]
    return len(plain) + len(traced) + 1, failed, {
        name: (values[name], units[name]) for name, _ in tracer.PER_LAYER}, samples


def _commit():
    """The checked-out commit, read from .git when there is one."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", *ref.split("/"))
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    run = Run(args.workload, args.seed, args.trace)
    try:
        if not preflight(run):
            print(f"cannot run the library from {SRC}", file=sys.stderr)
            return 2
        gen = run.spawn([os.path.join(BENCH, "workloads.py"), args.workload,
                         str(args.seed), run.inputs], OPS_DEADLINE_S)
        if gen["exit"] != 0:
            print("input generation failed", file=sys.stderr)
            return 2
        ops = workloads.operations(args.workload)
        if args.trace:
            attempted, failed, metrics, samples = per_layer(run, ops)
        else:
            attempted, failed, metrics, samples = end_to_end(run, ops, args.seconds)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "jobs": workloads.jobs(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "commit": _commit(),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump({"run": info, **result, "samples": samples}, fh, indent=1)
    print(json.dumps({"run": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
