#!/usr/bin/env python3
"""End-to-end benchmark of the compcount CLI, with a traced per-layer run.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1|both]

Run from the repository root. One client drives a closed loop: every
request is a fresh ``python -m compcount ...`` child, spawned only after the
previous one has exited, as a CLI user works. Requests come from the seeded
streams in ``workloads.py``; every response is checked against
``reference.py``, which computes its answers without compcount: the exit
code, the absence of a traceback on stderr and the printed values.

With ``--trace 0`` the run reports the end-to-end metrics:

- ``setup_s``      median wall time of a child that only imports compcount.cli
- ``req_p50_s``    median request wall time, spawn to exit with stdout read
- ``req_tail_s``   request wall time at the highest percentile that leaves at
                   least ten requests beyond it (the report names it)
- ``goodput_rps``  good requests per second of closed-loop time (the
                   benchmark's own output checks are not counted)
- ``ok_ratio``     good requests / requests attempted, i.e. 1 - fail_ratio;
                   a request fails on a wrong exit code, a traceback or a
                   wrong output
- ``peak_rss_mb``  largest child peak RSS, from the child's own rusage

With ``--trace 1`` each request runs twice, untraced and then under
``runner.py``, and the run reports per-layer metrics from the spans: for
each layer L ``L.calls``, ``L.self_s`` (span time minus child-span time,
including the import of L's module), ``L.share`` (self time over summed
traced wall time) and ``L.errors`` (exceptions leaving the layer). The
``startup`` layer is interpreter start plus ``import compcount.cli`` less
the module imports; ``startup.import_s`` is the median of the whole span.
Also ``enumeration.guard_refusals``, ``verify.grid_points``,
``verify.disagreements``, ``cli.stdout_bytes``, ``trace.wall_s`` (summed
traced request wall time, which the layer self times plus
``trace.unattributed_s`` add up to) and ``trace.overhead_ratio`` (traced
median request wall over untraced). ``attempted`` counts both runs of each
request.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``failed`` counts every failed
request; ``correct`` is false only when a request that did not crash gave a
wrong answer or exit code. A crash (a traceback) is a failure, not a wrong
answer: requests that hit the defects in ``workloads.KNOWN_DEFECTS`` crash,
and they stay in the stream on purpose. With several workloads or both
modes, the last line sums the counts and prefixes each metric name with its
workload. Each run also writes a result file, with the Python version, CPU
count, CPU model and seed, under ``.perfbench_run/``; ``trajectory.py``
turns those files into a point of ``BENCH_trajectory.json``.
"""

import argparse
import json
import math
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import Checker  # noqa: E402
from workloads import CYCLE_SECONDS, KNOWN_DEFECTS, stream  # noqa: E402

WORKLOADS = tuple(CYCLE_SECONDS)
TRACEBACK = b"Traceback (most recent call last)"
# Start-up, then the module layers in the order of runner.LAYERS.
LAYERS = ("startup", "alphabet", "recurrence", "hessenberg", "numbers", "weakforms",
          "enumeration", "verify", "reports", "cli")
# Import-only children per run, spread between the rounds so that the
# median covers the whole run and not one moment of a shared machine.
SETUP_SAMPLES = 20
IMPORT_ONLY = (sys.executable, "-c", "import compcount.cli")
TAIL_BEYOND = 10
REQUEST_TIMEOUT_S = 60.0
# Start no round after this many seconds, so that a run ends within 180 s
# even if the program under test becomes several times slower.
LAST_ROUND_START_S = 100.0
RUN_DIR = ROOT / ".perfbench_run"


def child_env() -> dict:
    """The pinned environment of every child."""
    env = dict(os.environ)
    for name in ("PYTHONINTMAXSTRDIGITS", "COMPCOUNT_GUARD", "PYTHONDONTWRITEBYTECODE",
                 "PYTHONSTARTUP", "PYTHONPROFILEIMPORTTIME"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


@dataclass
class Response:
    wall_s: float
    code: int
    out: bytes
    err: bytes
    maxrss_kb: int


def spawn(argv, env) -> Response:
    """Run one child to exit, reading stdout and stderr as they come, and
    take its exit status and peak RSS from ``os.wait4``."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as selector:
        for pipe in chunks:
            selector.register(pipe, selectors.EVENT_READ)
        while selector.get_map():
            remaining = started + REQUEST_TIMEOUT_S - time.perf_counter()
            events = selector.select(timeout=max(remaining, 0))
            if not events:
                proc.kill()
            for key, _ in events:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    selector.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Response(wall, proc.returncode, b"".join(chunks[proc.stdout]),
                    b"".join(chunks[proc.stderr]), usage.ru_maxrss)


def warm_up(env):
    """Fill the bytecode cache with one untimed import before any timing."""
    warm = spawn(IMPORT_ONLY, env)
    if warm.code != 0:
        raise SystemExit(f"perfbench: cannot import compcount.cli from {ROOT / 'src'}:\n"
                         + warm.err.decode(errors="replace"))


def judge(request, response, checker) -> str | None:
    """None for a good response; else 'crash: ...' or 'wrong: ...'."""
    if TRACEBACK in response.err:
        last = response.err.decode(errors="replace").strip().splitlines()[-1]
        return f"crash: {last}"
    if response.code < 0:
        return f"crash: killed by signal {-response.code}"
    if response.code != request.expect_exit:
        return f"wrong: exit {response.code}, expected {request.expect_exit}"
    problem = checker.check(request.kind, request.params, response.out.decode())
    return None if problem is None else f"wrong: {problem}"


def tail(values):
    """(value, percentile) at the highest percentile that leaves at least
    TAIL_BEYOND values beyond it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n


class Run:
    """One closed-loop pass over a workload's stream."""

    def __init__(self, workload, seed, seconds, traced):
        self.traced = traced
        cycles = max(1, round(seconds / CYCLE_SECONDS[workload]))
        if traced:  # every request runs twice
            cycles = max(1, cycles // 2)
        self.rounds = stream(workload, seed, cycles)
        self.env = child_env()
        self.checker = Checker()
        self.walls, self.traced_walls, self.rss, self.setups = [], [], [], []
        self.failures = {}
        self.attempted = self.good = self.wrong = 0
        self.spans_path = RUN_DIR / f"spans-{os.getpid()}.json"
        self.layers = {layer: {"calls": 0, "self_ns": 0, "errors": 0} for layer in LAYERS}
        self.counters, self.calls = Counter(), Counter()
        self.startups, self.unattributed = [], 0.0

    def _record(self, request, response):
        self.attempted += 1
        verdict = judge(request, response, self.checker)
        if verdict is None:
            self.good += 1
            return
        self.wrong += verdict.startswith("wrong")
        self.failures.setdefault(verdict, []).append(request.label())

    def execute(self):
        setups_per_round = 0 if self.traced else math.ceil(SETUP_SAMPLES / len(self.rounds))
        started = time.perf_counter()
        for requests in self.rounds:
            if time.perf_counter() - started > LAST_ROUND_START_S:
                break
            for _ in range(setups_per_round):
                self.setups.append(spawn(IMPORT_ONLY, self.env).wall_s)
            for request in requests:
                argv = [sys.executable, "-m", "compcount", *request.argv]
                response = spawn(argv, self.env)
                self.walls.append(response.wall_s)
                self.rss.append(response.maxrss_kb)
                self._record(request, response)
                if self.traced:
                    self._traced(request)

    def _traced(self, request):
        argv = [sys.executable, str(HERE / "runner.py"), str(self.spans_path)]
        argv += [str(time.time_ns()), *request.argv]
        response = spawn(argv, self.env)
        self.traced_walls.append(response.wall_s)
        self._record(request, response)
        if not self.spans_path.exists():  # the runner died before its spans
            return
        record = json.loads(self.spans_path.read_text())
        self.spans_path.unlink()
        startup = record["startup_ns"] / 1e9
        self.startups.append(startup)
        imports_ns = self._add_self_times(record["imports"], count_calls=False)
        self.layers["startup"]["calls"] += 1
        self.layers["startup"]["self_ns"] += record["startup_ns"] - imports_ns
        root_ns = self._add_self_times(record["spans"], count_calls=True)
        for _, layer_name, _, _, parent, error in record["spans"]:
            leaves = parent < 0 or record["spans"][parent][1] != layer_name
            if error and leaves:
                self.layers[layer_name]["errors"] += 1
                if layer_name == "enumeration" and error == "GuardExceeded":
                    self.counters["enumeration.guard_refusals"] += 1
        self.counters.update(record["counters"])
        self.calls.update(record["calls"])
        self.unattributed += response.wall_s - startup - root_ns / 1e9

    def _add_self_times(self, spans, count_calls) -> int:
        """Add each span's self time (duration minus direct children) to its
        layer; return the summed duration of the root spans."""
        child_ns = [0] * len(spans)
        for _, _, start, end, parent, *_ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        root_ns = 0
        for i, (_, layer_name, start, end, parent, *_) in enumerate(spans):
            layer = self.layers[layer_name]
            layer["calls"] += count_calls
            layer["self_ns"] += end - start - child_ns[i]
            if parent < 0:
                root_ns += end - start
        return root_ns

    def end_to_end(self):
        tail_s, percentile = tail(self.walls)
        self.tail_note = f"p{percentile:.1f} of {len(self.walls)} requests"
        return {
            "setup_s": (statistics.median(self.setups), "s"),
            "req_p50_s": (statistics.median(self.walls), "s"),
            "req_tail_s": (tail_s, "s"),
            "goodput_rps": (self.good / sum(self.walls), "1/s"),
            "ok_ratio": (self.good / self.attempted, "ratio"),
            "peak_rss_mb": (max(self.rss) / 1024, "MB"),
        }

    def per_layer(self):
        total = sum(self.traced_walls)
        metrics = {}
        for name, layer in self.layers.items():
            metrics[f"{name}.calls"] = (layer["calls"], "count")
            metrics[f"{name}.self_s"] = (layer["self_ns"] / 1e9, "s")
            metrics[f"{name}.share"] = (layer["self_ns"] / 1e9 / total, "ratio")
            metrics[f"{name}.errors"] = (layer["errors"], "count")
        metrics["startup.import_s"] = (statistics.median(self.startups), "s")
        for name in ("enumeration.guard_refusals", "verify.grid_points", "verify.disagreements"):
            metrics[name] = (self.counters[name], "count")
        metrics["cli.stdout_bytes"] = (self.counters["cli.stdout_bytes"], "bytes")
        metrics["trace.wall_s"] = (total, "s")
        metrics["trace.unattributed_s"] = (self.unattributed, "s")
        metrics["trace.overhead_ratio"] = (
            statistics.median(self.traced_walls) / statistics.median(self.walls), "ratio")
        return metrics


def run_one(workload, seed, seconds, traced):
    env = environment(seed)
    run = Run(workload, seed, seconds, traced)
    warm_up(run.env)
    run.execute()
    metrics = run.per_layer() if traced else run.end_to_end()
    print(f"# workload={workload} trace={int(traced)} python={env['python']} "
          f"nproc={env['nproc']} cpu={env['cpu']!r} seed={seed}")
    print(f"# attempted={run.attempted} good={run.good} failed={run.attempted - run.good} "
          f"fail_ratio={(run.attempted - run.good) / run.attempted:.4f}")
    if traced:
        layers_s = sum(layer["self_ns"] for layer in run.layers.values()) / 1e9
        print(f"# traced wall {sum(run.traced_walls):.4f} s = layer self times incl. startup "
              f"{layers_s:.4f} s + unattributed {run.unattributed:.4f} s")
    else:
        print(f"# req_tail_s is {run.tail_note}")
    for reason, labels in sorted(run.failures.items()):
        known = [d for w, sig, d in KNOWN_DEFECTS if w == workload and sig in reason]
        note = f" [known defect: {known[0]}]" if known else ""
        print(f"# {len(labels)} x {reason}{note}; first: {labels[0]}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6f} {unit}" if isinstance(value, float)
              else f"{name:32s} {value:>16d} {unit}")
    result = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.attempted - run.good,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RUN_DIR.joinpath("results").mkdir(parents=True, exist_ok=True)
    path = RUN_DIR / "results" / f"{workload}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(dict(result, workload=workload, environment=env,
                                    failures={k: len(v) for k, v in run.failures.items()},
                                    calls=run.calls), indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "compcount" / "cli.py").is_file():
        print(f"perfbench: no compcount sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.trace == "both" else (args.trace == "1",)
    results = {(w, t): run_one(w, args.seed, args.seconds, t) for w in workloads for t in modes}
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for (w, _), r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
