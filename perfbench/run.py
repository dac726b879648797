"""mfdecomp benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads: paper-cli, decomp-levels, hasse-sweep, ring-degree
(see workloads.py and BENCHMARK.json for why each was chosen).

Each timed pass runs in a fresh interpreter, so the program's caches start
cold as they do for every CLI call.  Passes repeat until ``--seconds`` have
passed, one process at a time, on one CPU.  The host's speed swings by a
third or more while a run lasts, so times are quoted at the speed of a fixed
reference loop timed between the pass's stretches (workloads.ReferenceLog).
With ``--trace 0`` the last stdout line holds the end-to-end metrics: median
pass time ``norm_pass_s`` (see normalised_pass_s), median ``setup_s`` (spawn
to ``mfdecomp.cli`` imported and ``Weight1Data.default()`` built), both at
the reference speed, and median per-pass ``peak_rss_mb``; the raw wall times
are printed above it.  With ``--trace 1`` untraced and traced passes
alternate and the last line holds the per-layer metrics, including
``trace.overhead_ratio``.  Every case's output is checked; failures are
counted in ``failed``.  Lines before the last one are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"

#: Interpreter starts sampled per run for setup_s, and for the bare start
#: reported beside it; medians are reported.
SETUP_SAMPLES = 15
BARE_SAMPLES = 5
SETUP_CODE = (
    "import time; import mfdecomp.cli; from mfdecomp.levels import Weight1Data; "
    "Weight1Data.default(); print(time.monotonic_ns())"
)
BARE_CODE = "import time; print(time.monotonic_ns())"
CLI_CODE = "import sys; from mfdecomp.cli import main; sys.exit(main(sys.argv[1:]))"

#: A run must end within 180 s; no child may run past this many seconds after start.
DEADLINE_S = 165


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


class Runner:
    def __init__(self, seconds: int) -> None:
        self.seconds = seconds
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(wl.SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def spawn(self, argv: list[str]) -> tuple[int, bytes, float]:
        """Run one child to completion; return exit code, stdout and peak RSS in MB.

        The child is reaped with wait4 so its own peak RSS is known; an alarm
        bounds it by the run's deadline.
        """
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining < 1:
            raise ChildTimeout
        with open(wl.OUT / "child-stderr.log", "wb") as err:
            proc = subprocess.Popen(
                argv, cwd=wl.ROOT, env=self.env, stdout=subprocess.PIPE, stderr=err
            )
            previous = signal.signal(signal.SIGALRM, _on_alarm)
            signal.alarm(int(remaining))
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except ChildTimeout:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                raise
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
                proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, usage.ru_maxrss / 1024

    def stderr_tail(self) -> str:
        text = (wl.OUT / "child-stderr.log").read_text(errors="replace").strip()
        return text.splitlines()[-1] if text else ""

    # -- set-up -------------------------------------------------------------

    def start_time(self, code: str) -> float:
        """Seconds from spawning an interpreter to the timestamp ``code`` prints."""
        start = time.monotonic_ns()
        exit_code, out, _ = self.spawn([sys.executable, "-c", code])
        if exit_code != 0:
            raise RuntimeError(f"set-up child exited {exit_code}: {self.stderr_tail()}")
        return (int(out.decode().split()[-1]) - start) / 1e9

    def setup_time(self) -> tuple[float, float]:
        """One set-up sample in seconds, and at the reference speed: scaled
        by ``REFERENCE_NOMINAL_S`` over the mean of the reference chunks
        timed just before and after it."""
        log = wl.ReferenceLog()
        log.take()
        seconds = self.start_time(SETUP_CODE)
        log.take()
        return seconds, seconds * wl.REFERENCE_NOMINAL_S / statistics.mean(log.lengths)

    def sample_setup(self, setup: list[tuple], bare: list[float], share: float) -> None:
        """Take set-up samples until ``share`` of each quota is reached."""
        while len(setup) < SETUP_SAMPLES * min(share, 1.0):
            setup.append(self.setup_time())
        while len(bare) < BARE_SAMPLES * min(share, 1.0):
            bare.append(self.start_time(BARE_CODE))

    # -- passes ---------------------------------------------------------------

    def paper_cli_pass(self, seed: int, trace: bool) -> dict:
        """Each command in its own fresh process, as a reader runs them."""
        parts: list[dict] = []
        rss_mb: list[float] = []

        def run_command(argv: tuple[str, ...]) -> dict:
            if trace:
                totals = wl.OUT / f"cli-{wl.PAPER_CLI.index(argv)}.json"
                totals.unlink(missing_ok=True)
                prefix = [sys.executable, str(CHILD), "cli", str(totals)]
            else:
                prefix = [sys.executable, "-c", CLI_CODE]
            code, out, rss = self.spawn(prefix + list(argv))
            rss_mb.append(rss)
            if trace and totals.exists():
                parts.append(json.loads(totals.read_text()))
            return {"exit": code, "stdout": out.decode()}

        cases = wl.permuted(wl.paper_cli_cases(run_command), seed)
        times, observations = wl.run_cases(cases)
        result = {
            **times,
            "attempted": len(cases),
            "failures": wl.judge_all(cases, observations, wl.load_expected("paper-cli")),
            "peak_rss_mb": max(rss_mb),
        }
        if trace and parts:
            import layertrace

            result["totals"] = layertrace.sum_totals([p["totals"] for p in parts])
            result["import_s"] = statistics.median(p["import_s"] for p in parts)
        return result

    def inprocess_pass(self, workload: str, seed: int, trace: bool) -> dict:
        code, out, _ = self.spawn(
            [sys.executable, str(CHILD), "pass", workload, str(seed), str(int(trace))]
        )
        if code != 0:
            return {"attempted": 1, "failures": [f"pass exited {code}: {self.stderr_tail()}"]}
        return json.loads(out.decode().splitlines()[-1])

    def one_pass(self, workload: str, seed: int, trace: bool) -> dict:
        if workload == "paper-cli":
            return self.paper_cli_pass(seed, trace)
        return self.inprocess_pass(workload, seed, trace)

    def measure(self, workload: str, seed: int, trace: bool) -> tuple[list, list, list, list]:
        """Passes, and set-up samples spread between them, until the time is up.

        Set-up samples are spread over the whole run rather than taken in
        one burst, so that they meet the host's speed as the passes do.
        With trace, untraced and traced passes alternate, at least one of
        each.  Returns untraced passes, traced passes, set-up and bare start
        samples.
        """
        self.spawn([sys.executable, "-c", "import mfdecomp.cli"])  # compile and cache once
        untraced: list[dict] = []
        traced: list[dict] = []
        setup: list[tuple[float, float]] = []
        bare: list[float] = []
        begin = time.monotonic()
        while True:
            want_trace = trace and len(traced) < len(untraced)
            (traced if want_trace else untraced).append(self.one_pass(workload, seed, want_trace))
            elapsed = time.monotonic() - begin
            done = elapsed >= self.seconds and (not trace or traced)
            self.sample_setup(setup, bare, 1.0 if done else elapsed / self.seconds)
            if done:
                return untraced, traced, setup, bare


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that the reference
    chunks a parent times run where its children's work runs.  The workload
    runs one process at a time, so this costs it no parallelism."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            return next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        return ""


def machine() -> str:
    cpu = cpu_model() or "unknown cpu"
    return f"python {platform.python_version()}, {os.cpu_count()} cpus, {cpu}"


def normalised_pass_s(times: dict) -> float:
    """One pass's seconds at the reference speed.

    The reference chunks cut the pass into stretches of a few tens of
    milliseconds, shorter than the host's swings.  Each stretch is scaled by
    ``REFERENCE_NOMINAL_S`` over the median length of the chunk that ends it
    and that chunk's two neighbours, and the stretches are summed.  A change
    to the program moves this as it moves the pass's wall time; a change in
    the host's speed slows a stretch and its chunks alike and cancels.
    """
    starts, lengths = times["reference_start"], times["reference_s"]
    total = 0.0
    previous_end = 0.0
    for k, start in enumerate(starts):
        local = statistics.median(lengths[max(0, k - 1) : k + 2])
        total += (start - previous_end) / local
        previous_end = start + lengths[k]
    return total * wl.REFERENCE_NOMINAL_S


def end_to_end_metrics(untraced: list[dict], setup: list[float]) -> dict:
    return {
        "norm_pass_s": {
            "value": _median(normalised_pass_s(r) for r in untraced if "reference_s" in r),
            "unit": "s",
        },
        "setup_s": {"value": _median(norm for _, norm in setup), "unit": "s"},
        "peak_rss_mb": {"value": _median(r["peak_rss_mb"] for r in untraced), "unit": "MB"},
    }


def per_layer_metrics(untraced: list[dict], traced: list[dict], bare: list[float]) -> dict:
    """Median over traced passes of each per-layer metric."""
    import layertrace

    per_pass = [layertrace.layer_metrics(r["totals"]) for r in traced if "totals" in r]
    metrics = {
        name: {"value": _median(p[name] for p in per_pass), "unit": unit}
        for name, unit in layertrace.layer_metric_names()
    }
    metrics["cli.import_s"] = {
        "value": _median(r["import_s"] for r in untraced + traced if "import_s" in r),
        "unit": "s",
    }
    metrics["interpreter.start_s"] = {"value": _median(bare), "unit": "s"}
    # Both at the reference speed, so that the host's swings between the
    # passes do not show as tracing cost.
    untraced_wall = _median(normalised_pass_s(r) for r in untraced if "reference_s" in r)
    traced_wall = _median(normalised_pass_s(r) for r in traced if "reference_s" in r)
    metrics["trace.overhead_ratio"] = {
        "value": traced_wall / untraced_wall if untraced_wall else 0.0,
        "unit": "ratio",
    }
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (wl.SRC / "mfdecomp" / "cli.py").is_file():
        sys.stderr.write(f"error: no mfdecomp sources under {wl.SRC}; run from a source checkout\n")
        return 2
    if args.seconds < 1:
        sys.stderr.write("error: --seconds must be at least 1\n")
        return 2
    wl.OUT.mkdir(exist_ok=True)
    pin_to_one_cpu()
    runner = Runner(args.seconds)
    try:
        untraced, traced, setup, bare = runner.measure(args.workload, args.seed, bool(args.trace))
    except ChildTimeout:
        sys.stderr.write(f"error: a child process ran past the {DEADLINE_S} s deadline\n")
        return 1

    results = untraced + traced
    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    walls = [r["wall_s"] for r in untraced if "wall_s" in r]
    if args.trace:
        metrics = per_layer_metrics(untraced, traced, bare)
    else:
        metrics = end_to_end_metrics(untraced, setup)

    print(f"workload {args.workload}, seed {args.seed}; {machine()}")
    if walls:
        print(
            f"wall_s median {statistics.median(walls):.4f} s, slowest {max(walls):.4f} s "
            f"over {len(walls)} untraced passes (too few for a percentile with ten beyond it)"
        )
        print("pass wall_s: " + " ".join(f"{w:.4f}" for w in walls))
    print(
        f"setup_s median {statistics.median(s for s, _ in setup):.4f} s wall, "
        f"{statistics.median(n for _, n in setup):.4f} s at the reference speed; "
        f"bare interpreter start median {statistics.median(bare):.4f} s "
        f"({SETUP_SAMPLES} and {BARE_SAMPLES} samples)"
    )
    print(f"failed_ratio {len(failures) / attempted:.6f} ({len(failures)} of {attempted} cases)")
    for message in failures[:20]:
        print(f"FAILED {message}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": not failures and len(walls) == len(untraced),
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
