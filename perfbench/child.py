"""Child process of the benchmark; run.py starts one per pass or per command.

    child.py pass <workload> <seed> <trace 0|1>
        Run one pass of an in-process workload in this fresh interpreter and
        print one JSON line: the pass's times and its reference chunks (see
        workloads.run_cases), cases attempted, failure messages, the import
        time of mfdecomp.cli, peak RSS before the checks and, when traced,
        the per-target totals.

    child.py cli <totals.json> <mfdecomp arguments...>
        Trace one ``mfdecomp`` command: install the wrappers, call
        ``mfdecomp.cli.main(argv)``, write the totals and spans, exit with the
        command's exit code.  Its stdout is the command's stdout.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def _import_cli() -> float:
    start = perf_counter()
    import mfdecomp.cli  # noqa: F401

    return perf_counter() - start


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    import_s = _import_cli()
    import inprocess
    import workloads as wl

    tracer = None
    if trace:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    cases = wl.permuted(inprocess.build_cases(workload), seed)
    # No reference chunks inside traced calls, so the layers' times stay
    # their own; traced passes feed only the per-layer metrics.
    times, observations = wl.run_cases(cases, timer=not trace)
    # High-water mark of the import and the cases, before the checks below
    # load the expectations.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        **times,
        "attempted": len(cases),
        "import_s": import_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        tracer.uninstall()
        result["totals"] = tracer.totals()
        tracer.write_spans(wl.OUT / f"spans-{workload}.tsv")
    result["failures"] = wl.judge_all(cases, observations, wl.load_expected(workload))
    return result


def trace_cli(totals_path: Path, argv: list[str]) -> int:
    import_s = _import_cli()
    import layertrace
    import mfdecomp.cli

    tracer = layertrace.Tracer()
    tracer.install()
    try:
        return mfdecomp.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        totals_path.write_text(json.dumps({"totals": tracer.totals(), "import_s": import_s}))
        tracer.write_spans(totals_path.with_suffix(".spans.tsv"))


def main(argv: list[str]) -> int:
    if argv[0] == "pass":
        workload, seed, trace = argv[1], int(argv[2]), argv[3] == "1"
        print(json.dumps(run_pass(workload, seed, trace)))
        return 0
    if argv[0] == "cli":
        return trace_cli(Path(argv[1]), argv[2:])
    raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
