"""Record the expected result of every benchmark case from the current code.

    python3 perfbench/record.py

Runs each workload's cases once and writes ``perfbench/expected/<workload>.json``
and ``perfbench/expected/provenance.json``.  A workload with a case that
raises or fails an independent check is not written, so a recording never
enshrines a wrong result.  Record again only when a change is meant to alter
an output.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

import workloads as wl

sys.path.insert(0, str(wl.SRC))

#: Why each workload exists and what it runs; copied into provenance.json.
CASE_LISTS = {
    "paper-cli": [" ".join(argv) for argv in wl.PAPER_CLI],
    "decomp-levels": [
        "Gamma0(2..400): omega closed form, deconvolution oracle, verify_consistency",
        "every block decomposition (omega, level2, level3, level4, level5or6) of "
        "Gamma1(2..42) and Gamma(3..11), each with its deconvolution oracle",
        "NegativeMultiplicity for Gamma1(31) by Gamma1(7)",
        f"obstruction_search(q, {wl.OBSTRUCTION_BOUND}) for q in 7, 8, 9, 11, 13",
        "level_invariants for Gamma0, Gamma1, Gamma with 2 <= n <= 1000",
    ],
    "hasse-sweep": [
        f"hasse_lift(p, {wl.HASSE_PRECISION}) and valuation_claim_check(p) for the "
        f"{len(wl.hasse_primes())} primes p = 1 mod 4 below 1000 except "
        f"{', '.join(map(str, wl.HASSE_EXCLUDED))}"
    ],
    "ring-degree": [
        f"verify_free_basis for the four presets at degree bound {wl.FREE_BASIS_BOUND}",
        f"verify_regular_sequence for the three REGULAR_SEQUENCE_CASES at bound "
        f"{wl.REGULAR_SEQUENCE_BOUND}",
    ],
}

REASONS = {
    "paper-cli": "What a reader reproducing the paper runs; about half the time is "
    "interpreter start and import, so import-time work and cli show here.",
    "decomp-levels": "levels, hilbert and decomp do all the work with heavy "
    "recomputation (many repeated dim_modular_forms and h0_dim arguments), so "
    "memoisation or closed forms show here; exactnum and ringalg are never called.",
    "hasse-sweep": "exactnum and eisenstein do all the work across cyclotomic orders "
    "4..128; the cyclotomic norm dominates, so a faster norm shows here and nowhere else.",
    "ring-degree": "Only ringalg runs: Q presets use Bareiss elimination and F2/F3 "
    "presets use mod-p elimination, so a rank-kernel change that helps one field "
    "and costs the other shows.",
}

HASSE_EXCLUSION = (
    "p = 257 and p = 769 have cyclotomic order 256; at the seed commit hasse_lift "
    "plus valuation_claim_check take about 45 s for each, longer than a run. Add "
    "them, and re-baseline, once the tower norm lands."
)


def provenance() -> dict:
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True, text=True
    ).stdout.strip()
    from run import cpu_model

    return {
        "python": platform.python_version(),
        "git_sha": sha or "unknown",
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "workloads": {
            name: {"cases": CASE_LISTS[name], "reason": REASONS[name]} for name in wl.WORKLOADS
        },
        "hasse_sweep_excluded": {"primes": list(wl.HASSE_EXCLUDED), "reason": HASSE_EXCLUSION},
    }


def record(workload: str, cases: list[wl.Case]) -> None:
    _, observations = wl.run_cases(cases)
    table = {
        case.id: json.loads(json.dumps(obs))
        for case, obs in zip(cases, observations)
        if not isinstance(obs, wl.Raised)
    }
    problems = wl.judge_all(cases, observations, table)
    if problems:
        raise SystemExit(f"{workload}: not recorded:\n" + "\n".join(problems))
    wl.dump_expected(workload, table)
    print(f"{workload}: {len(table)} cases recorded")


def main() -> int:
    import inprocess  # imports mfdecomp from src/
    from run import CLI_CODE, Runner

    wl.OUT.mkdir(exist_ok=True)
    runner = Runner(seconds=1)

    def run_command(argv):
        code, out, _ = runner.spawn([sys.executable, "-c", CLI_CODE, *argv])
        return {"exit": code, "stdout": out.decode()}

    record("paper-cli", wl.paper_cli_cases(run_command))
    for workload in ("decomp-levels", "hasse-sweep", "ring-degree"):
        record(workload, inprocess.build_cases(workload))
    (wl.EXPECTED_DIR / "provenance.json").write_text(json.dumps(provenance(), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
