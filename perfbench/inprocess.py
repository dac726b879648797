"""Case lists of the in-process workloads: decomp-levels, hasse-sweep, ring-degree.

Every call goes through a module attribute (``decomp.omega_decomposition``,
not a name imported from it), so the wrappers ``layertrace`` installs see it.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from mfdecomp import decomp, eisenstein, hilbert, levels, ringalg
from mfdecomp.levels import CongruenceGroup, GroupKind, Weight1Data

import workloads as wl
from workloads import Case

#: Each block: its decomposition, the Gamma1(q) whose dimension sequence is
#: the deconvolution oracle, the smallest supported Gamma1 level, and the
#: golden TSV of its Gamma1 table, if one is packaged.
BLOCKS = {
    "omega": (lambda g, w1: decomp.omega_decomposition(g, w1), 1, 2, "omega.tsv"),
    "level2": (lambda g, w1: decomp.level2_decomposition(g, w1), 2, 4, "level2.tsv"),
    "level3": (lambda g, w1: decomp.level3_decomposition(g, w1), 3, 5, "level3.tsv"),
    "level4": (lambda g, w1: decomp.level456_decomposition(g, 4, w1), 4, 4, None),
    "level5or6": (lambda g, w1: decomp.level456_decomposition(g, 5, w1), 5, 5, None),
}

KIND_NAMES = {GroupKind.GAMMA0: "g0", GroupKind.GAMMA1: "g1", GroupKind.GAMMA_FULL: "g"}


def build_cases(workload: str) -> list[Case]:
    if workload == "decomp-levels":
        return decomp_levels_cases(Weight1Data.default())
    if workload == "hasse-sweep":
        return hasse_sweep_cases()
    if workload == "ring-degree":
        return ring_degree_cases()
    raise ValueError(f"{workload} is not an in-process workload")


# ---------------------------------------------------------------------------
# decomp-levels


def decomp_levels_cases(w1: Weight1Data) -> list[Case]:
    cases = [
        Case(f"gamma0 {n}", lambda n=n: _gamma0(n, w1), _agrees_with_oracle)
        for n in range(2, 401)
    ]
    for kind, levels_ in ((GroupKind.GAMMA1, range(2, 43)), (GroupKind.GAMMA_FULL, range(3, 12))):
        for n in levels_:
            for block, (_, _, min_gamma1, _) in BLOCKS.items():
                if kind is GroupKind.GAMMA1 and n < min_gamma1:
                    continue
                group = CongruenceGroup(kind, n)
                cases.append(
                    Case(
                        f"{block} {group}",
                        lambda group=group, block=block: _block(group, block, w1),
                        _block_check(kind, n, block),
                    )
                )
    cases.append(Case("gamma1-31-by-7", lambda: _negative_multiplicity(w1), _raised_negative))
    for q in (7, 8, 9, 11, 13):
        cases.append(Case(f"obstruction {q}", lambda q=q: _obstruction(q), _obstruction_check(q)))
    for kind, name in KIND_NAMES.items():
        for n in range(2, 1001):
            group = CongruenceGroup(kind, n)
            cases.append(
                Case(
                    f"invariants {group}",
                    lambda group=group: _invariants(group),
                    _invariants_check(name, n),
                )
            )
    return cases


def _gamma0(n: int, w1: Weight1Data) -> dict:
    group = CongruenceGroup(GroupKind.GAMMA0, n)
    seq = decomp.omega_decomposition(group, w1)
    oracle = decomp.deconvolve_by_gamma1_block(group, 1, w1)
    report = decomp.verify_consistency(seq, w1)
    closed = seq.as_list()
    return {"list": closed, "oracle_agrees": oracle.as_list(12) == closed, "consistent": report.ok}


def _agrees_with_oracle(obs: dict) -> str | None:
    if not obs["oracle_agrees"]:
        return "closed form differs from the deconvolution oracle"
    if not obs.get("consistent", True):
        return "verify_consistency failed"
    return None


def _block(group: CongruenceGroup, block: str, w1: Weight1Data) -> dict:
    make, q, _, _ = BLOCKS[block]
    closed = make(group, w1).as_list()
    oracle = decomp.deconvolve_by_gamma1_block(group, q, w1).as_list(len(closed))
    return {"list": closed, "oracle_agrees": oracle == closed}


def _block_check(kind: GroupKind, n: int, block: str):
    golden = BLOCKS[block][3]

    def check(obs: dict) -> str | None:
        problem = _agrees_with_oracle(obs)
        if problem or kind is not GroupKind.GAMMA1 or golden is None:
            return problem
        rows = wl.golden_rows(golden)
        if n not in rows:
            return None
        row = rows[n][1:] if block == "omega" else rows[n]  # omega has a genus column
        return None if obs["list"] == row else f"differs from golden {golden} row {row}"

    return check


def _negative_multiplicity(w1: Weight1Data) -> dict:
    try:
        decomp.deconvolve_by_gamma1_block(CongruenceGroup(GroupKind.GAMMA1, 31), 7, w1)
    except hilbert.NegativeMultiplicity as exc:
        return {"raised": "NegativeMultiplicity", "shift": exc.shift, "value": exc.value}
    return {"raised": None}


def _raised_negative(obs: dict) -> str | None:
    if obs["raised"] != "NegativeMultiplicity":
        return "Gamma1(31) by Gamma1(7) did not raise NegativeMultiplicity"
    return None


def _digest(items) -> str:
    return hashlib.sha256(",".join(map(str, items)).encode()).hexdigest()


def _obstruction(q: int) -> dict:
    report = decomp.obstruction_search(q, wl.OBSTRUCTION_BOUND)
    witnesses = report.witnesses()
    return {
        "d_q": report.d_q,
        "divisor": report.divisor,
        "residue": report.witness_residue,
        "primes": len(report.primes),
        "witnesses": len(witnesses),
        "witness_digest": _digest(witnesses),
    }


def _obstruction_check(q: int):
    def check(obs: dict) -> str | None:
        d_q = wl.sl2_index("g1", q)
        if obs["d_q"] != d_q:
            return f"d_q = {obs['d_q']}, product formula gives {d_q}"
        count, witnesses = wl.obstruction_witnesses(q, d_q, wl.OBSTRUCTION_BOUND)
        if (obs["primes"], obs["witness_digest"]) != (count, _digest(witnesses)):
            return "prime list or witnesses differ from an independent sieve"
        return None

    return check


def _invariants(group: CongruenceGroup) -> list:
    inv = levels.level_invariants(group)
    return [inv.index, str(inv.omega_degree), inv.cusps, inv.elliptic2, inv.elliptic3, inv.genus]


def _invariants_check(kind: str, n: int):
    def check(obs: list) -> str | None:
        index = wl.sl2_index(kind, n)
        if obs[0] != index or obs[1] != str(Fraction(index, 24)):
            return f"index/omega degree differ from the product formula {index}"
        return None if obs[5] >= 0 else "negative genus"

    return check


# ---------------------------------------------------------------------------
# hasse-sweep


def hasse_sweep_cases() -> list[Case]:
    return [Case(f"hasse {p}", lambda p=p: _hasse(p), _hasse_check(p)) for p in wl.hasse_primes()]


def _hasse(p: int) -> dict:
    report = eisenstein.hasse_lift(p, wl.HASSE_PRECISION)
    claim = eisenstein.valuation_claim_check(p)
    return {
        "verdict": report.verdict,
        "m": report.m,
        "v2_l": str(report.v2_l),
        "claim_ok": claim.ok,
        "claim_v2_l": str(claim.v2_l),
        "report_digest": _digest([report.to_json()]),
        "averaged_digest": _digest(report.averaged),
    }


def _hasse_check(p: int):
    def check(obs: dict) -> str | None:
        v2 = str(wl.expected_v2_l(p))
        if obs["m"] != wl.two_adic_order(p - 1):
            return f"m = {obs['m']}, expected {wl.two_adic_order(p - 1)}"
        if obs["v2_l"] != v2 or obs["claim_v2_l"] != v2:
            return f"v2(L) = {obs['v2_l']} / {obs['claim_v2_l']}, expected {v2}"
        if obs["verdict"] != "pass" or not obs["claim_ok"]:
            return "lift or valuation claim failed"
        return None

    return check


# ---------------------------------------------------------------------------
# ring-degree


def ring_degree_cases() -> list[Case]:
    cases = [
        Case(f"freebasis {name}", lambda name=name: _free_basis(name), _free_check)
        for name in sorted(ringalg.PRESETS)
    ]
    for name, (_, _, _, regular) in sorted(ringalg.REGULAR_SEQUENCE_CASES.items()):
        cases.append(
            Case(f"regseq {name}", lambda name=name: _regular_sequence(name), _regular_check(regular))
        )
    return cases


def _free_basis(name: str) -> dict:
    algebra, spec, basis, _ = ringalg.PRESETS[name]
    cert = ringalg.verify_free_basis(algebra, spec, basis, wl.FREE_BASIS_BOUND)
    return {
        "verdict": cert.verdict,
        "bound": cert.bound,
        "failing_degree": cert.failing_degree,
        "failure_kind": cert.failure_kind,
    }


def _free_check(obs: dict) -> str | None:
    if obs["verdict"] != "free" or obs["bound"] != wl.FREE_BASIS_BOUND:
        return f"not certified free through degree {wl.FREE_BASIS_BOUND}"
    return None


def _regular_sequence(name: str) -> dict:
    char, variables, exprs, _ = ringalg.REGULAR_SEQUENCE_CASES[name]
    algebra = ringalg.GradedAlgebra(char, variables)
    elements = [ringalg.parse_polynomial(algebra, e) for e in exprs]
    verdict = ringalg.verify_regular_sequence(algebra, elements, wl.REGULAR_SEQUENCE_BOUND)
    return {
        "regular": verdict.regular,
        "bound": verdict.bound,
        "failing_index": verdict.failing_index,
        "failing_degree": verdict.failing_degree,
    }


def _regular_check(regular: bool):
    def check(obs: dict) -> str | None:
        if obs["regular"] != regular:
            return f"regular = {obs['regular']}, the case states {regular}"
        return None

    return check
