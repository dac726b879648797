"""Layer tracing: wrap mfdecomp's public functions, record spans and counts.

``Tracer.install`` replaces each target by a wrapper everywhere it is bound:
the defining module, every ``from .x import f`` alias in the other mfdecomp
modules (and in this benchmark's modules), and the class attribute for
methods of ``CyclotomicElement`` and ``Polynomial``.

Per target the tracer counts every call: calls, inclusive seconds (outermost
calls only, so recursion is not counted twice), self seconds (inclusive minus
the time in wrapped child calls), calls that raised, distinct argument tuples
and, for three targets, a computed work size.  A call that crosses a layer
boundary (its nearest wrapped caller is in another module, or there is none)
also becomes a span (target, start, end, parent span) kept in memory;
``write_spans`` puts them in a file when the traced process ends.  Calls
inside one layer, such as the additions inside a cyclotomic norm, are only
counted: there are millions of them.
"""

from __future__ import annotations

import functools
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable


def _coeff_products(a, b) -> int:
    """Coefficient products one CyclotomicElement.__mul__ computes."""
    return sum(1 for x in a.coords if x) * sum(1 for y in b.coords if y)


def _term_products(a, b) -> int:
    return len(a.terms) * len(b.terms)


def _cells(algebra, rows) -> int:
    return len(rows) * (len(rows[0]) if rows else 0)


@dataclass(frozen=True)
class Target:
    name: str  # metric prefix, e.g. "exactnum.norm"
    module: str
    attr: str  # "f" or "Class.method"
    report: tuple[str, ...]  # which statistics become per-layer metrics
    work: tuple[str, Callable[..., int]] | None = None  # (metric, computed size of a call)

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]


TARGETS = (
    Target("exactnum.norm", "mfdecomp.exactnum", "CyclotomicElement.norm", ("calls", "s", "self_s")),
    Target("exactnum.mul", "mfdecomp.exactnum", "CyclotomicElement.__mul__", ("calls", "self_s", "coeff_products"), ("coeff_products", _coeff_products)),
    Target("exactnum.galois", "mfdecomp.exactnum", "CyclotomicElement.galois", ("calls", "s", "self_s")),
    Target("exactnum.add", "mfdecomp.exactnum", "CyclotomicElement.__add__", ("calls", "self_s")),
    Target("exactnum.two_adic_valuation", "mfdecomp.exactnum", "CyclotomicElement.two_adic_valuation", ("calls", "s")),
    Target("eisenstein.hasse_lift", "mfdecomp.eisenstein", "hasse_lift", ("calls", "s", "self_s")),
    Target("eisenstein.valuation_claim_check", "mfdecomp.eisenstein", "valuation_claim_check", ("calls", "s", "self_s")),
    Target("eisenstein.l_value", "mfdecomp.eisenstein", "l_value", ("calls", "s", "self_s", "distinct_ratio")),
    Target("eisenstein.eisenstein_q_expansion", "mfdecomp.eisenstein", "eisenstein_q_expansion", ("calls", "s", "self_s")),
    Target("eisenstein.odd_two_power_character", "mfdecomp.eisenstein", "odd_two_power_character", ("calls", "s", "distinct_ratio")),
    Target("hilbert.h0_dim", "mfdecomp.hilbert", "h0_dim", ("calls", "self_s", "distinct_ratio")),
    Target("hilbert.h1_dim", "mfdecomp.hilbert", "h1_dim", ("calls", "self_s")),
    Target("hilbert.deconvolve", "mfdecomp.hilbert", "deconvolve", ("calls", "s", "self_s", "failed")),
    Target("hilbert.serre_duality_check", "mfdecomp.hilbert", "serre_duality_check", ("calls", "s")),
    Target("levels.dim_modular_forms", "mfdecomp.levels", "dim_modular_forms", ("calls", "s", "self_s", "distinct_ratio")),
    Target("levels.dim_cusp_forms", "mfdecomp.levels", "dim_cusp_forms", ("calls", "self_s")),
    Target("levels.genus", "mfdecomp.levels", "genus", ("calls", "self_s", "distinct_ratio")),
    Target("levels.level_invariants", "mfdecomp.levels", "level_invariants", ("calls", "s")),
    Target("decomp.omega_decomposition", "mfdecomp.decomp", "omega_decomposition", ("calls", "s", "self_s")),
    Target("decomp.level2_decomposition", "mfdecomp.decomp", "level2_decomposition", ("s",)),
    Target("decomp.level3_decomposition", "mfdecomp.decomp", "level3_decomposition", ("s",)),
    Target("decomp.level456_decomposition", "mfdecomp.decomp", "level456_decomposition", ("s",)),
    Target("decomp.deconvolve_by_gamma1_block", "mfdecomp.decomp", "deconvolve_by_gamma1_block", ("calls", "s", "failed")),
    Target("decomp.verify_consistency", "mfdecomp.decomp", "verify_consistency", ("calls", "s", "self_s")),
    Target("decomp.obstruction_search", "mfdecomp.decomp", "obstruction_search", ("calls", "s", "self_s")),
    Target("decomp.table_generate", "mfdecomp.decomp", "table_generate", ("calls", "s")),
    Target("ringalg.verify_free_basis", "mfdecomp.ringalg", "verify_free_basis", ("calls", "s", "self_s")),
    Target("ringalg.verify_regular_sequence", "mfdecomp.ringalg", "verify_regular_sequence", ("calls", "s", "self_s")),
    Target("ringalg.matrix_rank", "mfdecomp.ringalg", "matrix_rank", ("calls", "self_s", "cells", "distinct_ratio"), ("cells", _cells)),
    Target("ringalg.poly_mul", "mfdecomp.ringalg", "Polynomial.__mul__", ("calls", "self_s", "term_products"), ("term_products", _term_products)),
    Target("ringalg.parse_polynomial", "mfdecomp.ringalg", "parse_polynomial", ("calls", "s")),
    Target("cli.main", "mfdecomp.cli", "main", ("calls", "s", "self_s")),
)

UNITS = {"s": "s", "self_s": "s", "distinct_ratio": "ratio"}


def layer_metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-target metric, in TARGETS order."""
    return [(f"{t.name}.{stat}", UNITS.get(stat, "count")) for t in TARGETS for stat in t.report]


def _freeze(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    try:
        hash(value)
    except TypeError:  # e.g. Weight1Data, a frozen dataclass holding dicts
        return ("id", id(value))
    return value


def _arg_key(args: tuple, kwargs: dict) -> int:
    try:
        return hash((args, tuple(sorted(kwargs.items()))))
    except TypeError:
        return hash(_freeze((args, kwargs)))


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    failed: int = 0
    work: int = 0
    depth: int = 0
    keys: set = field(default_factory=set)

    def totals(self) -> dict:
        return {
            "calls": self.calls,
            "s": self.s,
            "self_s": self.self_s,
            "failed": self.failed,
            "work": self.work,
            "distinct": len(self.keys),
        }


class Tracer:
    def __init__(self) -> None:
        self.stats = [Stat() for _ in TARGETS]
        # One frame per active wrapped call: [nearest recorded span id, layer,
        # seconds spent in wrapped children].
        self._stack: list[list] = []
        self._target = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = our_modules()
        for i, target in enumerate(TARGETS):
            module = sys.modules[target.module]
            owner_name, _, attr = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._rebind(owner, attr, self._wrap(i, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(i, original)
            for alias_owner, alias in aliases_of(original, modules):
                self._rebind(alias_owner, alias, wrapper)

    def _rebind(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, i: int, fn: Callable) -> Callable:
        target = TARGETS[i]
        stat = self.stats[i]
        stack = self._stack
        spans = (self._target, self._parent, self._start, self._end)
        work = target.work[1] if target.work else None
        want_keys = "distinct_ratio" in target.report
        layer = target.layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            if work is not None:
                stat.work += work(*args, **kwargs)
            if want_keys:
                stat.keys.add(_arg_key(args, kwargs))
            caller = stack[-1] if stack else None
            if caller is None or caller[1] != layer:
                span = len(spans[0])
                spans[0].append(i)
                spans[1].append(caller[0] if caller else -1)
                spans[2].append(0.0)
                spans[3].append(0.0)
                frame = [span, layer, 0.0]
            else:
                span = -1
                frame = [caller[0], layer, 0.0]
            stack.append(frame)
            stat.depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stat.failed += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                stat.depth -= 1
                duration = end - start
                stat.self_s += duration - frame[2]
                if stat.depth == 0:
                    stat.s += duration
                if caller is not None:
                    caller[2] += duration
                if span >= 0:
                    spans[2][span] = start
                    spans[3][span] = end

        return wrapper

    # -- output ---------------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Raw per-target totals; ``layer_metrics`` turns sums of them into metrics."""
        return {t.name: s.totals() for t, s in zip(TARGETS, self.stats)}

    def write_spans(self, path: Path) -> None:
        """Spans as TSV, in the order they started: id, parent id (-1 at the
        top), target, start and end in perf_counter seconds."""
        names = [t.name for t in TARGETS]
        with open(path, "w") as out:
            out.write("id\tparent\ttarget\tstart_s\tend_s\n")
            for k, (i, parent, start, end) in enumerate(
                zip(self._target, self._parent, self._start, self._end)
            ):
                out.write(f"{k}\t{parent}\t{names[i]}\t{start:.9f}\t{end:.9f}\n")


def our_modules() -> list:
    """mfdecomp's modules and this benchmark's own."""
    here = Path(__file__).resolve().parent
    found = []
    for name, module in list(sys.modules.items()):
        path = getattr(module, "__file__", None)
        if name == "mfdecomp" or name.startswith("mfdecomp.") or (
            path is not None and Path(path).resolve().parent == here
        ):
            found.append(module)
    return found


def aliases_of(original: object, modules: list):
    """Every (module, attribute) among ``modules`` bound to ``original``."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                yield module, attr


def sum_totals(parts: list[dict[str, dict]]) -> dict[str, dict]:
    """Add the totals of several traced processes that make up one pass."""
    out: dict[str, dict] = {}
    for part in parts:
        for name, totals in part.items():
            acc = out.setdefault(name, dict.fromkeys(totals, 0))
            for key, value in totals.items():
                acc[key] += value
    return out


def layer_metrics(totals: dict[str, dict]) -> dict[str, float]:
    """Per-layer metric values of one pass from its summed totals."""
    values: dict[str, float] = {}
    for target in TARGETS:
        t = totals[target.name]
        for stat in target.report:
            if stat == "distinct_ratio":
                value = t["distinct"] / t["calls"] if t["calls"] else 0.0
            elif target.work is not None and stat == target.work[0]:
                value = t["work"]
            else:
                value = t[stat]
            values[f"{target.name}.{stat}"] = value
    return values
