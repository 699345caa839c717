"""One harness for the committed ``BENCH_*.json`` benchmark suites.

Each ``benchmarks/bench_<name>.py`` script keeps only its workload code
and one ``SUITE = Suite(...)`` declaration; this module owns the rest:

* :func:`best_of`, the one adaptive best-of timer;
* :func:`env`, the host block every document records (including
  ``available_cpus``, the CPUs the scheduler really gives the process);
* the CLI — ``--quick`` (the suite's small smoke sweep), ``--out`` and
  ``--validate FILE``;
* :meth:`Suite.validate`, driven entirely by the declaration, and the
  printed report (built on :func:`repro.bench.reporting.format_table`);
* writing the document, only once it validates.

A document is ``{"schema", "config", "env", "results"[, "summary"]}``
where ``config`` is the sweep the suite ran (its ``full`` or ``quick``
settings) and ``results``/``summary`` come from the suite's ``run``.

The same declaration is the regression plan: ``check_regression.py``
maps ``BENCH_<name>.json`` to the ``SUITE`` of ``bench_<name>.py``
(:func:`for_document`), validates the document, then compares each
table's and the summary's ``metrics`` against the committed baseline.

Adding a suite is one file: write ``bench_<name>.py`` with workload code
and a ``SUITE`` whose schema is ``bench_<name>/N``, finish it with
``sys.exit(SUITE.main())``, run it and commit ``BENCH_<name>.json``.
"""

import argparse
import importlib
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Tuple

import numpy as np

from repro._native import cc
from repro.bench.reporting import format_table
from repro.smp.cpus import usable_cpus

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Keep timing a case until this much total time has elapsed (or the
#: repeat cap is hit): sub-millisecond cases need many repeats before
#: the best-of is stable on a shared machine.
MIN_TIMING_SECONDS = 0.02
MAX_REPEATS = 200

def best_of(fn, repeats):
    """Best wall time of ``fn()``; returns ``(best_s, last_output)``.

    Runs at least ``repeats`` times, and keeps going until
    :data:`MIN_TIMING_SECONDS` of total time (at most
    :data:`MAX_REPEATS` runs).
    """
    best = float("inf")
    total = 0.0
    runs = 0
    out = None
    while runs < repeats or (total < MIN_TIMING_SECONDS and runs < MAX_REPEATS):
        start = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        total += elapsed
        runs += 1
    return best, out


def env():
    """The host a document was recorded on.

    ``available_cpus`` is :func:`repro.smp.cpus.usable_cpus` (affinity
    mask capped by the cgroup quota), never the ``REPRO_NATIVE_THREADS``
    override, so gates armed by it follow the real hardware.
    """
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "available_cpus": usable_cpus(),
        "compiler": cc.find_compiler(),
    }


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Ratio:
    """A derived field that must equal ``num / den`` to relative ``tol``.

    Without ``base`` both operands come from the same row.  With ``base
    = (field, value)``, ``num`` comes from the baseline row of the row's
    series (the rows sharing the ``series`` fields): the row whose
    ``field`` equals ``value``, which must come first in its series.
    """

    field: str
    num: str
    den: str
    tol: float = 1e-9
    series: Tuple[str, ...] = ()
    base: Optional[Tuple[str, object]] = None


@dataclass(frozen=True)
class Table:
    """One row table of a document and every gate on its rows.

    ``where`` selects the rows this table covers from the list at
    ``path`` (all of them by default); every row at a path must be
    covered by some table, and every table must cover at least one row.
    A table without a ``key`` only adds conditions on rows that another
    table at the same path reports.
    """

    path: Tuple[str, ...] = ("results",)
    where: Mapping[str, object] = field(default_factory=dict)
    #: Identity fields: rows are matched to the baseline by these.
    key: Tuple[str, ...] = ()
    required: Tuple[str, ...] = ()
    #: field -> allowed values.
    enums: Mapping[str, Tuple] = field(default_factory=dict)
    #: Numeric fields that must be > 0 (timings).
    positive: Tuple[str, ...] = ()
    #: field -> (lo, hi): numeric and inside the closed range; None is
    #: unbounded.
    within: Mapping[str, Tuple] = field(default_factory=dict)
    ratios: Tuple[Ratio, ...] = ()
    #: Correctness flags that must be ``true`` in every row.
    true: Tuple[str, ...] = ()
    #: Regression plan: (field, kind); ``higher``/``lower`` are banded by
    #: ``check_regression.py``, ``bool`` is a zero-tolerance flag.
    metrics: Tuple[Tuple[str, str], ...] = ()

    @property
    def name(self):
        return "/".join(self.path)

    def covers(self, row):
        return all(row.get(k) == v for k, v in self.where.items())

    def rows(self, doc):
        """This table's rows as ``(index, row)`` pairs; [] if absent."""
        node = doc
        for part in self.path:
            node = node.get(part, {}) if isinstance(node, dict) else {}
        if not isinstance(node, list):
            return []
        return [
            (i, row) for i, row in enumerate(node)
            if isinstance(row, dict) and self.covers(row)
        ]

    def validate(self, doc):
        rows = self.rows(doc)
        if not rows:
            where = f" with {dict(self.where)}" if self.where else ""
            raise ValueError(f"{self.name} needs at least one row{where}")
        bases = {}
        for i, row in rows:
            at = f"{self.name}[{i}]"
            for name in self.required:
                if name not in row:
                    raise ValueError(f"{at} missing {name!r}")
            for name, allowed in self.enums.items():
                if row.get(name) not in allowed:
                    raise ValueError(f"{at} unknown {name} {row.get(name)!r}")
            for name in self.positive:
                if not (_is_number(row.get(name)) and row[name] > 0):
                    raise ValueError(f"{at}.{name} must be positive")
            for name, (lo, hi) in self.within.items():
                value = row.get(name)
                if not (_is_number(value)
                        and (lo is None or value >= lo)
                        and (hi is None or value <= hi)):
                    raise ValueError(
                        f"{at}.{name} must be within [{lo}, {hi}], "
                        f"got {value!r}"
                    )
            for name in self.true:
                if row.get(name) is not True:
                    raise ValueError(f"{at}.{name} must be true")
            for ratio in self.ratios:
                num = row[ratio.num]
                if ratio.base is not None:
                    series = (ratio,) + tuple(row[f] for f in ratio.series)
                    base_field, base_value = ratio.base
                    if row[base_field] == base_value:
                        bases[series] = row[ratio.num]
                    if series not in bases:
                        raise ValueError(
                            f"{at} has no {base_field}={base_value} "
                            "baseline row before it"
                        )
                    num = bases[series]
                expected = num / row[ratio.den]
                if abs(row[ratio.field] - expected) > ratio.tol * max(
                    expected, 1.0
                ):
                    raise ValueError(f"{at}.{ratio.field} inconsistent")


@dataclass(frozen=True)
class Suite:
    """One benchmark suite: its workload, sweeps, document and gates."""

    #: ``bench_<name>/<version>``; the script is ``bench_<name>.py`` and
    #: its committed document ``BENCH_<name>.json``.
    schema: str
    #: ``run(**settings)`` -> ``{"results": ..., "summary": ...}``.
    run: Callable
    #: Sweep settings of a full run and of a ``--quick`` smoke run.
    full: Mapping
    quick: Mapping
    tables: Tuple[Table, ...]
    #: Summary flags that must be ``true``.
    summary_true: Tuple[str, ...] = ()
    #: Summary regression plan, as :attr:`Table.metrics`.
    summary_metrics: Tuple[Tuple[str, str], ...] = ()
    #: Gates that fit no table: ``check(doc)`` raises ValueError.
    checks: Tuple[Callable, ...] = ()

    @property
    def name(self):
        return self.schema.split("/")[0][len("bench_"):]

    @property
    def sections(self):
        summary = self.summary_true or self.summary_metrics or self.checks
        return ("config", "env", "results") + (("summary",) if summary else ())

    def validate(self, doc):
        """Raise ValueError unless ``doc`` passes every declared gate."""
        try:
            self._validate(doc)
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed document: {exc!r}") from exc

    def _validate(self, doc):
        if not isinstance(doc, dict) or doc.get("schema") != self.schema:
            got = doc.get("schema") if isinstance(doc, dict) else None
            raise ValueError(
                f"schema mismatch: expected {self.schema!r}, got {got!r}"
            )
        for section in self.sections:
            if section not in doc:
                raise ValueError(f"missing section {section!r}")
        for table in self.tables:
            table.validate(doc)
        for path in {t.path for t in self.tables}:
            tables = [t for t in self.tables if t.path == path]
            node = doc
            for part in path:
                node = node[part]
            for i, row in enumerate(node):
                if not any(t.covers(row) for t in tables):
                    shown = {k: row.get(k) for t in tables for k in t.where}
                    raise ValueError(
                        f"{'/'.join(path)}[{i}] matches no table: {shown}"
                    )
        for name in self.summary_true:
            if doc["summary"].get(name) is not True:
                raise ValueError(f"summary.{name} must be true")
        for check in self.checks:
            check(doc)

    def report(self, doc):
        """Print every keyed table and the summary."""
        for table in self.tables:
            if not table.key:
                continue
            rows = [
                [_cell(row.get(f)) for f in table.required]
                for _, row in table.rows(doc)
            ]
            print(f"\n{table.name}"
                  + (f" {dict(table.where)}" if table.where else ""))
            print(format_table(table.required, rows))
        if doc.get("summary"):
            print("\nsummary")
            for name, value in doc["summary"].items():
                print(f"  {name}: {_cell(value)}")

    def main(self, argv=None):
        """CLI: run the full (or ``--quick``) sweep, or ``--validate``."""
        parser = argparse.ArgumentParser(
            description=f"Run the {self.schema} benchmark suite, print its "
                        "report and write the document if it validates."
        )
        parser.add_argument("--quick", action="store_true",
                            help="run the small smoke-test sweep")
        parser.add_argument("--out", default=f"BENCH_{self.name}.json",
                            help="output JSON path")
        parser.add_argument("--validate", metavar="FILE",
                            help="validate an existing document and exit")
        args = parser.parse_args(argv)

        if args.validate:
            with open(args.validate) as handle:
                doc = json.load(handle)
            try:
                self.validate(doc)
            except ValueError as exc:
                print(f"{args.validate}: INVALID: {exc}", file=sys.stderr)
                return 1
            print(f"{args.validate}: valid {self.schema} document")
            return 0

        settings = dict(self.quick if args.quick else self.full)
        doc = {
            "schema": self.schema,
            "config": settings,
            "env": env(),
            **self.run(**settings),
        }
        self.report(doc)
        try:
            self.validate(doc)
        except ValueError as exc:
            print(f"\n{self.schema}: gate failed, {args.out} not written: "
                  f"{exc}", file=sys.stderr)
            return 1
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=2)
            handle.write("\n")
        print(f"\nwrote {args.out}")
        return 0


def _cell(value):
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, (dict, list)):
        return json.dumps(value)
    return "-" if value is None else str(value)


def for_document(filename):
    """The suite owning ``BENCH_<name>.json``: ``bench_<name>.py``'s SUITE.

    Raises ValueError for a document no suite owns.
    """
    stem = os.path.splitext(os.path.basename(filename))[0]
    if not stem.startswith("BENCH_"):
        raise ValueError(f"{filename}: not a BENCH_<name>.json document")
    module_name = "bench_" + stem[len("BENCH_"):]
    if not os.path.exists(os.path.join(BENCH_DIR, module_name + ".py")):
        raise ValueError(
            f"{filename}: orphaned document, no benchmarks/{module_name}.py"
        )
    sys.path.insert(0, BENCH_DIR)
    try:
        module = importlib.import_module(module_name)
    finally:
        sys.path.remove(BENCH_DIR)
    owner = getattr(module, "SUITE", None)
    if not isinstance(owner, Suite):
        raise ValueError(
            f"{filename}: orphaned document, {module_name}.py declares no SUITE"
        )
    return owner
