"""Validity and tolerance-banded trajectory gate over the benchmark documents.

Each ``BENCH_<name>.json`` belongs to the ``SUITE`` declared in
``benchmarks/bench_<name>.py`` (see :mod:`suite`), which is both its
validator and its regression plan.  Every checked document must first
pass its suite's validator (a document no suite owns fails); it is then
diffed against the committed baseline metric by metric, inside a
tolerance band, so a change that silently halves a kernel speedup or
breaks tree-identity fails the gate instead of merging as "benchmarks
still validate".

Comparison rules per metric class:

* **higher-better** ratios (``speedup``, ``speedup_vs_oracle``): fail
  when ``current < baseline * (1 - tolerance)``;
* **lower-better** timings (``build_s``): fail when
  ``current > baseline * (1 + tolerance)``;
* **correctness booleans** (``tree_matches_virtual``, ``tree_matches``,
  ``all_trees_match``, ``all_outputs_match_oracle``): zero tolerance —
  a baseline ``true`` must stay ``true``.

Rows are matched by identity keys (kernel/profile/records, dataset/
scheme/procs, tree/backend/batch/threads…); rows present only on one
side are reported but never fail the gate — hardware-dependent sweeps
legitimately grow and shrink.  Raw ``seconds`` / ``before_s`` style
absolutes are deliberately *not* gated: they move with the host, while
the gated ratios are host-relative by construction.

Run from the repository root::

    PYTHONPATH=src python benchmarks/check_regression.py              # self-check
    PYTHONPATH=src python benchmarks/check_regression.py --current out/
    PYTHONPATH=src python benchmarks/check_regression.py --report-only

With no ``--current``, every committed baseline is validated and
compared against itself — the self-check CI runs as a blocking job,
which fails on an invalid document, an unknown schema or a document no
suite owns.  ``--stable-only`` gates only the host-independent
correctness flags (tree identity, oracle agreement) for fresh documents
from shared runners, where timing/ratio metrics print without failing;
release machines drop the flag and gate the full band.
``--report-only`` remains for purely advisory runs.
"""

import argparse
import glob
import json
import os
import sys

import suite

#: Allowed relative degradation before a metric fails the gate.
DEFAULT_TOLERANCE = 0.25

#: Metric kinds gated under ``--stable-only`` (shared-runner CI): only
#: host-independent correctness flags; timing/ratio metrics move with
#: the machine and stay advisory there.
STABLE_KINDS = ("bool",)


class Verdict:
    """One compared metric: identity, values, and pass/fail."""

    def __init__(self, doc, where, metric, baseline, current, ok, note=""):
        self.doc = doc
        self.where = where
        self.metric = metric
        self.baseline = baseline
        self.current = current
        self.ok = ok
        self.note = note

    def line(self):
        mark = "ok  " if self.ok else "FAIL"
        if isinstance(self.baseline, bool) or isinstance(self.current, bool):
            detail = f"{self.baseline} -> {self.current}"
        else:
            detail = f"{self.baseline:.4g} -> {self.current:.4g}"
        suffix = f"  [{self.note}]" if self.note else ""
        return f"  {mark}  {self.where} {self.metric}: {detail}{suffix}"


def _index(table, doc):
    return {
        tuple(row.get(f) for f in table.key): row
        for _, row in table.rows(doc)
    }


def _compare(kind, baseline, current, tolerance):
    """(ok, note) under the tolerance band for this metric kind."""
    if kind == "bool":
        if bool(baseline) and not bool(current):
            return False, "correctness flag regressed (zero tolerance)"
        return True, ""
    baseline = float(baseline)
    current = float(current)
    if kind == "higher":
        floor = baseline * (1.0 - tolerance)
        if current < floor:
            return False, f"below {floor:.4g} (-{tolerance:.0%} band)"
        return True, ""
    if kind == "lower":
        ceiling = baseline * (1.0 + tolerance)
        if current > ceiling:
            return False, f"above {ceiling:.4g} (+{tolerance:.0%} band)"
        return True, ""
    raise ValueError(f"unknown metric kind {kind!r}")


def check_doc(owner, name, baseline_doc, current_doc, tolerance,
              stable_only=False):
    """Compare one benchmark document pair under ``owner``'s regression
    plan; returns (verdicts, notes).

    With ``stable_only`` only the host-independent metric kinds in
    :data:`STABLE_KINDS` are gated — correctness flags must hold even
    on noisy shared runners, while timings merely report.
    """
    schema = baseline_doc.get("schema")
    if current_doc.get("schema") != schema:
        raise ValueError(
            f"{name}: schema mismatch — baseline {schema!r}, "
            f"current {current_doc.get('schema')!r}"
        )
    verdicts, notes = [], []
    for spec in owner.tables:
        if not spec.metrics:
            continue
        base = _index(spec, baseline_doc)
        cur = _index(spec, current_doc)
        only_base = sorted(set(base) - set(cur), key=repr)
        only_cur = sorted(set(cur) - set(base), key=repr)
        table = spec.name
        if only_base:
            notes.append(
                f"  note  {name} {table}: {len(only_base)} baseline row(s) "
                f"missing from current (not gated), e.g. {only_base[0]}"
            )
        if only_cur:
            notes.append(
                f"  note  {name} {table}: {len(only_cur)} new row(s) with "
                f"no baseline (not gated)"
            )
        for key in sorted(set(base) & set(cur), key=repr):
            where = f"{table}{list(key)}"
            for metric, kind in spec.metrics:
                if metric not in base[key] or metric not in cur[key]:
                    continue
                # Null metrics mean "not measured on this host" (e.g.
                # native-relative speedups without a C compiler) — an
                # absent measurement is a note-worthy gap, not a fail.
                if base[key][metric] is None or cur[key][metric] is None:
                    continue
                if stable_only and kind not in STABLE_KINDS:
                    continue
                ok, note = _compare(
                    kind, base[key][metric], cur[key][metric], tolerance
                )
                verdicts.append(
                    Verdict(name, where, metric,
                            base[key][metric], cur[key][metric], ok, note)
                )
    base_summary = baseline_doc.get("summary", {})
    cur_summary = current_doc.get("summary", {})
    for metric, kind in owner.summary_metrics:
        if metric not in base_summary or metric not in cur_summary:
            continue
        if base_summary[metric] is None or cur_summary[metric] is None:
            continue
        if stable_only and kind not in STABLE_KINDS:
            continue
        ok, note = _compare(
            kind, base_summary[metric], cur_summary[metric], tolerance
        )
        verdicts.append(
            Verdict(name, "summary", metric,
                    base_summary[metric], cur_summary[metric], ok, note)
        )
    return verdicts, notes


def _load(path):
    with open(path) as handle:
        return json.load(handle)


def _collect_current(current, baseline_dir):
    """Map baseline file name -> current document path."""
    if current is None:
        # Self-check: every baseline against itself.
        pattern = os.path.join(baseline_dir, "BENCH_*.json")
        return {os.path.basename(p): p for p in sorted(glob.glob(pattern))}
    if os.path.isdir(current):
        pattern = os.path.join(current, "BENCH_*.json")
        return {os.path.basename(p): p for p in sorted(glob.glob(pattern))}
    return {os.path.basename(current): current}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="gate benchmark documents against committed baselines"
    )
    parser.add_argument(
        "--current", default=None,
        help="candidate BENCH_*.json file or directory of them "
             "(default: compare the baselines against themselves)",
    )
    parser.add_argument(
        "--baseline-dir",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="directory holding the committed baselines (default: repo root)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed relative degradation for ratio/timing metrics "
             f"(default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--report-only", action="store_true",
        help="print the full report but always exit 0 (advisory mode)",
    )
    parser.add_argument(
        "--stable-only", action="store_true",
        help="gate only host-independent correctness flags; timing and "
             "ratio metrics report without failing (blocking CI mode "
             "for shared runners)",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="print every compared metric, not just failures",
    )
    args = parser.parse_args(argv)

    current_docs = _collect_current(args.current, args.baseline_dir)
    if not current_docs:
        print("check_regression: no BENCH_*.json documents to check")
        return 2
    checked = failures = 0
    for name in sorted(current_docs):
        try:
            current = _load(current_docs[name])
            owner = suite.for_document(name)
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            print(f"  FAIL  {name}: {exc}")
            failures += 1
            continue
        try:
            owner.validate(current)
        except ValueError as exc:
            # Still compared below, so a failed gate also shows which
            # metrics moved.
            print(f"  FAIL  {name}: invalid document: {exc}")
            failures += 1
        baseline_path = os.path.join(args.baseline_dir, name)
        if not os.path.exists(baseline_path):
            print(f"  note  {name}: no committed baseline (not compared)")
            continue
        try:
            verdicts, notes = check_doc(
                owner, name, _load(baseline_path), current,
                args.tolerance, stable_only=args.stable_only,
            )
        except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
            print(f"  FAIL  {name}: {exc}")
            failures += 1
            continue
        bad = [v for v in verdicts if not v.ok]
        checked += len(verdicts)
        failures += len(bad)
        print(
            f"{name}: {len(verdicts)} metric(s) gated, "
            f"{len(bad)} regression(s)"
        )
        for note in notes:
            print(note)
        for verdict in verdicts if args.verbose else bad:
            print(verdict.line())
    print(
        f"check_regression: {checked} metric(s) checked, "
        f"{failures} failure(s), tolerance {args.tolerance:.0%}"
    )
    if failures and args.report_only:
        print("check_regression: report-only mode, not failing the build")
        return 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
