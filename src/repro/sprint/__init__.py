"""SPRINT substrate: attribute lists, gini split evaluation, probes.

Serial SPRINT (Shafer, Agrawal & Mehta, VLDB 1996) is the classifier the
paper parallelizes; §2 of the paper recaps it.  This subpackage holds its
data structures and per-step kernels:

* :mod:`repro.sprint.records` — attribute-list record layouts,
* :mod:`repro.sprint.attribute_list` — building and sorting attribute
  lists from a training set,
* :mod:`repro.sprint.histogram` — class histograms (C_below/C_above) and
  categorical count matrices, plus scan-based reference split evaluation,
* :mod:`repro.sprint.gini` — vectorized gini split evaluation for
  continuous and categorical attributes (with greedy subsetting),
* :mod:`repro.sprint.runs` — run-compressed class histograms, the one
  input of continuous split search, and their numpy evaluator,
* :mod:`repro.sprint.kernels` — level-batched segmented kernels: best
  splits for all leaves of a level in one fused pass, plus the
  scratch-arena stable partition used by step S,
* :mod:`repro.sprint.probe` — the probe structures consulted while
  splitting (global bit probe, per-leaf hash probe),
* :mod:`repro.sprint.splitter` — order-preserving attribute-list splits,
* :mod:`repro.sprint.attribute_files` — the physical-file layout rules
  (4 files per attribute for BASIC, 4K for the windowed schemes, per-group
  files for SUBTREE) used for I/O accounting.
"""

from repro.sprint.attribute_list import AttributeList, build_attribute_lists
from repro.sprint.gini import (
    SplitCandidate,
    best_categorical_split,
    best_continuous_split,
    gini,
)
from repro.sprint.histogram import ClassHistogram, CountMatrix
from repro.sprint.kernels import (
    ScratchArena,
    partition_stable,
    segmented_categorical_splits,
    segmented_continuous_splits,
)
from repro.sprint.probe import BitProbe, HashProbe
from repro.sprint.runs import ValueHistogram, evaluate_runs, run_histogram
from repro.sprint.splitter import split_records

__all__ = [
    "AttributeList",
    "BitProbe",
    "ClassHistogram",
    "CountMatrix",
    "HashProbe",
    "ScratchArena",
    "SplitCandidate",
    "ValueHistogram",
    "best_categorical_split",
    "best_continuous_split",
    "build_attribute_lists",
    "evaluate_runs",
    "gini",
    "partition_stable",
    "run_histogram",
    "segmented_categorical_splits",
    "segmented_continuous_splits",
    "split_records",
]
