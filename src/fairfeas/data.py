"""Tabular ingestion, group statistics, and stratified down-sampling.

Labels are matched byte-for-byte against a declared positive literal
(no numeric coercion) so repeated loads are bit-exact. Intersectional
group keys join the chosen column values with "|" in schema order;
values containing "|" are rejected at load to keep keys collision-free.
"""

from __future__ import annotations

import csv
import json
import operator
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    EmptyFile,
    MissingColumn,
    MissingValue,
    TargetTooLarge,
)
from .metrics import GroupCounts, max_pairwise_prevalence_diff

KEY_SEPARATOR = "|"


@dataclass(frozen=True)
class TableSchema:
    label_column: str
    positive_value: str
    sensitive_columns: tuple[str, ...]
    id_column: Optional[str] = None

    def __post_init__(self):
        if self.label_column in self.sensitive_columns:
            raise ValueError("label column cannot also be sensitive")
        if not self.sensitive_columns:
            raise ValueError("at least one sensitive column is required")
        if len(set(self.sensitive_columns)) != len(self.sensitive_columns):
            raise ValueError(f"sensitive columns must be distinct, got {list(self.sensitive_columns)}")

    @classmethod
    def from_json(cls, path) -> "TableSchema":
        """Load from {"label": ..., "positive": ..., "sensitive": [...], "id": ...}."""
        with open(path) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError(f"schema {path} must be a JSON object")
        for key in ("label", "positive", "sensitive"):
            if key not in cfg:
                raise ValueError(f"schema {path} has no {key!r} key")
        label, positive, sensitive = cfg["label"], cfg["positive"], cfg["sensitive"]
        id_column = cfg.get("id")
        if not isinstance(label, str):
            raise ValueError(f"schema {path}: 'label' must be a column name, got {label!r}")
        if isinstance(positive, bool) or not isinstance(positive, (str, int)):
            raise ValueError(f"schema {path}: 'positive' must be a str or an int, got {positive!r}")
        if not isinstance(sensitive, list) or not all(isinstance(c, str) for c in sensitive):
            raise ValueError(
                f"schema {path}: 'sensitive' must be a list of column names, got {sensitive!r}"
            )
        if id_column is not None and not isinstance(id_column, str):
            raise ValueError(f"schema {path}: 'id' must be a column name or null, got {id_column!r}")
        return cls(
            label_column=label,
            positive_value=str(positive),
            sensitive_columns=tuple(sensitive),
            id_column=id_column,
        )


@dataclass(frozen=True)
class Cohort:
    """Rows stored as counts per cell; the length is the row count.

    ``cells[(values, label)]`` is the number of rows whose sensitive
    values, in schema order, are ``values`` and whose label is ``label``
    (1 positive, 0 otherwise). Every stored count is at least 1.
    """

    cells: dict[tuple[tuple[str, ...], int], int]
    schema: TableSchema

    def __len__(self) -> int:
        return sum(self.cells.values())


@dataclass(frozen=True)
class GroupingSpec:
    """Subset of sensitive columns whose joined values define group keys."""

    columns: tuple[str, ...]

    def __post_init__(self):
        if not self.columns:
            raise ValueError("grouping needs at least one column")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError(f"grouping columns must be distinct, got {list(self.columns)}")

    def check(self, schema: TableSchema, coarser: Optional["GroupingSpec"] = None) -> None:
        """ValueError unless all columns are sensitive and strictly refine coarser."""
        sensitive = schema.sensitive_columns
        unknown = [col for col in self.columns if col not in sensitive]
        if unknown:
            raise ValueError(
                f"grouping columns {unknown} are not sensitive columns {list(sensitive)}"
            )
        if coarser is not None and not set(coarser.columns) < set(self.columns):
            raise ValueError("single grouping must be a strict subset of intersected")

    def keys(self, cohort: Cohort) -> dict[tuple[str, ...], str]:
        """Group key of each distinct value tuple, columns in schema order."""
        sensitive = cohort.schema.sensitive_columns
        self.check(cohort.schema)
        picks = [i for i, col in enumerate(sensitive) if col in self.columns]
        return {
            values: KEY_SEPARATOR.join(values[i] for i in picks) for values, _ in cohort.cells
        }


@dataclass(frozen=True)
class CohortStats:
    groups: tuple[GroupCounts, ...]
    overall_prevalence: float
    distribution_pct: dict[str, float]
    max_prevalence_diff: Optional[float]  # None when there is a single group

    @property
    def total(self) -> int:
        return sum(g.n for g in self.groups)


def load_csv(path, schema: TableSchema) -> Cohort:
    """Parse a CSV file (RFC-4180, UTF-8, header required) into a Cohort.

    Cells are read as ``csv.DictReader`` reads them: a leading byte-order
    mark is dropped, blank lines are skipped, a short row reads None past
    its end and a repeated header name reads its last column. Each
    distinct (label cell, values) combination is checked on its first row.
    """
    columns = (schema.label_column, *schema.sensitive_columns)
    needed = (*columns, schema.id_column) if schema.id_column else columns
    tallies: dict[tuple, list[int]] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyFile(f"{path} has no header row")
        index = {name: j for j, name in enumerate(header)}
        for col in needed:
            if col not in index:
                raise MissingColumn(f"column {col!r} not in {path}")
        fetch = operator.itemgetter(*(index[col] for col in columns))
        pad = [None] * len(header)
        for i, row in enumerate(filter(None, reader)):
            try:
                key = fetch(row)
            except IndexError:
                key = fetch(row + pad)
            tally = tallies.get(key)
            if tally is None:
                # a key that fails a check raises before it is stored,
                # so every stored key has passed its checks
                cell, values = key[0], key[1:]
                for col, v in zip(schema.sensitive_columns, values):
                    if not v:
                        raise MissingValue(i, col)
                    if KEY_SEPARATOR in v:
                        raise ValueError(
                            f"sensitive value {v!r} at row {i} contains the "
                            f"reserved separator {KEY_SEPARATOR!r}"
                        )
                if not cell:
                    raise MissingValue(i, schema.label_column)
                tally = tallies[key] = [0]
            tally[0] += 1
    if not tallies:
        raise EmptyFile(f"{path} has no data rows")
    cells: Counter = Counter()
    for (cell, *values), (count,) in tallies.items():
        cells[tuple(values), int(cell == schema.positive_value)] += count
    return Cohort(cells=dict(cells), schema=schema)


def group_stats(cohort: Cohort, grouping: GroupingSpec) -> CohortStats:
    """Per-group sizes, prevalences, distribution, and max pairwise diff."""
    key_of = grouping.keys(cohort)
    tallies: dict[str, list[int]] = {}
    for (values, label), count in cohort.cells.items():
        n_pos = tallies.setdefault(key_of[values], [0, 0])
        n_pos[0] += count
        n_pos[1] += label * count
    groups = tuple(
        GroupCounts(group_key=k, n=v[0], p_count=v[1]) for k, v in sorted(tallies.items())
    )
    total = sum(g.n for g in groups)
    return CohortStats(
        groups=groups,
        overall_prevalence=sum(g.p_count for g in groups) / total,
        distribution_pct={g.group_key: 100.0 * g.n / total for g in groups},
        max_prevalence_diff=(
            max_pairwise_prevalence_diff(groups) if len(groups) >= 2 else None
        ),
    )


@dataclass(frozen=True)
class BracketingReport:
    coarse_diff: Optional[float]
    intersectional_diff: Optional[float]
    per_group_bracketing: dict[str, bool]
    passed: bool


def _exact_spread(stats: CohortStats) -> Fraction:
    prevs = [Fraction(g.p_count, g.n) for g in stats.groups]
    return max(prevs) - min(prevs)


def intersection_bracketing_check(
    cohort: Cohort, single: GroupingSpec, intersected: GroupingSpec
) -> BracketingReport:
    """Check refinement widens prevalence spread, never narrows it.

    Each coarse group's prevalence must lie within the [min, max] of the
    prevalences of the intersectional groups refining it, and the max
    pairwise prevalence difference must not decrease under refinement.
    """
    intersected.check(cohort.schema, coarser=single)
    coarse = group_stats(cohort, single)
    fine = group_stats(cohort, intersected)

    coarse_key = single.keys(cohort)
    parents = {fine: coarse_key[values] for values, fine in intersected.keys(cohort).items()}
    # rationals: float prevalences and their differences can be off by an ulp
    children: dict[str, list[Fraction]] = {}
    for g in fine.groups:
        children.setdefault(parents[g.group_key], []).append(Fraction(g.p_count, g.n))

    per_group = {}
    for g in coarse.groups:
        prevs = children[g.group_key]
        per_group[g.group_key] = min(prevs) <= Fraction(g.p_count, g.n) <= max(prevs)
    diff_ok = _exact_spread(coarse) <= _exact_spread(fine)
    return BracketingReport(
        coarse_diff=coarse.max_prevalence_diff,
        intersectional_diff=fine.max_prevalence_diff,
        per_group_bracketing=per_group,
        passed=all(per_group.values()) and diff_ok,
    )


def check_sample_size(target_n: int) -> None:
    if target_n < 1:
        raise ValueError(f"target_n={target_n} must be at least 1")


def stratified_sample(
    cohort: Cohort, grouping: GroupingSpec, target_n: int, seed: int
) -> Cohort:
    """Deterministic stratified sample on (group key, label) strata.

    Stratum quotas use largest-remainder apportionment in integers, so
    each stratum lands within one row of its exact proportional share and
    equal remainders go to the strata first in (group key, label) order.
    Each stratum, in that order, then draws its quota from one shared
    ``random.Random(seed)`` with ``sample(cells, quota, counts=...)``, its
    cells in sorted order: the multivariate hypergeometric law of
    shuffle-then-take, in O(quota) draws instead of one per row.
    """
    check_sample_size(target_n)
    total = len(cohort)
    if target_n > total:
        raise TargetTooLarge(f"target_n={target_n} exceeds cohort size {total}")
    key_of = grouping.keys(cohort)
    strata: dict[tuple[str, int], list[tuple[tuple[str, ...], int]]] = {}
    for cell in sorted(cohort.cells):
        strata.setdefault((key_of[cell[0]], cell[1]), []).append(cell)
    counts = {k: [cohort.cells[cell] for cell in cells] for k, cells in strata.items()}

    keys = sorted(strata.keys())
    # integer quotas: every remainder is a count of 1/total, so ties are exact
    base, remainder = {}, {}
    for k in keys:
        base[k], remainder[k] = divmod(target_n * sum(counts[k]), total)
    leftover = target_n - sum(base.values())
    for k in sorted(keys, key=lambda k: (-remainder[k], k))[:leftover]:
        base[k] += 1

    rng = random.Random(seed)
    drawn: Counter = Counter()
    for k in keys:
        drawn.update(rng.sample(strata[k], base[k], counts=counts[k]))
    return Cohort(cells=dict(drawn), schema=cohort.schema)
