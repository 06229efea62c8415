"""Tabular ingestion, group statistics, and stratified down-sampling.

Labels are matched byte-for-byte against a declared positive literal
(no numeric coercion) so repeated loads are bit-exact. Intersectional
group keys join the chosen column values with "|" in schema order;
values containing "|" are rejected at load to keep keys collision-free.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    EmptyFile,
    EmptyGroup,
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

    @classmethod
    def from_json(cls, path) -> "TableSchema":
        """Load from {"label": ..., "positive": ..., "sensitive": [...], "id": ...}."""
        with open(path) as fh:
            cfg = json.load(fh)
        return cls(
            label_column=cfg["label"],
            positive_value=str(cfg["positive"]),
            sensitive_columns=tuple(cfg["sensitive"]),
            id_column=cfg.get("id"),
        )


@dataclass(frozen=True)
class Row:
    label: int
    group_values: tuple[str, ...]
    row_ordinal: int


@dataclass(frozen=True)
class Cohort:
    rows: tuple[Row, ...]
    schema: TableSchema

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class GroupingSpec:
    """Subset of sensitive columns whose joined values define group keys."""

    columns: tuple[str, ...]

    def __post_init__(self):
        if not self.columns:
            raise ValueError("grouping needs at least one column")

    def key_for(self, row: Row, schema: TableSchema) -> str:
        parts = []
        for col in schema.sensitive_columns:  # schema order, not request order
            if col in self.columns:
                parts.append(row.group_values[schema.sensitive_columns.index(col)])
        return KEY_SEPARATOR.join(parts)


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
    """Parse a CSV file (RFC-4180, UTF-8, header required) into a Cohort."""
    needed = [schema.label_column, *schema.sensitive_columns]
    if schema.id_column:
        needed.append(schema.id_column)
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptyFile(f"{path} has no header row")
        for col in needed:
            if col not in reader.fieldnames:
                raise MissingColumn(f"column {col!r} not in {path}")
        for i, rec in enumerate(reader):
            values = []
            for col in schema.sensitive_columns:
                v = rec.get(col)
                if v is None or v == "":
                    raise MissingValue(i, col)
                if KEY_SEPARATOR in v:
                    raise ValueError(
                        f"sensitive value {v!r} at row {i} contains the "
                        f"reserved separator {KEY_SEPARATOR!r}"
                    )
                values.append(v)
            label_cell = rec.get(schema.label_column)
            if label_cell is None or label_cell == "":
                raise MissingValue(i, schema.label_column)
            label = 1 if label_cell == schema.positive_value else 0
            rows.append(Row(label=label, group_values=tuple(values), row_ordinal=i))
    if not rows:
        raise EmptyFile(f"{path} has no data rows")
    return Cohort(rows=tuple(rows), schema=schema)


def save_csv(cohort: Cohort, path) -> None:
    """Write label and sensitive columns back out (lossless round trip)."""
    schema = cohort.schema
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([schema.label_column, *schema.sensitive_columns])
        for row in cohort.rows:
            label = schema.positive_value if row.label == 1 else f"not-{schema.positive_value}"
            w.writerow([label, *row.group_values])


def group_stats(cohort: Cohort, grouping: GroupingSpec) -> CohortStats:
    """Per-group sizes, prevalences, distribution, and max pairwise diff."""
    tallies: dict[str, list[int]] = {}
    for row in cohort.rows:
        key = grouping.key_for(row, cohort.schema)
        n_pos = tallies.setdefault(key, [0, 0])
        n_pos[0] += 1
        n_pos[1] += row.label
    groups = tuple(
        GroupCounts(group_key=k, n=v[0], p_count=v[1]) for k, v in sorted(tallies.items())
    )
    for g in groups:
        if g.n == 0:
            raise EmptyGroup(g.group_key)
    total = len(cohort)
    positives = sum(r.label for r in cohort.rows)
    return CohortStats(
        groups=groups,
        overall_prevalence=positives / total,
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
    if not set(single.columns) < set(intersected.columns):
        raise ValueError("single grouping must be a strict subset of intersected")
    coarse = group_stats(cohort, single)
    fine = group_stats(cohort, intersected)

    # map each fine group to its coarse parent by re-deriving keys per row
    parents: dict[str, str] = {}
    for row in cohort.rows:
        parents[intersected.key_for(row, cohort.schema)] = single.key_for(
            row, cohort.schema
        )
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


def stratified_sample(
    cohort: Cohort, grouping: GroupingSpec, target_n: int, seed: int
) -> Cohort:
    """Deterministic stratified sample on (group key, label) strata.

    Stratum quotas use largest-remainder apportionment, so each stratum
    lands within one row of its exact proportional share; rows within a
    stratum are chosen by a seeded shuffle.
    """
    total = len(cohort)
    if target_n > total:
        raise TargetTooLarge(f"target_n={target_n} exceeds cohort size {total}")
    strata: dict[tuple[str, int], list[Row]] = {}
    for row in cohort.rows:
        strata.setdefault((grouping.key_for(row, cohort.schema), row.label), []).append(row)

    keys = sorted(strata.keys())
    quotas = {k: target_n * len(strata[k]) / total for k in keys}
    base = {k: int(quotas[k]) for k in keys}
    leftover = target_n - sum(base.values())
    by_remainder = sorted(keys, key=lambda k: (-(quotas[k] - base[k]), k))
    for k in by_remainder[:leftover]:
        base[k] += 1

    rng = random.Random(seed)
    chosen: list[Row] = []
    for k in keys:
        rows = list(strata[k])
        rng.shuffle(rows)
        chosen.extend(rows[: base[k]])
    chosen.sort(key=lambda r: r.row_ordinal)
    return Cohort(rows=tuple(chosen), schema=cohort.schema)
