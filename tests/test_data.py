import json
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairfeas.data import (
    Cohort,
    GroupingSpec,
    TableSchema,
    group_stats,
    intersection_bracketing_check,
    load_csv,
    stratified_sample,
)
from helpers import Row, reference_load_csv, reference_stratified_sample

from fairfeas.errors import (
    EmptyFile,
    MissingColumn,
    MissingValue,
    TargetTooLarge,
)

SCHEMA = TableSchema(
    label_column="outcome", positive_value="pos", sensitive_columns=("sex", "region")
)


def write_csv(path, rows, header="outcome,sex,region"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


def make_cohort(rows):
    """rows: list of (label, sex, region)."""
    return Cohort(cells=Counter(((sex, region), lab) for lab, sex, region in rows), schema=SCHEMA)


def oracle_cells(rows):
    """The row oracle's rows counted per (values, label) cell."""
    return Counter((r.group_values, r.label) for r in rows)


def test_load_and_round_trip(tmp_path):
    src = tmp_path / "in.csv"
    write_csv(src, ["pos,F,urban", "neg,M,rural", "pos,M,urban", "neg,F,urban", "pos,F,urban"])
    cohort = load_csv(src, SCHEMA)
    assert len(cohort) == 5
    assert cohort.cells == {
        (("F", "urban"), 1): 2,
        (("M", "rural"), 0): 1,
        (("M", "urban"), 1): 1,
        (("F", "urban"), 0): 1,
    }

    out = tmp_path / "out.csv"
    write_csv(
        out,
        [
            ",".join(["pos" if lab else "neg", *values])
            for (values, lab), count in cohort.cells.items()
            for _ in range(count)
        ],
    )
    assert load_csv(out, SCHEMA) == cohort


def test_load_missing_column(tmp_path):
    src = tmp_path / "in.csv"
    src.write_text("outcome,sex\npos,F\n")
    with pytest.raises(MissingColumn):
        load_csv(src, SCHEMA)


def test_load_missing_value_reports_row(tmp_path):
    src = tmp_path / "in.csv"
    write_csv(src, ["pos,F,urban", "pos,,urban"])
    with pytest.raises(MissingValue) as exc:
        load_csv(src, SCHEMA)
    assert exc.value.row == 1
    assert exc.value.column == "sex"


def test_load_rejects_separator_in_values(tmp_path):
    src = tmp_path / "in.csv"
    write_csv(src, ['pos,"F|X",urban'])
    with pytest.raises(ValueError):
        load_csv(src, SCHEMA)


def test_load_empty_file(tmp_path):
    src = tmp_path / "in.csv"
    src.write_text("")
    with pytest.raises(EmptyFile):
        load_csv(src, SCHEMA)
    src.write_text("outcome,sex,region\n")
    with pytest.raises(EmptyFile):
        load_csv(src, SCHEMA)


def test_schema_from_json(tmp_path):
    cfg = tmp_path / "schema.json"
    cfg.write_text(json.dumps({"label": "y", "positive": 1, "sensitive": ["a"]}))
    schema = TableSchema.from_json(cfg)
    assert schema.positive_value == "1"  # coerced to the exact string form
    assert schema.sensitive_columns == ("a",)


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).parents[1] / "schemas").glob("*.json")), ids=lambda p: p.name
)
def test_shipped_schema_loads(path):
    cfg = json.loads(path.read_text())
    schema = TableSchema.from_json(path)
    assert schema.label_column == cfg["label"]
    assert schema.sensitive_columns == tuple(cfg["sensitive"])


def test_group_stats_hand_counted():
    cohort = make_cohort(
        [(1, "F", "u"), (0, "F", "u"), (1, "M", "u"), (1, "M", "r"), (0, "M", "r")]
    )
    stats = group_stats(cohort, GroupingSpec(columns=("sex",)))
    by_key = {g.group_key: g for g in stats.groups}
    assert by_key["F"].n == 2 and by_key["F"].p_count == 1
    assert by_key["M"].n == 3 and by_key["M"].p_count == 2
    assert stats.overall_prevalence == pytest.approx(0.6)
    assert stats.max_prevalence_diff == pytest.approx(2 / 3 - 1 / 2)
    assert stats.distribution_pct["F"] == pytest.approx(40.0)


def test_intersection_keys_follow_schema_order():
    cohort = make_cohort([(1, "F", "u"), (0, "M", "r")])
    # request order reversed; keys still come out sex-then-region
    stats = group_stats(cohort, GroupingSpec(columns=("region", "sex")))
    assert {g.group_key for g in stats.groups} == {"F|u", "M|r"}


def test_bracketing_check_on_fixed_cohort():
    cohort = make_cohort(
        [(1, "F", "u"), (1, "F", "u"), (0, "F", "r"), (1, "M", "u"), (0, "M", "r"), (0, "M", "r")]
    )
    report = intersection_bracketing_check(
        cohort, GroupingSpec(columns=("sex",)), GroupingSpec(columns=("sex", "region"))
    )
    assert report.passed
    assert report.intersectional_diff >= report.coarse_diff


def test_bracketing_requires_strict_subset():
    cohort = make_cohort([(1, "F", "u"), (0, "M", "r")])
    with pytest.raises(ValueError):
        intersection_bracketing_check(
            cohort, GroupingSpec(columns=("sex",)), GroupingSpec(columns=("sex",))
        )


cohort_rows = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.sampled_from(["F", "M", "X"]),
        st.sampled_from(["u", "r"]),
    ),
    min_size=2,
    max_size=60,
)


@given(cohort_rows)
@settings(max_examples=200)
def test_refinement_never_shrinks_prevalence_spread(rows):
    cohort = make_cohort(rows)
    report = intersection_bracketing_check(
        cohort, GroupingSpec(columns=("sex",)), GroupingSpec(columns=("sex", "region"))
    )
    assert report.passed


def test_stratified_sample_sizes_and_determinism():
    rng = random.Random(1)
    # a distinct region per row, so equal cohorts hold the same rows
    rows = [
        (1 if rng.random() < 0.3 else 0, rng.choice(["F", "M"]), f"r{i}")
        for i in range(200)
    ]
    cohort = make_cohort(rows)
    grouping = GroupingSpec(columns=("sex",))
    sample = stratified_sample(cohort, grouping, target_n=50, seed=7)
    assert len(sample) == 50
    again = stratified_sample(cohort, grouping, target_n=50, seed=7)
    assert sample == again
    other = stratified_sample(cohort, grouping, target_n=50, seed=8)
    assert sample != other


def test_stratified_sample_preserves_proportions():
    rows = [(1, "F", "u")] * 40 + [(0, "F", "u")] * 60 + [(1, "M", "u")] * 10 + [(0, "M", "u")] * 90
    cohort = make_cohort(rows)
    sample = stratified_sample(cohort, GroupingSpec(columns=("sex",)), 100, seed=0)
    stats = group_stats(sample, GroupingSpec(columns=("sex",)))
    by_key = {g.group_key: g for g in stats.groups}
    # largest-remainder quotas: each stratum within one row of proportional
    assert by_key["F"].n == 50 and by_key["M"].n == 50
    assert by_key["F"].p_count == 20 and by_key["M"].p_count == 5


def test_stratified_sample_target_too_large():
    cohort = make_cohort([(1, "F", "u"), (0, "M", "r")])
    with pytest.raises(TargetTooLarge):
        stratified_sample(cohort, GroupingSpec(columns=("sex",)), 3, seed=0)


def test_stratified_sample_breaks_exact_remainder_ties_by_key():
    # strata a/b/c of 1, 1 and 7 rows sampled to 3: exact quotas 1/3, 1/3
    # and 7/3 have the same remainder 1/3, so the leftover row goes to the
    # first key, a; float quotas made c's remainder look larger
    cohort = make_cohort([(0, "a", "u"), (0, "b", "u")] + [(0, "c", "u")] * 7)
    for seed in range(5):
        sample = stratified_sample(cohort, GroupingSpec(columns=("sex",)), 3, seed)
        stats = group_stats(sample, GroupingSpec(columns=("sex",)))
        assert {g.group_key: g.n for g in stats.groups} == {"a": 1, "c": 2}


@pytest.mark.parametrize("target_n", [0, -1])
def test_stratified_sample_target_below_one(target_n):
    cohort = make_cohort([(1, "F", "u"), (0, "M", "r")])
    with pytest.raises(ValueError, match="at least 1"):
        stratified_sample(cohort, GroupingSpec(columns=("sex",)), target_n, seed=0)


# each file holds the edge cases DictReader settles: a blank line, a
# short row, an extra field, a quoted comma and CRLF endings; "b"
# repeats in the header, so its last column is the one read
EDGE_HEADER = "outcome,b,a,b,note"
EDGE_LINES = [
    "pos,q,x,y,n1",
    "",
    "neg,q,x,y",  # short: note is read as None
    'neg,"q,1","x,1",z,"n,2"',
    "pos,q,x,y,n3,extra,fields",
    "neg,,x2,v,n4",  # the first b is empty but unread
]
DIFF_SCHEMA = TableSchema(
    label_column="outcome", positive_value="pos", sensitive_columns=("a", "b")
)


def edge_case_csv(path, seed, crlf):
    """Drawn rows with the edge lines spliced in at drawn places."""
    rng = random.Random(seed)
    lines = [
        f"{rng.choice(['pos', 'neg'])},q,{rng.choice(['x', 'x2', 'x3'])},{rng.choice('uvw')},n"
        for _ in range(rng.randint(30, 120))
    ]
    for line in EDGE_LINES:
        lines.insert(rng.randint(0, len(lines)), line)
    eol = "\r\n" if crlf else "\n"
    path.write_bytes((eol.join([EDGE_HEADER, *lines]) + eol).encode())


def outcome(fn, *args):
    """A call's result, or the type, message and row of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc), getattr(exc, "row", None)


def stratum_counts(cohort, columns):
    """Rows per (group key, label) stratum."""
    key_of = GroupingSpec(columns).keys(cohort)
    strata = Counter()
    for (values, lab), count in cohort.cells.items():
        strata[key_of[values], lab] += count
    return strata


def assert_sample_matches_quota_oracle(cohort, rows, columns, target_n, seed):
    """Same quotas and group_stats as the row oracle; a sub-multiset of the cohort."""
    expected = reference_stratified_sample(rows, cohort.schema, columns, target_n, seed)
    expected = Cohort(cells=oracle_cells(expected), schema=cohort.schema)
    got = stratified_sample(cohort, GroupingSpec(columns), target_n, seed)
    assert stratum_counts(got, columns) == stratum_counts(expected, columns)
    assert group_stats(got, GroupingSpec(columns)) == group_stats(expected, GroupingSpec(columns))
    assert min(got.cells.values()) >= 1
    assert not Counter(got.cells) - Counter(cohort.cells)
    return got


@pytest.mark.parametrize("crlf", [False, True])
@pytest.mark.parametrize("file_seed", range(4))
def test_columnar_loader_and_sampler_match_row_oracle(file_seed, crlf, tmp_path):
    src = tmp_path / "edge.csv"
    edge_case_csv(src, file_seed, crlf)
    rows = reference_load_csv(src, DIFF_SCHEMA)
    cohort = load_csv(src, DIFF_SCHEMA)
    assert oracle_cells(rows) == cohort.cells

    for columns in [("a",), ("a", "b"), ("b",)]:
        for seed in range(8):
            target_n = random.Random(seed).randint(1, len(rows))
            assert_sample_matches_quota_oracle(cohort, rows, columns, target_n, seed)


def test_sampled_rows_match_row_oracle_by_ordinal():
    """With the row ordinal as a sensitive value, each drawn row is named:
    the sample holds distinct rows of the cohort in the oracle's quotas."""
    schema = TableSchema(
        label_column="outcome", positive_value="pos", sensitive_columns=("a", "b", "rid")
    )
    rng = random.Random(3)
    records = [
        (rng.random() < 0.3, rng.choice("xyz"), rng.choice("uv")) for _ in range(400)
    ]
    rows = tuple(
        Row(label=int(lab), group_values=(a, b, str(i)), row_ordinal=i)
        for i, (lab, a, b) in enumerate(records)
    )
    cohort = Cohort(cells=oracle_cells(rows), schema=schema)
    for columns in [("a",), ("a", "b"), ("b",)]:
        for seed in range(8):
            got = assert_sample_matches_quota_oracle(cohort, rows, columns, 60, seed)
            # each cell is one named row, drawn at most once
            assert len(got.cells) == 60 and set(got.cells.values()) == {1}
            assert all(rows[int(values[2])].label == lab for values, lab in got.cells)


def test_stratified_sample_depends_on_rows_not_their_order():
    rng = random.Random(4)
    rows = [
        (int(rng.random() < 0.4), rng.choice("FMX"), rng.choice(["u", "r", "s"]))
        for _ in range(300)
    ]
    grouping = GroupingSpec(columns=("sex",))
    for seed in range(4):
        sample = stratified_sample(make_cohort(rows), grouping, 70, seed)
        rng.shuffle(rows)
        assert stratified_sample(make_cohort(rows), grouping, 70, seed) == sample


def compositions(total):
    """Every tuple of positive cell sizes summing to total."""
    if total == 0:
        yield ()
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first, *rest)


def test_sample_draws_like_random_sample_of_expanded_rows():
    """Per stratum in key order, the drawn cells are the counts of one
    shared Random(seed).sample over the stratum's rows, listed cell by
    cell in sorted order: the uniform subset law of shuffle-then-take."""
    grouping = GroupingSpec(columns=("sex",))
    checked = 0
    for size in range(1, 8):
        for layout in compositions(size):
            # two strata, (F, 0) then (F, 1), each with this cell layout
            cells = {
                (("F", f"v{j}"), lab): count
                for j, count in enumerate(layout)
                for lab in (0, 1)
            }
            cohort = Cohort(cells=cells, schema=SCHEMA)
            for quota in range(1, min(4, size) + 1):
                for seed in range(3):
                    rng = random.Random(seed)
                    expected = Counter()
                    for lab in (0, 1):
                        rows = [c for c in sorted(cells) if c[1] == lab for _ in range(cells[c])]
                        expected.update(rng.sample(rows, quota))
                    got = stratified_sample(cohort, grouping, 2 * quota, seed)
                    assert got.cells == expected
                    checked += 1
    assert checked == 3 * 497  # 2**(size-1) layouts per size, times quotas 1..min(4, size)


# per seed, the drawn count of each cell of the cohort below in sorted
# order, as the bisected position draw gave them; any change to the draw
# fails here
PINNED_SAMPLE_COUNTS = {
    0: (3, 3, 8, 4, 3, 3, 2, 3, 7, 2, 6, 4, 4, 3, 2, 3, 6, 4),
    1: (4, 3, 5, 6, 5, 1, 4, 1, 5, 3, 6, 5, 5, 1, 2, 4, 5, 5),
    2: (6, 2, 1, 4, 7, 4, 5, 2, 8, 5, 2, 2, 3, 0, 3, 3, 6, 7),
    3: (5, 1, 4, 3, 5, 6, 5, 1, 3, 4, 7, 4, 7, 1, 2, 3, 3, 6),
}


@pytest.mark.parametrize("seed", sorted(PINNED_SAMPLE_COUNTS))
def test_stratified_sample_draw_is_pinned(seed):
    rng = random.Random(4)
    rows = [
        (int(rng.random() < 0.4), rng.choice("FMX"), rng.choice(["u", "r", "s"]))
        for _ in range(300)
    ]
    cohort = make_cohort(rows)
    sample = stratified_sample(cohort, GroupingSpec(columns=("sex",)), 70, seed)
    assert len(cohort.cells) == 18
    assert tuple(sample.cells.get(c, 0) for c in sorted(cohort.cells)) == PINNED_SAMPLE_COUNTS[seed]


BAD_EDGE_FILES = [
    # the bad value sits in a combination seen before, then in a new one
    ("pos,x,y\nneg,x,y\nneg,,y\n", "first new tuple with an empty cell"),
    ("pos,x,y\nneg,x\n", "short row reads None"),
    ('pos,x,y\nneg,"x|1",y\n', "separator"),
    ("pos,x,y\n,x,y\n", "label missing on a seen combination"),
    ("pos,x,y\n,,y\n", "label and value missing: the value is reported"),
    ("pos,x,\nneg,x,y\n", "empty last cell on the first row"),
    ("\n\n", "blank lines only"),
    ("", "header only"),
]


@pytest.mark.parametrize("body,case", BAD_EDGE_FILES, ids=[c for _, c in BAD_EDGE_FILES])
def test_columnar_loader_raises_like_row_oracle(body, case, tmp_path):
    src = tmp_path / "bad.csv"
    src.write_text("outcome,a,b\n" + body)
    expected = outcome(reference_load_csv, src, DIFF_SCHEMA)
    assert isinstance(expected, tuple) and isinstance(expected[0], type)
    assert outcome(load_csv, src, DIFF_SCHEMA) == expected


def test_loader_reads_blank_first_line_as_header_like_row_oracle(tmp_path):
    # DictReader takes the blank line for an empty header: no column found
    src = tmp_path / "bad.csv"
    src.write_text("\noutcome,a,b\npos,x,y\n")
    expected = outcome(reference_load_csv, src, DIFF_SCHEMA)
    assert expected[0] is MissingColumn
    assert outcome(load_csv, src, DIFF_SCHEMA) == expected


def test_loader_shares_values_across_label_cells(tmp_path):
    # one values tuple under many distinct label cells, each a distinct
    # (label cell, values) combination; a second values tuple under two
    cells = ["pos", "neg", "0", "1", "POS", " pos", "pos ", "maybe", '"q,uoted"']
    lines = [f"{cell},x,y" for cell in cells * 3] + ["pos,x,z", "neg,x,z"]
    src = tmp_path / "labels.csv"
    src.write_text("\n".join(["outcome,a,b", *lines]) + "\n")
    cohort = load_csv(src, DIFF_SCHEMA)
    assert oracle_cells(reference_load_csv(src, DIFF_SCHEMA)) == cohort.cells
    # only the exact cell "pos" is positive
    assert sum(count for (_, lab), count in cohort.cells.items() if lab) == 4
    assert len({values for values, _ in cohort.cells}) == 2


@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_loader_drops_utf8_byte_order_mark(eol, tmp_path):
    # the label is the first column, so a kept BOM would hide it
    plain = eol.join(["outcome,a,b", "pos,x,y", "neg,x,\u00e9", "pos,x,y"]) + eol
    src, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    src.write_bytes(plain.encode())
    bom.write_bytes(b"\xef\xbb\xbf" + plain.encode())
    cohort = load_csv(src, DIFF_SCHEMA)
    assert load_csv(bom, DIFF_SCHEMA) == cohort
    assert cohort.cells == {(("x", "y"), 1): 2, (("x", "\u00e9"), 0): 1}


def test_loader_memory_does_not_grow_with_per_row_keys(tmp_path):
    # 100k rows in 8 (label cell, values) combinations, each with its own
    # id: the loader keeps one count per combination and peaks near
    # 0.06 MiB; a label byte and a values pointer per row peaked near
    # 1.8 MiB, and a list of one key tuple per row near 23 MiB
    rng = random.Random(5)
    src = tmp_path / "big.csv"
    with open(src, "w") as fh:
        fh.write("id,a,b,outcome\n")
        for i in range(100_000):
            fh.write(f"{i},x{rng.randint(0, 1)},y{rng.randint(0, 1)},{rng.choice(['pos', 'neg'])}\n")
    schema = TableSchema(
        label_column="outcome", positive_value="pos", sensitive_columns=("a", "b"), id_column="id"
    )
    tracemalloc.start()
    try:
        cohort = load_csv(src, schema)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cohort) == 100_000
    assert peak < 2**19


@pytest.mark.parametrize("header", [",a,b", "o,a,b"], ids=["named", "missing"])
def test_loader_reads_empty_column_name_like_row_oracle(header, tmp_path):
    src = tmp_path / "blank_name.csv"
    src.write_text(header + "\npos,x,y\nneg,x,y\n")
    schema = TableSchema(label_column="", positive_value="pos", sensitive_columns=("a", "b"))
    got = outcome(load_csv, src, schema)
    expected = outcome(reference_load_csv, src, schema)
    if isinstance(got, Cohort):
        got, expected = got.cells, oracle_cells(expected)
    assert got == expected
