"""The registry regenerates the survey's Tables 1 and 2 exactly.

Each expected row is transcribed from the paper; the test asserts the
live implementation metadata matches, so the taxonomy benchmarks print
tables that are guaranteed in sync with the paper.
"""

from __future__ import annotations

import pytest

from repro.core.registry import (
    all_labeled_indexes,
    all_plain_indexes,
    labeled_index,
    plain_index,
)
from repro.errors import ReproError

# (name, framework, index type, input, dynamic) — Table 1 of the paper.
# "TC" is this library's explicit baseline row (the paper discusses TC in
# §2.3 prose rather than the table).
TABLE1 = {
    "Tree cover": ("Tree cover", "Complete", "DAG", "no"),
    "Tree+SSPI": ("Tree cover", "Partial", "DAG", "no"),
    "Dual labeling": ("Tree cover", "Complete", "DAG", "no"),
    "GRIPP": ("Tree cover", "Partial", "General", "no"),
    "Path-tree": ("Tree cover", "Complete", "DAG", "yes"),
    "GRAIL": ("Tree cover", "Partial", "DAG", "no"),
    "Ferrari": ("Tree cover", "Partial", "DAG", "no"),
    "DAGGER": ("Tree cover", "Partial", "DAG", "yes"),
    "2-Hop": ("2-Hop", "Complete", "General", "no"),
    "Ralf et al.": ("2-Hop", "Complete", "General", "yes"),
    "3-Hop": ("2-Hop", "Complete", "DAG", "no"),
    "U2-hop": ("2-Hop", "Complete", "DAG", "yes"),
    "Path-hop": ("2-Hop", "Complete", "DAG", "no"),
    "TFL": ("2-Hop", "Complete", "DAG", "no"),
    "DL": ("2-Hop", "Complete", "General", "no"),
    "PLL": ("2-Hop", "Complete", "General", "no"),
    "TOL": ("2-Hop", "Complete", "DAG", "yes"),
    "DBL": ("2-Hop", "Partial", "General", "insert-only"),
    "O'Reach": ("2-Hop", "Partial", "DAG", "no"),
    "IP": ("Approximate TC", "Partial", "DAG", "yes"),
    "BFL": ("Approximate TC", "Partial", "DAG", "no"),
    "HL": ("-", "Complete", "DAG", "no"),
    "Feline": ("-", "Partial", "DAG", "no"),
    "Preach": ("-", "Partial", "DAG", "no"),
    # dynamic over the SCC partition of its build — not a paper row, so the
    # paper's Table 1 has no "no" to contradict
    "TC": ("TC", "Complete", "General", "yes"),
    # The §6 scaling composition (not a paper row, like "TC" above): any
    # registered family built per partition shard plus a boundary index.
    "Sharded": ("-", "Complete", "DAG", "no"),
}

# (name, framework, constraint, index type, input, dynamic) — Table 2.
# "GTC" is the explicit §2.3 baseline row.
TABLE2 = {
    "Jin et al.": ("Tree cover", "Alternation", "Complete", "General", "no"),
    "Chen et al.": ("Tree cover", "Alternation", "Complete", "General", "no"),
    "Zou et al.": ("GTC", "Alternation", "Complete", "General", "yes"),
    "Landmark index": ("GTC", "Alternation", "Partial", "General", "no"),
    "P2H+": ("2-Hop", "Alternation", "Complete", "General", "no"),
    "DLCR": ("2-Hop", "Alternation", "Complete", "General", "yes"),
    "RLC": ("2-Hop", "Concatenation", "Complete", "General", "no"),
    "GTC": ("GTC", "Alternation", "Complete", "General", "no"),
}


def test_every_table1_row_is_implemented():
    assert set(all_plain_indexes()) == set(TABLE1)


def test_every_table2_row_is_implemented():
    assert set(all_labeled_indexes()) == set(TABLE2)


@pytest.mark.parametrize("name", sorted(TABLE1))
def test_table1_row_matches_paper(name):
    framework, index_type, input_kind, dynamic = TABLE1[name]
    meta = plain_index(name).metadata
    assert meta.framework == framework
    assert meta.index_type == index_type
    assert meta.input_kind == input_kind
    assert meta.dynamic == dynamic
    assert meta.constraint is None


@pytest.mark.parametrize("name", sorted(TABLE2))
def test_table2_row_matches_paper(name):
    framework, constraint, index_type, input_kind, dynamic = TABLE2[name]
    meta = labeled_index(name).metadata
    assert meta.framework == framework
    assert meta.constraint == constraint
    assert meta.index_type == index_type
    assert meta.input_kind == input_kind
    assert meta.dynamic == dynamic


def test_unknown_names_raise_with_suggestions():
    with pytest.raises(ReproError, match="GRAIL"):
        plain_index("definitely-not-an-index")
    with pytest.raises(ReproError, match="P2H"):
        labeled_index("definitely-not-an-index")
