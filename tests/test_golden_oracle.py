"""Golden outputs of the exhaustive realizability search.

For each table in TABLES, every n-good sequence (as a descending multiset)
runs through `oracle.is_realizable`; its status and the sha256 of its witness
matrix must match `fixtures/golden_oracle.txt`. For the K3, C4 and K4 tables
the number of search nodes is pinned too, since those targets keep their
exact pruning; other targets pin only what a search must return.
`oracle.exact_g` must give every table the fixture's status column, whichever
of its two searches decides a row.

The status and witness columns pin the oracle as it was at 8b4159d, when K3
had its own domain search and every other target a separate assignment loop.
The nodes column was regenerated, alone, at the commit after 20bf683, which
added the adjacent-column vertex rule: every status and witness stayed, and
no count rose. Do not regenerate the fixture to make this test pass: a
mismatch means a verdict, a witness or a node count changed.
`python tests/test_golden_oracle.py` prints the lines for the checkout it
runs in.
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from gallaikit.core import DistributionSequence, TargetGraph
from gallaikit.oracle import exact_g, is_realizable, n_good_multisets

FIXTURE = Path(__file__).parent / "fixtures" / "golden_oracle.txt"

TARGETS = {
    "k3": TargetGraph.complete(3),
    "c4": TargetGraph.cycle(4),
    "k4": TargetGraph.complete(4),
    "p4": TargetGraph.path(4),
    "star3": TargetGraph.star(3),
    "c5": TargetGraph.cycle(5),
}
PINS_NODES = ("k3", "c4", "k4")

# (target, k, n_max)
TABLES = [
    ("k3", 2, 6), ("k3", 3, 7), ("k3", 4, 7),
    ("c4", 3, 7), ("c4", 4, 6),
    ("k4", 4, 6), ("k4", 5, 6), ("k4", 6, 6),
    ("p4", 2, 6), ("p4", 3, 5),
    ("star3", 3, 6), ("star3", 4, 5),
    ("c5", 3, 6), ("c5", 4, 6),
]


def _witness_sha(res) -> str:
    if res.colouring is None:
        return "-"
    text = "".join(" ".join(str(int(x)) for x in row) + "\n" for row in res.colouring.matrix)
    return hashlib.sha256(text.encode()).hexdigest()


def golden_lines() -> list[str]:
    lines = []
    for name, k, n_max in TABLES:
        for n in range(2, n_max + 1):
            for e in n_good_multisets(n, k):
                res = is_realizable(DistributionSequence(n, k, e), TARGETS[name])
                fields = [name, f"k={k}", f"n={n}", "e=" + ",".join(map(str, e)),
                          res.status, f"witness={_witness_sha(res)}"]
                if name in PINS_NODES:
                    fields.append(f"nodes={res.nodes}")
                lines.append(" ".join(fields))
    return lines


def _fixture_lines() -> list[str]:
    return [ln for ln in FIXTURE.read_text(encoding="utf-8").splitlines()
            if ln and not ln.startswith("#")]


def test_golden_oracle_tables():
    want = _fixture_lines()
    got = golden_lines()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


def test_exact_g_statuses_match_golden():
    # exact_g settles rows of targets with a cycle by the standard search;
    # forest targets (p4, star3) must still get every row from is_realizable
    want = [" ".join(ln.split()[:5]) for ln in _fixture_lines()]
    got = []
    for name, k, n_max in TABLES:
        rep = exact_g(TARGETS[name], k, n_max)
        assert not rep.partial
        for n in sorted(rep.per_n):
            got += [f"{name} k={k} n={n} e={','.join(map(str, row.e))} {row.status}"
                    for row in rep.per_n[n]]
    assert got == want


if __name__ == "__main__":
    sys.stdout.write("".join(ln + "\n" for ln in golden_lines()))
