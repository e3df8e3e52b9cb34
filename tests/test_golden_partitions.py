"""Golden Gallai partitions and peel traces of seeded small colourings.

Each case builds one colouring from its seed and pins three things in
`fixtures/golden_partitions.txt`: a digest of the colouring, the outcome of
`find_rainbow_triangle` and `find_gallai_partition` (the rainbow-triangle
witness, or else the partition line and whether the "moreover" condition
holds, computed here from the part sizes: every base colour covers at least
n-1 inter-part edges) and the steps of `peel_splitting_process(col, 1)`.

Two thirds of the colourings come from recursive substitution: the vertices
are split into 2-6 consecutive parts, each part pair is joined in one of two
colours drawn for that level, and the construction recurses into the parts.
Every such colouring is Gallai, and many need two base colours. The rest are
uniformly random colourings on 2-4 colours, most of which carry a rainbow
triangle. Of the 300 cases, 242 have a partition (67 of them with two base
colours) and 58 a rainbow-triangle witness.

The fixture pins the partitions as the search found them with a union-find
and a pairwise merge loop, before it became one component labelling. Do not
regenerate it to make this test pass: a mismatch means a partition or a peel
changed. `python tests/test_golden_partitions.py` prints the lines for the
checkout it runs in.
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

from gallaikit.bounds import peel_splitting_process
from gallaikit.errors import NotGallai
from gallaikit.verifier import find_gallai_partition, find_rainbow_triangle, partition_line

from conftest import moreover_holds, seeded_colouring

FIXTURE = Path(__file__).parent / "fixtures" / "golden_partitions.txt"
CASES = 300


def case_line(seed: int) -> str:
    col = seeded_colouring(seed)
    upper = col.matrix[np.triu_indices(col.n, k=1)].astype(np.int32)
    fields = [f"case={seed}", f"n={col.n}", f"k={col.k}",
              "col=" + hashlib.sha256(upper.tobytes()).hexdigest()[:16]]
    tri = find_rainbow_triangle(col)
    if tri is not None:
        fields.append(tri.witness_line("WITNESS"))
    elif (p := find_gallai_partition(col)) is None:
        fields.append("NO_PARTITION")
    else:
        fields += [partition_line(p), f"moreover={int(moreover_holds(col.n, p))}"]
    try:
        steps = peel_splitting_process(col, 1).steps
        fields.append("PEEL " + (";".join(
            f"{s.x_before},{s.t},{'+'.join(map(str, s.base_colours))},"
            f"{s.base_edges},{s.base_freq}" for s in steps) or "-"))
    except NotGallai:
        fields.append("PEEL not-gallai")
    return " ".join(fields)


def _fixture_lines() -> list[str]:
    return [ln for ln in FIXTURE.read_text(encoding="utf-8").splitlines()
            if ln and not ln.startswith("#")]


def test_golden_partitions():
    want = _fixture_lines()
    assert len(want) == CASES
    for seed, line in enumerate(want):
        assert case_line(seed) == line


if __name__ == "__main__":
    sys.stdout.write("".join(case_line(seed) + "\n" for seed in range(CASES)))
