"""The colour matrix takes the narrowest of uint8, uint16 and int32 that
holds k. Each kernel gives the same result at every type as on an int64 copy
of the same colouring, with colours at k itself, where a wrap would show."""
from __future__ import annotations

import random
from itertools import combinations

import numpy as np
import pytest

from gallaikit.bounds import peel_splitting_process
from gallaikit.constructor import SplitCertificate, StepRecord, realize_certificate
from gallaikit.core import (
    Colouring, DistributionSequence, colour_counts, colour_tally, read_colouring,
    write_colouring,
)
from gallaikit.verifier import (
    colour_degrees, find_gallai_partition, find_rainbow_triangle, peels_two_colours,
    verify_certificate,
)

TOP = 2 ** 31 - 1
TYPES = [(1, np.uint8), (255, np.uint8), (256, np.uint16), (65_535, np.uint16),
         (65_536, np.int32), (TOP, np.int32)]
# colour_counts lists all k colours, and a certificate replays under k
# budgets, so both take O(k) memory (ROADMAP item 12): 16 GiB at k = TOP
COUNTED = 65_536


def _palette(k: int) -> list[int]:
    """Colours at both ends of [1..k] and on both sides of each type's top."""
    near = {1, 2, k - 1, k, 254, 255, 256, 257, 65_534, 65_535, 65_536}
    return sorted(c for c in near if 1 <= c <= k)


def _int64_copy(col: Colouring) -> Colouring:
    """col with its matrix held as int64, which no constructor keeps."""
    wide = Colouring.__new__(Colouring)
    wide.n, wide.k, wide._records, wide._counts = col.n, col.k, None, None
    wide._m = col.matrix.astype(np.int64)
    wide._m.setflags(write=False)
    return wide


def _random(rng: random.Random, n: int, k: int) -> Colouring:
    m = np.zeros((n, n), dtype=np.int64)
    palette = _palette(k)
    for u, v in combinations(range(n), 2):
        m[u, v] = m[v, u] = rng.choice(palette)
    return Colouring(n, k, m)


def _chain(rng: random.Random, n: int, k: int) -> SplitCertificate:
    """The certificate that splits vertex hi off [1..hi], for hi = n..2, each
    in a colour of the palette, the last at k: a Gallai colouring."""
    colours = [rng.choice(_palette(k)) for _ in range(n - 2)] + [k]
    steps = [StepRecord(1, hi, 1, c) for hi, c in zip(range(n, 1, -1), colours)]
    return SplitCertificate(n, k, steps)


def _painted(cert: SplitCertificate) -> Colouring:
    """The colouring a _chain certificate paints, with no replay under budgets."""
    m = np.zeros((cert.n, cert.n), dtype=np.int64)
    for step in cert.steps:
        m[step.hi - 1, :step.hi - 1] = m[:step.hi - 1, step.hi - 1] = step.colour
    return Colouring(cert.n, cert.k, m)


def _colourings(k: int):
    rng = random.Random(k)
    for n in (1, 2, 3, 5, 6):
        yield _random(rng, n, k)
    for n in (2, 4, 6):
        cert = _chain(rng, n, k)
        yield realize_certificate(cert) if k <= COUNTED else _painted(cert)


@pytest.mark.parametrize("k, dtype", TYPES, ids=[str(k) for k, _ in TYPES])
def test_matrix_type_follows_k(k, dtype):
    for col in _colourings(k):
        assert col.matrix.dtype == dtype


@pytest.mark.parametrize("k", [k for k, _ in TYPES])
def test_write_read_round_trip_matches_int64(tmp_path, k):
    for col in _colourings(k):
        narrow, wide = tmp_path / "narrow.col", tmp_path / "wide.col"
        write_colouring(col, narrow)
        write_colouring(_int64_copy(col), wide)
        assert narrow.read_bytes() == wide.read_bytes()
        back = read_colouring(narrow)
        assert back == col and back.matrix.dtype == col.matrix.dtype
        write_colouring(back, wide)
        assert narrow.read_bytes() == wide.read_bytes()


@pytest.mark.parametrize("k", [k for k, _ in TYPES])
def test_kernels_match_int64(k):
    for col in _colourings(k):
        wide = _int64_copy(col)
        assert find_rainbow_triangle(col) == find_rainbow_triangle(wide)
        assert peels_two_colours(col) == peels_two_colours(wide)
        assert np.array_equal(colour_degrees(col), colour_degrees(wide))
        assert colour_tally(col) == colour_tally(wide)
        if k <= COUNTED:
            assert colour_counts(col) == colour_counts(wide)
        if col.n >= 2 and find_rainbow_triangle(col) is None:
            assert find_gallai_partition(col) == find_gallai_partition(wide)
            assert peel_splitting_process(col, 1) == peel_splitting_process(wide, 1)


@pytest.mark.parametrize("k", [k for k, _ in TYPES if k <= COUNTED])
def test_certificates_match_int64(k):
    rng = random.Random(k)
    for n in (2, 4, 6):
        cert = _chain(rng, n, k)
        col = realize_certificate(cert)
        m = col.matrix.astype(np.int64)
        # every step's colour is in the matrix as it is in the certificate
        for step in cert.steps:
            assert (m[step.lo - 1:step.hi - step.t, step.hi - step.t:step.hi] == step.colour).all()
        seq = DistributionSequence.of(n, colour_counts(col))
        assert verify_certificate(cert, col, seq) is None
        assert verify_certificate(cert, _int64_copy(col), seq) is None
        # edge (1, 2) moved to the colour before it, or from 1 to k
        m[0, 1] = m[1, 0] = k if m[0, 1] == 1 else m[0, 1] - 1
        moved = Colouring(n, k, m)
        if k > 1:
            line = verify_certificate(cert, moved, seq)
            assert line is not None and line == verify_certificate(cert, _int64_copy(moved), seq)
            assert line.endswith(f"colouring has {m[0, 1]}")
