import mmap
import pickle
import random
import time
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gallaikit
from gallaikit.core import (
    Colouring,
    DistributionSequence,
    TargetGraph,
    _MAPPED_BYTES,
    _TILE,
    balanced_sequence,
    colour_counts,
    degeneracy,
    is_n_good,
    mirror_upper,
    read_colouring,
    read_sequence,
    read_target,
    write_colouring,
    write_sequence,
    write_target,
    zero_matrix,
)

from conftest import (
    COLOURING_READER_MESSAGES, brute_degeneracy, counted_colouring, petersen, random_graph,
)


def test_public_names_resolve():
    for name in gallaikit.__all__:
        assert hasattr(gallaikit, name), name


class TestDegeneracy:
    def test_triangle(self):
        assert degeneracy(TargetGraph.complete(3)) == 2

    def test_star(self):
        assert degeneracy(TargetGraph.star(5)) == 1

    def test_k4(self):
        assert degeneracy(TargetGraph.complete(4)) == 3

    def test_petersen(self):
        H = petersen()
        assert brute_degeneracy(H) == 3
        assert degeneracy(H) == 3

    def test_edgeless(self):
        assert degeneracy(TargetGraph(4, frozenset())) == 0

    def test_path_is_one_degenerate(self):
        assert degeneracy(TargetGraph.path(7)) == 1

    def test_matches_bruteforce_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(40):
            H = random_graph(rng, rng.randint(1, 8))
            assert degeneracy(H) == brute_degeneracy(H)

    @given(st.integers(2, 7), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_monotone_under_subgraphs(self, m, rnd):
        H2 = random_graph(rnd, m)
        kept = [e for e in sorted(H2.edges) if rnd.random() < 0.6]
        H1 = TargetGraph.from_edges(m, kept)
        assert degeneracy(H1) <= degeneracy(H2)

    def test_degeneracy_3_iff_min_degree_3_subgraph(self):
        rng = random.Random(11)
        for _ in range(30):
            H = random_graph(rng, rng.randint(3, 8), p=0.6)
            has_dense_sub = brute_degeneracy(H) >= 3
            assert (degeneracy(H) >= 3) == has_dense_sub

    def test_matches_the_minimum_scan_up_to_twelve_vertices(self):
        def min_scan(H):
            # the plain definition: delete a vertex of least degree, m times
            adj, d = H.adjacency(), 0
            while adj:
                v = min(adj, key=lambda x: len(adj[x]))
                d = max(d, len(adj[v]))
                for w in adj.pop(v):
                    adj[w].discard(v)
            return d
        rng = random.Random(25)
        for _ in range(400):
            H = random_graph(rng, rng.randint(1, 12), p=rng.random())
            assert degeneracy(H) == min_scan(H), sorted(H.edges)

    def test_long_path_and_isolated_vertices_are_fast(self):
        path = TargetGraph.path(100_000)
        t0 = time.monotonic()
        assert degeneracy(path) == 1
        assert degeneracy(TargetGraph(1_000_000, frozenset({(1, 2)}))) == 1
        assert time.monotonic() - t0 < 1.0


class TestSequences:
    def test_n_good_examples(self):
        assert is_n_good(DistributionSequence.of(4, (3, 3)))
        assert is_n_good(DistributionSequence.of(5, (10, 0, 0)))
        assert not is_n_good(DistributionSequence.of(5, (9, 0)))

    def test_balanced_examples(self):
        assert balanced_sequence(5, 3).e == (3, 3, 4)
        assert balanced_sequence(4, 6).e == (1, 1, 1, 1, 1, 1)
        assert balanced_sequence(3, 2).e == (1, 2)

    @given(st.integers(1, 60), st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_balanced_always_n_good(self, n, k):
        seq = balanced_sequence(n, k)
        assert is_n_good(seq)
        assert max(seq.e) - min(seq.e) <= 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DistributionSequence.of(3, (4, -1))


class TestColouring:
    def test_counts_monochromatic(self):
        col = Colouring.monochromatic(4, colour=1, k=2)
        assert colour_counts(col) == [6, 0]

    def test_counts_rainbow_triangle(self):
        col = Colouring.from_edge_colours(3, 3, {(1, 2): 1, (1, 3): 2, (2, 3): 3})
        assert colour_counts(col) == [1, 1, 1]

    def test_counts_conserved(self, rng):
        from conftest import random_colouring
        for _ in range(10):
            n = rng.randint(2, 12)
            k = rng.randint(1, 5)
            col = random_colouring(rng, n, k)
            assert sum(colour_counts(col)) == comb(n, 2)

    def test_matrix_read_only(self):
        col = Colouring.monochromatic(3)
        with pytest.raises(ValueError):
            col.matrix[0, 1] = 2

    def test_copies_the_caller_matrix(self):
        m = np.array([[0, 1], [1, 0]], dtype=np.int32)
        col = Colouring(2, 2, m)
        m[0, 1] = m[1, 0] = 2
        assert col.colour_of(1, 2) == 1

    def test_mapped_matrix_behaves_like_an_array(self, tmp_path):
        # from 4 MiB on, zero_matrix maps the matrix's own pages: n = 2048 in uint8
        n = 2048
        m = zero_matrix(n, 3)
        assert m.shape == (n, n) and m.dtype == np.uint8 and not m.any()
        assert m.nbytes >= _MAPPED_BYTES and isinstance(m.base.base.obj, mmap.mmap)
        col = Colouring.monochromatic(n, colour=2, k=3)
        with pytest.raises(ValueError):
            col.matrix[0, 1] = 1
        assert colour_counts(col) == [0, comb(n, 2), 0]
        assert pickle.loads(pickle.dumps(col)) == col
        write_colouring(col, tmp_path / "big.col")
        assert read_colouring(tmp_path / "big.col") == col

    def test_validates_colour_range(self):
        m = np.array([[0, 5], [5, 0]], dtype=np.int32)
        with pytest.raises(ValueError):
            Colouring(2, 3, m)

    # Each case pins its exact message; a range fault wins over a diagonal or
    # symmetry fault.
    @pytest.mark.parametrize("n, rows, message", [
        (2, [[1, 2], [2, 0]], "matrix must be symmetric with zero diagonal"),
        (3, [[0, 1, 2], [1, 0, 1], [1, 1, 0]], "matrix must be symmetric with zero diagonal"),
        (3, [[0, 1, 0], [1, 0, 1], [0, 1, 0]], r"edge colours must lie in \[1..k\]"),
        (2, [[0, 3], [3, 0]], r"edge colours must lie in \[1..k\]"),
        (2, [[0, -1], [-1, 0]], r"edge colours must lie in \[1..k\]"),
        (2, [[1, 0], [0, 0]], r"edge colours must lie in \[1..k\]"),
        (2, [[0, 1, 1], [1, 0, 1]], r"matrix shape \(2, 3\) != \(2,2\)"),
        (1, [[7]], "matrix must be symmetric with zero diagonal"),
        (2, [[0, 1], [1, 5]], "matrix must be symmetric with zero diagonal"),
        (0, [[0]], "need n >= 1 and k >= 1"),
    ], ids=["diagonal", "asymmetric", "off-diagonal-0", "k+1", "negative",
            "0-and-diagonal", "shape", "n1-diagonal", "diagonal-above-k", "n0"])
    def test_rejects_bad_matrix(self, n, rows, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Colouring(n, 2, np.array(rows))

    # a wider input is range-checked before the cast to the matrix type, uint8
    # here, which like int32 would wrap 2**32 + 1 to 1 and 2**32 to 0
    @pytest.mark.parametrize("rows", [
        [[0, 2 ** 32 + 1], [2 ** 32 + 1, 0]],
        [[2 ** 32, 1], [1, 0]],
        [[0, -(2 ** 32) + 1], [-(2 ** 32) + 1, 0]],
    ], ids=["edge", "diagonal", "negative-edge"])
    def test_rejects_values_int32_would_wrap(self, rows):
        with pytest.raises(ValueError, match=r"^edge colours must lie in \[1..k\]$"):
            Colouring(2, 2, np.array(rows, dtype=np.int64))

    # 257 in uint8 would be 1, a colour in [1..2]
    @pytest.mark.parametrize("make", [
        lambda: Colouring(2, 2, np.array([[0, 257], [257, 0]], dtype=np.int32)),
        lambda: Colouring(2, 2, np.array([[0, 257], [257, 0]], dtype=np.uint16)),
        lambda: Colouring.from_edge_colours(2, 2, {(1, 2): 257}),
        lambda: Colouring.from_edge_colours(2, 2, {(1, 2): np.int64(257)}),
        lambda: Colouring.monochromatic(2, colour=257, k=2),
        lambda: Colouring.painted(2, 2, [(1, 2, (257,), (1,))]),
    ], ids=["int32", "uint16", "edge-colours", "numpy-colour", "monochromatic", "painted"])
    def test_rejects_values_the_narrow_type_would_wrap(self, make):
        with pytest.raises(ValueError, match=r"^edge colours must lie in \[1..k\]$"):
            make()

    # a cast would truncate 1.5 to 1, and read True as colour 1
    @pytest.mark.parametrize("matrix", [
        np.array([[0, 1.5], [1.5, 0]]),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[False, True], [True, False]]),
        np.array([[0, 1], [1, 0]], dtype=object),
    ], ids=["float", "whole-float", "bool", "object"])
    def test_rejects_non_integer_matrix(self, matrix):
        with pytest.raises(ValueError, match=f"^matrix must hold integers, not {matrix.dtype}$"):
            Colouring(2, 2, matrix)

    def test_int32_input_is_copied_once(self):
        n = 1000
        m = np.ones((n, n), dtype=np.int32)
        np.fill_diagonal(m, 0)
        tracemalloc.start()
        try:
            col = Colouring(n, 1, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert col.matrix is not m
        assert peak < 1.5 * m.nbytes

    def test_symmetry_checked_in_every_row_block(self):
        n = 700
        assert 2 * _TILE < n < 3 * _TILE
        m = np.ones((n, n), dtype=np.int32)
        np.fill_diagonal(m, 0)
        # one asymmetric pair each: in the first diagonal tile, in an
        # off-diagonal tile, in a partial off-diagonal tile, and in the last,
        # partial, diagonal tile, whose pair only the last rows hold
        for u, v in ((3, 17), (10, _TILE + 40), (_TILE + 3, n - 5), (n - 2, n - 50)):
            m[u, v] = 2
            with pytest.raises(ValueError, match="symmetric"):
                Colouring(n, 2, m)
            m[v, u] = 2
            assert Colouring(n, 2, m).colour_of(u + 1, v + 1) == 2

    @pytest.mark.parametrize("n", [1, 2, _TILE - 1, _TILE, _TILE + 1, 700])
    def test_mirror_upper_of_a_random_upper_triangle(self, n):
        gen = np.random.default_rng(n)
        m = np.triu(gen.integers(1, 10 ** 6, (n, n), dtype=np.int32), 1)
        mirrored = m.copy()
        mirror_upper(mirrored)
        assert np.array_equal(mirrored, m + m.T)

    def test_counts_match_full_matrix_bincount(self, rng):
        # large k and every row block: the reference counts the whole matrix
        for n, k in ((700, 3), (700, 300000), (5, 10 ** 6)):
            gen = np.random.default_rng(rng.randint(0, 10 ** 9))
            m = np.triu(gen.integers(1, k + 1, (n, n), dtype=np.int32), 1)
            col = Colouring(n, k, m + m.T)
            full = np.bincount(col.matrix.ravel(), minlength=k + 1)
            assert colour_counts(col) == (full[1:] // 2).tolist()

    def test_counting_reader_matches_colour_counts(self, tmp_path, rng):
        # several bands of _BLOCK_CELLS; one band of k > C(n,2) cells; k >> n
        for n, k in ((1000, 3), (700, 300000), (5, 10 ** 6), (1, 4)):
            gen = np.random.default_rng(rng.randint(0, 10 ** 9))
            m = np.triu(gen.integers(1, k + 1, (n, n), dtype=np.int32), 1)
            col = Colouring(n, k, m + m.T)
            write_colouring(col, tmp_path / "a.col")
            assert counted_colouring(tmp_path / "a.col") == (n, k, colour_counts(col))

    def test_induced(self):
        col = Colouring.from_edge_colours(
            4, 3, {(1, 2): 1, (1, 3): 2, (1, 4): 3, (2, 3): 1, (2, 4): 2, (3, 4): 3})
        sub = col.induced([2, 3, 4])
        assert sub.colour_of(1, 2) == col.colour_of(2, 3)
        assert sub.colour_of(2, 3) == col.colour_of(3, 4)


class TestFileFormats:
    def test_sequence_roundtrip(self, tmp_path):
        seq = DistributionSequence.of(6, (7, 8, 0))
        p = tmp_path / "seq.txt"
        write_sequence(seq, p)
        assert read_sequence(p) == seq
        # bit-exact: rewriting what we read gives identical bytes
        p2 = tmp_path / "seq2.txt"
        write_sequence(read_sequence(p), p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_colouring_roundtrip(self, tmp_path, rng):
        from conftest import random_colouring
        col = random_colouring(rng, 9, 4)
        p = tmp_path / "col.txt"
        write_colouring(col, p)
        back = read_colouring(p)
        assert back == col
        p2 = tmp_path / "col2.txt"
        write_colouring(back, p2)
        assert p.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("k", [1, 9, 10, 99, 100, 101, 255, 256, 999, 1000])
    @pytest.mark.parametrize("n", [1, 2, 3, 50])
    def test_colouring_rewrite_is_byte_identical(self, tmp_path, n, k):
        gen = np.random.default_rng(1000 * n + k)
        m = np.triu(gen.integers(1, k + 1, (n, n), dtype=np.int32), 1)
        if n > 1:
            m[0, n - 1] = k
        col = Colouring(n, k, m + m.T)
        p, p2 = tmp_path / "a.col", tmp_path / "b.col"
        write_colouring(col, p)
        back = read_colouring(p)
        assert back == col
        write_colouring(back, p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_colouring_reader_tolerates_layout(self, tmp_path):
        col = Colouring.from_edge_colours(
            4, 12, {(1, 2): 1, (1, 3): 12, (1, 4): 3, (2, 3): 10, (2, 4): 2, (3, 4): 7})
        canonical = tmp_path / "canonical.col"
        write_colouring(col, canonical)
        assert canonical.read_text() == "4 12\n1 12 3\n10 2\n7\n"
        messy = tmp_path / "messy.col"
        messy.write_bytes(b"# header next\r\n 4\t12 \r\n1  12\t 3   \r\n"
                          b"  # between rows\r\n\r\n\t10 2\r\n#\n7 \n# trailing\n")
        assert read_colouring(messy) == read_colouring(canonical) == col

    def test_largest_colour_round_trips(self, tmp_path):
        top = 2 ** 31 - 1
        col = Colouring(2, top, np.array([[0, top], [top, 0]], dtype=np.int32))
        p, p2 = tmp_path / "a.col", tmp_path / "b.col"
        write_colouring(col, p)
        assert p.read_bytes() == b"2 2147483647\n2147483647\n"
        assert read_colouring(p) == col
        write_colouring(read_colouring(p), p2)
        assert p2.read_bytes() == p.read_bytes()

    def test_colouring_text_of_wide_colours(self, tmp_path):
        col = Colouring.from_edge_colours(
            3, 2 ** 31 - 1, {(1, 2): 10 ** 9, (1, 3): 1, (2, 3): 2 ** 31 - 1})
        write_colouring(col, tmp_path / "a.col")
        assert (tmp_path / "a.col").read_text() == "3 2147483647\n1000000000 1\n2147483647\n"

    def test_writer_memory_does_not_grow_with_colours(self, tmp_path):
        def peak(low, high):
            m = np.triu(np.random.default_rng(7).integers(low, high + 1, (600, 600), dtype=np.int32), 1)
            # one matrix type for both, so that only the digit count differs
            col = Colouring(600, 2 ** 31 - 1, m + m.T)
            tracemalloc.start()
            try:
                write_colouring(col, tmp_path / "a.col")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, wide = peak(1, 9), peak(2 ** 31 - 9, 2 ** 31 - 1)
        # the band arrays grow with the digit count, 2 to 11 bytes a cell
        assert wide < 5 * small and wide < 4 * 2 ** 20

    @given(st.integers(1, 30),
           st.one_of(st.sampled_from([1, 9, 10, 99, 100, 10 ** 9, 2 ** 31 - 1]),
                     st.integers(1, 2 ** 31 - 1)),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_colouring_codec_matches_str_formatting(self, tmp_path_factory, n, k, rnd):
        m = np.zeros((n, n), dtype=np.int64)
        for u in range(n):
            for v in range(u + 1, n):
                m[u, v] = m[v, u] = rnd.randint(1, k)
        col = Colouring(n, k, m)
        rows = [[int(c) for c in m[u - 1, u:]] for u in range(1, n)]
        p = tmp_path_factory.mktemp("codec") / "a.col"
        write_colouring(col, p)
        assert p.read_text() == "".join(" ".join(map(str, row)) + "\n" for row in [[n, k]] + rows)
        assert read_colouring(p) == col

        def gap():
            return "".join(rnd.choice([" ", "\t"]) for _ in range(rnd.randint(1, 3)))

        text = ""
        for row in [[n, k]] + rows:
            for _ in range(rnd.randint(0, 2)):
                text += rnd.choice(["", "  ", "# note", " # k-1 + 2"]) + rnd.choice(["\n", "\r\n"])
            edge = gap() if rnd.random() < 0.3 else ""
            # a signed token sends the reader through its per-token check
            tokens = [("+" if rnd.random() < 0.1 else "") + str(c) for c in row]
            text += edge + gap().join(tokens) + edge + rnd.choice(["\n", "\r\n"])
        p.write_bytes(text.encode())
        assert read_colouring(p) == col
        # both count vectors take O(k) memory (ROADMAP item 12), which a k
        # near 2**31 would make gigabytes
        if k <= 10 ** 6:
            assert counted_colouring(p) == (n, k, colour_counts(read_colouring(p)))

    # Each case pins its exact message.
    @pytest.mark.parametrize("text, message", [case[:2] for case in COLOURING_READER_MESSAGES],
                             ids=[case[2] for case in COLOURING_READER_MESSAGES])
    def test_colouring_reader_messages(self, tmp_path, text, message):
        p = tmp_path / "bad.col"
        p.write_text(text)
        with pytest.raises(ValueError) as caught:
            read_colouring(p)
        assert str(caught.value) == f"colouring file {p}: {message}"

    def test_a_signed_row_reads_as_without_its_sign(self, tmp_path):
        # the sign test is made row by row; the other rows still go to np.fromstring
        p = tmp_path / "a.col"
        p.write_text("# note\n4 2\n1 2 1\n2 1\n1\n")
        want = read_colouring(p)
        p.write_text("# note\n4 2\n1 2 1\n2 +1\n1\n")
        assert read_colouring(p) == want

    def test_target_roundtrip(self, tmp_path):
        H = petersen()
        p = tmp_path / "H.txt"
        write_target(H, p)
        assert read_target(p) == H

    def test_comments_ignored(self, tmp_path):
        p = tmp_path / "seq.txt"
        p.write_text("# a comment\n4 2\n# another\n3 3\n")
        assert read_sequence(p) == DistributionSequence.of(4, (3, 3))
