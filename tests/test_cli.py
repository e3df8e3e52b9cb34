import os
import re
import resource
import subprocess
import sys
import time
import warnings
from math import isqrt
from pathlib import Path

import numpy as np
import pytest

from gallaikit import cli, constructor, core
from gallaikit.cli import main
from gallaikit.bounds import read_infeasibility
from gallaikit.core import (
    Colouring,
    DistributionSequence,
    TargetGraph,
    balanced_sequence,
    lex_colouring,
    read_colouring,
    write_colouring,
    write_sequence,
    write_target,
)
from gallaikit.constructor import construct, construct_greedy, realize_certificate
from gallaikit.oracle import n_good_multisets
from gallaikit.verifier import embedding_is_rainbow, find_rainbow_subgraph

from conftest import COLOURING_READER_MESSAGES


def run(*args) -> int:
    return main([str(a) for a in args])


def _agreement_rows(path):
    """(n, e, fields) per row of an agreement report; n is read off sum(e)."""
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        words = line.split()
        e = tuple(int(x) for x in words if "=" not in x)
        fields = dict(w.split("=", 1) for w in words if "=" in w)
        rows.append(((1 + isqrt(1 + 8 * sum(e))) // 2, e, fields))
    return rows


def _all_distinct(tmp_path, n: int):
    """Write K_n with every edge in a colour of its own; return the path."""
    colours = {}
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            colours[(u, v)] = len(colours) + 1
    path = tmp_path / f"distinct{n}.col"
    write_colouring(Colouring.from_edge_colours(n, len(colours), colours), path)
    return path


class TestConstructCommand:
    def test_greedy_round_trip(self, tmp_path, capsys):
        col = tmp_path / "out.col"
        cert = tmp_path / "out.cert"
        code = run("construct", "--target", "builtin:K3", "--n", "6",
                   "--seq", "balanced", "--k", "2", "--out", col, "--cert", cert)
        assert code == 0
        assert "strategy=greedy" in capsys.readouterr().out
        assert col.exists() and cert.exists()
        code = run("verify", "--colouring", col, "--target", "builtin:K3",
                   "--cert", cert)
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_paper_regime_search_round_trip(self, tmp_path, capsys):
        # the best-fit descent realises this sequence without a search node
        col = tmp_path / "out.col"
        cert = tmp_path / "out.cert"
        code = run("construct", "--target", "builtin:K3", "--n", "1000",
                   "--seq", "balanced", "--k", "300", "--out", col, "--cert", cert)
        assert code == 0
        assert "strategy=greedy" in capsys.readouterr().out
        code = run("verify", "--colouring", col, "--target", "builtin:K3", "--cert", cert)
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_inline_sequence_infeasible(self, capsys):
        code = run("construct", "--target", "builtin:K3", "--n", "3",
                   "--seq", "1 1 1")
        assert code == 2
        assert "RainbowKmForced" in capsys.readouterr().err

    def test_missing_n_is_usage_error(self, capsys):
        code = run("construct", "--target", "builtin:K3", "--seq", "balanced", "--k", "2")
        assert code == 1

    def test_not_n_good_rejected(self, capsys):
        code = run("construct", "--target", "builtin:K3", "--n", "4", "--seq", "1 1")
        assert code == 1

    def test_unknown_builtin(self):
        assert run("construct", "--target", "builtin:K9", "--n", "4",
                   "--seq", "balanced", "--k", "2") == 1

    def test_mindeg3_strategy(self, tmp_path, capsys):
        col = tmp_path / "out.col"
        code = run("construct", "--target", "builtin:K4", "--n", "12",
                   "--seq", "balanced", "--k", "3", "--out", col)
        assert code == 0
        assert "strategy=mindeg3" in capsys.readouterr().out
        assert read_colouring(col).n == 12


class TestVerifyCommand:
    def test_tampered_colouring(self, tmp_path, capsys):
        col_path = tmp_path / "out.col"
        cert_path = tmp_path / "out.cert"
        assert run("construct", "--target", "builtin:K3", "--n", "6",
                   "--seq", "balanced", "--k", "3", "--out", col_path,
                   "--cert", cert_path) == 0
        capsys.readouterr()
        col = read_colouring(col_path)
        m = col.matrix.copy()
        m.setflags(write=True)
        # recolour one edge to break both the replay and triangle-freeness
        m[0, 1] = 1 + (m[0, 1] % col.k)
        m[1, 0] = m[0, 1]
        write_colouring(type(col)(col.n, col.k, m), col_path)
        code = run("verify", "--colouring", col_path, "--target", "builtin:K3",
                   "--cert", cert_path)
        out = capsys.readouterr().out
        assert code == 2
        assert "TRIANGLE" in out or "certificate replay failed" in out

    def test_partition_printed_for_small_triangle_free(self, tmp_path, capsys):
        col = tmp_path / "out.col"
        assert run("construct", "--target", "builtin:K3", "--n", "8",
                   "--seq", "balanced", "--k", "2", "--out", col) == 0
        capsys.readouterr()
        assert run("verify", "--colouring", col, "--target", "builtin:K3") == 0
        out = capsys.readouterr().out
        assert "PARTITION base=" in out and "OK" in out

    def test_single_vertex_round_trip(self, tmp_path, capsys):
        col = tmp_path / "out.col"
        assert run("construct", "--target", "builtin:K3", "--n", "1",
                   "--seq", "0", "--out", col) == 0
        capsys.readouterr()
        assert run("verify", "--colouring", col, "--target", "builtin:K3") == 0
        assert capsys.readouterr().out == "OK\n"

    def test_target_with_a_million_vertices(self, tmp_path, capsys):
        # one edge among 10^6 vertices: the target does not fit in K_4, and
        # its degeneracy is found from the edge alone
        write_colouring(Colouring.monochromatic(4), tmp_path / "four.col")
        (tmp_path / "wide.txt").write_text("1000000\n1 2\n")
        t0 = time.monotonic()
        assert run("verify", "--colouring", tmp_path / "four.col",
                   "--target", tmp_path / "wide.txt") == 0
        assert time.monotonic() - t0 < 2.0
        assert capsys.readouterr().out == "OK\n"

    def test_exhaustive_c4_verdict(self, tmp_path):
        col = tmp_path / "out.col"
        assert run("construct", "--target", "builtin:C4", "--n", "8",
                   "--seq", "balanced", "--k", "3", "--out", col) == 0
        assert run("verify", "--colouring", col, "--target", "builtin:C4") == 0

    def test_clique_search_needs_one_node_on_distinct_colours(self, tmp_path, capsys):
        # all-distinct colours: every K4 is rainbow, and the clique search
        # extends its first rainbow triangle, 1 2 3, at its first node
        col_path = _all_distinct(tmp_path, 8)
        code = run("verify", "--colouring", col_path, "--target", "builtin:K4", "--budget", "1")
        assert code == 2
        assert capsys.readouterr().out == "RAINBOW 1 2 3 4\n"
        # every command is deterministic: there is no --seed option
        assert run("--seed", "7", "verify", "--colouring", col_path, "--target", "builtin:K4") == 1

    def test_k3_without_certificate_prints_triangle(self, tmp_path, capsys):
        code = run("verify", "--colouring", _all_distinct(tmp_path, 4), "--target", "builtin:K3")
        assert code == 2
        assert capsys.readouterr().out == "TRIANGLE 1 2 3\n"

    def test_starved_search_without_sampler_is_inconclusive(self, tmp_path, capsys):
        # C4 is not complete, so the backtracking search runs, and one node
        # is too few for it
        code = run("verify", "--colouring", _all_distinct(tmp_path, 6),
                   "--target", "builtin:C4", "--budget", "1")
        out, err = capsys.readouterr()
        assert code == 3
        assert out == "" and err == "inconclusive: rainbow search hit its node budget\n"

    def test_counts_checked_against_sequence(self, tmp_path, capsys):
        col = tmp_path / "out.col"
        seqf = tmp_path / "seq.txt"
        assert run("construct", "--target", "builtin:K3", "--n", "5",
                   "--seq", "balanced", "--k", "2", "--out", col) == 0
        write_sequence(DistributionSequence.of(5, (10, 0)), seqf)
        code = run("verify", "--colouring", col, "--seq", seqf)
        assert code == 2
        assert "counts" in capsys.readouterr().out


    @pytest.mark.parametrize("text, what", [("6 2\n6 4\n", "n"), ("5 3\n5 5 0\n", "k")])
    def test_sequence_for_another_size_is_refused(self, text, what, tmp_path, capsys):
        # the colouring is for n = 5, k = 2; "6 2 / 6 4" is not even 6-good
        col = tmp_path / "out.col"
        seqf = tmp_path / "seq.txt"
        assert run("construct", "--target", "builtin:K3", "--n", "5",
                   "--seq", "balanced", "--k", "2", "--out", col) == 0
        capsys.readouterr()
        seqf.write_text(text)
        assert run("verify", "--colouring", col, "--seq", seqf) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {what} mismatch: ")

    @pytest.mark.parametrize("n, k, err", [
        (6, 2, "error: n mismatch: cert=6 colouring=5 seq=5\n"),
        (5, 3, "error: k mismatch: cert=3 colouring=2 seq=2\n"),
    ])
    def test_certificate_for_another_size_is_refused(self, n, k, err, tmp_path, capsys):
        # the colouring is for n = 5, k = 2; the certificate is built for (n, k)
        col, cert = tmp_path / "out.col", tmp_path / "other.cert"
        assert run("construct", "--target", "builtin:K3", "--n", "5",
                   "--seq", "balanced", "--k", "2", "--out", col) == 0
        assert run("construct", "--target", "builtin:K3", "--n", n,
                   "--seq", "balanced", "--k", k, "--cert", cert) == 0
        capsys.readouterr()
        assert run("verify", "--colouring", col, "--cert", cert) == 1
        assert capsys.readouterr() == ("", err)


class TestCertifyCommand:
    def test_triangle_k1000(self, tmp_path, capsys):
        out = tmp_path / "hard.cert"
        code = run("certify", "--kind", "triangle", "--k", "1000", "--out", out)
        assert code == 0
        assert "TRIANGLEHARD 1000 1203" in capsys.readouterr().out
        assert read_infeasibility(out).n == 1203

    def test_triangle_margin_fails(self, capsys):
        # k = 283 is the first k whose hard sequence exists and whose margin fails
        assert run("certify", "--kind", "triangle", "--k", "283") == 2
        assert capsys.readouterr().err == "no certificate: the inequality does not hold\n"

    def test_triangle_k100_out_of_range(self, capsys):
        code = run("certify", "--kind", "triangle", "--k", "100")
        assert code == 2
        assert "a out of range" in capsys.readouterr().err

    def test_clash_kind(self, tmp_path, capsys):
        seqf = tmp_path / "seq.txt"
        write_sequence(DistributionSequence.of(5, (1,) * 10), seqf)
        code = run("certify", "--kind", "clash", "--seq", seqf, "--m", "3")
        assert code == 0
        assert "RAINBOWKM" in capsys.readouterr().out

    def test_tree_kind_balanced(self, capsys):
        d2 = (6 * 2) ** (6 * 2)
        code = run("certify", "--kind", "tree", "--n", "5972053",
                   "--k", str(2 * d2), "--m", "2")
        assert code == 0
        assert "TREEFORCED" in capsys.readouterr().out

    def test_tree_kind_settles_a_large_m_without_the_power(self, tmp_path, capsys):
        # (6m)^(6m) at m = 200000 has about 2.5 * 10^7 bits; C(10,2) has 6
        t0 = time.monotonic()
        assert run("certify", "--kind", "tree", "--n", "10", "--k", "3", "--m", "200000") == 2
        line = tmp_path / "big-m.inf"
        line.write_text("TREEFORCED 3 10 200000 1 0 0 1 1 0\n")
        with pytest.raises(ValueError, match="failed re-verification"):
            read_infeasibility(line)
        assert time.monotonic() - t0 < 0.5
        assert "no certificate" in capsys.readouterr().err

    def test_general_kind(self, capsys):
        code = run("certify", "--kind", "general", "--target", "builtin:K3",
                   "--k", "2000")
        assert code == 0
        assert "RAINBOWKM" in capsys.readouterr().out

    def test_general_kind_defaults_to_k3(self, capsys):
        assert run("certify", "--kind", "general", "--k", "2000") == 0
        default = capsys.readouterr().out
        assert default == "RAINBOWKM 2000 74 3 701 0 0 64123 1 0\n"
        assert run("certify", "--kind", "general", "--k", "2000", "--m", "3") == 0
        assert capsys.readouterr().out == default


BAD_INPUT = [
    ["oracle", "--k", "0", "--n-max", "3"],
    ["oracle", "--k", "-1", "--n-max", "3"],
    ["certify", "--kind", "tree", "--n", "5", "--k", "0", "--m", "2"],
    ["certify", "--kind", "tree", "--n", "0", "--k", "1", "--m", "2"],
    ["certify", "--kind", "general", "--k", "2000", "--m", "0"],
    ["certify", "--kind", "triangle", "--k", "-5"],
    ["certify", "--kind", "triangle", "--k", "0"],
    ["certify", "--kind", "general", "--k", "-3"],
    ["oracle", "--k", "2", "--n-max", "0"],
    ["oracle", "--k", "2", "--n-max", "-1"],
    ["verify", "--target", "builtin:C4", "--budget", "0"],
    ["verify", "--target", "builtin:C4", "--budget", "-5"],
    ["oracle", "--k", "2", "--n-max", "3", "--budget", "0"],
    ["oracle", "--k", "2", "--n-max", "3", "--total-budget", "-1"],
    ["certify", "--kind", "tree", "--n", "10", "--k", "3", "--m", "1"],
    ["construct", "--n", "1_0", "--seq", "balanced", "--k", "٣"],
    # --strategy is not an option of construct
    ["construct", "--n", "26", "--seq", "balanced", "--k", "3", "--strategy", "staged"],
    ["construct", "--n", "10", "--seq", "balanced", "--k", "3", "--strategy", "greedy"],
]


@pytest.mark.parametrize("argv", BAD_INPUT, ids=lambda a: " ".join(a))
def test_bad_input_is_usage_error(argv, tmp_path, capsys):
    extra = ["--out-dir", str(tmp_path)] if argv[0] == "oracle" else []
    if argv[0] == "verify":
        write_colouring(Colouring.monochromatic(6), tmp_path / "mono.col")
        extra = ["--colouring", str(tmp_path / "mono.col")]
    if argv[0] == "construct":
        write_target(TargetGraph.path(3), tmp_path / "p3.txt")
        extra = ["--target", str(tmp_path / "p3.txt")]
    assert main(argv + extra) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error:")
    assert out == ""


INTEGER_OPTIONS = [
    (["construct", "--target", "builtin:K3", "--seq", "balanced", "--k", "3"], "--n"),
    (["construct", "--target", "builtin:K3", "--n", "10", "--seq", "balanced"], "--k"),
    (["certify", "--kind", "tree", "--n", "10", "--k", "3"], "--m"),
    (["certify", "--kind", "tree", "--k", "3", "--m", "2"], "--n"),
    (["oracle", "--n-max", "3"], "--k"),
    (["oracle", "--k", "2"], "--n-max"),
    (["oracle", "--k", "2", "--n-max", "3"], "--budget"),
    (["oracle", "--k", "2", "--n-max", "3"], "--total-budget"),
    (["verify", "--colouring", "x.col"], "--budget"),
]


@pytest.mark.parametrize("argv, option", INTEGER_OPTIONS, ids=lambda a: " ".join(a[:1]) or a)
@pytest.mark.parametrize("value, message", [
    ("1_0", "option value: '1_0' is not a base-10 integer"),
    ("٣", "option value: '٣' is not a base-10 integer"),
    ("0", "must be a positive integer, got 0"),
    ("-2", "must be a positive integer, got -2"),
])
def test_integer_options_follow_the_token_rule(argv, option, value, message, capsys):
    assert main(argv + [option, value]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: argument {option}: {message}\n")


MALFORMED_COLOURINGS = {
    "empty": "",
    "one-token-header": "3\n1 1\n1\n",
    "missing-row": "3 2\n1 1\n",
    "extra-row": "3 2\n1 1\n1\n1\n",
    "short-row": "3 2\n1\n1\n",
    "long-row": "3 2\n1 1 1\n1\n",
    "token-x": "3 2\n1 x\n1\n",
    "token-1.5": "3 2\n1 1.5\n1\n",
    "token-1,2": "3 2\n1,2\n1\n",
    "colour-0": "3 2\n1 0\n1\n",
    "colour-k+1": "3 2\n1 3\n1\n",
    "colour-minus-1": "3 2\n1 -1\n1\n",
    "colour-2^32+1": "3 2\n1 4294967297\n1\n",
    "huge-header-k": "2 99999999999999999999\n1\n",
    "lone-plus": "3 2\n+ 1 1\n1\n",
    "trailing-plus": "3 2\n1 +\n1\n",
    "header-n-0": "0 2\n",
    "header-three-tokens": "3 2 9\n1 1\n1\n",
    "header-k-2.0": "3 2.0\n1 1\n1\n",
    # written with surrogateescape: the byte 0xff, which is not UTF-8
    "not-utf-8": "3 2\n1 \udcff\n1\n",
}


def _write_colouring_text(path: Path, text: str) -> None:
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


@pytest.mark.parametrize("text", MALFORMED_COLOURINGS.values(), ids=MALFORMED_COLOURINGS)
def test_malformed_colouring_is_usage_error(text, tmp_path, capsys):
    path = tmp_path / "bad.col"
    _write_colouring_text(path, text)
    assert run("verify", "--colouring", path) == 1
    out, err = capsys.readouterr()
    assert err.startswith(f"error: colouring file {path}: ")
    assert "Traceback" not in err
    assert out == ""


def test_undecodable_colouring_names_the_file(tmp_path, capsys):
    path = tmp_path / "bad.col"
    _write_colouring_text(path, MALFORMED_COLOURINGS["not-utf-8"])
    assert run("verify", "--colouring", path) == 1
    assert capsys.readouterr() == ("", f"error: colouring file {path}: 'utf-8' codec can't "
                                       "decode byte 0xff in position 6: invalid start byte\n")


@pytest.mark.parametrize("text", MALFORMED_COLOURINGS.values(), ids=MALFORMED_COLOURINGS)
def test_malformed_colouring_reads_alike_on_every_path(text, tmp_path, capsys):
    # only checked, counted with no matrix, and read into a matrix: one parser
    path, seqf = tmp_path / "bad.col", tmp_path / "seq.txt"
    _write_colouring_text(path, text)
    seqf.write_text("3 2\n2 1\n")
    results = []
    for extra in ([], ["--seq", seqf], ["--target", "builtin:K3"]):
        results.append((run("verify", "--colouring", path, *extra), capsys.readouterr()))
    assert results[0][0] == 1
    assert results[1] == results[2] == results[0]


@pytest.mark.parametrize("text, message", [case[:2] for case in COLOURING_READER_MESSAGES],
                         ids=[case[2] for case in COLOURING_READER_MESSAGES])
def test_counting_reader_messages(text, message, tmp_path, capsys):
    path, seqf = tmp_path / "bad.col", tmp_path / "seq.txt"
    path.write_text(text)
    seqf.write_text("3 2\n2 1\n")
    assert run("verify", "--colouring", path, "--seq", seqf) == 1
    assert capsys.readouterr() == ("", f"error: colouring file {path}: {message}\n")


def test_seq_is_checked_before_the_rows_it_would_count(tmp_path, capsys):
    # --seq alone: the sequence is read and matched with the header before
    # any row; with --target the rows are read into the matrix first
    path, seqf = tmp_path / "bad.col", tmp_path / "seq.txt"
    path.write_text("3 2\n1 x\n1\n")
    seqf.write_text("3 3\n1 1 1\n")
    assert run("verify", "--colouring", path, "--seq", seqf) == 1
    assert capsys.readouterr() == ("", "error: k mismatch: colouring=2 seq=3\n")
    seqf.write_text("3 2\n")
    assert run("verify", "--colouring", path, "--seq", seqf) == 1
    assert capsys.readouterr() == ("", f"error: sequence file {seqf}: expected the line "
                                       "'n k', then one line of k budgets\n")
    assert run("verify", "--colouring", path, "--seq", seqf, "--target", "builtin:K3") == 1
    assert capsys.readouterr() == ("", f"error: colouring file {path}: row 1 holds a token "
                                       "that is not a base-10 integer\n")


def test_a_row_read_short_with_a_warning_is_refused(tmp_path, capsys, monkeypatch):
    # numpy releases that only warn where np.fromstring stops short would
    # read "1 2x" as 1 2; the reader takes that warning as the error it is now
    def warn_and_stop(text, dtype, sep):
        got = []
        for token in text.split():
            digits = re.match(r"\d*", token).group()
            if digits:
                got.append(int(digits))
            if digits != token:
                warnings.warn("string or file could not be read to its end due to unmatched data",
                              DeprecationWarning)
                break
        return np.array(got, dtype=dtype)

    monkeypatch.setattr(core.np, "fromstring", warn_and_stop)
    path = tmp_path / "bad.col"
    path.write_text("# note\n3 2\n1 2x\n1\n")
    assert run("verify", "--colouring", path) == 1
    assert capsys.readouterr() == ("", f"error: colouring file {path}: row 1 holds a token "
                                       "that is not a base-10 integer\n")


class _MatrixBuilt(Exception):
    pass


def test_verify_seq_alone_builds_no_matrix(tmp_path, monkeypatch, capsys):
    col, cert, seqf = tmp_path / "out.col", tmp_path / "out.cert", tmp_path / "seq.txt"
    assert run("construct", "--target", "builtin:K3", "--n", "6", "--seq", "balanced",
               "--k", "2", "--out", col, "--cert", cert) == 0
    write_sequence(balanced_sequence(6, 2), seqf)

    def refuse(n, k):
        raise _MatrixBuilt

    monkeypatch.setattr(core, "zero_matrix", refuse)
    assert run("verify", "--colouring", col, "--seq", seqf) == 0
    assert run("verify", "--colouring", col) == 0
    for extra in (["--cert", cert], ["--target", "builtin:K3"]):
        with pytest.raises(_MatrixBuilt):
            run("verify", "--colouring", col, "--seq", seqf, *extra)


# A fresh interpreter imports the CLI and runs `gallaikit ARGS` (nothing when
# ARGS is empty), then prints the peak resident size of its own address space,
# VmHWM. Its ru_maxrss would be no less than the size of the test process it
# was forked from: Linux carries that peak across the exec.
_CHILD = ("import sys\n"
          "from gallaikit.cli import main\n"
          "code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
          "with open('/proc/self/status') as f:\n"
          "    print(next(ln for ln in f if ln.startswith('VmHWM:')).strip())\n"
          "sys.exit(code)\n")
_READS_VMHWM = pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="Linux only")


def _gallaikit_child(args, address_space=None) -> subprocess.CompletedProcess:
    """Run the CLI in a child process, its address space capped if asked."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, "-c", _CHILD, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300,
                          preexec_fn=cap if address_space else None)


def _peak_kb(proc: subprocess.CompletedProcess) -> int:
    return int(proc.stdout.splitlines()[-1].split()[1])


@_READS_VMHWM
def test_largest_k_on_two_vertices_verifies_in_one_gib(tmp_path):
    # no --seq, --cert or --target: nothing is counted; a list of all 2**31
    # colours' counts would ask for 16 GiB
    path, seqf = tmp_path / "kmax.col", tmp_path / "three.seq"
    path.write_text("2 2147483647\n1\n")
    proc = _gallaikit_child(["verify", "--colouring", path], address_space=1 << 30)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[0] == "OK"
    # --target counts only the colours present, for settle_target and the partition
    proc = _gallaikit_child(["verify", "--colouring", path, "--target", "builtin:K3"],
                            address_space=1 << 30)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[:2] == ["PARTITION base=1 part=1 part=2", "OK"]
    # a --seq for another k is refused from the header, before any row is read
    seqf.write_text("2 3\n1 0 0\n")
    proc = _gallaikit_child(["verify", "--colouring", path, "--seq", seqf],
                            address_space=1 << 30)
    assert proc.returncode == 1
    assert proc.stderr == "error: k mismatch: colouring=2147483647 seq=3\n"


@_READS_VMHWM
def test_bulk_construct_and_verify_seq_peak_near_a_bare_import(tmp_path):
    # at n = 3000 and k = 60 the uint8 matrix takes 9 MB (an int32 one took
    # 36 MB): K4 construct --out paints its colouring band by band and verify
    # --seq counts each band of rows as it reads it, so neither holds it;
    # nor does verify hold the 13 MB file's lines, as it did before
    col, seqf = tmp_path / "bulk.col", tmp_path / "bulk.seq"
    write_sequence(balanced_sequence(3000, 60), seqf)
    bare = _gallaikit_child([])
    built = _gallaikit_child(["construct", "--target", "builtin:K4", "--n", 3000,
                              "--seq", seqf, "--out", col])
    checked = _gallaikit_child(["verify", "--colouring", col, "--seq", seqf])
    assert (bare.returncode, built.returncode, checked.returncode) == (0, 0, 0), \
        built.stderr + checked.stderr
    assert _peak_kb(built) < _peak_kb(bare) + 9 * 1024
    assert _peak_kb(checked) < _peak_kb(bare) + 6 * 1024


def test_k4_construct_out_builds_no_matrix(tmp_path, monkeypatch, capsys):
    want = tmp_path / "want.col"
    painted = constructor.construct_mindeg3(40, balanced_sequence(40, 7))
    write_colouring(Colouring(40, 7, painted.matrix), want)

    def refuse(n, k):
        raise _MatrixBuilt

    for module in (core, constructor):
        monkeypatch.setattr(module, "zero_matrix", refuse)
    col = tmp_path / "out.col"
    assert run("construct", "--target", "builtin:K4", "--n", "40", "--seq", "balanced",
               "--k", "7", "--out", col) == 0
    assert "strategy=mindeg3" in capsys.readouterr().out
    assert col.read_bytes() == want.read_bytes()


def test_verify_cert_builds_one_matrix(tmp_path, monkeypatch, capsys):
    # the reader builds the colouring's matrix; the certificate is compared
    # with it step by step, not replayed into a second one
    col, cert = tmp_path / "out.col", tmp_path / "out.cert"
    assert run("construct", "--target", "builtin:K3", "--n", "70", "--seq", "balanced",
               "--k", "5", "--out", col, "--cert", cert) == 0
    calls = []
    for module in (core, constructor):
        def counted(n, k, module=module, orig=module.zero_matrix):
            calls.append(module.__name__)
            return orig(n, k)

        monkeypatch.setattr(module, "zero_matrix", counted)
    assert run("verify", "--colouring", col, "--cert", cert, "--target", "builtin:K3") == 0
    assert calls == ["gallaikit.core"]


STAR8_72 = "141 213 354 69 217 169 79 261 31 77 44 42 100 170 78 24 10 168 159 6 144"


def test_forest_search_finds_rainbow_star_in_standard_colouring(tmp_path, capsys):
    # the best-fit descent realises these counts, and the tree search
    # finds a rainbow K_{1,8} in that colouring: a witness, not a give-up
    write_target(TargetGraph.star(8), tmp_path / "star8.txt")
    code = run("construct", "--target", tmp_path / "star8.txt", "--n", "72", "--seq",
               STAR8_72, "--out", tmp_path / "out.col")
    out, err = capsys.readouterr()
    assert code == 3
    assert "greedy colouring contains a rainbow copy" in err
    assert "RAINBOW " in err and "node budget" not in err
    assert out == "" and not (tmp_path / "out.col").exists()


def test_forest_give_up_witness_is_rainbow_in_the_greedy_colouring():
    seq = DistributionSequence.of(72, [int(x) for x in STAR8_72.split()])
    star = TargetGraph.star(8)
    res = construct(star, 72, seq)
    assert res.status == "unknown" and res.colouring is None
    assert res.reasons[-1] == "greedy colouring contains a rainbow copy of the forest target"
    col = realize_certificate(construct_greedy(72, seq).certificate)
    assert embedding_is_rainbow(col, star, res.witness)


def test_forest_search_out_of_budget_gives_up():
    # the lex fill has a vertex of colour degree 21, so a rainbow K_{1,8}
    # exists; the centre is placed only on hosts of colour degree >= 8, so the
    # search finds one long before its budget of 10^6 nodes
    seq = DistributionSequence.of(72, [int(x) for x in STAR8_72.split()])
    col, star = lex_colouring(seq), TargetGraph.star(8)
    search = find_rainbow_subgraph(col, star)
    assert search.found and embedding_is_rainbow(col, star, search.embedding)
    assert search.nodes_used < 1_000


class TestOracleCommand:
    def test_k2_table(self, tmp_path, capsys):
        code = run("oracle", "--k", "2", "--n-max", "5", "--out-dir", tmp_path)
        assert code == 0
        table = (tmp_path / "realizability_k3_k2.txt").read_text()
        assert "UNREALIZABLE" not in table
        agree = (tmp_path / "agreement_k3_k2.txt").read_text()
        assert "# disagreements=0" in agree

    def test_k3_table_has_mandatory_entry(self, tmp_path):
        code = run("oracle", "--k", "3", "--n-max", "4", "--out-dir", tmp_path)
        assert code == 0
        table = (tmp_path / "realizability_k3_k3.txt").read_text()
        assert "1 1 1 UNREALIZABLE" in table

    def test_budget_guard_flags_partial(self, tmp_path, capsys):
        code = run("oracle", "--k", "3", "--n-max", "6", "--out-dir", tmp_path,
                   "--budget", "10", "--total-budget", "30")
        assert code == 3
        table = (tmp_path / "realizability_k3_k3.txt").read_text()
        assert "PARTIAL" in table

    def test_target_file_named_by_base_name(self, tmp_path):
        (tmp_path / "targets").mkdir()
        target = tmp_path / "targets" / "P3.txt"
        write_target(TargetGraph.path(3), target)
        out = tmp_path / "tables"
        code = run("oracle", "--target", target, "--k", "2", "--n-max", "4", "--out-dir", out)
        assert code == 0
        assert (out / "realizability_p3.txt_k2.txt").read_text().startswith(
            "# target=p3.txt k=2 n_max=4\n")
        assert (out / "agreement_p3.txt_k2.txt").exists()

    # the benchmark's oracle tables, and a forest
    @pytest.mark.parametrize("target, k, n_max", [
        ("builtin:K3", 4, 8), ("builtin:K3", 5, 6), ("builtin:C4", 4, 7),
        ("builtin:C4", 5, 5), ("builtin:K4", 6, 6), ("p4.txt", 3, 6)])
    def test_greedy_column_is_the_constructors_verdict(self, tmp_path, target, k, n_max):
        name = target.split(":")[-1].lower()
        forest = not target.startswith("builtin:")
        if forest:
            write_target(TargetGraph.path(4), tmp_path / target)
            target = tmp_path / target
        code = run("oracle", "--target", target, "--k", k, "--n-max", n_max,
                   "--out-dir", tmp_path)
        assert code == 0
        rows = _agreement_rows(tmp_path / f"agreement_{name}_k{k}.txt")
        assert len(rows) == sum(len(list(n_good_multisets(n, k))) for n in range(2, n_max + 1))
        for n, e, fields in rows:
            want = "-" if forest else construct_greedy(n, DistributionSequence(n, k, e)).status
            assert fields["greedy"] == want, e

    def test_total_budget_bounds_the_whole_command(self, tmp_path, monkeypatch, capsys):
        calls = []
        real = constructor.construct_greedy

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for mod in (constructor, cli):
            if hasattr(mod, "construct_greedy"):
                monkeypatch.setattr(mod, "construct_greedy", counting)
        code = run("oracle", "--k", "3", "--n-max", "24", "--total-budget", "1100",
                   "--out-dir", tmp_path)
        assert code == 3 and "PARTIAL" in capsys.readouterr().err
        assert calls == []
        skipped = [f for _, _, f in _agreement_rows(tmp_path / "agreement_k3_k3.txt")
                   if f["oracle"] == "inconclusive"]
        assert skipped and all(f["greedy"] == "-" for f in skipped)
        # no n is tabled after the one where the budget ran out
        table = (tmp_path / "realizability_k3_k3.txt").read_text().splitlines()
        first_skipped = next(i for i, ln in enumerate(table) if ln.endswith("INCONCLUSIVE"))
        assert not any(ln.startswith("# n=") for ln in table[first_skipped:])

    @pytest.mark.parametrize("H, name", [(TargetGraph.path(3), "p3.txt"),
                                         (TargetGraph.complete(2), "k2.txt")])
    def test_forest_target_skips_greedy(self, tmp_path, H, name):
        # a standard colouring proves nothing about forests, so greedy is not compared
        write_target(H, tmp_path / name)
        code = run("oracle", "--target", tmp_path / name, "--k", "2", "--n-max", "4",
                   "--out-dir", tmp_path)
        assert code == 0
        agree = (tmp_path / f"agreement_{name}_k2.txt").read_text().splitlines()
        assert agree[-1] == "# disagreements=0"
        assert all(" greedy=- " in ln for ln in agree[1:-1])
