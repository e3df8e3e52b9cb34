"""Outputs of the command line checked by `perfbench/checks.py`, which
imports nothing from gallaikit: the infeasibility lines that `certify`
prints, and the colourings, split certificates and partitions of the golden
CLI corpus.

checks.py re-derives each infeasibility kind's inequality from the instance
it was asked for, so a fault shared by a certificate maker and
`InfeasibilityCertificate.verify()` cannot hide in it. checks.py imports only
the standard library and numpy, so it is loaded by path. Every certify case
is an instance: the command line that prints the line, and the call of the
matching `*_cert_problems` that checks it.
"""
from __future__ import annotations

import contextlib
import importlib.util
import io
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from gallaikit.bounds import (
    _KIND_TOKENS, InfeasibilityCertificate, balanced_tree_forced_check, read_infeasibility,
    tree_forced_check,
)
from gallaikit.cli import main
from gallaikit.core import DistributionSequence, write_sequence
from test_golden_cli import run_calls

CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"


def _checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


CHK = _checks()


def _clash_sequence(seed: int) -> DistributionSequence:
    """Each edge of K_n in a random one of 1.5 C(n,2) colours: few
    monochromatic pairs, so the clash bound holds for m = 3 and m = 4."""
    rng = random.Random(seed)
    n = rng.randint(12, 16)
    k = comb(n, 2) * 3 // 2
    counts = [0] * k
    for _ in range(comb(n, 2)):
        counts[rng.randrange(k)] += 1
    return DistributionSequence.of(n, counts)


# token -> (id, certify arguments, independent check of the printed line);
# "seq" in the arguments stands for a sequence file holding the case's sequence
CASES: dict[str, list[tuple]] = {"TRIANGLEHARD": [], "RAINBOWKM": [], "TREEFORCED": []}
for _k in (293, 300, 1000):
    CASES["TRIANGLEHARD"].append(
        (f"triangle-k{_k}", ["--kind", "triangle", "--k", _k], None,
         lambda line, k=_k: CHK.triangle_cert_problems(line, k)))
for _seed in (1, 2, 3):
    for _m in (3, 4):
        _seq = _clash_sequence(_seed)
        CASES["RAINBOWKM"].append(
            (f"clash-seed{_seed}-m{_m}", ["--kind", "clash", "--seq", "seq", "--m", _m], _seq,
             lambda line, s=_seq, m=_m: CHK.clash_cert_problems(line, s.n, s.e, m)))
for _k, _m in ((2000, 3), (5000, 3), (50_000, 4), (300_000, 5)):
    _n = _k // _m ** 3
    CASES["RAINBOWKM"].append(
        (f"general-k{_k}-m{_m}", ["--kind", "general", "--k", _k, "--m", _m], None,
         lambda line, n=_n, k=_k, m=_m: CHK.clash_cert_problems(line, n, CHK.balanced(n, k), m)))
# the README's forced instance: k = 2*12^12 colours, balanced on n = 5972053
CASES["TREEFORCED"].append(
    ("tree-balanced-12^12", ["--kind", "tree", "--n", 5972053, "--k", 2 * 12 ** 12, "--m", 2],
     None, lambda line: CHK.tree_cert_problems(line, 5972053, 2 * 12 ** 12, 2)))

ALL_CASES = [case for token in sorted(CASES) for case in CASES[token]]

# Fields of a line: 1..8 are k n m a b c and the margin's p q, 9 the log error.
FIELDS = ["k", "n", "m", "a", "b", "c", "p", "q", "log_error"]
# A RAINBOWKM or TREEFORCED line stores one aggregate of its sequence (sum of
# C(e_i,2), or max e_i) and no k in its inequality, so verify() cannot tell
# which k it was made for; checks.py, given the instance, can.
VERIFY_BLIND = {"RAINBOWKM": {"k"}, "TREEFORCED": {"k"}, "TRIANGLEHARD": set()}
# checks.py reads the fields its inequality uses. For TRIANGLEHARD it bounds
# the margin from above by a 40-term series instead of recomputing it.
CHECKER_READS = {"RAINBOWKM": {"k", "n", "m", "a", "p", "q"},
                 "TREEFORCED": {"k", "n", "m", "a", "p", "q"},
                 "TRIANGLEHARD": {"k", "n", "m", "a", "b", "c"}}


def _certify(args, seq, tmp_path) -> tuple[str, Path]:
    argv = [str(a) for a in args]
    if seq is not None:
        write_sequence(seq, tmp_path / "case.seq")
        argv[argv.index("seq")] = str(tmp_path / "case.seq")
    out = tmp_path / "case.inf"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["certify", *argv, "--out", str(out)]) == 0
    return stdout.getvalue().rstrip("\n"), out


def _refused_by_reader(line: str, tmp_path) -> bool:
    path = tmp_path / "mutant.inf"
    path.write_text(line + "\n")
    try:
        read_infeasibility(path)
    except ValueError:
        return True
    return False


def _refused_by_checker(check, line: str) -> bool:
    try:
        return bool(check(line))
    except (ValueError, ZeroDivisionError):
        return True


def _moved(line: str, field: str, delta: int) -> str:
    words = line.split()
    i = FIELDS.index(field) + 1
    words[i] = str(Fraction(words[i]) + delta) if field == "log_error" else str(int(words[i]) + delta)
    return " ".join(words)


@pytest.mark.parametrize("token", sorted(_KIND_TOKENS.values()))
def test_every_kind_has_cases_that_pass_both_checkers(token, tmp_path):
    assert CASES.get(token), f"no independent-check case for {token}"
    assert token in VERIFY_BLIND and token in CHECKER_READS
    for name, args, seq, check in CASES[token]:
        line, path = _certify(args, seq, tmp_path)
        assert line.split()[0] == token, name
        assert path.read_text().splitlines()[0] == line, name
        assert read_infeasibility(path).to_line() == line, name
        assert check(line) == [], name


@pytest.mark.parametrize("name, args, seq, check", ALL_CASES, ids=[c[0] for c in ALL_CASES])
def test_every_field_moved_by_one_is_refused(name, args, seq, check, tmp_path):
    line, _ = _certify(args, seq, tmp_path)
    token = line.split()[0]
    for field in FIELDS:
        # every field is read by at least one of the two checkers
        assert field not in VERIFY_BLIND[token] or field in CHECKER_READS[token], field
        for delta in (1, -1):
            bad = _moved(line, field, delta)
            if field not in VERIFY_BLIND[token]:
                assert _refused_by_reader(bad, tmp_path), (field, delta, bad)
            if field in CHECKER_READS[token]:
                assert _refused_by_checker(check, bad), (field, delta, bad)


@pytest.mark.parametrize("line", [
    "RAINBOWKM 3 3 4 0 0 0 1 4 0",     # a rainbow K4 forced in K3
    "RAINBOWKM 3 3 3 0 7 9 1 1 0",     # b and c are not part of the kind
    "RAINBOWKM 3 3 3 0 0 0 1 1 5/3",   # a log error where no log is taken
    "TREEFORCED 3 1 2 0 0 0 0 1 0",    # max e_i = 0: K_1 holds no tree
])
def test_unsound_lines_are_refused(line, tmp_path):
    assert not InfeasibilityCertificate.from_line(line).verify()
    assert _refused_by_reader(line, tmp_path)


def test_no_tree_certificate_on_one_vertex():
    # the only sequence on K_1 has max e_i = 0, and K_1 holds no 2-vertex tree
    assert balanced_tree_forced_check(1, 3, 2) is None
    assert tree_forced_check(DistributionSequence.of(1, (0, 0, 0)), 2) is None


def _construct_sequence(argv: list[str]) -> tuple[int, ...]:
    """The counts a construct call of the golden corpus asks for: balanced
    over --k colours, or inline."""
    n, seq = int(argv[argv.index("--n") + 1]), argv[argv.index("--seq") + 1]
    if seq == "balanced":
        return CHK.balanced(n, int(argv[argv.index("--k") + 1]))
    return tuple(int(x) for x in seq.split())


def test_golden_cli_outputs_pass_the_independent_checks(tmp_path):
    # every .col/.cert pair construct writes: the counts it was asked for and
    # a replay of the certificate into the same matrix; every PARTITION line
    # verify prints: a partition of its colouring joined in its base colours
    pairs, partitions = 0, 0
    for case, argv, code, out, _ in run_calls(tmp_path):
        if argv[0] == "construct" and "--out" in argv and "--cert" in argv:
            col, cert = (Path(argv[argv.index(flag) + 1]) for flag in ("--out", "--cert"))
            if not cert.exists():
                continue
            n, k, m = CHK.read_colouring_file(col)
            e = _construct_sequence(argv)
            assert CHK.count_problems(m, k, e) == [], case
            assert CHK.replay_problems(n, k, e, CHK.read_certificate_file(cert)[2], m) == [], case
            pairs += 1
        for line in out.splitlines():
            if line.startswith("PARTITION"):
                m = CHK.read_colouring_file(argv[argv.index("--colouring") + 1])[2]
                assert CHK.partition_problems(m, *CHK.parse_partition_line(line)) == [], case
                partitions += 1
    # construct-k4-n10-mindeg3 writes no split certificate, and
    # construct-k3-n3-rainbow only an infeasibility certificate
    assert (pairs, partitions) == (15, 9)
