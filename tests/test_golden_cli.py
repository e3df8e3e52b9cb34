"""Golden outputs of the `construct` and `verify` commands.

Each call in CORPUS runs through `gallaikit.cli.main` in one shared working
directory; its exit code and the sha256 of its stdout, its stderr and every
`.col`/`.cert` file it writes must match `fixtures/golden_cli.txt`. The
working directory is replaced by `<dir>` before hashing, so the digests do
not depend on where the test runs.

The fixture pins the behaviour of the command line as it was before the
step-replay kernel, the construct helpers and the scan-free partition search
were introduced; its forest-target lines, the behaviour as it was before
construct became one guarded chain; its last four lines, the behaviour after
the triangle scan came to settle cyclic targets in verify; its greedy
certificates and its k3-n39-search pair, the behaviour after the greedy
constructor became one best-fit descent whose order the standard search
follows. Do not regenerate it to make this test pass: a mismatch means an
output changed.
`python tests/test_golden_cli.py` prints the lines for the checkout it runs
in.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
from math import comb
from pathlib import Path

from gallaikit.cli import main
from gallaikit.core import (
    DistributionSequence, TargetGraph, balanced_sequence, write_sequence, write_target,
)

FIXTURE = Path(__file__).parent / "fixtures" / "golden_cli.txt"

# Two sequences that once needed the standard search; the best-fit descent
# now realises both without a search node.
DFS_42 = "129 34 214 62 5 16 78 177 40 106"
DFS_48 = "67 167 126 48 131 201 72 36 65 80 33 102"
# A paper-regime draw (k = 20, n = 39) on which the best-fit descent stalls;
# the standard search realises it in 156 nodes.
SEARCH_39 = "14 11 35 4 10 65 15 109 16 56 19 4 26 8 78 37 24 79 25 106"


def _random_seq(seed: int, n: int, k: int) -> str:
    """Seeded uniform composition of C(n,2) into k non-negative parts."""
    rng = random.Random(seed)
    cuts = sorted(rng.randint(0, comb(n, 2)) for _ in range(k - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [comb(n, 2)])]
    return " ".join(str(p) for p in parts)


def _built(tag: str, target: str, n: int, seq: list[str], *extra: str) -> list[tuple]:
    """construct into {tag}.col/{tag}.cert, then verify both against the target."""
    return [
        (f"construct-{tag}", ["construct", "--target", target, "--n", str(n),
                              "--seq", *seq, "--out", f"{tag}.col",
                              "--cert", f"{tag}.cert", *extra]),
        (f"verify-{tag}", ["verify", "--colouring", f"{tag}.col",
                           "--target", target, "--cert", f"{tag}.cert"]),
    ]


CORPUS: list[tuple[str, list[str]]] = [
    ("construct-k3-n3-rainbow", ["construct", "--target", "builtin:K3", "--n", "3",
                                 "--seq", "1 1 1", "--cert", "inf3.cert"]),
    ("construct-k3-n4-222", ["construct", "--target", "builtin:K3", "--n", "4",
                             "--seq", "2 2 2"]),
    ("construct-k3-not-n-good", ["construct", "--target", "builtin:K3", "--n", "6",
                                 "--seq", "3 3"]),
    *_built("k3-n3", "builtin:K3", 3, ["2 1"]),
    *_built("k3-n4", "builtin:K3", 4, ["balanced", "--k", "2"]),
    *_built("k3-n6-greedy", "builtin:K3", 6, ["balanced", "--k", "3"]),
    *_built("k3-n10-rand", "builtin:K3", 10, [_random_seq(1, 10, 4)]),
    *_built("k3-n26-staged", "builtin:K3", 26, ["balanced", "--k", "3"]),
    *_built("k3-n42-dfs", "builtin:K3", 42, [DFS_42]),
    *_built("k3-n48-dfs", "builtin:K3", 48, [DFS_48]),
    *_built("k3-n39-search", "builtin:K3", 39, [SEARCH_39]),
    *_built("k3-n60-rand", "builtin:K3", 60, [_random_seq(2, 60, 6)]),
    *_built("k3-n120", "builtin:K3", 120, ["balanced", "--k", "10"]),
    ("construct-k4-n6-gives-up", ["construct", "--target", "builtin:K4", "--n", "6",
                                  "--seq", "balanced", "--k", "5"]),
    *_built("k4-n6-standard", "builtin:K4", 6, ["8 4 2 1"]),
    ("construct-k4-n10-mindeg3", ["construct", "--target", "builtin:K4", "--n", "10",
                                  "--seq", "balanced", "--k", "3", "--out", "k4-10.col",
                                  "--cert", "k4-10.cert"]),
    ("verify-k4-n10-mindeg3", ["verify", "--colouring", "k4-10.col",
                               "--target", "builtin:K4", "--seq", "b10k3.seq"]),
    *_built("c4-n4", "builtin:C4", 4, ["balanced", "--k", "2"]),
    *_built("c4-n10-rand", "builtin:C4", 10, [_random_seq(3, 10, 3)]),
    ("construct-c4-n26-staged", ["construct", "--target", "builtin:C4", "--n", "26",
                                 "--seq", "balanced", "--k", "3",
                                 "--out", "c4-26.col", "--cert", "c4-26.cert"]),
    ("verify-c4-n26-cert-seq", ["verify", "--colouring", "c4-26.col",
                                "--cert", "c4-26.cert", "--seq", "b26k3.seq"]),
    ("construct-k4-n60-rand", ["construct", "--target", "builtin:K4", "--n", "60",
                               "--seq", _random_seq(4, 60, 8), "--out", "k4-60.col"]),
    ("construct-k4-n120", ["construct", "--target", "builtin:K4", "--n", "120",
                           "--seq", "balanced", "--k", "20", "--out", "k4-120.col"]),
    ("verify-k4-n120-seq", ["verify", "--colouring", "k4-120.col", "--seq", "b120k20.seq"]),
    ("verify-k3-n26-wrong-counts", ["verify", "--colouring", "k3-n26-staged.col",
                                    "--seq", "b26k3-wrong.seq"]),
    ("verify-k3-n42-own-counts", ["verify", "--colouring", "k3-n42-dfs.col",
                                  "--cert", "k3-n42-dfs.cert"]),
    # Forest targets: the colouring is kept only when an exhaustive search
    # finds no rainbow copy in it.
    ("construct-p3-n10-rainbow", ["construct", "--target", "p3.tgt", "--n", "10",
                                  "--seq", "balanced", "--k", "3"]),
    ("construct-star3-n10-searched", ["construct", "--target", "star3.tgt", "--n", "10",
                                      "--seq", "balanced", "--k", "2",
                                      "--out", "star3-10.col", "--cert", "star3-10.cert"]),
    ("construct-p4-n8-searched", ["construct", "--target", "p4.tgt", "--n", "8",
                                  "--seq", "27 1", "--out", "p4-8.col"]),
    # Cyclic targets without a certificate: one triangle scan settles them.
    ("verify-c4-n10-no-cert", ["verify", "--colouring", "c4-n10-rand.col",
                               "--target", "builtin:C4"]),
    ("verify-c4-on-k3-n120-no-cert", ["verify", "--colouring", "k3-n120.col",
                                      "--target", "builtin:C4"]),
    ("verify-k4-on-k3-n120-no-cert", ["verify", "--colouring", "k3-n120.col",
                                      "--target", "builtin:K4"]),
    ("verify-k3-n26-seq-for-n10", ["verify", "--colouring", "k3-n26-staged.col",
                                   "--seq", "b10k3.seq"]),
]

# Target files the forest calls read, written before the corpus runs.
TARGET_FILES = {
    "p3.tgt": TargetGraph.path(3),
    "star3.tgt": TargetGraph.star(3),
    "p4.tgt": TargetGraph.path(4),
}

# Sequence files the verify calls read, written before the corpus runs.
SEQ_FILES = {
    "b10k3.seq": balanced_sequence(10, 3),
    "b26k3.seq": balanced_sequence(26, 3),
    "b120k20.seq": balanced_sequence(120, 20),
    "b26k3-wrong.seq": DistributionSequence.of(26, (300, 25, 0)),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_calls(workdir: Path):
    """Run every call in CORPUS inside workdir, yielding (case, argv, exit
    code, stdout, stderr) with the file names in argv made absolute."""
    for name, seq in SEQ_FILES.items():
        write_sequence(seq, str(workdir / name))
    for name, H in TARGET_FILES.items():
        write_target(H, str(workdir / name))
    for case, argv in CORPUS:
        argv = [str(workdir / a) if a.endswith((".col", ".cert", ".seq", ".tgt")) else a
                for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        yield case, argv, code, out.getvalue(), err.getvalue()


def run_corpus(workdir: Path) -> list[str]:
    """Run every call in CORPUS inside workdir; one fixture line per call."""
    lines = []
    for case, argv, code, out, err in run_calls(workdir):
        fields = [case, f"exit={code}"]
        for label, text in (("stdout", out), ("stderr", err)):
            fields.append(f"{label}={_sha(text.replace(str(workdir), '<dir>').encode())}")
        for flag in ("--out", "--cert"):
            if flag in argv and argv[0] == "construct":
                path = Path(argv[argv.index(flag) + 1])
                digest = _sha(path.read_bytes()) if path.exists() else "-"
                fields.append(f"{flag[2:]}={digest}")
        lines.append(" ".join(fields))
    return lines


def _fixture_lines() -> list[str]:
    return [ln for ln in FIXTURE.read_text(encoding="utf-8").splitlines()
            if ln and not ln.startswith("#")]


def test_golden_cli_outputs(tmp_path):
    want = {ln.split()[0]: ln for ln in _fixture_lines()}
    got = run_corpus(tmp_path)
    assert [ln.split()[0] for ln in got] == list(want)
    for line in got:
        assert line == want[line.split()[0]]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        sys.stdout.write("".join(ln + "\n" for ln in run_corpus(Path(d))))
