"""Malformed sequence, target, split-certificate, infeasibility and colouring files.

Every reader of these line formats reads its file through `core.data_lines`,
which names the file in each error, and its integers by the token rule of
`core.int_tokens`: an optional sign, then ASCII digits. A
corpus of malformed files runs through each command that reads them; every
case must exit 1 with one `error:` line that names the file, and print
nothing on stdout. Hypothesis then feeds the readers arbitrary text, and the
command line token soup: neither may fail in any other way. It also mutates
a valid colouring file, which `verify --colouring` must accept or refuse
with exit 1, as both colouring readers do.
"""
from __future__ import annotations

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gallaikit.bounds import read_infeasibility
from gallaikit.cli import main
from gallaikit.constructor import (
    SplitCertificate, construct_greedy, read_certificate, realize_certificate, write_certificate,
)
from gallaikit.core import (
    DistributionSequence, TargetGraph, colour_counts, read_colouring,
    read_sequence, read_target, write_colouring,
)

from conftest import counted_colouring

# the greedy colouring of K_4 with counts 3 2 1 and its certificate
SEQ = DistributionSequence.of(4, (3, 2, 1))
VALID = {
    "seq": ["4 3", "3 2 1"],
    "target": ["3", "1 2", "1 3", "2 3"],
    "cert": ["4 3", "1 4 1 1", "1 3 1 2", "1 2 1 3"],
    "infeasibility": ["RAINBOWKM 2000 74 3 701 0 0 64123 1 0"],
}
BAD_TOKENS = {"x": "x", "1.5": "1.5", "1,2": "1,2", "1_0": "1_0", "arabic-one": "١",
              "plus": "+", "minus": "-"}


def _with_token(lines: list[str], row: int, col: int, token: str) -> list[str]:
    words = lines[row].split()
    words[col] = token
    return lines[:row] + [" ".join(words)] + lines[row + 1:]


def _malformed(fmt: str) -> dict[str, list[str]]:
    """Variants of VALID[fmt], each with one defect."""
    lines = VALID[fmt]
    first = 1 if fmt == "infeasibility" else 0  # the kind word is not an integer
    cases = {}
    for name, token in BAD_TOKENS.items():
        cases[f"header-{name}"] = _with_token(lines, 0, first, token)
        cases[f"last-{name}"] = _with_token(lines, -1, -1, token)
    short = lines[0].split()[:-1]
    cases["header-short"] = [" ".join(short)] * bool(short) + lines[1:]
    cases["header-long"] = [lines[0] + " 1"] + lines[1:]
    cases["empty"] = []
    if fmt == "seq":
        cases.update({"extra-line": lines + ["3 2 1"], "missing-line": lines[:1]})
    elif fmt == "target":
        cases["edge-arity"] = lines + ["1 2 3"]
    elif fmt == "cert":
        cases["step-arity"] = lines + ["1 2 1"]
    else:
        cases.update({"extra-line": lines * 2,
                      "zero-margin-denominator": _with_token(lines, 0, 8, "0"),
                      "zero-log-denominator": _with_token(lines, 0, 9, "0/0"),
                      "log-three-parts": _with_token(lines, 0, 9, "1/2/3"),
                      "log-slash": _with_token(lines, 0, 9, "/")})
    return cases


CORPUS = [(fmt, name, lines) for fmt in VALID for name, lines in _malformed(fmt).items()]


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _read_infeasibility(path: Path) -> tuple[int, str, str]:
    try:
        read_infeasibility(path)
    except ValueError as ex:
        return 1, "", f"error: {ex}\n"
    return 0, "", ""


def _runs(fmt: str, path: Path, col: Path):
    """Each way a file of format fmt reaches the program."""
    if fmt == "seq":
        yield _run(["verify", "--colouring", col, "--seq", path])
        yield _run(["construct", "--target", "builtin:K3", "--n", "4", "--seq", path])
    elif fmt == "target":
        yield _run(["verify", "--colouring", col, "--target", path])
    elif fmt == "cert":
        yield _run(["verify", "--colouring", col, "--cert", path])
    else:
        yield _read_infeasibility(path)


@pytest.fixture
def col(tmp_path) -> Path:
    path = tmp_path / "k4.col"
    write_colouring(realize_certificate(construct_greedy(4, SEQ).certificate), path)
    return path


def _write(path: Path, lines: list[str]) -> Path:
    path.write_text("# a comment\n" + "".join(ln + "\n" for ln in lines), encoding="utf-8")
    return path


@pytest.mark.parametrize("fmt", VALID)
def test_valid_files_pass(fmt, tmp_path, col):
    path = _write(tmp_path / f"ok.{fmt}", VALID[fmt])
    for code, out, err in _runs(fmt, path, col):
        assert (code, err) == (0, "")


@pytest.mark.parametrize("fmt, name, lines", CORPUS, ids=[f"{f}-{n}" for f, n, _ in CORPUS])
def test_malformed_file_exits_1_naming_it(fmt, name, lines, tmp_path, col):
    path = _write(tmp_path / f"bad.{fmt}", lines)
    for code, out, err in _runs(fmt, path, col):
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err


@pytest.mark.parametrize("token", BAD_TOKENS.values(), ids=BAD_TOKENS)
def test_malformed_inline_sequence_exits_1(token):
    code, out, err = _run(["construct", "--target", "builtin:K3", "--n", "4",
                           "--seq", f"3 2 {token}"])
    assert (code, out) == (1, "")
    assert err == (f"error: --seq is neither a file nor 'balanced': {token!r} "
                   "is not a base-10 integer\n")


# Each of these was read with int() and misreported before the token rule.

def test_underscored_step_is_not_step_ten(tmp_path, col):
    # was read as lo = 10: "certificate replay failed at step 1: no active block [10..4]", exit 2
    path = _write(tmp_path / "c.cert", ["4 3", "1_0 4 1 1", "1 3 1 2", "1 2 1 3"])
    assert _run(["verify", "--colouring", col, "--cert", path]) == (
        1, "", f"error: certificate file {path}: data line 2: '1_0' is not a base-10 integer\n")


def test_underscored_budget_is_not_ten(tmp_path, col):
    # was read as 10: "counts [3, 2, 1] != sequence [3, 2, 10]", exit 2
    path = _write(tmp_path / "s.seq", ["4 3", "3 2 1_0"])
    assert _run(["verify", "--colouring", col, "--seq", path]) == (
        1, "", f"error: sequence file {path}: data line 2: '1_0' is not a base-10 integer\n")


def test_target_header_junk_is_refused(tmp_path, col):
    # "3 junk" was read as m = 3
    path = _write(tmp_path / "t.tgt", ["3 junk", "1 2", "1 3", "2 3"])
    assert _run(["verify", "--colouring", col, "--target", path]) == (
        1, "", f"error: target file {path}: data line 1: 'junk' is not a base-10 integer\n")


def test_errors_name_the_file(tmp_path, col):
    # were "not enough values to unpack" and "invalid literal for int()"
    seq = _write(tmp_path / "s.seq", ["4"])
    assert _run(["verify", "--colouring", col, "--seq", seq]) == (
        1, "", f"error: sequence file {seq}: expected the line 'n k', then one line of k budgets\n")
    cert = _write(tmp_path / "c.cert", ["4 3", "x 4 1 1"])
    assert _run(["verify", "--colouring", col, "--cert", cert]) == (
        1, "", f"error: certificate file {cert}: data line 2: 'x' is not a base-10 integer\n")


@pytest.mark.parametrize("log_error", ["/", "1/", "/2"])
def test_empty_log_error_part_is_named(log_error, tmp_path):
    # the corpus case log-slash, with its exact message: int() would say "invalid literal"
    path = _write(tmp_path / "i.txt", _with_token(VALID["infeasibility"], 0, 9, log_error))
    with pytest.raises(ValueError) as ex:
        read_infeasibility(path)
    assert str(ex.value) == (
        f"certificate file {path}: certificate line: '' is not a base-10 integer")


def test_third_sequence_line_is_refused(tmp_path):
    path = _write(tmp_path / "s.seq", ["4 3", "3 2 1", "3 2 1"])
    with pytest.raises(ValueError, match="one line of k budgets"):
        read_sequence(path)


def test_metadata_comments_are_not_read_back(tmp_path):
    cert = construct_greedy(4, SEQ).certificate
    path = tmp_path / "c.cert"
    write_certificate(cert, path)
    assert "# strategy=greedy\n" in path.read_text()
    assert read_certificate(path) == SplitCertificate(cert.n, cert.k, cert.steps)


@pytest.mark.parametrize("kind, m", [("clash", "3"), ("tree", "2")])
def test_certify_refuses_a_sequence_that_is_not_n_good(kind, m, tmp_path):
    # "5 2 / 1 1" certified counts that no colouring of K_5 has, exit 0
    path = _write(tmp_path / "s.seq", ["5 2", "1 1"])
    assert _run(["certify", "--kind", kind, "--seq", path, "--m", m]) == (
        1, "", "error: sequence sums to 2, not C(5,2) = 10\n")


# --- fuzzing ---------------------------------------------------------------

READERS = {"seq": read_sequence, "target": read_target, "cert": read_certificate,
           "infeasibility": read_infeasibility}
VALID_TYPES = {"seq": DistributionSequence, "target": TargetGraph, "cert": SplitCertificate}

# Small integers only: a target or sequence read from the soup is used by the
# commands, whose work grows with the values.
KINDS = ["RAINBOWKM", "TREEFORCED", "TRIANGLEHARD"]
SOUP_TOKENS = ["0", "1", "2", "3", "4", "-1", "+2", "#", "1/0", "1/2", "0/0", "/",
               *BAD_TOKENS.values(), *KINDS]
token_soup = st.lists(
    st.lists(st.sampled_from(SOUP_TOKENS), max_size=5).map(" ".join), max_size=6,
).map(lambda lines: "".join(ln + "\n" for ln in lines))
# infeasibility lines of small fields, which verify() must refuse or accept
kind_lines = st.tuples(
    st.sampled_from(KINDS), st.lists(st.integers(-2, 4).map(str), min_size=8, max_size=8),
    st.sampled_from(["0", "1/2", "1/0", "/", "-1"]),
).map(lambda line: f"{line[0]} {' '.join(line[1])} {line[2]}\n")


@pytest.mark.parametrize("fmt", READERS)
@given(text=st.text(max_size=80) | token_soup | kind_lines)
@settings(max_examples=150, deadline=None)
def test_readers_return_or_raise_value_error(fmt, text):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / f"fuzz.{fmt}"
        path.write_text(text, encoding="utf-8")
        try:
            got = READERS[fmt](path)
        except ValueError:
            return
    if fmt == "infeasibility":
        assert got.verify()
    else:
        assert isinstance(got, VALID_TYPES[fmt])


@given(text=token_soup)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_never_gives_up_on_a_malformed_file(text, col):
    # an exception escaping main would be a traceback on the command line
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "fuzz.txt"
        path.write_text(text, encoding="utf-8")
        runs = [["verify", "--colouring", col, flag, path] for flag in ("--seq", "--target", "--cert")]
        runs += [["construct", "--target", "builtin:K3", "--n", "4", "--seq", path],
                 ["certify", "--kind", "clash", "--seq", path, "--m", "3"]]
        for argv in runs:
            code, out, err = _run(argv)
            assert code in (0, 1, 2), (argv, err)
            assert code != 1 or (out == "" and err.startswith("error: ")), (argv, out, err)


# a valid colouring of K_6 in 4 colours, one data line per row
COL_LINES = ["6 4", "1 1 1 1 1", "2 2 2 2", "3 3 3", "4 4", "1"]
# tokens a mutation writes: the soup, colours 0 and k+1, values past int32 and
# int64 (np.fromstring saturates the latter), floats, and separators that
# str.split takes and numpy does not
COL_TOKENS = [*SOUP_TOKENS, "5", "-0", "+1", "2147483648", "18446744073709551617", "1e0",
              "0x1", "1.0", "nan", "\x1c", "\x0b", "１"]


@st.composite
def mutated_colouring(draw) -> str:
    lines = [ln.split() for ln in COL_LINES]
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.integers(0, len(lines) - 1)) if lines else 0
        col = draw(st.integers(0, len(lines[row]))) if lines else 0
        kind = draw(st.sampled_from(["replace", "delete", "insert", "drop-line", "copy-line",
                                     "join-lines", "text-line"]))
        if not lines or kind == "text-line":
            lines.insert(row, [draw(st.text(max_size=12))])
        elif kind == "replace" and col < len(lines[row]):
            lines[row][col] = draw(st.sampled_from(COL_TOKENS))
        elif kind == "delete" and col < len(lines[row]):
            del lines[row][col]
        elif kind == "insert":
            lines[row].insert(col, draw(st.sampled_from(COL_TOKENS)))
        elif kind == "drop-line":
            del lines[row]
        elif kind == "copy-line":
            lines.insert(row, list(lines[row]))
        elif kind == "join-lines" and row + 1 < len(lines):
            lines[row] += lines.pop(row + 1)
    return "".join(" ".join(ln) + "\n" for ln in lines)


def _token_rule_rows(text: str) -> list[list[int]] | None:
    """The rows u = 1..n-1 of a colouring text, read as every other line
    format is: data lines are the stripped lines not blank or led by "#",
    split by str.split, each token an optional sign then ASCII digits. None
    when the text is not a colouring of K_n in colours 1..k <= 2^31-1."""
    lines = [ln.strip() for ln in text.replace("\r\n", "\n").replace("\r", "\n").split("\n")]
    data = [ln.split() for ln in lines if ln and not ln.startswith("#")]
    if not data or not all(re.fullmatch("[+-]?[0-9]+", t) for ln in data for t in ln):
        return None
    rows = [[int(t) for t in ln] for ln in data]
    if len(rows[0]) != 2 or min(rows[0]) < 1 or rows[0][1] > 2 ** 31 - 1:
        return None
    n, k = rows[0]
    if len(rows) != n or any(len(row) != n - u or not all(1 <= c <= k for c in row)
                             for u, row in enumerate(rows[1:], 1)):
        return None
    return rows[1:]


def _read(reader, path):
    try:
        return reader(path)
    except ValueError as ex:
        return str(ex)


@given(text=mutated_colouring())
@settings(max_examples=300, deadline=None)
def test_mutated_colouring_exits_0_or_1(text):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "fuzz.col"
        path.write_text(text, encoding="utf-8")
        code, out, err = _run(["verify", "--colouring", path])
        col, counts = _read(read_colouring, path), _read(counted_colouring, path)
    # the row check, the matrix reader and the counting reader refuse the
    # same files with the same message, which names the file, and they
    # refuse just the files the token rule refuses
    want = _token_rule_rows(text)
    if isinstance(col, str):
        assert want is None, col
        assert (code, out, err) == (1, "", f"error: {col}\n")
        assert counts == col and col.startswith(f"colouring file {path}: ")
    else:
        assert [col.matrix[u - 1, u:].tolist() for u in range(1, col.n)] == want
        assert (code, out, err) == (0, "OK\n", "")
        assert counts == (col.n, col.k, colour_counts(col))
