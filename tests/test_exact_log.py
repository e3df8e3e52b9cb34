"""The exact integer log kernel against a 50-digit mpmath reference.

The reference functions below are the mpmath evaluations that the stage
constants and the triangle certificate's log bound used before the kernel
replaced them; every floor they produced must come out the same.
"""
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

import gallaikit
from gallaikit import bounds, cli
from gallaikit.constructor import StageConstants, floor_root, log_bounds
from gallaikit.errors import RangeError


def ref_lower_n(alpha: Fraction, k: int) -> int:
    with mp.workdps(50):
        val = (mp.mpf(alpha.numerator) / alpha.denominator
               * mp.power(k, mp.mpf(3) / 2) / mp.sqrt(mp.log(k)))
        return int(mp.floor(val))


def ref_derive(beta_q: Fraction, n: int, k: int) -> tuple:
    with mp.workdps(50):
        beta = mp.mpf(beta_q.numerator) / beta_q.denominator
        logk = mp.log(k)
        r_raw = int(mp.floor(beta * mp.sqrt(k) / (30 * mp.sqrt(logk))))
        c_raw = int(mp.floor(mp.power(k, 0.75) / mp.power(logk, 0.75)))
        cap = n // (3 * k)
        r = max(1, min(r_raw, cap) if cap >= 1 else 1)
        c = max(1, min(c_raw, cap) if cap >= 1 else 1)
        j1_threshold = beta ** 2 * mp.power(k, 2.25) / mp.power(logk, 1.25)
        j2_threshold = beta ** 2 * k * k / (30 * logk)
        stop = beta ** 0.5 * 2 * mp.power(k, 1.25) / mp.power(logk, 0.25)
        count_case1 = int(mp.ceil(mp.power(k, 0.75) * mp.power(logk, 0.25)))
        j1_min = int(mp.floor(j1_threshold)) + 1
        j2_max = int(mp.floor(j2_threshold))
        stop_below = int(mp.ceil(stop))
    return (r_raw, c_raw, r, c, r != r_raw, c != c_raw,
            j1_min, j2_max, stop_below, count_case1)


def ref_log_upper(num: int, den: int) -> Fraction:
    scale = 1 << 80
    with mp.workdps(50):
        val = mp.log(mp.mpf(num)) - mp.log(mp.mpf(den))
        lower = Fraction(int(mp.floor(val * scale)), scale)
    return lower + Fraction(4, scale)


def derived_tuple(sc: StageConstants, n: int, k: int) -> tuple:
    d = sc.derive(n, k)
    return (d.r_raw, d.c_raw, d.r, d.c, d.r_clamped, d.c_clamped,
            d.j1_min_budget, d.j2_max_budget, d.stop_below, d.count_case1)


def test_stage_constants_match_reference():
    default, small = StageConstants(), StageConstants(beta=Fraction(60))
    for k in range(2, 1501):
        assert derived_tuple(default, 3000, k) == ref_derive(default.beta, 3000, k), k
        assert derived_tuple(small, 1250, k) == ref_derive(small.beta, 1250, k), k
        assert default.lower_n(k) == ref_lower_n(default.alpha, k), k


def test_log_upper_matches_reference():
    checked = 0
    for k in range(3, 1501):
        try:
            _, p = bounds.triangle_hard_sequence(k)
        except RangeError:
            continue
        assert bounds._log_upper(p.n, p.b) == ref_log_upper(p.n, p.b), k
        checked += 1
    assert checked == 1217


@pytest.mark.parametrize("num,den", [(2, 1), (3, 2), (1, 3), (1203, 500),
                                     (10 ** 30 + 7, 3), (5, 7 ** 20), (4, 1), (1, 1)])
@pytest.mark.parametrize("bits", [1, 64, 200])
def test_log_bounds_enclose(num, den, bits):
    lo, hi = log_bounds(num, den, bits)
    with mp.workdps(120):
        val = mp.log(mp.mpf(num) / den) * mp.mpf(2) ** bits
    assert lo <= val <= hi
    assert hi - lo <= 2


def test_floor_root_small_cases():
    # floor(log 3 * 10) = 10, floor(sqrt(100 / log 2)) = 12, floor((1000 log 10)^(1/4)) = 6
    assert floor_root(Fraction(10), 1, 1, 3) == 10
    assert floor_root(Fraction(100), 2, -1, 2) == 12
    assert floor_root(Fraction(1000), 4, 1, 10) == 6
    with pytest.raises(ValueError):
        floor_root(Fraction(1), 1, 1, 2, 2)


@pytest.mark.parametrize("k,line", [
    (293, "TRIANGLEHARD 293 210 3 4 146 41 402235875513190059558832399 "
          "56668397794435742564352 1/302231454903657293676544"),
    (1000, "TRIANGLEHARD 1000 1203 3 946 500 3 4533902479239882083906010619 "
           "56668397794435742564352 1/302231454903657293676544"),
])
def test_certify_triangle_stdout_pinned(k, line, capsys):
    assert cli.main(["certify", "--kind", "triangle", "--k", str(k)]) == 0
    assert capsys.readouterr().out == line + "\n"


def test_cli_import_does_not_load_mpmath():
    src = str(Path(gallaikit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import gallaikit.cli, sys; assert 'mpmath' not in sys.modules"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
