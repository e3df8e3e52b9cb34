#!/usr/bin/env python3
"""Write data/k3_search_pool.txt, the instance pool of the k3-search workload.

    python3 perfbench/make_pool.py

Each stratum (n, k) draws uniformly random compositions of C(n,2) into k
positive parts from a fixed seed and keeps those on which the greedy
constructor's straight-line descent fails and its depth-first search then
finds a split certificate after NODE_MIN to NODE_MAX nodes. Compositions that
the search gives up on are left out (see the README), and the node band keeps
the work of a seed's sample of the pool close to that of any other sample.
The file records the node count of every instance as a comment.
"""
from __future__ import annotations

import random
import sys
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from gallaikit.constructor import construct_greedy  # noqa: E402
from gallaikit.core import DistributionSequence  # noqa: E402
from workloads import random_composition  # noqa: E402

POOL_SEED = 20230911
STRATA = ((42, 10), (48, 12), (54, 13), (60, 15))
PER_STRATUM = 12
NODE_MIN, NODE_MAX = 1500, 6000
POOL_PATH = HERE / "data" / "k3_search_pool.txt"


def main() -> int:
    rng = random.Random(POOL_SEED)
    lines = [f"# k3-search pool: seed={POOL_SEED} nodes in [{NODE_MIN}, {NODE_MAX}]",
             "# n e_1 ... e_k  # greedy DFS nodes"]
    for n, k in STRATA:
        kept = 0
        tried = 0
        while kept < PER_STRATUM:
            e = random_composition(rng, comb(n, 2), k)
            tried += 1
            res = construct_greedy(n, DistributionSequence(n, k, e), node_budget=NODE_MAX)
            if res.status == "certificate" and res.nodes >= NODE_MIN:
                lines.append(f"{n} " + " ".join(map(str, e)) + f"  # nodes={res.nodes}")
                kept += 1
        print(f"n={n} k={k}: kept {kept} of {tried}", file=sys.stderr)
    POOL_PATH.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
