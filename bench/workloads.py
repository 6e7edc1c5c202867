"""The two workloads and their seeded inputs.

An operation is a CLI subcommand (``kind="cli"``) or one of the library
API scripts in ``apiops.py`` (``kind="api"``).  ``check`` names the
function in ``check.py`` that judges its output.  Arguments may contain
``{inputs}``, the directory that ``generate`` filled for the run.

Run as a script, ``python3 bench/workloads.py WORKLOAD SEED DIR`` writes
the workload's inputs to DIR.  Every random choice comes from SEED, so
the same seed gives the same files.
"""

import json
import os
import random
import sys
from fractions import Fraction

import oracle


def jobs():
    """Worker count for --jobs: min(2, nproc), to keep within the machine."""
    return min(2, len(os.sched_getaffinity(0)))


def _cli(args, check, **expect):
    return {"kind": "cli", "argv": args.split(), "check": check, "expect": expect}


def _api(name, check, **expect):
    return {"kind": "api", "argv": [name, "{inputs}/" + name + ".json"], "check": check,
            "expect": expect}


def operations(workload):
    """The operations of one pass of a workload, in run order."""
    if workload == "order-topology":
        return [
            _cli("sphericity --n 4", "sphericity", n=4, cells=281),
            _cli(f"sphericity --n 4 --jobs {jobs()}", "sphericity", n=4, cells=281),
            _cli("sphericity --n 3 --full", "sphericity_full", n=3),
            _api("order-queries", "order_queries", elements=37277, covers=253662),
        ]
    if workload == "export-strata":
        return [
            _cli("enumerate --n 6", "enumerate", n=6, count=37277),
            _cli("poset --n 5", "poset", n=5, elements=2961, covers=15912),
            _cli("poset --n 5 --format dot", "poset_dot", n=5),
            _cli("f-vector --n 7", "f_vector", total=546193, euler=1),
            _cli("metamatrix --n 7 --method enumeration", "metamatrix", n=7,
                 total=546193),
            _cli("constant-sheaf --n 5 --dim 1", "constant_sheaf", n=5, dim=1),
            _cli("meet-join --n 5", "meet_join", n=5, joins=[7, 81, 81]),
            _cli("meet-join --n 6", "meet_join", n=6, groups=4294),
            _cli("anodyne-classes --n 5 --kind both --full", "anodyne", n=5,
                 classes=7),
            _cli("sheaf-check --input {inputs}/constant5.json --strat complex",
                 "sheaf_check", n=5),
            _cli("sheaf-check --input {inputs}/scaled4.json --strat fnf",
                 "sheaf_check", n=4),
            _cli("total-positivity --n 7", "total_positivity", n=7),
            _cli("verify-identities --n 20", "identities", n=20),
            _api("strata-labels", "strata_labels"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# One workload runs the order index and homology; the other runs neither,
# so it should not move when they change.  Two, because on a shared
# 2-vCPU machine the speed drifts in phases of 30-60 s: a run must measure
# for 50 s to be steady, and more workloads of that length do not fit the
# time allowed for all runs (README.md).
WORKLOADS = ("order-topology", "export-strata")


# ---------------------------------------------------------------------------
# seeded inputs

ORDER_N = 6
ORDER_PAIRS = 100_000
# lower_interval at n = 6 needs every below-mask (about 20 s in one call);
# at n = 5 the child stays short enough to run several times in a run
INTERVAL_N = 5
INTERVALS = 200
INTERVAL_MAX_RANK = 4
CONFIGS = 2_000
LABEL_N = 5
LABEL_PAIRS = 20_000


def _random_matrix(rng, n, points_grid):
    """Contingency label of n random lattice points: a natural spread of
    shapes, with coincident coordinates making entries above 1."""
    draw = rng.random
    pts = [(int(draw() * points_grid), int(draw() * points_grid)) for _ in range(n)]
    return oracle.config_matrix(pts)


def _coarsen(rng, rows, kind):
    """A random block sum of `rows` (rows, columns or both grouped)."""
    def grouping(length):
        cuts = [k for k in range(1, length) if rng.random() < 0.5]
        bounds = [0] + cuts + [length]
        return list(zip(bounds, bounds[1:]))

    row_groups = grouping(len(rows)) if kind != "vertical" else [
        (i, i + 1) for i in range(len(rows))]
    col_groups = grouping(len(rows[0])) if kind != "horizontal" else [
        (j, j + 1) for j in range(len(rows[0]))]
    return tuple(
        tuple(sum(rows[i][j] for i in range(r0, r1) for j in range(c0, c1))
              for c0, c1 in col_groups)
        for r0, r1 in row_groups
    )


def order_queries_input(seed):
    rng = random.Random(f"{seed}:order-queries")
    pairs = []
    for _ in range(ORDER_PAIRS):
        small = _random_matrix(rng, ORDER_N, 5)
        # half the pairs are related by construction, so both answers occur
        if rng.random() < 0.5:
            large = _coarsen(rng, small, rng.choice(("both", "horizontal", "vertical")))
        else:
            large = _random_matrix(rng, ORDER_N, 3)
        pairs.append([small, large])
    elements = []
    while len(elements) < INTERVALS:
        m = _random_matrix(rng, INTERVAL_N, 6)
        if 2 * INTERVAL_N - len(m) - len(m[0]) <= INTERVAL_MAX_RANK:
            elements.append(m)
    return {"n": ORDER_N, "pairs": pairs, "interval_n": INTERVAL_N,
            "elements": elements}


def strata_labels_input(seed):
    rng = random.Random(f"{seed}:strata-labels")
    configs = []
    for _ in range(CONFIGS):
        size = rng.randint(1, 8)
        # small coordinate pools make real and imaginary parts collide
        pool_re = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
        pool_im = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
        configs.append([[str(rng.choice(pool_re)), str(rng.choice(pool_im))]
                        for _ in range(size)])
    closure = oracle.fnf_closure(LABEL_N)
    labels = sorted(closure)
    pairs = []
    for _ in range(LABEL_PAIRS):
        b = rng.choice(labels)
        a = rng.choice(sorted(closure[b])) if rng.random() < 0.5 else rng.choice(labels)
        pairs.append([a, b])
    return {"configs": configs, "label_n": LABEL_N, "label_pairs": pairs}


def _representation(n, scalars):
    """A constant rank-one sheaf on CM_n, each cover map rescaled by
    scalars[parent] / scalars[child]; diamonds commute for any scalars."""
    elements = oracle.cm_elements(n)
    maps = [
        {"from": c, "to": p, "matrix": [[str(scalars[p] / scalars[c])]]}
        for c, p in oracle.cm_covers(elements)
    ]
    return {"n": n, "spaces": {str(i): 1 for i in range(len(elements))}, "maps": maps}


def sheaf_inputs(seed):
    rng = random.Random(f"{seed}:sheaf")
    constant5 = _representation(5, [Fraction(1)] * len(oracle.cm_elements(5)))
    scalars = []
    for _ in oracle.cm_elements(4):
        num = rng.choice([k for k in range(-9, 10) if k])
        scalars.append(Fraction(num, rng.randint(1, 9)))
    return {"constant5": constant5, "scaled4": _representation(4, scalars)}


def generate(workload, seed, directory):
    files = {}
    if workload == "order-topology":
        files["order-queries"] = order_queries_input(seed)
    elif workload == "export-strata":
        files["strata-labels"] = strata_labels_input(seed)
        files.update(sheaf_inputs(seed))
    for name, data in files.items():
        with open(os.path.join(directory, name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))


if __name__ == "__main__":
    generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])
