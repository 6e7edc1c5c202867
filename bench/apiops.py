"""Library-API operations: short scripts that call only public names.

``python3 bench/apiops.py NAME INPUT`` runs one operation on a file that
``workloads.py`` generated and prints its answers as one JSON object.
The traced run imports this module and calls the same functions.
"""

import json
import sys
from fractions import Fraction

import stochastihedron as st


def _matrices(rows_lists):
    """One ContingencyMatrix per distinct input grid, built before use."""
    cache = {}
    out = []
    for rows in rows_lists:
        key = tuple(tuple(r) for r in rows)
        if key not in cache:
            cache[key] = st.ContingencyMatrix(key)
        out.append(cache[key])
    return out


def order_queries(data):
    """build_poset, then the three order predicates on every seeded pair,
    then the strict lower interval of every seeded element in the poset
    of its own size."""
    poset = st.build_poset(data["n"])
    smalls = _matrices(a for a, _ in data["pairs"])
    larges = _matrices(b for _, b in data["pairs"])
    answers = {}
    for name in ("cm_leq", "cm_leq_horizontal", "cm_leq_vertical"):
        query = getattr(poset, name)
        answers[name] = "".join(
            "1" if query(a, b) else "0" for a, b in zip(smalls, larges)
        )
    small_poset = st.build_poset(data["interval_n"])
    intervals = []
    for m in _matrices(data["elements"]):
        members = st.lower_interval(small_poset, m).labels
        intervals.append([list(map(list, small_poset.elements[i].rows))
                          for i in members])
    return {
        "elements": len(poset),
        "covers": len(poset.covers),
        "answers": answers,
        "intervals": intervals,
    }


def _label(beta, gamma):
    return st.FnfLabel(
        st.OrderedPartition(tuple(beta)),
        tuple(st.OrderedPartition(tuple(g)) for g in gamma),
    )


def strata_labels(data):
    """classify every seeded configuration, then fnf_closure_leq on every
    seeded label pair."""
    labels = [
        st.classify(st.PointConfiguration(
            tuple((Fraction(re), Fraction(im)) for re, im in points)))
        for points in data["configs"]
    ]
    cache = {}

    def label(pair):
        key = (tuple(pair[0]), tuple(map(tuple, pair[1])))
        if key not in cache:
            cache[key] = _label(*key)
        return cache[key]

    pairs = [(label(a), label(b)) for a, b in data["label_pairs"]]
    closure = "".join("1" if st.fnf_closure_leq(a, b) else "0" for a, b in pairs)
    return {"classify": labels, "closure": closure}


OPERATIONS = {"order-queries": order_queries, "strata-labels": strata_labels}


def run(name, path, out):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    json.dump(OPERATIONS[name](data), out, separators=(",", ":"))
    out.write("\n")


if __name__ == "__main__":
    run(sys.argv[1], sys.argv[2], sys.stdout)
