"""Judge operation outputs by meaning, outside the timed region.

``python3 bench/check.py MANIFEST`` reads a JSON list of executed
operations (the operation, its output file, its exit code, the input
directory and the run seed) and prints one JSON list of verdicts,
``{"ok": bool, "why": str}``, in the same order.  It runs in its own
process so that the harness never holds a large report in memory.

A verdict checks the exit code, the report's ``"pass"`` flag and the
pinned headline numbers, and compares answers with ``oracle.py``.  It
never compares bytes: whitespace in the output may change.
"""

import json
import random
import sys
from fractions import Fraction
from math import comb

import oracle

ORDER_SAMPLE = 3_000
INTERVAL_SAMPLE = 50


class Mismatch(Exception):
    pass


def expect(cond, why):
    if not cond:
        raise Mismatch(why)


def _is_cm(rows, n):
    return (
        rows and all(len(r) == len(rows[0]) for r in rows)
        and all(x >= 0 for r in rows for x in r)
        and all(any(r) for r in rows) and all(any(c) for c in zip(*rows))
        and sum(map(sum, rows)) == n
    )


def _grids(items):
    return [tuple(tuple(r) for r in item["rows"]) for item in items]


def _meta_entry(n, p, q):
    return sum(
        (-1) ** (i + j + p + q) * comb(p, i) * comb(q, j) * comb(n + i * j - 1, n)
        for i in range(1, p + 1) for j in range(1, q + 1)
    )


def check_enumerate(d, e, _):
    grids = _grids(d["matrices"])
    expect(d["count"] == e["count"] == len(grids), f"count {d['count']}")
    expect(all(_is_cm(g, e["n"]) for g in grids), "a listed matrix is not in CM_n")
    keys = [(len(g), len(g[0]), g) for g in grids]
    expect(all(a < b for a, b in zip(keys, keys[1:])), "not canonical or not distinct")


def check_poset(d, e, _):
    grids = _grids(d["elements"])
    expect(d["n"] == e["n"], "wrong n")
    expect(len(grids) == e["elements"], f"{len(grids)} elements")
    expect(len(d["covers"]) == e["covers"], f"{len(d['covers'])} covers")
    expect(all(_is_cm(g, e["n"]) for g in grids), "an element is not in CM_n")
    for c in d["covers"]:
        expect(oracle.merge(grids[c["from"]], c["kind"], c["pos"]) == grids[c["to"]],
               f"cover {c} is not a contraction")


def check_poset_dot(d, e, _):
    elements = oracle.cm_elements(e["n"])
    lines = d["dot"].splitlines()
    nodes = [ln for ln in lines if "[label=" in ln and "->" not in ln]
    edges = [ln for ln in lines if "->" in ln]
    expect(len(nodes) == len(elements), f"{len(nodes)} nodes")
    for line, rows in zip(nodes, elements):
        label = line.split('"')[1]
        got = tuple(tuple(int(x) for x in r.split()) for r in label.split("|"))
        expect(got == rows, f"node {line.strip()} is not {rows}")
    expect(len(edges) == len(oracle.cm_covers(elements)), f"{len(edges)} edges")


def check_f_vector(d, e, _):
    expect(d["total"] == e["total"], f"total {d['total']}")
    expect(d["euler_alternating_sum"] == e["euler"], "alternating sum")
    expect(sum(d["f_vector"].values()) == e["total"], "f-vector does not sum to total")


def check_metamatrix(d, e, _):
    n = e["n"]
    want = [[_meta_entry(n, p, q) for q in range(1, n + 1)] for p in range(1, n + 1)]
    expect(d["entries"] == want, "entries differ from inclusion-exclusion")
    expect(d["total"] == e["total"], f"total {d['total']}")


def check_constant_sheaf(d, e, _):
    rep = d["representation"]
    elements = oracle.cm_elements(e["n"])
    expect(rep["n"] == e["n"], "wrong n")
    expect(rep["spaces"] == {str(i): e["dim"] for i in range(len(elements))}, "spaces")
    pairs = sorted((m["from"], m["to"]) for m in rep["maps"])
    expect(pairs == sorted(oracle.cm_covers(elements)), "maps are not the covers")
    eye = [["1" if i == j else "0" for j in range(e["dim"])] for i in range(e["dim"])]
    expect(all(m["matrix"] == eye for m in rep["maps"]), "a map is not the identity")


def check_sphericity(d, e, _):
    expect(d["n"] == e["n"], "wrong n")
    expect(d["cells_checked"] == e["cells"], f"{d['cells_checked']} cells")
    expect(d["violations"] == [], "violations reported")


def check_sphericity_full(d, e, _):
    n = e["n"]
    elements = oracle.cm_elements(n)
    expect(d["cells_checked"] == len(elements) == len(d["cells"]), "cell count")
    for cell, rows in zip(d["cells"], elements):
        dim = 2 * n - len(rows) - len(rows[0]) - 1
        expect(tuple(map(tuple, cell["element"]["rows"])) == rows, "cell order")
        expect(cell["expected_sphere_dim"] == dim, "sphere dimension")
        expect(cell["homology"] == [{"degree": dim, "betti": 1, "torsion": []}],
               f"homology of {rows}")
        expect(cell["closed_acyclic"] is True and cell["pass"] is True, "cell failed")


def check_meet_join(d, e, _):
    expect(d["n"] == e["n"] and d["meet"]["pass"] is True, "meet failed")
    if "groups" in e:
        expect(d["meet"]["group_count"] == e["groups"],
               f"{d['meet']['group_count']} groups")
    join = d["join"]
    if "joins" in e:
        expect(isinstance(join, dict), "join skipped")
        expect(all(join[k]["classes_match_fibers"] for k in join), "join failed")
        got = [join[k]["class_count"] for k in ("both", "horizontal", "vertical")]
        expect(got == e["joins"], f"join class counts {got}")


def check_anodyne(d, e, _):
    elements = oracle.cm_elements(e["n"])
    classes = d["classes"]
    expect(d["class_count"] == e["classes"] == len(classes), "class count")
    members = sorted(i for c in classes for i in c)
    expect(members == list(range(len(elements))), "classes do not partition CM_n")
    labels = [{oracle.multiplicity(elements[i]) for i in c} for c in classes]
    expect(all(len(s) == 1 for s in labels), "a class mixes multiplicities")
    expect(len({next(iter(s)) for s in labels}) == len(classes), "fibers merged")


def check_sheaf_check(d, e, _):
    expect(d["n"] == e["n"], "wrong n")
    expect(d["valid"] is True and d["constructible"] is True, "not constructible")


def check_total_positivity(d, e, _):
    expect(d["n"] == e["n"] and d["totally_positive"] is True, "not totally positive")


def check_identities(d, e, _):
    expect(d["n"] == e["n"], "wrong n")
    expect(all(d["identities"].values()), "an identity failed")


def _sample(rng, size, k):
    return sorted(rng.sample(range(size), min(k, size)))


def check_order_queries(out, e, entry):
    with open(entry["inputs"] + "/order-queries.json", encoding="utf-8") as fh:
        data = json.load(fh)
    expect(out["elements"] == e["elements"] and out["covers"] == e["covers"],
           f"{out['elements']} elements, {out['covers']} covers")
    pairs = [tuple(tuple(map(tuple, m)) for m in pair) for pair in data["pairs"]]
    rng = random.Random(f"{entry['seed']}:check-order")
    kinds = {"cm_leq": "both", "cm_leq_horizontal": "horizontal",
             "cm_leq_vertical": "vertical"}
    for name, kind in kinds.items():
        answers = out["answers"][name]
        expect(len(answers) == len(pairs), f"{name}: {len(answers)} answers")
        for k in _sample(rng, len(pairs), ORDER_SAMPLE):
            want = oracle.block_sum_leq(*pairs[k], kind)
            expect((answers[k] == "1") == want, f"{name} wrong on {pairs[k]}")
    expect(len(out["intervals"]) == len(data["elements"]), "interval count")
    for k in _sample(rng, len(data["elements"]), INTERVAL_SAMPLE):
        rows = tuple(map(tuple, data["elements"][k]))
        got = {tuple(map(tuple, m)) for m in out["intervals"][k]}
        expect(got == oracle.strictly_below(rows), f"lower interval of {rows}")


def _key(beta, gamma):
    return tuple(beta), tuple(map(tuple, gamma))


def check_strata_labels(out, _, entry):
    with open(entry["inputs"] + "/strata-labels.json", encoding="utf-8") as fh:
        data = json.load(fh)
    expect(len(out["classify"]) == len(data["configs"]), "classify count")
    for points, got in zip(data["configs"], out["classify"]):
        rows = oracle.config_matrix([(Fraction(a), Fraction(b)) for a, b in points])
        expect(tuple(map(tuple, got["matrix"]["rows"])) == rows, f"matrix of {points}")
        expect(_key(got["fnf"]["beta"], got["fnf"]["gamma"]) == oracle.fnf_key(rows),
               f"fnf label of {points}")
        expect(_key(got["ifnf"]["beta"], got["ifnf"]["gamma"]) == oracle.ifnf_key(rows),
               f"dual fnf label of {points}")
        expect(tuple(got["multiplicity"]) == oracle.multiplicity(rows),
               f"multiplicity of {points}")
    closure = oracle.fnf_closure(data["label_n"])
    answers = out["closure"]
    expect(len(answers) == len(data["label_pairs"]), "closure answer count")
    for (a, b), got in zip(data["label_pairs"], answers):
        expect((got == "1") == (_key(*a) in closure[_key(*b)]), f"closure {a} <= {b}")


CHECKS = {name[len("check_"):]: fn for name, fn in globals().items()
          if name.startswith("check_")}


def verdict(entry):
    op = entry["op"]
    try:
        expect(entry["exit"] == 0, f"exit code {entry['exit']}")
        with open(entry["out"], encoding="utf-8") as fh:
            report = json.load(fh)
        if op["kind"] == "cli":
            expect(report["command"] == op["argv"][0], "wrong command")
            expect(report["pass"] is True, '"pass" is not true')
            report = report["details"]
        CHECKS[op["check"]](report, op["expect"], entry)
    except Mismatch as exc:
        return {"ok": False, "why": str(exc)}
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return {"ok": False, "why": f"malformed output: {exc!r}"}
    return {"ok": True, "why": ""}


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        manifest = json.load(fh)
    json.dump([verdict(entry) for entry in manifest], sys.stdout)
    sys.stdout.write("\n")
