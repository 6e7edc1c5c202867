import argparse
import concurrent.futures
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import types
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import cli_env

from stochastihedron import cli, constant_sheaf, sheaf, strata


CLI = [sys.executable, "-m", "stochastihedron.cli"]


def run_cli(*args, env_extra=None):
    # the timeout turns a runaway input check into a failure, not a hang
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=cli_env(env_extra),
        timeout=120,
    )


def run_json(*args, **kw):
    proc = run_cli(*args, **kw)
    assert proc.returncode in (0, 1), proc.stderr
    return proc.returncode, json.loads(proc.stdout)


def test_f_vector_command():
    code, report = run_json("--stable", "f-vector", "--n", "3")
    assert code == 0
    assert report["pass"] is True
    assert report["details"]["f_vector"] == {"0": 6, "1": 12, "2": 10, "3": 4, "4": 1}
    assert report["details"]["total"] == 33
    assert "elapsed_ms" not in report


def test_f_vector_weight_zero_is_malformed():
    proc = run_cli("--stable", "f-vector", "--n", "0")
    assert proc.returncode == 2
    assert "weight must be positive" in proc.stderr


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_poset_weight_zero_is_malformed_before_any_output(fmt):
    # the poset refuses the weight when it is made, not when the report
    # writer first reads its elements
    proc = run_cli("--stable", "poset", "--n", "0", "--format", fmt)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "weight must be positive" in proc.stderr


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sphericity_jobs_below_one(jobs, capsys):
    assert cli.main(["--stable", "sphericity", "--n", "2", "--jobs", jobs]) == 2
    assert "jobs must be at least 1" in capsys.readouterr().err


def test_sphericity_jobs_is_ignored(monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("sphericity must not start a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    reports = {}
    for jobs in ("1", "2"):
        argv = ["--stable", "sphericity", "--n", "3", "--jobs", jobs, "--full"]
        assert cli.main(argv) == 0
        reports[jobs] = json.loads(capsys.readouterr().out)
    assert reports["2"]["details"] == reports["1"]["details"]
    assert reports["2"]["details"]["cells_checked"] == 33


def test_stable_output_is_byte_identical():
    first = run_cli("--stable", "sphericity", "--n", "2")
    second = run_cli("--stable", "sphericity", "--n", "2")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("inputs")
    config = folder / "config.json"
    config.write_text(
        json.dumps({"points": [{"re": "0", "im": "1"}, {"re": "1/2", "im": "-1"}]})
    )
    rep = folder / "rep.json"
    rep.write_text(json.dumps(constant_sheaf(2, 1).to_json()))
    return {"config": str(config), "rep": str(rep)}


@pytest.mark.parametrize(
    "argv",
    [
        # the report is written in pieces by the writer; this one spans many
        ("enumerate", "--n", "5"),
        ("enumerate", "--what", "partitions", "--n", "4"),
        ("poset", "--n", "3"),
        ("poset", "--n", "3", "--format", "dot"),
        ("sphericity", "--n", "3", "--full"),
        ("f-vector", "--n", "4"),
        ("metamatrix", "--n", "4"),
        ("metamatrix", "--n", "4", "--format", "csv"),
        ("verify-identities", "--n", "4"),
        ("total-positivity", "--n", "4"),
        ("classify", "--input", "{config}"),
        ("anodyne-classes", "--n", "4", "--full"),
        ("meet-join", "--n", "4"),
        ("sheaf-check", "--input", "{rep}"),
        ("constant-sheaf", "--n", "2", "--dim", "1"),
    ],
    ids=lambda argv: "-".join(a.strip("-{}") for a in argv),
)
def test_report_bytes_match_json_dumps(argv, input_files):
    proc = run_cli("--stable", *(a.format(**input_files) for a in argv))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == json.dumps(
        json.loads(proc.stdout), indent=2, sort_keys=True
    ) + "\n"


def test_report_arrives_in_bounded_writes(monkeypatch):
    writes = []

    class CountingStdout(io.StringIO):
        def write(self, text):
            writes.append(len(text))
            return super().write(text)

    monkeypatch.setattr(sys, "stdout", CountingStdout())
    assert cli.main(["--stable", "enumerate", "--n", "5"]) == 0
    assert len(writes) >= 10
    assert max(writes) <= 64 * 1024


def test_closed_stdout_exits_141_without_a_traceback():
    proc = subprocess.Popen(
        CLI + ["--stable", "enumerate", "--n", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=cli_env(),
    )
    # the report is about 1 MB, far more than a pipe holds
    head = proc.stdout.read(100)
    proc.stdout.close()
    code = proc.wait(timeout=120)
    err = proc.stderr.read()
    proc.stderr.close()
    assert head.startswith(b"{")
    assert code == cli.EXIT_PIPE == 141
    assert err == b""


def test_unstable_output_has_timing():
    code, report = run_json("metamatrix", "--n", "2")
    assert code == 0
    assert "elapsed_ms" in report


def test_elapsed_ms_covers_writing_the_report(monkeypatch):
    # every write to stdout advances a fake clock by one second; this
    # report spans several batches of encoder chunks, and the ones before
    # elapsed_ms are written by the time it is read
    clock = [0.0]
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(monotonic=lambda: clock[0]))

    class SlowStdout(io.StringIO):
        def write(self, text):
            clock[0] += 1.0
            return super().write(text)

    out = SlowStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["enumerate", "--n", "5"]) == 0
    assert json.loads(out.getvalue())["elapsed_ms"] >= 1000


def test_metamatrix_weight1():
    code, report = run_json("--stable", "metamatrix", "--n", "1")
    assert code == 0
    assert report["details"]["entries"] == [[1]]


def test_metamatrix_csv():
    code, report = run_json("--stable", "metamatrix", "--n", "3", "--format", "csv")
    assert code == 0
    assert report["details"]["csv"] == "1,2,1\n2,8,6\n1,6,6\n"


def test_enumerate_matrices():
    code, report = run_json("--stable", "enumerate", "--n", "2")
    assert code == 0
    assert report["details"]["count"] == 5
    assert report["details"]["matrices"][0] == {"rows": [[2]]}


def test_enumerate_with_margins():
    code, report = run_json(
        "--stable", "enumerate", "--alpha", "2,1", "--beta", "2,1"
    )
    assert code == 0
    assert report["details"]["count"] == 2


def test_poset_exports():
    code, report = run_json("--stable", "poset", "--n", "2")
    assert code == 0
    assert len(report["details"]["elements"]) == 5
    code, report = run_json("--stable", "poset", "--n", "2", "--format", "dot")
    assert code == 0
    assert report["details"]["dot"].startswith("digraph")


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("poset", "--n", "4"),
            "a51153fabaca3b87f1d9d9bfe680ecc1c12ea6a92a293641cb8c4a0c182c7089",
        ),
        (
            ("poset", "--n", "4", "--format", "dot"),
            "6f26aa12fb3e9ccee4e8a9ae112cbf373182146abcd005cabe2d2c860f47efd1",
        ),
        (
            ("anodyne-classes", "--n", "5", "--full"),
            "3f4fd9b0da732a4519f6e2311627d05e6eaeb2d8912ed4f0c3b7c2169904a478",
        ),
        (
            ("anodyne-classes", "--n", "5", "--kind", "horizontal", "--full"),
            "32171858c7e2e8404eb1ccad430315a57d931de61a2f3ee705c2644415199489",
        ),
        (
            ("anodyne-classes", "--n", "5", "--kind", "vertical", "--full"),
            "1e8dcc6217745554b7ba80838257dac41686ede78a229349053b566d4705cab4",
        ),
        (
            ("meet-join", "--n", "5"),
            "9c7f733424e9963ecca25214cbcb86962bb4529829e791726ea666d0c2e2380d",
        ),
        (
            ("sphericity", "--n", "4", "--full"),
            "5483c17eee6be83bbcb7bbe0ac817936ae3d15c781fab239b83d3e8f476527c1",
        ),
        (
            ("verify-identities", "--n", "6"),
            "ae86be7925e785cab4a3d1eec5f5327e5872d224e4b1f5f714f810c63bb034ef",
        ),
        (
            ("metamatrix", "--n", "6"),
            "ec58758448c439156ca271c2249b989721f34e94bfe75cebd894a83e7dc7d88a",
        ),
        (
            ("total-positivity", "--n", "5"),
            "64cd67944c56ab33dcd3ef5e34bfa7901d76d34ed4b6842326c14b9482962902",
        ),
        (
            ("f-vector", "--n", "7"),
            "fd6e3109de47c116ba469dddb925aefc8ba2ccd3c71a9ee43c5154e689a3c6f0",
        ),
        (
            ("enumerate", "--what", "partitions", "--n", "5"),
            "5a11c1ad70dccb4d3266b87dc0934b78936b17324511af139f87696d95e57d8b",
        ),
        (
            ("constant-sheaf", "--n", "3", "--dim", "1"),
            "d65260c24b40fa1e1c3de5b4258a39d3de24fc5fb8cf084bf19676e7fba0d9b9",
        ),
        (
            ("total-positivity", "--n", "40"),
            "41c9ba963ba638a3bea35619336e65bda2bc0f23ba24e1b60a7fe8ebc8fb8d5d",
        ),
        (
            ("verify-identities", "--n", "13"),
            "379f895dabde8e7a4b0900190ac0c04f3c01e85a17e37d92db446af4bf591feb",
        ),
        (
            ("f-vector", "--n", "40"),
            "84b065e754c711496eb52a2e8030c1e543886ce33bf8a21149c0df55b822df60",
        ),
    ],
)
def test_stable_report_bytes_are_pinned(argv, digest):
    # the covers' order, kinds and positions reach these bytes, and so do
    # the value classes' fields (DetReport, MetaMatrix, OrderedPartition)
    proc = run_cli("--stable", *argv)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_verify_identities():
    code, report = run_json("--stable", "verify-identities", "--n", "4")
    assert code == 0
    assert report["details"]["total"] == 281
    assert all(report["details"]["identities"].values())


def test_generalized_counts_survive_the_enumeration_cap():
    # P M P^t = B, the generalized-count identity entry by entry, needs no
    # enumeration of CM_n
    code, report = run_json("--stable", "verify-identities", "--n", "8")
    assert code == 0
    details = report["details"]
    assert details["enumeration_checks"] == "skipped (capacity)"
    assert details["identities"]["pascal_sandwich"] is True


def test_total_positivity_command():
    code, report = run_json("--stable", "total-positivity", "--n", "4")
    assert code == 0
    assert report["details"]["totally_positive"] is True


def test_verify_identities_at_the_metamatrix_cap():
    # every identity and both determinants of M(40), with no raised cap
    code, report = run_json("--stable", "verify-identities", "--n", "40")
    assert code == 0
    details = report["details"]
    assert all(details["identities"].values())
    det = details["determinant"]
    assert str(det["direct"]) == det["closed_form"] and len(det["closed_form"]) == 997


def test_anodyne_and_meet_join():
    code, report = run_json("--stable", "anodyne-classes", "--n", "3")
    assert code == 0
    assert report["details"]["class_count"] == 3
    code, report = run_json(
        "--stable", "anodyne-classes", "--n", "3", "--kind", "horizontal", "--full"
    )
    assert code == 0
    assert report["details"]["fiber_label"] == "fnf"
    assert len(report["details"]["classes"]) == report["details"]["class_count"]
    code, report = run_json("--stable", "meet-join", "--n", "3")
    assert code == 0
    assert report["details"]["meet"]["pass"] is True
    assert report["details"]["join"]["both"]["classes_match_fibers"] is True


def test_meet_join_n6_skips_join():
    code, report = run_json("--stable", "meet-join", "--n", "6")
    assert code == 0
    assert report["details"]["join"] == "skipped (capacity)"


def test_meet_join_cap_is_seven(capsys):
    assert cli.main(["--stable", "meet-join", "--n", "8"]) == 3
    assert "capped at 7" in capsys.readouterr().err


@pytest.mark.parametrize("argv, cap", [
    (("total-positivity", "--n", "1000"), "capped at 40"),
    (("metamatrix", "--n", "1000"), "capped at 40"),
    (("enumerate", "--what", "partitions", "--n", "1000"), "capped at 20"),
    (("total-positivity", "--n", "41"), "capped at 40 (got 41)"),
    (("verify-identities", "--n", "41"), "capped at 40 (got 41)"),
])
def test_caps_trip_before_the_work(argv, cap):
    # M(1000) by inclusion-exclusion or the 2^999 partitions of 1000 would
    # run for hours; the guard must refuse them at once, and total
    # positivity is refused by the meta-matrix guard before M(n) is built
    start = time.monotonic()
    proc = run_cli("--stable", *argv)
    assert time.monotonic() - start < 10
    assert proc.returncode == 3, proc.stderr
    assert cap in proc.stderr


@pytest.mark.parametrize("argv, size", [
    (("enumerate", "--n", "8"), "; |CM_8| = 9,132,865"),
    (("poset", "--n", "8"), "; |CM_8| = 9,132,865"),
    (("sphericity", "--n", "7"), "; |CM_7| = 546,193"),
    (("poset", "--n", "40"), "; |CM_40| = 2,909,476,984,848,528,141,439,812,138,264,"
     "624,418,403,985,202,081,629,743,404,225"),
    (("enumerate", "--n", "41"), ""),
    (("enumerate", "--n", "8", "--p", "2"), ""),
    (("enumerate", "--alpha", "4,4"), ""),
    (("enumerate", "--what", "partitions", "--n", "21"), "; 1,048,576 ordered partitions"),
    (("f-vector", "--n", "41"), ""),
])
def test_capacity_errors_name_the_refused_census(capsys, argv, size):
    # a run over all of CM_n names |CM_n| when the meta-matrix can count it
    assert cli.main(["--stable", *argv]) == 3
    err = capsys.readouterr().err
    assert err.endswith(")" + size + "\n"), err
    assert err.count("|CM_") == ("|CM_" in size)


@pytest.mark.parametrize("argv, size", [
    (("anodyne-classes", "--n", "6"), "; |CM_6| = 37,277"),
    (("meet-join", "--n", "8"), "; |CM_8| = 9,132,865"),
    (("constant-sheaf", "--n", "7", "--dim", "1"), "; |CM_7| = 546,193"),
])
def test_capacity_errors_of_the_poset_commands_name_the_census(argv, size):
    # one past the command's cap on --n, refused in its own process
    proc = run_cli("--stable", *argv)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.endswith(")" + size + "\n")
    assert "Traceback" not in proc.stderr


def test_sheaf_check_names_a_refused_census(capsys, tmp_path):
    # the size comes with the library's refusal, so sheaf-check names it too
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"n": 8, "spaces": {"0": 1}, "maps": []}))
    assert cli.main(["--stable", "sheaf-check", "--input", str(path)]) == 3
    assert capsys.readouterr().err == (
        "capacity exceeded: contingency poset construction is capped at 7 (got 8); "
        "|CM_8| = 9,132,865\n"
    )


@pytest.mark.parametrize("dim", ["-1", "9"])
def test_constant_sheaf_checks_the_weight_before_the_dimension(capsys, dim):
    assert cli.main(["--stable", "constant-sheaf", "--n", "0", "--dim", dim]) == 2
    assert capsys.readouterr().err == "error: weight must be positive, got 0\n"


def test_a_refused_dimension_does_not_name_the_census(capsys):
    assert cli.main(["--stable", "constant-sheaf", "--n", "6", "--dim", "9"]) == 3
    err = capsys.readouterr().err
    assert "dimension is capped at 8 (got 9)" in err and "|CM_" not in err


def test_constant_sheaf_cap_is_six(capsys):
    assert cli.main(["--stable", "constant-sheaf", "--n", "7", "--dim", "1"]) == 3
    assert "capped at 6" in capsys.readouterr().err


def test_sphericity_command():
    code, report = run_json("--stable", "sphericity", "--n", "2", "--full")
    assert code == 0
    assert report["details"]["cells_checked"] == 5
    assert report["details"]["violations"] == []
    assert len(report["details"]["cells"]) == 5


def test_sphericity_cap_is_six():
    proc = run_cli("--stable", "sphericity", "--n", "5")
    assert proc.returncode == 0, proc.stderr
    details = json.loads(proc.stdout)["details"]
    assert details["cells_checked"] == 2961
    assert details["violations"] == []
    proc = run_cli("--stable", "sphericity", "--n", "7")
    assert proc.returncode == 3
    assert "capped at 6" in proc.stderr


def test_sphericity_progress_at_most_once_a_second(monkeypatch, capsys):
    clock = iter([10.0, 10.5, 11.25, 12.0, 12.5, 12.75, 14.0])
    monkeypatch.setattr(cli.time, "monotonic", lambda: next(clock))
    progress = cli._sphericity_progress()
    for done in range(1, 7):
        progress(done, 6)
    assert capsys.readouterr().err.splitlines() == [
        "sphericity: 2/6 cells",
        "sphericity: 4/6 cells",
        "sphericity: 6/6 cells",
    ]


def test_short_sphericity_run_prints_no_progress():
    proc = run_cli("--stable", "sphericity", "--n", "4")
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_meet_join_builds_the_poset_once(monkeypatch, capsys):
    builds = []
    build = strata.build_poset

    def counted(n):
        builds.append(n)
        return build(n)

    monkeypatch.setattr(strata, "build_poset", counted)
    assert cli.main(["--stable", "meet-join", "--n", "4"]) == 0
    assert builds == [4]
    join = json.loads(capsys.readouterr().out)["details"]["join"]
    assert list(join) == ["both", "horizontal", "vertical"]
    assert all(rep["classes_match_fibers"] for rep in join.values())


def test_classify_command(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {"points": [{"re": "0", "im": "1"}, {"re": "0", "im": "-1"}]}
        )
    )
    code, report = run_json("--stable", "classify", "--input", str(path))
    assert code == 0
    assert report["details"]["matrix"] == {"rows": [[1, 1]]}
    assert report["details"]["fnf"]["beta"] == [1, 1]
    assert report["details"]["fnf"]["gamma"] == [[1], [1]]


def _point(re, im="0"):
    return json.dumps({"points": [{"re": re, "im": im}]})


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("{not json", id="not-json"),
        pytest.param('{"points": 5}', id="points-not-a-list"),
        pytest.param('{"points": "01"}', id="points-a-string"),
        pytest.param('{"points": []}', id="no-points"),
        pytest.param('{"points": [5]}', id="point-not-an-object"),
        pytest.param('{"points": [{"re": "1"}]}', id="no-im"),
        pytest.param(_point("1/0"), id="zero-denominator"),
        pytest.param(_point("x"), id="not-a-number"),
        pytest.param(_point("nan"), id="nan"),
        pytest.param(_point("1e999999999"), id="huge-exponent"),
        pytest.param(_point("0", "1e-999999999"), id="huge-negative-exponent"),
        pytest.param(_point("12345e4296"), id="over-the-digit-limit"),
    ],
)
def test_classify_malformed_input(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    proc = run_cli("classify", "--input", str(path))
    assert proc.returncode == 2
    assert "error" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_classify_accepts_exponent_at_the_digit_limit(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(_point("1e4299", "25e-2"))
    code, report = run_json("--stable", "classify", "--input", str(path))
    assert code == 0
    assert report["details"]["matrix"] == {"rows": [[1]]}


@pytest.mark.parametrize("command", ["classify", "sheaf-check"])
@pytest.mark.parametrize(
    "payload",
    [
        pytest.param(b'{"points": [{"re": "\xff", "im": "0"}]}', id="not-utf8"),
        pytest.param(b'{"n": ' + b"9" * 4301 + b"}", id="int-over-4300-digits"),
        pytest.param(b"[" * 200000 + b"]" * 200000, id="nested-200000-deep"),
    ],
)
def test_unreadable_json_input_exits_2(tmp_path, command, payload):
    path = tmp_path / "bad.json"
    path.write_bytes(payload)
    proc = run_cli(command, "--input", str(path))
    assert proc.returncode == 2
    assert "cannot read JSON" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_sheaf_commands(tmp_path):
    code, report = run_json("--stable", "constant-sheaf", "--n", "2", "--dim", "1")
    assert code == 0
    rep_json = report["details"]["representation"]
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep_json))
    for strat in ("cont", "fnf", "ifnf", "complex"):
        code, report = run_json(
            "--stable", "sheaf-check", "--input", str(path), "--strat", strat
        )
        assert code == 0
        assert report["details"]["constructible"] is True


def test_constant_sheaf_reports_its_validation(monkeypatch, capsys):
    def failing_validate(rep):
        failure = {"bottom": 3, "top": 0, "via": [1, 2]}
        return {"n": rep.poset.n, "diamonds_failing": [failure], "valid": False,
                "pass": False}

    monkeypatch.setattr(sheaf, "validate", failing_validate)
    assert cli.main(["--stable", "constant-sheaf", "--n", "2", "--dim", "1"]) == 1
    assert json.loads(capsys.readouterr().out)["pass"] is False


def test_failing_sheaf_check_exits_nonzero(tmp_path):
    code, report = run_json("--stable", "constant-sheaf", "--n", "2", "--dim", "1")
    rep_json = report["details"]["representation"]
    # zero out all maps into the top cell and the covers of one permutation
    # matrix, keeping the functor condition; the horizontal anodyne cover
    # then fails invertibility
    for item in rep_json["maps"]:
        if item["to"] == 0 or (item["from"] == 4 and item["to"] == 1):
            item["matrix"] = [["0"]]
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep_json))
    code, report = run_json(
        "--stable", "sheaf-check", "--input", str(path), "--strat", "fnf"
    )
    assert code == 1
    assert report["pass"] is False
    assert report["details"]["witness"]["kind"] == "horizontal"
    code, report = run_json(
        "--stable", "sheaf-check", "--input", str(path), "--strat", "cont"
    )
    assert code == 0


def _first_map(rep):
    return rep["maps"][0]


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(lambda r: _first_map(r).pop("from"), "needs", id="no-from"),
        pytest.param(lambda r: _first_map(r).pop("to"), "needs", id="no-to"),
        pytest.param(lambda r: _first_map(r).pop("matrix"), "needs", id="no-matrix"),
        pytest.param(
            lambda r: _first_map(r).update({"from": "one"}),
            "must be an integer",
            id="from-not-int",
        ),
        pytest.param(
            lambda r: _first_map(r).update({"to": 0.5}),
            "must be an integer",
            id="to-not-int",
        ),
        # only an object key is read from a decimal string
        pytest.param(
            lambda r: r.update({"n": " 2 ", "spaces": {"0": "1"}, "maps": []}),
            "\"n\" must be an integer, got ' 2 '",
            id="n-string",
        ),
        pytest.param(
            lambda r: r["spaces"].update({"0": "1"}),
            "space 0 must be an integer",
            id="dimension-string",
        ),
        pytest.param(
            lambda r: _first_map(r).update({"from": "1"}),
            '"from" must be an integer',
            id="from-string",
        ),
        pytest.param(
            lambda r: r["spaces"].update({"x": 1}),
            "must be an integer",
            id="space-key-not-int",
        ),
        pytest.param(
            lambda r: r["maps"].append({"from": 0, "to": 4, "matrix": [["1"]]}),
            "is not on a cover",
            id="not-a-cover",
        ),
        # CM_2 has 5 elements, and 1 is a parent of the last one: without a
        # range check, -1 would index up[] from the end and pass
        pytest.param(
            lambda r: r["maps"].append({"from": -1, "to": 1, "matrix": [["1"]]}),
            "is not on a cover",
            id="from-negative",
        ),
        pytest.param(
            lambda r: r["maps"].append({"from": 5, "to": 1, "matrix": [["1"]]}),
            "is not on a cover",
            id="from-past-the-end",
        ),
        pytest.param(
            lambda r: r["maps"].append(dict(_first_map(r))),
            "duplicate map",
            id="duplicate-map",
        ),
        pytest.param(
            lambda r: _first_map(r).update({"matrix": [["1/0"]]}),
            "bad matrix",
            id="bad-entry",
        ),
        pytest.param(
            lambda r: _first_map(r).update({"matrix": [["1e999999999"]]}),
            "digits written out",
            id="huge-exponent-entry",
        ),
        pytest.param(
            lambda r: r.update({"maps": 5}),
            '"maps" must be a list',
            id="maps-not-a-list",
        ),
        pytest.param(
            lambda r: _first_map(r).update({"matrix": "1"}),
            "list of lists",
            id="matrix-is-string",
        ),
        pytest.param(
            lambda r: _first_map(r).update({"matrix": {"1": 0}}),
            "list of lists",
            id="matrix-is-object",
        ),
        pytest.param(
            lambda r: _first_map(r).update({"matrix": ["1"]}),
            "list of lists",
            id="row-is-string",
        ),
    ],
)
def test_sheaf_check_malformed_representation(tmp_path, edit, message):
    rep = constant_sheaf(2, 1).to_json()
    edit(rep)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep))
    proc = run_cli("--stable", "sheaf-check", "--input", str(path))
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_representation_dimension_is_capped(tmp_path):
    proc = run_cli("--stable", "constant-sheaf", "--n", "2", "--dim", "1000000000")
    assert proc.returncode == 3
    assert "capped" in proc.stderr
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"n": 2, "spaces": {"0": 1000000000}, "maps": []}))
    proc = run_cli("--stable", "sheaf-check", "--input", str(path))
    assert proc.returncode == 3
    assert "capped" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unknown_subcommand_exits_2():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


def test_usage_errors_exit_2():
    assert run_cli("enumerate", "--what", "partitions").returncode == 2
    assert run_cli("enumerate").returncode == 2
    assert run_cli("enumerate", "--alpha", "2,x").returncode == 2
    assert run_cli("enumerate", "--n", "3", "--alpha", "2,2").returncode == 2


def test_capacity_exit_code():
    proc = run_cli("enumerate", "--n", "8", "--p", "1")
    assert proc.returncode == 3
    assert "capacity" in proc.stderr


# every option of the CLI: one comes back, or a new one appears, only with
# an edit here
OPTIONS = {
    None: ("--stable",),
    "enumerate": ("--alpha", "--beta", "--n", "--p", "--q", "--what"),
    "poset": ("--format", "--n"),
    "sphericity": ("--full", "--jobs", "--n"),
    "f-vector": ("--n",),
    "metamatrix": ("--format", "--method", "--n"),
    "verify-identities": ("--n",),
    "total-positivity": ("--n",),
    "classify": ("--input",),
    "anodyne-classes": ("--full", "--kind", "--n"),
    "meet-join": ("--n",),
    "sheaf-check": ("--input", "--strat"),
    "constant-sheaf": ("--dim", "--n"),
}


def test_the_options_are_pinned():
    def options(parser):
        strings = {s for action in parser._actions for s in action.option_strings}
        return tuple(sorted(strings - {"-h", "--help"}))

    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {None: options(parser)}
    found.update((name, options(p)) for name, p in sub.choices.items())
    assert found == OPTIONS
    # no second renderer, and no environment lifts a cap
    assert run_cli("--pretty", "--stable", "f-vector", "--n", "2").returncode == 2
    proc = run_cli(
        "--stable", "enumerate", "--n", "8", "--p", "1",
        env_extra={"CONTINGENCY_MAX_N": "8"},
    )
    assert proc.returncode == 3, proc.stdout
    assert proc.stderr == (
        "capacity exceeded: contingency matrix enumeration is capped at 7 (got 8)\n"
    )


# ---------------------------------------------------------------------------
# property tests: random JSON through the CLI keeps the exit-code contract

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
# texts that once broke an input check, or come close to the digit limit
hostile_texts = st.sampled_from(
    ["1/0", "1e999999999", "-1e-999999999", "12345e4296", "1e4299", "nan", "x"]
)
numbers = (
    hostile_texts
    | st.fractions().map(str)
    | st.decimals().map(str)
    | st.integers()
    | st.floats()
    | json_values
)

points = st.fixed_dictionaries({"re": numbers, "im": numbers}) | json_values
classify_payloads = (
    st.fixed_dictionaries({"points": st.lists(points, max_size=5)}) | json_values
)

# n is at most 2 or past the cap: a representation at n = 6 or 7 takes
# seconds to minutes to build.  Dimensions stay at most 2: they have no
# cap, and each million in one space costs about 150 MB and 4 s.
indices = st.integers(-1, 5) | json_scalars
matrices = st.lists(st.lists(numbers, max_size=3), max_size=3) | json_values
map_items = (
    st.fixed_dictionaries({"from": indices, "to": indices, "matrix": matrices})
    | json_values
)
random_representations = st.fixed_dictionaries(
    {
        "n": st.sampled_from([1, 2, "2", 0, -1, 2.5, True, None, "x", 10**6]),
        "spaces": st.dictionaries(
            st.sampled_from(["0", "1", "2", "3", "4", "5", "-1", "x", ""]),
            st.sampled_from([0, 1, 2, -1, "1", None, 1.5, [1]]),
            max_size=6,
        )
        | json_values,
    },
    optional={"maps": st.lists(map_items, max_size=8) | json_values},
)


@st.composite
def edited_constant_sheaves(draw):
    """The n = 2 constant sheaf with some of its fields or cover maps replaced."""
    rep = constant_sheaf(2, 1).to_json()
    for _ in range(draw(st.integers(1, 3))):
        item = draw(st.sampled_from(rep["maps"]))
        field = draw(st.sampled_from(["matrix", "entry", "from", "to", "maps"]))
        if field == "matrix":
            item["matrix"] = draw(matrices)
        elif field == "entry":
            item["matrix"] = [[draw(hostile_texts | numbers)]]
        elif field in ("from", "to"):
            item[field] = draw(indices)
        else:
            rep["maps"] = draw(json_scalars | json_values)
            break
    return rep


# parseable rationals in each written form: "p/q", decimals, exponents
rational_texts = (
    st.fractions().map(str)
    | st.decimals(allow_nan=False, allow_infinity=False).map(str)
    | st.builds("{}e{}".format, st.integers(-10**6, 10**6), st.integers(-30, 30))
)
# nonzero element scalars whose ratios often have exact decimal forms
element_scalars = st.sampled_from(
    [Fraction(k, d) for k in (-3, -1, 1, 2, 5) for d in (1, 2, 4, 5)]
)


def _written(value, form):
    """value as "p/q", or as a decimal or an exponent string when it has one."""
    places = 0
    while (value * 10**places).denominator != 1 and places < 4:
        places += 1
    digits = value * 10**places
    if form == "fraction" or digits.denominator != 1:
        return str(value)
    if form == "exponent":
        return f"{digits.numerator}e-{places}"
    return str(Decimal(digits.numerator).scaleb(-places))


@st.composite
def rational_constant_sheaves(draw):
    """The n = 2 rank-one sheaf with the cover map c -> p equal to
    s_p / s_c, written as "p/q", a decimal or an exponent; it is then
    functorial and constructible, unless one entry is redrawn."""
    rep = constant_sheaf(2, 1).to_json()
    scalars = [draw(element_scalars) for _ in rep["spaces"]]
    for item in rep["maps"]:
        form = draw(st.sampled_from(["fraction", "decimal", "exponent"]))
        item["matrix"] = [[_written(scalars[item["to"]] / scalars[item["from"]], form)]]
    if draw(st.booleans()):
        draw(st.sampled_from(rep["maps"]))["matrix"] = [[draw(rational_texts)]]
    return rep


sheaf_payloads = (
    edited_constant_sheaves()
    | rational_constant_sheaves()
    | random_representations
    | json_values
)


def run_in_process(argv, payload):
    """cli.main on a JSON input file; an uncaught exception fails the test."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--input", path])
    return code, out.getvalue(), err.getvalue()


def assert_exit_contract(code, out, err):
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code in (0, 1):
        assert json.loads(out)["pass"] is (code == 0)


property_settings = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@property_settings
@given(classify_payloads)
def test_classify_keeps_exit_contract(payload):
    assert_exit_contract(*run_in_process(["classify"], payload))


@property_settings
@given(sheaf_payloads, st.sampled_from(["cont", "fnf", "ifnf", "complex"]))
def test_sheaf_check_keeps_exit_contract(payload, strat):
    assert_exit_contract(*run_in_process(["sheaf-check", "--strat", strat], payload))


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # every CLI run pays for what the package imports at start-up
    code = "import sys, stochastihedron.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
