"""Constructor expressions, subcommands, exit codes, and output determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lapgap as lg
from lapgap.cli import main, parse_constructor
from lapgap.errors import InputError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- constructor grammar -----------------------------------------------------------


def test_parse_constructor_examples():
    assert parse_constructor("Z(1,2,1)").n == 5
    assert parse_constructor("skeleton(3,1)") == lg.skeleton(3, 1)
    assert parse_constructor("simplex(2)") == lg.full_simplex(2)
    C4 = parse_constructor("join(skeleton(1,0), skeleton(1,0))")
    assert set(C4.faces(1)) == {(0, 2), (0, 3), (1, 2), (1, 3)}
    nested = parse_constructor("join(join(simplex(0), simplex(0)), skeleton(2,1))")
    assert nested.n == 5


def test_parse_constructor_whitespace():
    assert parse_constructor("  skeleton( 2 , 1 ) ") == lg.skeleton(2, 1)


def test_parse_constructor_errors_carry_position():
    for expr in ("skeleton(3", "frob(1)", "skeleton(2,1)x", "", "join(simplex(1)"):
        with pytest.raises(InputError) as err:
            parse_constructor(expr)
        assert "position" in str(err.value)


def test_parse_constructor_file(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("n 3\n0 1 2\n", encoding="utf-8")
    assert parse_constructor(f"file({path})") == lg.full_simplex(2)
    gpath = tmp_path / "g.txt"
    gpath.write_text("n 3\n0 1\n1 2\n0 2\n", encoding="utf-8")
    assert parse_constructor(f"clique({gpath})") == lg.full_simplex(2)


# --- subcommands ----------------------------------------------------------------------


def test_build_summary(capsys):
    code, out, _ = run(capsys, "build", "Z(1,2,1)")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 5 and obj["dim"] == 2
    assert obj["f_vector"][0] == 1


def test_spectrum_schema_key_order(capsys):
    code, out, _ = run(capsys, "spectrum", "skeleton(2,1)")
    assert code == 0
    assert out.startswith('{"n": 3, "dim": 1, "profile": [{"k": -1, "gap": ')
    obj = json.loads(out)
    assert [row["k"] for row in obj["profile"]] == [-1, 0, 1]
    assert list(obj["profile"][0].keys()) == ["k", "gap", "betti", "spectrum"]


def test_spectrum_single_k(capsys):
    code, out, _ = run(capsys, "spectrum", "join(skeleton(1,0), skeleton(1,0))", "--k", "0")
    obj = json.loads(out)
    assert obj["profile"][0]["spectrum"] == [2.0, 2.0, 4.0, 4.0]


def test_gap_subcommand(capsys):
    code, out, _ = run(capsys, "gap", "Z(1,2,1)", "--k", "all")
    assert code == 0
    gaps = [json.loads(line)["gap"] for line in out.splitlines()]
    assert gaps == [5.0, 3.0, 1.0, 1.0]


def test_betti_subcommand(capsys):
    code, out, _ = run(capsys, "betti", "skeleton(4,1)", "--k", "1")
    assert code == 0
    assert json.loads(out) == {"k": 1, "betti": 6}


def test_missing_subcommand(capsys):
    code, out, _ = run(capsys, "missing", "skeleton(2,1)")
    obj = json.loads(out)
    assert obj == {"n": 3, "h": 2, "missing": [[0, 1, 2]]}


def test_bound_tight_family(capsys):
    code, out, _ = run(capsys, "bound", "Z(2,2,1)", "--k", "all")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 6
    assert all(row["tight"] for row in rows)
    assert [row["bound"] for row in rows] == [7, 7, 4, 4, 1, 1]


def test_bound_assume_d(capsys):
    code, _, _ = run(capsys, "bound", "Z(2,2,1)", "--k", "1", "--assume-d", "2")
    assert code == 0
    code, _, err = run(capsys, "bound", "Z(2,2,1)", "--k", "1", "--assume-d", "1")
    assert code == 2 and "contradicts" in err


def test_tol_is_refused_where_nothing_reads_it(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "Z(1,2,1)", "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("equality", "Z(1,2,1)", "--k", "foo"),
        ("spectrum", "skeleton(2,1)", "--k", "foo", "--dump-matrix", "x.txt"),
        ("dump-matrix", "skeleton(2,1)", "--k", "foo"),
    ],
)
def test_non_integer_k_exits_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error:")
    assert not (tmp_path / "x.txt").exists()


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "gap", "file(missing.txt)")
    assert code == 2 and "input error" in err


def test_bad_expression_exits_2(capsys):
    code, _, err = run(capsys, "gap", "frob(1)")
    assert code == 2


def test_verify_z_subcommand(capsys):
    code, out, _ = run(capsys, "verify-z", "2", "2", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] and obj["d"] == 2
    code, _, err = run(capsys, "verify-z", "3", "3", "1")
    assert code == 2  # over the face cap


def test_equality_subcommand(capsys):
    code, out, _ = run(capsys, "equality", "join(join(skeleton(1,0), skeleton(1,0)), simplex(0))", "--k", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["holds"] and obj["target"] == 1 and obj["witness"] is not None


def test_probe_subcommand(capsys):
    code, out, _ = run(capsys, "probe", "--d", "2", "--n", "4")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    summary = lines[-1]
    assert summary == {"examined": 20, "complete": True, "hits": 4, "counterexamples": 0}
    hits = lines[:-1]
    assert all(h["isomorphic_to_canonical"] for h in hits)
    assert list(hits[0].keys()) == [
        "n",
        "d",
        "k",
        "mu",
        "target",
        "isomorphic_to_canonical",
        "facets",
    ]


@pytest.mark.parametrize("argv,digest", [
    pytest.param(("--d", "2", "--n", "6", "--format", "json"),
                 "bc4708a6ced98361a85e5e5e858a99f28a07c7b3f5900a505e96321c72fb854b", id="json"),
    pytest.param(("--d", "2", "--n", "6", "--format", "text"),
                 "0778fe96c06c6cdd094c4d7189a3e05ea1df5a447f8212244d894b0edb7d3795", id="text"),
    pytest.param(("--d", "3", "--n", "5"),
                 "384aeacace49ad0835fe4d640a38a011f1b70ed93de1e0e1c09cc9b7ccb37c83", id="d3-n5"),
    pytest.param(("--d", "4", "--n", "5"),
                 "85333f291ba61e4fd613f9e00ca684914ea6db3fe6153e332f17c18af230586c", id="d4-n5"),
    pytest.param(("--d", "3", "--n", "6", "--budget", "2000"),
                 "986b922195428f9cc4ed27e03501af363ea8ca0109a05268c7c7409a2baeb411",
                 id="d3-n6-budget"),
    pytest.param(("--d", "4", "--n", "6", "--budget", "3000"),
                 "e9b754d2e38033da70a24187d5bd3a242d0b72eb418cb0a117b718078c47a6e3",
                 id="d4-n6-budget"),
    pytest.param(("--d", "3", "--n", "7", "--budget", "3000"),
                 "6f100b10aa92bd73631987be996e40b629ddb66a27655dc925402620d0719e96",
                 id="d3-n7-budget"),
    pytest.param(("--d", "2", "--n", "7", "--mode", "random", "--budget", "250", "--seed", "12"),
                 "3b845c02849c6698be2506535e97e1fd4a60d006f19d8b178cc4b3dd7918132d",
                 id="d2-n7-random"),
    # hits at k=4, then at k=3: the sample order, not the k order
    pytest.param(("--d", "2", "--n", "6", "--mode", "random", "--budget", "300", "--seed", "9"),
                 "41a45080f825c3eba299c88821a665036bb930dd296a4645f15e8c6c2ede3777",
                 id="d2-n6-random"),
])
def test_probe_d2_n6_output_is_pinned(capsys, argv, digest):
    """Probe stdout byte for byte: the 30 hits of the exhaustive (2,6) probe
    in their order, and exhaustive and random runs at d = 2, 3 and 4."""
    code, out, err = run(capsys, "probe", *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ("probe", "--d", "2", "--n", "5", "--tol", "0"),
    ("equality", "Z(1,2,1)", "--k", "2", "--tol", "0"),
])
def test_equality_takes_no_tol(capsys, argv):
    # equality is decided exactly; a tol of 0 once turned proved hits away
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("argv,codes", [
    # 5 kB: the whole output may reach the pipe before the reader closes it
    (("probe", "--d", "2", "--n", "6"), (0, 141)),
    # 142 kB, more than a pipe holds: the writer meets the closed pipe
    (("dump-matrix", "skeleton(10,4)", "--k", "4"), (141,)),
])
def test_a_closed_stdout_ends_quietly(argv, codes):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    with subprocess.Popen([sys.executable, "-m", "lapgap.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(300)) == 300
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert code in codes and err == b""


@pytest.mark.parametrize("argv", [
    ("verify-z", "2", "2", "1", "--tol", "-1"),
    ("verify-z", "2", "2", "1", "--tol", "nan"),
    ("verify-z", "2", "2", "1", "--tol", "inf"),
    ("probe", "--d", "2", "--n", "5", "--budget", "-1"),
    ("probe", "--d", "2", "--n", "5", "--mode", "random", "--budget", "-3"),
])
def test_bad_tol_and_budget_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("input error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("probe", "--d", "2", "--n", "7"),
    ("probe", "--d", "3", "--n", "6"),
])
def test_unbounded_exhaustive_probe_over_the_cap_exits_2_at_once(capsys, monkeypatch, argv):
    def refuse(n):
        raise AssertionError("enumerated before the cap was checked")

    monkeypatch.setattr(lg.extremal, "_graph_classes", refuse)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "--budget" in err and err.count("\n") == 1


def test_dump_matrix_subcommand(capsys, tmp_path):
    code, out, _ = run(capsys, "dump-matrix", "skeleton(1,0)", "--k", "0")
    assert code == 0
    assert out == "2 2\n0 0 1\n0 1 1\n1 0 1\n1 1 1\n"
    path = tmp_path / "m.txt"
    code, _, _ = run(capsys, "dump-matrix", "skeleton(1,0)", "--k", "0", "--out", str(path))
    assert code == 0
    assert path.read_text(encoding="utf-8") == "2 2\n0 0 1\n0 1 1\n1 0 1\n1 1 1\n"


def test_dump_matrix_flag_on_gap(capsys, tmp_path):
    path = tmp_path / "L.txt"
    code, _, _ = run(capsys, "gap", "skeleton(2,1)", "--k", "1", "--dump-matrix", str(path))
    assert code == 0
    assert path.read_text(encoding="utf-8").startswith("3 3\n")
    code, _, err = run(capsys, "gap", "skeleton(2,1)", "--dump-matrix", str(path))
    assert code == 2  # needs a specific --k


def test_text_format(capsys):
    code, out, _ = run(capsys, "gap", "simplex(2)", "--k", "0", "--format", "text")
    assert code == 0
    assert out.strip() == "k=0  gap=3.0"


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "bound", "Z(2,1,2)", "--k", "all")
    _, second, _ = run(capsys, "bound", "Z(2,1,2)", "--k", "all")
    assert first == second
    _, p1, _ = run(capsys, "probe", "--d", "2", "--n", "5", "--mode", "random", "--budget", "50", "--seed", "9")
    _, p2, _ = run(capsys, "probe", "--d", "2", "--n", "5", "--mode", "random", "--budget", "50", "--seed", "9")
    assert p1 == p2
