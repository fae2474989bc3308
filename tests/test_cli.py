"""Constructor expressions, subcommands, exit codes, and output determinism."""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lapgap as lg
from lapgap import cli
from lapgap.cli import main, parse_constructor
from lapgap.errors import InputError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- constructor grammar -----------------------------------------------------------


def nested_join(depth):
    return "join(simplex(0)," * depth + "simplex(0)" + ")" * depth


def test_parse_constructor_examples():
    assert parse_constructor("Z(1,2,1)").n == 5
    assert parse_constructor("skeleton(3,1)") == lg.skeleton(3, 1)
    assert parse_constructor("simplex(2)") == lg.full_simplex(2)
    C4 = parse_constructor("join(skeleton(1,0), skeleton(1,0))")
    assert set(C4.faces(1)) == {(0, 2), (0, 3), (1, 2), (1, 3)}
    nested = parse_constructor("join(join(simplex(0), simplex(0)), skeleton(2,1))")
    assert nested.n == 5
    # 16 factors, 2**16 faces: one more join is refused as past the face cap
    assert parse_constructor(nested_join(15)) == lg.full_simplex(15)


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


# names, digits int() takes and does not, signs, punctuation, whitespace, NUL
FUZZ_TOKENS = ("skeleton", "simplex", "Z", "join", "clique", "file", "frob", "_", "0", "1",
               "3", "9", "99999", "²", "٣", "１", "+", "-", "(", "(", ")", ")", ",", ",",
               " ", "\t", "\n", "　", "\0", ".", "é")
JUNK = st.lists(st.sampled_from(FUZZ_TOKENS), max_size=4).map("".join)
# calls of any name, on junk or on calls, comma-separated
CALLS = st.recursive(JUNK, lambda args: st.builds(
    lambda name, inner: f"{name}({','.join(inner)})",
    st.sampled_from(FUZZ_TOKENS[:7]), st.lists(args, max_size=3)), max_leaves=5)


@settings(derandomize=True, max_examples=400, deadline=2000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=CALLS | st.lists(st.sampled_from(FUZZ_TOKENS), max_size=20).map("".join)
       | st.text(max_size=20))
def test_fuzzed_expressions_build_or_raise_input_error(tmp_path, monkeypatch, text):
    monkeypatch.chdir(tmp_path)  # a fuzzed file(...) reads nothing of the checkout
    try:
        X = parse_constructor(text)
    except InputError:
        return
    assert isinstance(X, lg.SimplicialComplex)


LEAVES = st.one_of(
    st.tuples(st.just("skeleton"), st.integers(0, 3), st.integers(0, 3)).filter(
        lambda t: t[2] <= t[1]),
    st.tuples(st.just("simplex"), st.integers(0, 2)),
    st.sampled_from([("Z", 1, 1, 1), ("Z", 1, 1, 2), ("Z", 2, 1, 1), ("Z", 1, 2, 1)]),
    st.sampled_from([("file",), ("clique",)]),
)
EXPRESSIONS = st.recursive(LEAVES, lambda kids: st.tuples(st.just("join"), kids, kids),
                           max_leaves=3)
SPACES = st.text(alphabet=" \t\n\r\x0b\x0c\x1c\xa0 　", max_size=2)
# the zeros of the digits 0-9 in ASCII, Arabic-Indic and fullwidth, all read by int()
DIGIT_ZEROS = (ord("0"), 0x660, 0xFF10)


@pytest.fixture(scope="module")
def grammar_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("grammar")
    (root / "facets.txt").write_text(FACETS, encoding="utf-8")
    (root / "edges.txt").write_text("n 5\n0 1\n1 2\n2 3\n3 4\n0 4\n1 3\n", encoding="utf-8")
    return {"file": str(root / "facets.txt"), "clique": str(root / "edges.txt")}


CONSTRUCTORS = {"skeleton": lg.skeleton, "simplex": lg.full_simplex, "Z": lg.build_z,
                "file": lg.load_facet_file, "clique": lg.load_edge_file}


def direct(node, paths):
    """The complex of an expression tree, by direct constructor calls."""
    name, *args = node
    if name == "join":
        return lg.join(direct(args[0], paths), direct(args[1], paths))
    return CONSTRUCTORS[name](*([paths[name]] if name in paths else args))


def render(node, paths, draw):
    """An expression tree as text, with drawn whitespace and integer spellings."""
    name, *args = node
    if name in paths:
        args = [paths[name]]
    elif name == "join":
        args = [render(a, paths, draw) for a in args]
    else:
        zero = draw(st.sampled_from(DIGIT_ZEROS))
        prefix = draw(st.sampled_from(("", "+", "0", "+00")))
        args = [prefix + "".join(chr(zero + int(c)) for c in str(a)) for a in args]
    inner = ",".join(draw(SPACES) + a + draw(SPACES) for a in args)
    return f"{draw(SPACES)}{name}{draw(SPACES)}({inner}){draw(SPACES)}"


@settings(derandomize=True, max_examples=150, deadline=2000)
@given(node=EXPRESSIONS, data=st.data())
def test_rendered_expressions_build_what_the_constructors_build(grammar_files, node, data):
    text = render(node, grammar_files, data.draw)
    assert parse_constructor(text) == direct(node, grammar_files)


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


def test_spectrum_single_k_solves_one_laplacian(capsys, monkeypatch):
    solved = []
    eigenvalues = lg.spectral.eigenvalues

    def counting(M):
        solved.append(M.shape)
        return eigenvalues(M)

    monkeypatch.setattr(lg.spectral, "eigenvalues", counting)
    code, out, _ = run(capsys, "spectrum", "skeleton(4,2)", "--k", "1")
    assert code == 0 and [row["k"] for row in json.loads(out)["profile"]] == [1]
    assert solved == [(10, 10)]


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


def test_tol_is_refused_where_nothing_reads_it(capsys):
    # d comes from the complex and L_k is written by dump-matrix alone, so
    # these options are refused too, each named by argparse
    for argv, option in [
        (("bound", "Z(1,2,1)", "--tol", "1e-3"), "--tol"),
        (("bound", "Z(2,2,1)", "--k", "1", "--assume-d", "2"), "--assume-d"),
        (("spectrum", "skeleton(2,1)", "--k", "1", "--dump-matrix", "x.txt"), "--dump-matrix"),
        (("gap", "skeleton(2,1)", "--k", "1", "--dump-matrix", "x.txt"), "--dump-matrix"),
        (("bound", "skeleton(2,1)", "--k", "1", "--dump-matrix", "x.txt"), "--dump-matrix"),
        (("dump-matrix", "skeleton(1,0)", "--k", "0", "--format", "text"), "--format"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert option in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("equality", "Z(1,2,1)", "--k", "foo"),
        ("spectrum", "skeleton(2,1)", "--k", "foo"),
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


# the parse errors whose wording and position are pinned
PARSE_ERRORS = {
    "frob(1)": "parse error at position 5: unknown constructor 'frob'",
    "frob": "parse error at position 4: expected '('",
}


@pytest.mark.parametrize("expr", [
    "frob(1)",
    "frob",
    pytest.param("simplex(²)", id="simplex(superscript two)"),  # isdigit(), not int()
    "simplex(+)",
    pytest.param("simplex(" + "9" * 5000 + ")", id="simplex(5000 nines)"),
    pytest.param(nested_join(16), id="join nested 16 deep"),
    pytest.param(nested_join(1200), id="join nested 1200 deep"),
    pytest.param("file(a\0b)", id="file(path with NUL)"),
])
def test_bad_expression_exits_2(capsys, expr):
    code, out, err = run(capsys, "gap", expr)
    assert code == 2 and out == ""
    assert err.startswith("input error:") and err.count("\n") == 1
    assert PARSE_ERRORS.get(expr, "") in err


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
    ("verify-z", "2", "2", "1", "--tol", "0"),
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
    ("verify-z", "0", "2", "1"),
    ("verify-z", "2", "2", "-1"),
    ("verify-z", "3", "3", "1"),
    ("verify-z", "1", "100000000", "1"),  # refused by its dimension, before its face count
    ("probe", "--d", "2", "--n", "5", "--budget", "-1"),
    ("probe", "--d", "2", "--n", "5", "--mode", "random", "--budget", "-3"),
])
def test_bad_tol_and_budget_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("input error:") and err.count("\n") == 1


@pytest.mark.parametrize("expr", [
    "skeleton(99999999999999999999,1)",
    "skeleton(30,15)",
    "Z(1,40,1)",
    "join(skeleton(9,9),skeleton(9,9))",
    "skeleton(3,-1)",
    "join(simplex(0),skeleton(3,-1))",
])
def test_oversized_or_negative_constructor_exits_2(capsys, expr):
    code, out, err = run(capsys, "build", expr)
    assert code == 2 and out == ""
    assert err.startswith("input error:") and err.count("\n") == 1


@pytest.mark.parametrize("ctor,text", [
    ("file", "n 99999999999\n0 1\n"),
    ("file", "n 40\n" + " ".join(str(v) for v in range(40)) + "\n"),
    ("clique", "n 99999999999\n0 1\n"),
    pytest.param("file", b"n 3\n0 1\xff\n", id="file-not-utf-8"),
    pytest.param("clique", b"n 3\n0 1\xff\n", id="clique-not-utf-8"),
])
def test_oversized_facet_or_edge_file_exits_2(capsys, tmp_path, ctor, text):
    path = tmp_path / "x.txt"
    path.write_bytes(text.encode() if isinstance(text, str) else text)
    code, out, err = run(capsys, "build", f"{ctor}({path})")
    assert code == 2 and out == ""
    assert err.startswith("input error:") and err.count("\n") == 1


@pytest.mark.parametrize("ctor", ["file", "clique"])
def test_endless_or_over_cap_file_exits_2(capsys, tmp_path, ctor):
    path = tmp_path / "x.txt"
    path.write_bytes(b"n 3\n" + b"#" * lg.complexes.MAX_FILE_BYTES)  # one byte over
    for source in ("/dev/zero", path):
        code, out, err = run(capsys, "build", f"{ctor}({source})")
        assert code == 2 and out == ""
        assert err.startswith("input error:") and err.count("\n") == 1
        assert f"over {lg.complexes.MAX_FILE_BYTES} bytes" in err
    path.write_bytes(b"n 3\n" + b"#" * (lg.complexes.MAX_FILE_BYTES - 4))  # at the cap
    code, out, err = run(capsys, "build", f"{ctor}({path})")
    assert code == 0 and err == ""


@pytest.mark.parametrize("command", ["missing", "bound"])
def test_too_many_missing_faces_exits_2(capsys, tmp_path, command):
    path = tmp_path / "x.txt"
    path.write_text("n 20000\n")  # 20000 isolated vertices: every edge is a missing face
    code, out, err = run(capsys, command, f"file({path})")
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


@pytest.mark.parametrize("where,why", [
    ("missing/x.txt", "No such file or directory"),
    (".", "Is a directory"),
    ("file.txt/x.txt", "Not a directory"),
    ("x\0.txt", "embedded null byte"),
])
def test_dump_matrix_to_a_bad_path_exits_2(capsys, tmp_path, where, why):
    (tmp_path / "file.txt").write_text("")
    code, out, err = run(capsys, "dump-matrix", "skeleton(1,0)", "--k", "0", "--out",
                         str(tmp_path / where))
    assert code == 2 and out == ""
    assert err.startswith("input error: cannot write") and why in err and err.count("\n") == 1


def test_random_probe_past_the_clique_cap_exits_2(capsys):
    # the first sample keeps each edge of K_40 with probability 0.92, past MAX_FACES cliques
    code, out, err = run(capsys, "probe", "--d", "2", "--n", "40", "--mode", "random",
                         "--budget", "3", "--seed", "2")
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "cliques, the size cap" in err
    assert err.count("\n") == 1


def test_probe_seed_is_for_random_mode_only(capsys):
    code, out, err = run(capsys, "probe", "--d", "2", "--n", "5", "--seed", "9")
    assert code == 2 and out == ""
    assert err == "input error: --seed applies to --mode random only\n"
    random_mode = ("probe", "--d", "2", "--n", "5", "--mode", "random", "--budget", "50")
    assert run(capsys, *random_mode) == run(capsys, *random_mode, "--seed", "0")


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


FACETS = "n 6\n# a facet file\n0 1 2\n1 2 3\n2 3 4\n3 4 5\n0 5\n0 3\n"


@pytest.mark.parametrize("argv,digest", [
    pytest.param(("bound", "Z(2,2,1)", "--k", "all"),
                 "320e023401bb5ea51af4607baffcc248e5e1aa393cc57b10377ac4bf1093b885", id="bound-json"),
    pytest.param(("bound", "Z(2,2,1)", "--k", "all", "--format", "text"),
                 "119b1bbd0b6a4244ccfd23f80bc470d1a77b3daab1749122352eb34614c83c4c", id="bound-text"),
    pytest.param(("bound", "file(facets.txt)"),
                 "ed0f48ce6ad1719d3e9c40b96b635fd36d9ccb62c90933925845b8c9563457e0", id="bound-file"),
    pytest.param(("spectrum", "skeleton(3,1)"),
                 "389721dfe5fb86888e295b94e88296f8667ee0e3cecaebd207a62a90259431ad", id="spectrum"),
    pytest.param(("gap", "skeleton(3,1)"),
                 "8f91400d735b2932b295ad0f92bc0fb64aa79a43c1fedf9e0769aae9233cf397", id="gap"),
    pytest.param(("betti", "skeleton(3,1)"),
                 "3bcbb5ab4e37459d1436d782afe92ce9f316fcf4796822bcdc68836a315f5ed8", id="betti"),
    pytest.param(("verify-z", "2", "2", "1"),
                 "1c32c2ae2f37580099383d7f4f798e6dd910a2768ef41a6f5ff8148627ce9e7e", id="verify-z"),
    pytest.param(("dump-matrix", "skeleton(10,4)", "--k", "4", "--operator", "laplacian"),
                 "f548de927cd0d0cfb308bb5867837b441fd9bafefea1f958ae6f17f9782a2e5e",
                 id="dump-laplacian"),
    pytest.param(("dump-matrix", "skeleton(10,4)", "--k", "4", "--operator", "coboundary"),
                 "efd5c831873aef8da9f4d9991bd8de1125e1ab84c2501713beae635165e84ecb",
                 id="dump-coboundary"),
])
def test_stdout_is_pinned(capsys, tmp_path, monkeypatch, argv, digest):
    """Stdout byte for byte of bound, spectrum, gap, betti, verify-z and
    dump-matrix, json and text, on a constructor and on a facet file."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "facets.txt").write_text(FACETS, encoding="utf-8")
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# one small argv per subcommand for the option-read test
SAMPLE_ARGV = {
    "build": ("simplex(1)",),
    "spectrum": ("simplex(1)",),
    "gap": ("simplex(1)",),
    "betti": ("simplex(1)",),
    "missing": ("skeleton(2,1)",),
    "bound": ("simplex(1)",),
    "verify-z": ("1", "1", "1"),
    "equality": ("Z(1,1,1)", "--k", "1"),
    "probe": ("--d", "2", "--n", "3"),
    "dump-matrix": ("simplex(1)", "--k", "0"),
}


class _Reads(argparse.Namespace):
    """A namespace that records the name of every attribute read from it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._read = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


def test_every_option_is_read_by_its_handler(tmp_path, monkeypatch):
    # an option that argparse accepts and no handler reads is silently ignored
    monkeypatch.chdir(tmp_path)
    parser = cli._build_argparser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(SAMPLE_ARGV) == set(cli._HANDLERS)
    unread = []
    for name, sub in subparsers.choices.items():
        args = _Reads(**vars(parser.parse_args([name, *SAMPLE_ARGV[name]])))
        assert cli._HANDLERS[name](args, io.StringIO()) == 0
        unread += [f"{name} {'/'.join(a.option_strings) or a.dest}" for a in sub._actions
                   if not isinstance(a, argparse._HelpAction) and a.dest not in args._read]
    assert unread == []


def test_verify_z_exits_1_when_a_closed_form_is_one_below_the_gap(capsys, monkeypatch):
    predicted = lg.extremal.predicted_z_profile

    def one_below(d, t, r):
        rows = list(predicted(d, t, r))
        rows[2] = lg.extremal.ZProfileRow(k=rows[2].k, mu=rows[2].mu - 1, delta=rows[2].delta)
        return tuple(rows)

    monkeypatch.setattr(lg.extremal, "predicted_z_profile", one_below)
    code, out, err = run(capsys, "verify-z", "2", "2", "1")
    assert code == 1 and err == "" and json.loads(out)["ok"] is False
