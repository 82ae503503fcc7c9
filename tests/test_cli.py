import io
import json
import subprocess
import sys

import pytest

import scminor.cli
import scminor.generators
import scminor.topology
from scminor import parse_graph6, random_sc, sharp_4n, write_graph6
from scminor.cli import main

from conftest import sc_classes


def run_cli(argv, stdin_text="", monkeypatch=None, capsys=None):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_positive(monkeypatch, capsys):
    code, out, _ = run_cli(["check"], "Ch\n", monkeypatch, capsys)
    assert code == 0
    assert out == "self-complementary: yes, rho=(0 1 3 2), sachs=ok\n"


def test_check_negative(monkeypatch, capsys):
    code, out, _ = run_cli(["check"], "C~\n", monkeypatch, capsys)
    assert code == 1
    assert out == "self-complementary: no\n"


def test_check_batch_and_json(monkeypatch, capsys):
    code, out, _ = run_cli(["check", "--json"], "C~\nCh\n", monkeypatch, capsys)
    assert code == 1
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0] == {"n": 4, "self_complementary": False}
    assert lines[1] == {
        "n": 4,
        "self_complementary": True,
        "rho": "(0 1 3 2)",
        "sachs_ok": True,
    }


def test_check_malformed_input(monkeypatch, capsys):
    code, out, err = run_cli(["check"], "Ch\nC!!!\n", monkeypatch, capsys)
    assert code == 2
    assert "line 2" in err


def test_check_missing_file(monkeypatch, capsys):
    code, _, err = run_cli(["check", "/no/such/file"], "", monkeypatch, capsys)
    assert code == 2
    assert err


def test_check_non_ascii_line_is_an_input_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "graphs.g6"
    path.write_bytes(b"Ch\n\xc3\xa9\n")
    code, out, err = run_cli(["check", str(path)], "", monkeypatch, capsys)
    assert code == 2
    assert out == "self-complementary: yes, rho=(0 1 3 2), sachs=ok\n"
    assert err.startswith("line 2: ") and err.count("\n") == 1


def test_minor_plain_and_json(monkeypatch, capsys):
    code, out, _ = run_cli(["minor"], "Ch\n", monkeypatch, capsys)
    assert code == 0
    assert "rho=(0 1 3 2)" in out
    assert '{"k": 2, "branch_sets": [[0, 1], [2, 3]]}' in out

    code, out, _ = run_cli(["minor", "--json"], "Dhc\n", monkeypatch, capsys)
    assert code == 0
    data = json.loads(out)
    assert data["self_complementary"] is True
    assert data["model"] == {"k": 3, "branch_sets": [[1, 2], [3, 4], [0]]}


def test_minor_not_sc(monkeypatch, capsys):
    code, out, _ = run_cli(["minor"], "C~\n", monkeypatch, capsys)
    assert code == 1
    assert out.strip() == "not self-complementary"


def test_hadwiger_verb(monkeypatch, capsys):
    code, out, _ = run_cli(["hadwiger", "--json"], "Ch\n", monkeypatch, capsys)
    assert code == 0
    data = json.loads(out)
    assert data["hadwiger"] == 2 and data["exact"] is True
    assert data["witness"]["k"] == 2


def test_hadwiger_budget_flag(monkeypatch, capsys):
    g6 = write_graph6(sharp_4n(2))
    code, out, _ = run_cli(
        ["hadwiger", "--budget", "10"], g6 + "\n", monkeypatch, capsys
    )
    assert code == 3
    assert "budget exhausted" in out


@pytest.mark.parametrize("verb", ["hadwiger", "topo"])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_non_positive_budget_is_a_usage_error(verb, budget, monkeypatch, capsys):
    code, out, err = run_cli([verb, "--budget", budget], "Dhc\n", monkeypatch, capsys)
    assert code == 2 and out == ""
    assert err == f"budget must be positive, got {budget}\n"


@pytest.mark.parametrize(
    "argv, budget_env, err",
    [
        (
            ["verify-theorem", "--n", "7"],
            None,
            "enumeration supports n in (1, 4, 5, 8, 9, 12, 13), got 7\n",
        ),
        (
            ["gen", "--random", "--n", "8", "--count", "0"],
            None,
            "--count must be positive, got 0\n",
        ),
        (
            ["enum", "--n", "6"],
            None,
            "enumeration supports n in (1, 4, 5, 8, 9, 12, 13), got 6\n",
        ),
        (
            ["gen", "--family", "sharp4n", "--n", "2", "--count", "3"],
            None,
            "--count and --seed apply to --random only\n",
        ),
        # a stale SCMINOR_BUDGET is not read, so it cannot mask the --apex error
        (["topo", "--apex", "9"], "banana", "--apex must be in 0..3, got 9\n"),
        (
            ["gen", "--family", "sharp4n1", "--n", "0", "--count", "3", "--seed", "9"],
            None,
            "--count and --seed apply to --random only\n",
        ),
        (
            ["gen", "--family", "sharp4n", "--n", "2", "--seed", "0"],
            None,
            "--count and --seed apply to --random only\n",
        ),
    ],
)
def test_errors_from_no_input_line_have_no_line_prefix(argv, budget_env, err, monkeypatch, capsys):
    if budget_env is not None:
        monkeypatch.setenv("SCMINOR_BUDGET", budget_env)
    code, out, got = run_cli(argv, "Dhc\n", monkeypatch, capsys)
    assert (code, out, got) == (2, "", err)


def test_a_missing_input_file_is_an_error_without_a_line_prefix(tmp_path, monkeypatch, capsys):
    missing = tmp_path / "missing.g6"
    code, out, err = run_cli(["check", str(missing)], "", monkeypatch, capsys)
    assert code == 2 and out == ""
    assert err.startswith("[Errno 2] ") and err.endswith(f"'{missing}'\n") and err.count("\n") == 1


def test_gen_family(monkeypatch, capsys):
    code, out, _ = run_cli(["gen", "--family", "sharp4n", "--n", "2"], "", monkeypatch, capsys)
    assert code == 0
    assert out.strip() == write_graph6(sharp_4n(2))


def test_gen_random_defaults_to_one_graph_from_seed_zero(monkeypatch, capsys):
    code, out, _ = run_cli(["gen", "--random", "--n", "12"], "", monkeypatch, capsys)
    assert (code, out) == (0, write_graph6(random_sc(12, 0)) + "\n")


def test_stale_budget_environment_variable_is_ignored(monkeypatch, capsys):
    # the budget is --budget or the default; no environment variable sets it
    monkeypatch.setenv("SCMINOR_BUDGET", "10")
    g6 = write_graph6(sharp_4n(2))
    code, out, _ = run_cli(["hadwiger"], g6 + "\n", monkeypatch, capsys)
    assert code == 0 and out.startswith("hadwiger: 4\n")


def test_gen_family_invalid_parameter(monkeypatch, capsys):
    code, _, err = run_cli(["gen", "--family", "sharp4n", "--n", "0"], "", monkeypatch, capsys)
    assert code == 2 and err


@pytest.mark.parametrize(
    "args",
    [["--family", "sharp4n", "--n", "16"], ["--random", "--n", "64"]],
)
def test_gen_beyond_the_graph6_cap_is_an_input_error(args, monkeypatch, capsys):
    # Both build a 64-vertex graph, which graph6's short form cannot hold.
    code, out, err = run_cli(["gen", *args], "", monkeypatch, capsys)
    assert code == 2 and out == ""
    assert err == "graph6 short form supports n <= 62, got 64\n"


@pytest.mark.parametrize(
    "args, err",
    [
        (["--n", "7"], "self-complementary graphs need n = 4k or 4k+1, got 7\n"),
        (["--n", "64", "--count", "3"], "graph6 short form supports n <= 62, got 64\n"),
        (["--n", "0"], "self-complementary generators need n >= 1, got 0\n"),
    ],
    ids=["n7", "n64", "n0"],
)
def test_gen_random_errors_print_one_line_and_no_graph(args, err, monkeypatch, capsys):
    # gen builds each graph only when its line is due, so the error surfaces
    # while main prints; it must still be an input error, not a traceback
    assert run_cli(["gen", "--random", *args], "", monkeypatch, capsys) == (2, "", err)


def test_gen_builds_each_graph_when_its_line_is_due(monkeypatch):
    log = []

    def logged_random_sc(n, seed):
        log.append("build")
        return random_sc(n, seed)

    class LoggedStdout(io.StringIO):
        def write(self, text):
            if text.strip():
                log.append("line")
            return super().write(text)

    monkeypatch.setattr(scminor.generators, "random_sc", logged_random_sc)
    monkeypatch.setattr(sys, "stdout", LoggedStdout())
    assert main(["gen", "--random", "--n", "8", "--count", "3"]) == 0
    assert log == ["build", "line"] * 3


def test_a_closed_stdout_ends_the_run_with_exit_code_0(monkeypatch):
    # as when the reader of `gen ... | head -1` has gone
    class ClosedStdout(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    assert main(["gen", "--random", "--n", "8", "--count", "3"]) == 0


def test_gen_random_deterministic(monkeypatch, capsys):
    args = ["gen", "--random", "--n", "12", "--count", "3", "--seed", "7"]
    code, out1, _ = run_cli(args, "", monkeypatch, capsys)
    assert code == 0
    code, out2, _ = run_cli(args, "", monkeypatch, capsys)
    assert out1 == out2
    lines = out1.splitlines()
    assert len(lines) == 3
    for line in lines:
        assert parse_graph6(line).n == 12


def test_enum_verb(monkeypatch, capsys):
    code, out, _ = run_cli(["enum", "--n", "5"], "", monkeypatch, capsys)
    assert code == 0
    graphs = [parse_graph6(line) for line in out.splitlines()]
    assert len(graphs) == 2


@pytest.mark.parametrize("n", ["12", "13"])
def test_enum_large_sizes_name_the_cli_flag(n, capsys):
    # enum runs every supported size unasked, so --allow-large is no option
    with pytest.raises(SystemExit) as exc:
        main(["enum", "--n", n, "--allow-large"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_topo_verb(monkeypatch, capsys):
    code, out, _ = run_cli(["topo", "--apex", "1"], "Dhc\n", monkeypatch, capsys)
    assert code == 0
    assert out.strip() == (
        "outerplanar=yes planar=yes il=none ik=none apex0=yes apex1=yes"
    )
    code, out, _ = run_cli(["topo", "--json", "--apex", "0"], "Dhc\n", monkeypatch, capsys)
    data = json.loads(out)
    assert data["planar"] is True
    assert data["il_certificate"]["status"] == "none_found"
    assert data["apex_numbers"] == {"0": True}


def test_gen_and_enum_json_mode(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["gen", "--family", "sharp4n", "--n", "2", "--json"], "", monkeypatch, capsys
    )
    assert code == 0
    assert json.loads(out) == {"graph6": write_graph6(sharp_4n(2))}
    code, out, _ = run_cli(["enum", "--n", "4", "--json"], "", monkeypatch, capsys)
    assert code == 0
    assert parse_graph6(json.loads(out)["graph6"]).n == 4


def test_plain_and_json_verdicts_agree(monkeypatch, capsys):
    for line, expected in (("Ch\n", True), ("C~\n", False)):
        _, plain_out, _ = run_cli(["check"], line, monkeypatch, capsys)
        _, json_out, _ = run_cli(["check", "--json"], line, monkeypatch, capsys)
        assert plain_out.startswith("self-complementary: yes") == expected
        assert json.loads(json_out)["self_complementary"] == expected


def test_verify_theorem_small(monkeypatch, capsys):
    code, out, _ = run_cli(["verify-theorem", "--n", "9"], "", monkeypatch, capsys)
    assert code == 0
    assert out.strip() == "36 graphs, 36/36 K5-minor certificates verified"


def test_verify_theorem_covers_every_class_at_13(monkeypatch, capsys):
    # enumerate_sc is looked up on scminor.cli with n as its one argument;
    # the classes come from the session's cached enumeration
    calls = []

    def cached_enumerate_sc(*args):
        calls.append(args)
        return list(sc_classes(*args))

    monkeypatch.setattr(scminor.cli, "enumerate_sc", cached_enumerate_sc)
    code, out, _ = run_cli(["verify-theorem", "--n", "13", "--json"], "", monkeypatch, capsys)
    assert (code, calls) == (0, [(13,)])
    assert json.loads(out) == {
        "n": 13,
        "graphs": 5600,
        "verified": 5600,
        "clique_order": 7,
        "ok": True,
    }


def test_verify_theorem_never_samples(monkeypatch, capsys):
    def no_random_sc(n, seed):
        raise AssertionError("verify-theorem drew a random graph")

    monkeypatch.setattr(scminor.generators, "random_sc", no_random_sc)
    code, out, _ = run_cli(["verify-theorem", "--n", "12"], "", monkeypatch, capsys)
    assert (code, out) == (0, "720 graphs, 720/720 K6-minor certificates verified\n")


@pytest.mark.parametrize("option", ["--samples", "--seed"])
def test_verify_theorem_has_no_sampling_options(option, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify-theorem", "--n", "12", option, "3"], "", monkeypatch, capsys)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} 3" in capsys.readouterr().err


def test_verify_theorem_bad_n(monkeypatch, capsys):
    code, _, err = run_cli(["verify-theorem", "--n", "6"], "", monkeypatch, capsys)
    assert code == 2 and err


@pytest.mark.parametrize("count", ["0", "-2"])
def test_gen_rejects_an_empty_random_count(count, monkeypatch, capsys):
    code, out, err = run_cli(
        ["gen", "--random", "--n", "8", "--count", count], "", monkeypatch, capsys
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--count" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_console_script_pipeline():
    gen = subprocess.run(
        [sys.executable, "-m", "scminor.cli", "gen", "--family", "sharp4n1", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert gen.returncode == 0
    check = subprocess.run(
        [sys.executable, "-m", "scminor.cli", "check"],
        input=gen.stdout,
        capture_output=True,
        text=True,
    )
    assert check.returncode == 0
    assert check.stdout.startswith("self-complementary: yes")


def test_check_and_minor_do_not_import_networkx():
    script = (
        "import sys\n"
        "import scminor.cli\n"
        "assert 'networkx' not in sys.modules\n"
        "code = scminor.cli.main(['topo', '--apex', '0'])\n"
        # edge counts settle P4 and random_sc(13, 1); sharp_4n(2), 8 vertices
        # and 14 edges, is left to the planarity test
        "assert 'networkx' not in sys.modules\n"
        "import io\n"
        "from scminor import random_sc, sharp_4n, write_graph6\n"
        "sys.stdin = io.StringIO(write_graph6(random_sc(13, 1)) + '\\n')\n"
        "code |= scminor.cli.main(['topo', '--apex', '2'])\n"
        "assert 'networkx' not in sys.modules\n"
        "sys.stdin = io.StringIO(write_graph6(sharp_4n(2)) + '\\n')\n"
        "code |= scminor.cli.main(['topo'])\n"
        "assert 'networkx' not in sys.modules\n"
        "sys.exit(code)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script], input="Ch\n", capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("outerplanar=yes planar=yes ")


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ([], ["scminor"]),
        (["check"], ["scminor", "scminor.antimorphism", "scminor.cli", "scminor.graphs"]),
        (
            ["minor"],
            [
                "scminor",
                "scminor.antimorphism",
                "scminor.cli",
                "scminor.construction",
                "scminor.graphs",
            ],
        ),
    ],
    ids=["import", "check", "minor"],
)
def test_a_fresh_process_loads_only_the_modules_its_verb_runs(argv, loaded):
    script = "import sys\nbefore = set(sys.modules)\nimport scminor\n"
    if argv:
        script += f"import scminor.cli\nassert scminor.cli.main({argv!r}) == 0\n"
    if "scminor.construction" not in loaded:
        # antimorphism's records are NamedTuples, so dataclasses stays out
        script += "assert 'dataclasses' in before or 'dataclasses' not in sys.modules\n"
    script += "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scminor'))\n"
    run = subprocess.run(
        [sys.executable, "-c", script], input="Ch\n", capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == repr(loaded)


@pytest.mark.parametrize(
    ("verb", "loaded"),
    [
        ("check", "scminor scminor.antimorphism scminor.cli scminor.graphs"),
        ("minor", "scminor scminor.antimorphism scminor.cli scminor.construction scminor.graphs"),
    ],
)
def test_importtime_reports_every_module_a_verb_loads(verb, loaded):
    # the modules a verb imports on first use must show up where CI counts them
    script = f"import scminor.cli\nassert scminor.cli.main([{verb!r}]) == 0\n"
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", script],
        input="Ch\n",
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    names = {line.rpartition("|")[2].strip() for line in run.stderr.splitlines()}
    assert " ".join(sorted(m for m in names if m.partition(".")[0] == "scminor")) == loaded


def test_topology_runs_where_networkx_cannot_be_imported():
    # sys.modules[name] = None makes every import of that name fail
    script = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "import io\n"
        "import scminor.cli\n"
        "from scminor import Graph, complete_bipartite, complete_graph, is_n_apex\n"
        "from scminor import nonouterplanarity_witness, nonplanarity_witness\n"
        "from scminor import sharp_4n, write_graph6\n"
        "sys.stdin = io.StringIO(write_graph6(sharp_4n(2)) + '\\n')\n"
        "assert scminor.cli.main(['topo']) == 0\n"
        "assert is_n_apex(complete_bipartite(3, 3), 1) == (True, frozenset({0}))\n"
        "assert is_n_apex(sharp_4n(2), 0) == (True, frozenset())\n"
        # K3,3 with every edge a path of three edges: 24 vertices, 27 edges
        "edges, n = [], 6\n"
        "for u, v in complete_bipartite(3, 3).edges():\n"
        "    walk = [u, n, n + 1, v]\n"
        "    edges += zip(walk, walk[1:])\n"
        "    n += 2\n"
        "w = nonplanarity_witness(Graph(n, edges))\n"
        "assert (w.status, w.target) == ('certificate', 'K3,3'), w\n"
        "w = nonouterplanarity_witness(complete_graph(4))\n"
        "assert (w.status, w.target) == ('certificate', 'K4'), w\n"
    )
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (
        "outerplanar=no planar=yes il=none ik=none apex0=yes apex1=yes apex2=yes\n"
    )


def test_topo_apex_3_on_a_61_vertex_sc_graph_needs_no_apex_search(monkeypatch, capsys):
    calls = []
    search = scminor.topology.is_n_apex

    def counted(g, j):
        calls.append(j)
        return search(g, j)

    monkeypatch.setattr(scminor.topology, "is_n_apex", counted)
    code, out, _ = run_cli(
        ["topo", "--apex", "3", "--json"],
        write_graph6(random_sc(61, 1)) + "\n",
        monkeypatch,
        capsys,
    )
    assert code == 0
    assert json.loads(out)["apex_numbers"] == {str(j): False for j in range(4)}
    # the one call is the planarity test at j = 0: no deletion set is searched
    assert calls == [0]


def test_topo_settles_k6_and_k7_on_an_apex_host_above_the_oracle_cap(monkeypatch, capsys):
    # vertex 0 joined to all of a maximal planar graph on 1..19 (a strip of
    # triangles, and vertex 1 joined to the far side of it): not SC (70
    # edges, not 95), not planar (more than 3n - 6 = 54 edges), and planar
    # once vertex 0 is gone.  Above the oracle's 13-vertex cap only the apex
    # search can refute K6 and K7; before it, both were indeterminate (exit 3).
    base = [(v, v + 1) for v in range(1, 19)] + [(v, v + 2) for v in range(1, 18)]
    base += [(1, v) for v in range(4, 20)]
    g = scminor.Graph(20, base + [(0, v) for v in range(1, 20)])
    assert g.num_edges == 70 and scminor.is_n_apex(g, 1) == (True, frozenset({0}))
    code, out, _ = run_cli(["topo", "--json"], write_graph6(g) + "\n", monkeypatch, capsys)
    assert code == 0
    data = json.loads(out)
    assert data["il_certificate"] == {"status": "none_found", "target": "K6", "model": None}
    assert data["ik_certificate"] == {"status": "none_found", "target": "K7", "model": None}
    assert data["planar"] is False
    assert data["apex_numbers"] == {"0": False, "1": True, "2": True}


def test_topo_exit_code_is_the_worst_over_the_input(monkeypatch, capsys):
    # K8 plus six isolated vertices: above the oracle's 13-vertex cap, not SC
    # and not 2-apex, so neither certificate can be settled
    k8_plus_6 = "M~~~~{???????????"
    assert parse_graph6(k8_plus_6).num_edges == 28
    code, out, err = run_cli(["topo"], f"Dhc\n{k8_plus_6}\n", monkeypatch, capsys)
    assert code == 3 and err == ""
    assert out == (
        "outerplanar=yes planar=yes il=none ik=none apex0=yes apex1=yes apex2=yes\n"
        "outerplanar=no planar=no il=indeterminate ik=indeterminate "
        "apex0=no apex1=no apex2=no\n"
    )


@pytest.mark.parametrize("apex", ["4", "-1"])
def test_topo_apex_out_of_range_is_a_usage_error(apex, monkeypatch, capsys):
    code, out, err = run_cli(["topo", "--apex", apex], "Dhc\n", monkeypatch, capsys)
    assert code == 2 and out == ""
    assert err == f"--apex must be in 0..3, got {apex}\n"


@pytest.mark.parametrize("verb", ["check", "minor", "hadwiger", "topo"])
def test_blank_lines_between_graphs_are_skipped(verb, monkeypatch, capsys):
    _, expected, _ = run_cli([verb], "Ch\nDhc\n", monkeypatch, capsys)
    code, out, err = run_cli([verb], "\nCh\n\n \t\r\nDhc\n\n", monkeypatch, capsys)
    assert code == 0 and err == ""
    assert out == expected


@pytest.mark.parametrize(
    "data, verb, out, err",
    [
        (b"C\x1e\n", "check", "", "line 1: invalid graph6 byte '\\x1e' (byte offset 1)\n"),
        (
            b"C~\x1e\n",
            "hadwiger",
            "",
            "line 1: expected 1 data bytes for n=4, got 2 (byte offset 3)\n",
        ),
        (
            b"Ch\n\x1f\nDhc\n",
            "check",
            "self-complementary: yes, rho=(0 1 3 2), sachs=ok\n",
            "line 2: invalid vertex-count byte '\\x1f' (byte offset 0)\n",
        ),
    ],
)
def test_control_bytes_in_a_graph6_line_are_input_errors(
    data, verb, out, err, tmp_path, monkeypatch, capsys
):
    # only ASCII whitespace is stripped; 0x1c-0x1f are not graph6 bytes
    path = tmp_path / "graphs.g6"
    path.write_bytes(data)
    assert run_cli([verb, str(path)], "", monkeypatch, capsys) == (2, out, err)


def test_console_script_entrypoint():
    run = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys\n"
            "from scminor.cli import entrypoint\n"
            "sys.argv = ['scminor', 'check']\n"
            "entrypoint()\n",
        ],
        input="Ch\n",
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "self-complementary: yes, rho=(0 1 3 2), sachs=ok\n"
