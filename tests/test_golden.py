"""Byte-exact stdout and exit codes of the witness-printing verbs, and of
the verbs that print graph6 lines or a whole-class summary.

The other CLI tests compare parsed JSON, so they cannot see a change in key
order, spacing or line layout.  These pin the bytes themselves.
"""

import io
import sys

import pytest

from scminor.cli import main

DHC = "Dhc"  # 5-vertex SC graph, rho = (0)(1 2 4 3)
SC13 = "LpZKpderKrEXTT"  # random_sc(13, 3)
SHARP8 = "G~r@`_"  # sharp_4n(2)

MODEL13 = '{"k": 7, "branch_sets": [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10, 11], [12]]}'

GOLDEN = [
    (
        ["minor"],
        DHC + "\nC~\n",
        1,
        "rho=(0)(1 2 4 3)\n"
        "cycle (1 2 4 3): generator 1, shift 1, contract (1 2) (4 3)\n"
        "fixed vertex: 0\n"
        '{"k": 3, "branch_sets": [[1, 2], [3, 4], [0]]}\n'
        "not self-complementary\n",
    ),
    (
        ["minor", "--json"],
        DHC + "\nC~\n",
        1,
        '{"self_complementary": true, "rho": "(0)(1 2 4 3)", '
        '"model": {"k": 3, "branch_sets": [[1, 2], [3, 4], [0]]}}\n'
        '{"self_complementary": false, "model": null}\n',
    ),
    (
        ["minor"],
        SC13 + "\n",
        0,
        "rho=(0 1 2 3)(4 5 6 7)(8 9 10 11)(12)\n"
        "cycle (0 1 2 3): generator 0, shift 1, contract (0 1) (2 3)\n"
        "cycle (4 5 6 7): generator 4, shift 1, contract (4 5) (6 7)\n"
        "cycle (8 9 10 11): generator 8, shift 1, contract (8 9) (10 11)\n"
        "fixed vertex: 12\n" + MODEL13 + "\n",
    ),
    (
        ["minor", "--json"],
        SC13 + "\n",
        0,
        '{"self_complementary": true, "rho": "(0 1 2 3)(4 5 6 7)(8 9 10 11)(12)", '
        '"model": ' + MODEL13 + "}\n",
    ),
    (
        ["hadwiger"],
        DHC + "\n",
        0,
        'hadwiger: 3\nwitness: {"k": 3, "branch_sets": [[0], [1], [2, 3, 4]]}\n',
    ),
    (
        ["hadwiger", "--json"],
        DHC + "\n",
        0,
        '{"hadwiger": 3, "exact": true, "upper_bound": 3, "expansions": 39, '
        '"witness": {"k": 3, "branch_sets": [[0], [1], [2, 3, 4]]}}\n',
    ),
    (
        ["hadwiger", "--budget", "10"],
        SHARP8 + "\n",
        3,
        "hadwiger: >= 3 (budget exhausted, upper bound 8)\n"
        'witness: {"k": 3, "branch_sets": [[0], [1], [2]]}\n',
    ),
    (
        ["hadwiger", "--json", "--budget", "10"],
        SHARP8 + "\n",
        3,
        '{"hadwiger": 3, "exact": false, "upper_bound": 8, "expansions": 11, '
        '"witness": {"k": 3, "branch_sets": [[0], [1], [2]]}}\n',
    ),
    (
        ["topo", "--json"],
        SC13 + "\n",
        0,
        '{"outerplanar": false, "planar": false, '
        '"il_certificate": {"status": "certificate", "target": "K6", "model": '
        '{"k": 6, "branch_sets": [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10, 11]]}}, '
        '"ik_certificate": {"status": "certificate", "target": "K7", "model": '
        + MODEL13
        + '}, "apex_numbers": {"0": false, "1": false, "2": false}}\n',
    ),
    (
        ["topo"],
        SC13 + "\n" + DHC + "\n",
        0,
        "outerplanar=no planar=no il=K6 ik=K7 apex0=no apex1=no apex2=no\n"
        "outerplanar=yes planar=yes il=none ik=none apex0=yes apex1=yes apex2=yes\n",
    ),
    (["gen", "--family", "sharp4n1", "--n", "1"], "", 0, "Dqo\n"),
    (
        ["gen", "--random", "--n", "8", "--count", "3", "--seed", "2"],
        "",
        0,
        "GIuPnG\nGpZKpc\nGMDqMw\n",
    ),
    (
        ["gen", "--random", "--n", "8", "--count", "3", "--seed", "2", "--json"],
        "",
        0,
        '{"graph6": "GIuPnG"}\n{"graph6": "GpZKpc"}\n{"graph6": "GMDqMw"}\n',
    ),
    (["enum", "--n", "5", "--json"], "", 0, '{"graph6": "DMS"}\n{"graph6": "D[S"}\n'),
    (
        ["verify-theorem", "--n", "9", "--json"],
        "",
        0,
        '{"n": 9, "graphs": 36, "verified": 36, "clique_order": 5, "ok": true}\n',
    ),
    (
        ["verify-theorem", "--n", "12", "--json"],
        "",
        0,
        '{"n": 12, "graphs": 720, "verified": 720, "clique_order": 6, "ok": true}\n',
    ),
]


@pytest.mark.parametrize(
    "argv, stdin_text, code, stdout",
    GOLDEN,
    ids=[" ".join(argv) + f" #{i}" for i, (argv, *_rest) in enumerate(GOLDEN)],
)
def test_golden_stdout(argv, stdin_text, code, stdout, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    assert main(argv) == code
    assert capsys.readouterr().out == stdout
