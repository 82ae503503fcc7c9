"""Byte-exact stdout and exit codes of the witness-printing verbs, and of
the verbs that print graph6 lines or a whole-class summary.

The other CLI tests compare parsed JSON, so they cannot see a change in key
order, spacing or line layout.  These pin the bytes themselves.  Longer
outputs are pinned by their sha256: the class order of ``enum`` and the
``random_sc`` draws behind ``gen --random``, which the benchmark inputs are
built from.
"""

import hashlib
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


# sha256 of stdout: a change reorders the classes of enum or changes the
# random_sc draws that the benchmark's certify and census inputs come from
DIGESTS = [
    (["enum", "--n", "8"], "f14519a8c90a9e292ffc926ccc9354ea03806347aa1fcee241c9aa88b103ec5e"),
    (["enum", "--n", "9"], "c72e3c17960c43c2496b5f595d61762d8c05d3286a09314d1ade1a389f86fb84"),
    (
        ["enum", "--n", "12"],
        "dae914a2906bdae0ae951c2639453ec1a7b01f6b20057344c5f0c89b986f425b",
    ),
] + [
    (["gen", "--random", "--n", str(n), "--count", "20", "--seed", "0"], digest)
    for n, digest in (
        (4, "2767bad904920f7acf79a0a18ed289ae62ee1ca89ecb0ed592d765ebe1cfd9cc"),
        (5, "e39bf93182b3159a419fb8420ce672adda1a80059857f5ab214509cbdaff41c5"),
        (8, "344caa983ad1c7788958b05edfc369b076beb6c5407d3d71a4abcd2ef2f7ebd7"),
        (9, "261fd1f0184159524893439fb85738320f4dae434b182f6c93fde6d2d34c0acd"),
        (12, "7ad57c274a8b7e6fcb09a9b346f4c8e5942202828005da2c75a529aa29f9838e"),
        (13, "bef5cc759c8fcecee2d2be5f09df3c30d0ccb2e28eb4924500d87901a9ca7de6"),
        (16, "16fc7eca6a9c359647e1ac589ff150cfe107d16fca61561c44ae7521f908fa52"),
        (17, "5615182e7ba020329fc8b5df716b70e80d0d9eebce67499fcc90e5305e25682b"),
        (20, "976ba4d29efe451be55caf01ab0e6afc24bfac6fd66e70a13aec17bae2cb03c3"),
        (21, "335027579bd78337cb20693977fd63c5302a9ce05615e7360dff90a40fc553a5"),
        (41, "05abb6bd6ed8a1b8858e287201c956bb2e1c296c03831d009905e71a41de862a"),
        (61, "31b18f0bda9500e7669907fdc2aef36f6389929ea7415cd09b491a60ecff1b82"),
    )
]


@pytest.mark.parametrize("argv, digest", DIGESTS, ids=[" ".join(argv) for argv, _ in DIGESTS])
def test_golden_stdout_digest(argv, digest, capsys):
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
