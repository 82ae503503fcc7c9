"""Command-line interface: graph6 in, verdicts and JSON out.

Verbs: check, minor, hadwiger, gen, enum, topo, verify-theorem.  Graph
input is one graph6 string per line, from a file argument or stdin.
``enum`` and ``verify-theorem`` take every size that ``enumerate_sc``
supports, n = 12 and 13 included (seconds each), and state its size rule
for any other; ``verify-theorem`` checks the guaranteed minor on every
self-complementary class of its size.  ``gen`` takes ``--count`` and
``--seed`` with ``--random`` only.  The oracle budget of ``hadwiger`` and
``topo`` is ``--budget``, else 10^8.  Exit codes: 0 success, 1 negative
verdict (e.g. not self-complementary), 2 usage or input error, 3 oracle
budget exhausted or, for ``topo``, a certificate left indeterminate
because the host has more than ``ORACLE_HOST_CAP`` (13) vertices.  An
exhausted ``hadwiger`` reports ``expansions`` as the budget plus one: the
expansion that crossed the budget is counted.

Each verb returns or yields ``(payload, text, exit code)`` answers; ``main``
prints them one by one, so ``gen`` prints each graph as it is built.  Only
``graphs`` and ``antimorphism`` are imported with this module; a verb
imports any other module when it first runs, so ``check`` loads no other
and ``minor`` adds only ``construction``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Iterable, Iterator
from functools import partial

from .graphs import (
    DEFAULT_BUDGET,
    GRAPH6_WHITESPACE,
    CapacityError,
    Graph,
    Graph6Error,
    parse_graph6,
    write_graph6,
)
from .antimorphism import check_sachs, cycle_decomposition, find_antimorphism

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

Answer = tuple[dict, str, int]
"""One answer: its JSON payload, its plain text, and its exit code."""


def _on_demand(module: str, name: str) -> Callable:
    """A function that imports ``module`` when called and calls its ``name``.

    ``__import__`` is the import statement's own path, which
    ``python -X importtime`` reports; ``importlib.import_module`` is not."""

    def call(*args, **kwargs):
        return getattr(__import__(module, globals(), None, (name,), 1), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


# The verbs call these through this module's attributes, where
# bench/spans.py wraps them as it does the eagerly imported functions.
build_plan = _on_demand("construction", "build_plan")
realize_minor = _on_demand("construction", "realize_minor")
hadwiger = _on_demand("oracle", "hadwiger")
enumerate_sc = _on_demand("generators", "enumerate_sc")
report = _on_demand("topology", "report")


class _InputError(Exception):
    """A usage or input error; ``lineno`` is the input line at fault, if any."""

    def __init__(self, message: str, lineno: int | None = None):
        super().__init__(message)
        self.lineno = lineno


def _iter_graphs(path: str) -> Iterator[Graph]:
    """Yield the graph on each non-blank line, decoding line by line.

    A file, or a real stdin, is read as bytes and each line is decoded on its
    own, so the lines before a non-ASCII one are still answered and the bad
    line is reported by number.  A text stream put in place of stdin is read
    as it is.  Only ASCII whitespace around a line is ignored.
    """
    if path == "-":
        stream = getattr(sys.stdin, "buffer", sys.stdin)
        close = False
    else:
        try:
            stream = open(path, "rb")
        except OSError as exc:
            raise _InputError(str(exc)) from exc
        close = True
    try:
        for lineno, raw in enumerate(stream, 1):
            try:
                line = raw.decode("ascii") if isinstance(raw, bytes) else raw
            except UnicodeDecodeError as exc:
                raise _InputError(
                    f"non-ASCII byte 0x{raw[exc.start]:02x} at column {exc.start + 1}",
                    lineno,
                ) from exc
            line = line.strip(GRAPH6_WHITESPACE)
            if not line:
                continue
            try:
                yield parse_graph6(line)
            except (Graph6Error, CapacityError) as exc:
                raise _InputError(str(exc), lineno) from exc
    finally:
        if close:
            stream.close()


def _answer_each(
    answer: Callable[[Graph, argparse.Namespace], Answer], args: argparse.Namespace
) -> Iterator[Answer]:
    """Run a per-graph verb: ``answer`` on each input graph, in input order.

    ``--budget`` and ``--apex`` are checked before the first line is read."""
    if "budget" in args and args.budget <= 0:
        raise _InputError(f"budget must be positive, got {args.budget}")
    if "apex" in args:
        from .topology import APEX_CAP

        if not 0 <= args.apex <= APEX_CAP:
            raise _InputError(f"--apex must be in 0..{APEX_CAP}, got {args.apex}")
    return (answer(g, args) for g in _iter_graphs(args.input))


def cmd_check(g: Graph, args: argparse.Namespace) -> Answer:
    rho = find_antimorphism(g)
    if rho is None:
        payload = {"n": g.n, "self_complementary": False}
        return payload, "self-complementary: no", EXIT_NEGATIVE
    fault = check_sachs(cycle_decomposition(rho))
    notation = rho.cycle_notation()
    return (
        {"n": g.n, "self_complementary": True, "rho": notation, "sachs_ok": fault is None},
        f"self-complementary: yes, rho={notation}, sachs={fault or 'ok'}",
        EXIT_OK,
    )


def cmd_minor(g: Graph, args: argparse.Namespace) -> Answer:
    rho = find_antimorphism(g)
    if rho is None:
        payload = {"self_complementary": False, "model": None}
        return payload, "not self-complementary", EXIT_NEGATIVE
    plan = build_plan(g, rho)
    model = realize_minor(g, plan)
    notation = rho.cycle_notation()
    lines = [f"rho={notation}"]
    for part in plan.per_cycle:
        cyc = " ".join(str(v) for v in part.cycle)
        edges = " ".join(f"({u} {v})" for u, v in part.matching)
        lines.append(
            f"cycle ({cyc}): generator {part.generator}, shift 1, contract {edges}"
        )
    if plan.fixed_vertex is not None:
        lines.append(f"fixed vertex: {plan.fixed_vertex}")
    lines.append(model.to_json())
    return (
        {"self_complementary": True, "rho": notation, "model": model.to_json_dict()},
        "\n".join(lines),
        EXIT_OK,
    )


def cmd_hadwiger(g: Graph, args: argparse.Namespace) -> Answer:
    outcome = hadwiger(g, args.budget)
    witness = outcome.witness
    if outcome.exact:
        plain = f"hadwiger: {outcome.value}"
    else:
        plain = (
            f"hadwiger: >= {outcome.value} (budget exhausted, "
            f"upper bound {outcome.upper_bound})"
        )
    if witness is not None:
        plain += f"\nwitness: {witness.to_json()}"
    return (
        {
            "hadwiger": outcome.value,
            "exact": outcome.exact,
            "upper_bound": outcome.upper_bound,
            "expansions": outcome.expansions,
            "witness": None if witness is None else witness.to_json_dict(),
        },
        plain,
        EXIT_OK if outcome.exact else EXIT_BUDGET,
    )


def _cert_text(c) -> str:
    from .topology import CERTIFICATE, NONE_FOUND

    if c.status == CERTIFICATE:
        return c.target
    return "none" if c.status == NONE_FOUND else c.status


def cmd_topo(g: Graph, args: argparse.Namespace) -> Answer:
    from .topology import INDETERMINATE

    rep = report(g, args.apex, args.budget)
    apex_text = " ".join(
        f"apex{j}={'yes' if v else 'no'}" for j, v in enumerate(rep.apex_numbers)
    )
    indeterminate = INDETERMINATE in (rep.il_certificate.status, rep.ik_certificate.status)
    return (
        rep.to_json_dict(),
        f"outerplanar={'yes' if rep.outerplanar else 'no'} "
        f"planar={'yes' if rep.planar else 'no'} "
        f"il={_cert_text(rep.il_certificate)} "
        f"ik={_cert_text(rep.ik_certificate)} "
        f"{apex_text}",
        EXIT_BUDGET if indeterminate else EXIT_OK,
    )


def _graph6_answers(graphs: Iterable[Graph]) -> Iterator[Answer]:
    """Each graph's graph6 line, each graph built only when its line is due.

    A graph that cannot be built (a ``ValueError``) or written in graph6's
    short form is an input error."""
    try:
        for g in graphs:
            text = write_graph6(g)
            yield {"graph6": text}, text, EXIT_OK
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def cmd_gen(args: argparse.Namespace) -> Iterator[Answer]:
    from .generators import random_sc, sharp_4n, sharp_4n_plus_1

    # every graph is built lazily, so a bad --n reaches _graph6_answers
    if not args.random:
        if args.count is not None or args.seed is not None:
            raise _InputError("--count and --seed apply to --random only")
        family = sharp_4n if args.family == "sharp4n" else sharp_4n_plus_1
        return _graph6_answers(map(family, [args.n]))
    count = 1 if args.count is None else args.count
    seed = 0 if args.seed is None else args.seed
    if count < 1:
        raise _InputError(f"--count must be positive, got {count}")
    return _graph6_answers(random_sc(args.n, seed + i) for i in range(count))


def _enumerate(n: int) -> list[Graph]:
    """``enumerate_sc(n)``, with its size rule turned into an input error."""
    try:
        return enumerate_sc(n)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def cmd_enum(args: argparse.Namespace) -> Iterator[Answer]:
    return _graph6_answers(_enumerate(args.n))


def cmd_verify_theorem(args: argparse.Namespace) -> list[Answer]:
    from .construction import guaranteed_minor

    n = args.n
    graphs = _enumerate(n)
    order = (n + 1) // 2
    verified = sum(1 for g in graphs if guaranteed_minor(g) is not None)
    ok = verified == len(graphs)
    payload = dict(n=n, graphs=len(graphs), verified=verified, clique_order=order, ok=ok)
    text = f"{len(graphs)} graphs, {verified}/{len(graphs)} K{order}-minor certificates verified"
    return [(payload, text, EXIT_OK if ok else EXIT_NEGATIVE)]


def _add_input(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "input",
        nargs="?",
        default="-",
        help="file with one graph6 string per line (default: stdin)",
    )


def _add_json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit one JSON object per line")


def _add_budget(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="oracle expansion budget (default: 10^8)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scminor",
        description="Complete-minor certificates and topology reports for "
        "self-complementary graphs.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb, help_text, answer in (
        ("check", "decide self-complementarity, print rho", cmd_check),
        ("minor", "build the guaranteed clique-minor model", cmd_minor),
        ("hadwiger", "largest complete minor, with witness", cmd_hadwiger),
    ):
        p = sub.add_parser(verb, help=help_text)
        _add_input(p)
        _add_json(p)
        if answer is cmd_hadwiger:
            _add_budget(p)
        p.set_defaults(func=partial(_answer_each, answer))

    p = sub.add_parser("gen", help="emit generated graphs as graph6")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--family",
        choices=("sharp4n", "sharp4n1"),
        help="sharpness family (--n is the family parameter)",
    )
    group.add_argument(
        "--random",
        action="store_true",
        help="random self-complementary graphs (--n is the vertex count)",
    )
    p.add_argument("--n", type=int, required=True)
    # None marks an option left out, which --family requires
    p.add_argument("--count", type=int, help="graphs to emit (random only)")
    p.add_argument("--seed", type=int)
    _add_json(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "enum", help="every self-complementary graph on n vertices, one per class"
    )
    p.add_argument("--n", type=int, required=True)
    _add_json(p)
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("topo", help="outerplanarity/planarity/IL/IK/apex report")
    _add_input(p)
    p.add_argument(
        "--apex", type=int, default=2, help="test j-apex for j = 0..APEX (default 2)"
    )
    _add_json(p)
    _add_budget(p)
    p.set_defaults(func=partial(_answer_each, cmd_topo))

    p = sub.add_parser(
        "verify-theorem",
        help="run the guaranteed-minor pipeline over a whole size class",
    )
    p.add_argument("--n", type=int, required=True)
    _add_json(p)
    p.set_defaults(func=cmd_verify_theorem)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv``, print the verb's answers, and return the worst of
    their exit codes (``EXIT_USAGE`` after an input error)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    code = EXIT_OK
    try:
        for payload, plain, answer_code in args.func(args):
            print(json.dumps(payload) if args.json else plain)
            code = max(code, answer_code)
    except _InputError as exc:
        where = "" if exc.lineno is None else f"line {exc.lineno}: "
        print(f"{where}{exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:  # the reader has gone, e.g. `gen ... | head -1`
        return EXIT_OK
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
