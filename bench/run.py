"""scminor benchmark: seeded workloads through the CLI, answers checked.

Usage, from the repository root:

    python3 bench/run.py [--workload certify|refute|hadwiger|census|all]
                         [--seed N] [--seconds S] [--trace 0|1] [--out FILE]

One process, one thread, one caller in a closed loop: each input is one
``scminor.cli.main([...])`` call (stdin holds the graph6 line, stdout is
captured), and the next starts after the previous returns.  The inputs are
built from the seed and written as graph6 before timing, then run in whole
passes for ``--seconds``.  Cheap inputs are called in every pass, heavy
ones once, and an input's latency is its best time over its calls.  With
``--trace 1`` every other pass records spans around scminor's public
functions, to report per-layer metrics and the tracing overhead.  The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics.  Exit code 0 iff every answer checked out; 2 when scminor cannot
be found under src/.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 7
TAIL_BEYOND = 10
# Inputs whose first call takes this share of the run or more are called
# once; the others are called in at least MIN_PASSES passes.
REPEAT_SHARE = 0.05
MIN_PASSES = 5
RAISED = -1

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
}
# Per-layer metrics that count work rather than time; they must repeat exactly.
COUNT_SUFFIXES = (".calls", ".expansions", ".assignments", ".classes", ".budget_exhausted", ".indeterminate", "_ratio", "_yield")


@dataclass
class Sample:
    """One call of one input: its exit code and stdout, and its seconds.

    ``spans`` is the call's window of the tracer's spans, for traced calls."""

    item: int
    result: tuple[int, str]
    seconds: float
    spans: slice | None = None


def call(item, tracer) -> tuple[int, str, float]:
    """Run one input through the program; returns exit code, stdout, seconds.

    An exception from the program gives exit code ``RAISED`` and its text."""
    import scminor.cli
    import scminor.graphs

    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(item.line + "\n"), io.StringIO()
    span = tracer.open("cli.main") if tracer and item.argv is not None else None
    start = time.perf_counter()
    try:
        if item.argv is None:
            form = scminor.graphs.canonical_form(scminor.graphs.parse_graph6(item.line))
            sys.stdout.write(form.decode("ascii"))
            rc = 0
        else:
            rc = scminor.cli.main(list(item.argv))
        out = sys.stdout.getvalue()
    except Exception as exc:  # the program failed on this input: report, keep going
        rc, out = RAISED, f"raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        if span is not None:
            tracer.close(span)
        sys.stdin, sys.stdout = saved
    return rc, out, elapsed


def run_pass(items, chosen, tracer, samples: list[Sample]) -> None:
    """One call of each chosen input, in order."""
    for index in chosen:
        if tracer:
            tracer.item = index
        first = len(tracer.spans) if tracer else 0
        rc, out, elapsed = call(items[index], tracer)
        window = slice(first, len(tracer.spans)) if tracer else None
        samples.append(Sample(index, (rc, out), elapsed, window))


def timed_passes(items, seconds: float, tracer=None) -> tuple[list[Sample], list[Sample], int]:
    """Passes over the inputs until the run has lasted ``seconds`` and made
    at least ``MIN_PASSES`` untraced passes.

    The first pass calls every input.  Later passes call only the inputs
    whose first call took under ``REPEAT_SHARE`` of the run, so each cheap
    input gets many calls spread over the whole run, and its best time is
    taken from them.  A heavy input is called once: its call already spans
    seconds of the machine's changing speed.  With a tracer, passes
    alternate between untraced and traced, so that both see the same
    machine, and the first traced pass also calls every input.  Returns the
    untraced and the traced samples, and the number of untraced passes."""
    untraced: list[Sample] = []
    traced: list[Sample] = []
    every = range(len(items))
    cheap = None
    passes = [0, 0]
    start = time.perf_counter()
    while True:
        if tracer is not None and passes[1] < passes[0]:
            tracer.install()
            try:
                run_pass(items, cheap if passes[1] else every, tracer, traced)
            finally:
                tracer.uninstall()
            passes[1] += 1
        else:
            run_pass(items, cheap if passes[0] else every, None, untraced)
            passes[0] += 1
            if cheap is None:
                cheap = [s.item for s in untraced if s.seconds < REPEAT_SHARE * seconds]
        done = time.perf_counter() - start >= seconds and passes[0] >= MIN_PASSES
        if done and (tracer is None or passes[1]):
            return untraced, traced, passes[0]


def best_samples(samples: list[Sample], count: int) -> list[Sample]:
    """Each input's fastest sample.  The other tenants of this machine slow
    it down for seconds at a time, and the best time discounts that."""
    best: list[Sample | None] = [None] * count
    for s in samples:
        if best[s.item] is None or s.seconds < best[s.item].seconds:
            best[s.item] = s
    return best


def setup_seconds(warmup) -> list[float]:
    """Fresh interpreters that import scminor and finish the warm-up input."""
    want = 1 if warmup.argv[0] == "check" else 0
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "probe.py"), str(SRC), str(want), *warmup.argv],
            input=warmup.line + "\n",
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=120,
        )
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    return samples


def program_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "scminor").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _checked(item, rc: int, out: str):
    """The input's own check, which must turn any output into an answer: an
    exception from it means output it could not read, a wrong answer."""
    from workloads import Answer

    if rc == RAISED:
        return Answer(out, False)
    try:
        return item.check(rc, out)
    except Exception as exc:  # malformed output: count it as failed, keep going
        return Answer(f"malformed output: {type(exc).__name__}: {exc}", False)


def check_answers(workload, samples: list[Sample]):
    """Check each input's first answer; every later call must repeat it exactly.

    Returns the answers, the error messages, and the numbers of calls made
    and of calls whose answer failed its check or differed from the first."""
    first: dict[int, tuple[int, str]] = {}
    for s in samples:
        first.setdefault(s.item, s.result)
    items = workload.items
    answers = [_checked(item, *first[i]) for i, item in enumerate(items)]
    errors = [f"{item.family}: {a.error}" for item, a in zip(items, answers) if a.error]
    errors += workload.cross_check([first[i][1] for i in range(len(items))])
    failed = 0
    for s in samples:
        differs = s.result != first[s.item]
        failed += differs or answers[s.item].error is not None
        if differs:
            errors.append(f"{items[s.item].family}: output differs between calls")
    return answers, errors, len(samples), failed


def end_to_end(workload, untraced: list[Sample], setup: list[float], answers) -> tuple[dict, dict]:
    """End-to-end metrics, and how the tail was taken."""
    items = workload.items
    best = sorted(s.seconds for s in best_samples(untraced, len(items)))
    tail_index = len(best) - 1 - TAIL_BEYOND
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(best),
        "latency_p50_ms": statistics.median(best) * 1e3,
        "latency_tail_ms": best[tail_index] * 1e3,
        "decided_ratio": sum(1 for a in answers if a.decided and not a.error) / len(items),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    families: dict[str, list[float]] = {}
    for s in best_samples(untraced, len(items)):
        families.setdefault(items[s.item].family, []).append(s.seconds * 1e3)
    shape = {
        "tail_percentile": 100 * (tail_index + 1) / len(best),
        "family_median_ms": {f: statistics.median(v) for f, v in sorted(families.items())},
    }
    return metrics, shape


def per_layer(tracer, traced: list[Sample], untraced: list[Sample], count: int) -> tuple[dict, list[str]]:
    """Per-layer metrics over each input's fastest traced call, and count
    mismatches: every traced call of an input must make the same calls with
    the same counts."""
    import spans

    errors = []
    shapes: dict[int, list] = {}
    for s in traced:
        shape = spans.call_shape(tracer.spans, s.spans)
        if shapes.setdefault(s.item, shape) != shape:
            errors.append(f"input {s.item}: calls or counts differ between traced calls")
    chosen = best_samples(traced, count)
    layer = spans.layer_metrics(tracer.spans, [i for s in chosen for i in range(*s.spans.indices(len(tracer.spans)))])
    layer["trace.wall_s"] = sum(s.seconds for s in chosen)
    layer["trace.untraced_wall_s"] = sum(s.seconds for s in best_samples(untraced, count))
    layer["trace.overhead_s"] = layer["trace.wall_s"] - layer["trace.untraced_wall_s"]
    return layer, errors


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    from workloads import ROADMAP_PINS, WORKLOADS

    workload = WORKLOADS[name](seed)
    text = "".join(item.line + "\n" for item in workload.items)
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-{seed}.g6").write_text(text, encoding="ascii")

    setup = setup_seconds(workload.warmup)
    rc, out, _ = call(workload.warmup, None)
    warm = _checked(workload.warmup, rc, out)

    tracer = spans.Tracer() if trace else None
    untraced, traced, passes = timed_passes(workload.items, seconds, tracer)
    if trace:
        tracer.write(OUT_DIR / f"spans-{name}-{seed}.jsonl")

    answers, errors, attempted, failed = check_answers(workload, untraced + traced)
    if warm.error:
        errors.append(f"warm-up input: {warm.error}")
    metrics, shape = end_to_end(workload, untraced, setup, answers)
    counts = {
        "inputs": len(workload.items),
        "expansions": sum(a.expansions for a in answers),
        "outputs_sha256": hashlib.sha256("\0".join(s.result[1] for s in best_samples(untraced, len(answers))).encode()).hexdigest(),
    }
    record = {
        "workload": name,
        "seed": seed,
        "inputs_sha256": digest,
        "program_sha256": program_digest(),
        "passes": passes,
        "untraced_calls": len(untraced),
        "setup_samples_s": setup,
        **shape,
        "error_ratio": sum(1 for a in answers if a.error) / len(answers),
        "metrics": metrics,
        "counts": counts,
        "pins": {
            item.family: {"expansions": answer.expansions, "roadmap": ROADMAP_PINS[item.family]}
            for item, answer in zip(workload.items, answers)
            if item.family in ROADMAP_PINS
        },
    }
    if trace:
        record["per_layer"], count_errors = per_layer(tracer, traced, untraced, len(workload.items))
        errors += count_errors
        counts.update({k: v for k, v in record["per_layer"].items() if k.endswith(COUNT_SUFFIXES)})
    errors += _repeat_check(name, seed, trace, digest, record["program_sha256"], counts)
    record["errors"] = sorted(set(errors))
    record["attempted"] = attempted
    record["failed"] = failed
    return record


def _repeat_check(name, seed, trace, digest, program, counts) -> list[str]:
    """Machine-independent counts must repeat in every run of one program on
    one input set; the previous run's counts are kept in the output directory."""
    path = OUT_DIR / f"counts-{name}-{seed}-trace{int(trace)}.json"
    mine = {"inputs_sha256": digest, "program_sha256": program, "counts": counts}
    errors = []
    if path.exists():
        before = json.loads(path.read_text())
        if before["inputs_sha256"] == digest and before["program_sha256"] == program:
            errors = [f"count {k} changed since the last run" for k in counts if before["counts"].get(k) != counts[k]]
    path.write_text(json.dumps(mine, indent=1))
    return errors


def describe(record: dict) -> list[str]:
    m = record["metrics"]
    lines = [
        f"workload {record['workload']} seed {record['seed']}: {record['counts']['inputs']} inputs "
        f"in {record['passes']} untraced passes ({record['untraced_calls']} calls), "
        f"inputs sha256 {record['inputs_sha256'][:16]}",
    ]
    for key, unit in END_TO_END_UNITS.items():
        note = ""
        if key == "latency_tail_ms":
            note = f"  (p{record['tail_percentile']:.1f}: {TAIL_BEYOND} of {record['counts']['inputs']} inputs beyond)"
        lines.append(f"  {key:<16} {m[key]:.6g} {unit}{note}")
    lines.append(f"  {'error_ratio':<16} {record['error_ratio']:.6g} ratio")
    for family, pin in record["pins"].items():
        state = "reproduced" if pin["expansions"] == pin["roadmap"] else "moved"
        lines.append(f"  pin {family} as built: {pin['expansions']} expansions, ROADMAP {pin['roadmap']} ({state})")
    for key, value in sorted(record.get("per_layer", {}).items()):
        lines.append(f"  {key:<44} {value:.6g} {_layer_unit(key)}")
    for err in record["errors"][:20]:
        lines.append(f"  ERROR {err}")
    return lines


def _layer_unit(key: str) -> str:
    if key.endswith("per_s"):
        return "1/s"
    if key.endswith(("_s", ".s")):
        return "s"
    if key.endswith("max_ms"):
        return "ms"
    if key.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("certify", "refute", "hadwiger", "census", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full results as JSON to this file")
    args = parser.parse_args(argv)

    if not (SRC / "scminor" / "__init__.py").is_file():
        print(f"scminor sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import scminor

        if Path(scminor.__file__).resolve().parent != (SRC / "scminor").resolve():
            raise ImportError(f"imported scminor from {scminor.__file__}")
    except ImportError as exc:
        print(f"cannot import scminor from {SRC}: {exc}", file=sys.stderr)
        return 2

    names = ["certify", "refute", "hadwiger", "census"] if args.workload == "all" else [args.workload]
    records = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for record in records:
        print("\n".join(describe(record)))
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n")

    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else record["workload"] + "."
        if args.trace:
            published = {k: (v, _layer_unit(k)) for k, v in record["per_layer"].items()}
        else:
            published = {k: (v, END_TO_END_UNITS[k]) for k, v in record["metrics"].items()}
        for key, (value, unit) in published.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    result = {
        "correct": all(not r["errors"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
