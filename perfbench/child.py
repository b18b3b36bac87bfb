"""Processes the benchmark starts; each one imports phcalc from the checkout.

    python3 perfbench/child.py cli SPANS -- ARGS...
        Run `phcalc ARGS...` with every layer traced; write the spans
        to SPANS and exit with phcalc's exit code.

    python3 perfbench/child.py queries FILE QUERIES OUT LOADS SECONDS
        Load FILE LOADS times, then answer the point queries in QUERIES,
        one at a time through the public API: one untimed warm-up
        pass, then whole passes as long as the next one, at the median
        pass time so far, ends within SECONDS; then load FILE LOADS
        times more.  Writes to OUT each load time with the calibration
        loop times just before and after it, each query's latency and
        answer, pass by pass, and the loop times between the passes
        (see speed.py).

    python3 perfbench/child.py queries-traced FILE QUERIES OUT
        One untraced round (load, then one pass), then two traced
        rounds, each with its own spans.  Writes them to OUT.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import phcalc
import phcalc.cli
import phcalc.files
import speed
from tracer import Tracer


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return phcalc.files.parse_filtration(text).to_filtration()


def _answer(f, query: list) -> int:
    kind, n, j = query[:3]
    if kind == "pbetti":
        return phcalc.persistent_betti(f, n, j, query[3])
    if kind == "mu":
        return phcalc.mu(f, n, j, query[3])
    return phcalc.mu_infinity(f, n, j)


def _round(path: str, queries: list) -> list[int]:
    f = _load(path)
    return [_answer(f, q) for q in queries]


def run_cli(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return phcalc.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


def run_queries(path: str, queries: list, loads: int, seconds: float) -> dict:
    load_s = []

    def timed_load():
        before = speed.loop_s()
        start = time.perf_counter()
        f = _load(path)
        wall = time.perf_counter() - start
        load_s.append([wall, before, speed.loop_s()])
        return f

    def one_pass():
        samples = []
        for i, query in enumerate(queries):
            t0 = time.perf_counter()
            answer = _answer(f, query)
            samples.append([i, time.perf_counter() - t0, answer])
        return samples

    for _ in range(loads):
        f = timed_load()
    warm_up = one_pass()
    passes, pass_s = [], []
    start = time.perf_counter()
    loop_s = [speed.loop_s()]
    while not passes or time.perf_counter() - start + statistics.median(pass_s) <= seconds:
        t0 = time.perf_counter()
        passes.append(one_pass())
        loop_s.append(speed.loop_s())
        pass_s.append(time.perf_counter() - t0)
    for _ in range(loads):
        timed_load()
    return {"loads": load_s, "warm_up": warm_up, "passes": passes, "pass_loop_s": loop_s}


def run_queries_traced(path: str, queries: list) -> dict:
    start = time.perf_counter()
    answers = _round(path, queries)
    out = {"untraced_s": time.perf_counter() - start, "untraced_answers": answers}
    tracer = Tracer()
    tracer.install()
    traced_round = tracer.span("api.queries", _round)
    rounds = []
    for _ in range(2):
        tracer.reset()
        start = time.perf_counter()
        answers = traced_round(path, queries)
        wall = time.perf_counter() - start
        rounds.append({
            "wall_s": wall,
            "answers": answers,
            "trace": tracer.snapshot(),
        })
    out["rounds"] = rounds
    return out


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli":
        return run_cli(argv[1], argv[3:])
    path, queries_path, out_path = argv[1:4]
    with open(queries_path, encoding="utf-8") as fh:
        queries = json.load(fh)
    if mode == "queries":
        result = run_queries(path, queries, int(argv[4]), float(argv[5]))
    else:
        result = run_queries_traced(path, queries)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
