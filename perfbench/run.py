#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of phcalc.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wide --seed 1 --seconds 10 --trace 0

Each workload draws its input from --seed with the benchmark's own
generator (the `phcalc gen` distribution), computes reference answers
without phcalc, then drives phcalc in a closed loop with one caller,
one process at a time, and checks every answer.

    wide        barcode --all-dims --format json  600 triangles, 10 levels
    deep        barcode --all-dims --format text  100 triangles, 60 levels
    deep_check  check                             100 triangles, 60 levels
    queries     persistent_betti / mu / mu_infinity through the Python
                API, dims 0-1                     400 triangles, 20 levels

The sizes keep each CLI operation to a few seconds, so that a run
times many of them and its median is steady.

With --trace 0 every CLI operation is a fresh `python3 -m phcalc.cli`
process, timed from spawn to exit, and the query loop runs in one child
process that loaded the filtration during set-up.  One untimed
operation (one pass of the query list) warms up first; its answers
are checked like the rest.  With --trace 1 each
operation runs once untraced and twice traced (see tracer.py), and the
per-layer metrics come from the traced spans; their counts must agree
exactly between the two traced runs, or the run counts one more failure.

End-to-end metrics: for a CLI workload op_s and op_p90_s are the
median and 90th percentile of per-process wall time over the run; for
queries op_s is the median over passes of the mean query latency of a
pass (the list mixes query kinds of very different cost, so the median
of single latencies jumps between kinds) and op_p90_s the 90th
percentile of single latencies (a pass holds 120 queries, 12 beyond
the p90); peak_rss_mb is the largest per-child peak RSS, from wait4;
setup_s is the median time to generate the inputs (16 per CLI
workload, cycled through by its operations; one for queries) and their
reference answers, plus for queries the median time to load the
filtration, each timed both before and after the operations.  Every
time is rescaled to the reference speed of speed.py by calibration
loops timed just before and after it; the times at the speed of the
moment are printed beside them.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import reference
import speed
from tracer import layer_totals

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# The whole run must end well inside three minutes, whatever phcalc does.
RUN_BUDGET_S = 165.0
# Set-up is timed this many times before the operations and as many
# after, so that its median spans the run as the operations do.
SETUP_REPEATS = 3
QUERY_LOADS = 2
# A CLI run cycles through this many inputs drawn from its seed, so its
# median does not hang on what one random complex costs.
CLI_POOL = 16
QUERIES_PER_STRATUM = 20  # 6 strata: 120 queries per pass, 12 beyond the p90


@dataclass(frozen=True)
class Workload:
    triangles: int
    levels: int
    seed: int
    command: tuple[str, ...]  # phcalc subcommand and options; () for the API queries

    @property
    def pool(self) -> int:
        return CLI_POOL if self.command else 1


WORKLOADS = {
    "wide": Workload(600, 10, 1, ("barcode", "--all-dims", "--format", "json")),
    "deep": Workload(100, 60, 3, ("barcode", "--all-dims", "--format", "text")),
    "deep_check": Workload(100, 60, 3, ("check",)),
    "queries": Workload(400, 20, 2, ()),
}

PER_LAYER = (
    # (metric, span name, field of layer_totals, unit)
    ("files.parse_filtration_s", "files.parse_filtration", "self_s", "s"),
    ("files.parse_filtration_calls", "files.parse_filtration", "calls", "count"),
    ("files.input_bytes", "files.parse_filtration", "size", "bytes"),
    ("filtration.builds", "filtration.Filtration", "calls", "count"),
    ("filtration.Filtration_s", "filtration.Filtration", "self_s", "s"),
    ("filtration.validate_s", "filtration.validate", "self_s", "s"),
    ("complexes.closure_of_facets_s", "complexes.closure_of_facets", "self_s", "s"),
    ("complexes.boundary_matrix_s", "complexes.boundary_matrix", "self_s", "s"),
    ("complexes.boundary_matrix_calls", "complexes.boundary_matrix", "calls", "count"),
    ("complexes.boundary_matrix_bits", "complexes.boundary_matrix", "size", "bits"),
    ("gf2.kernel_basis_s", "gf2.kernel_basis", "self_s", "s"),
    ("gf2.kernel_basis_calls", "gf2.kernel_basis", "calls", "count"),
    ("gf2.kernel_basis_bits", "gf2.kernel_basis", "size", "bits"),
    ("gf2.rank_s", "gf2.rank", "self_s", "s"),
    ("gf2.rank_calls", "gf2.rank", "calls", "count"),
    ("gf2.rank_bits", "gf2.rank", "size", "bits"),
    ("gf2.hstack_s", "gf2.hstack", "self_s", "s"),
    ("gf2.hstack_calls", "gf2.hstack", "calls", "count"),
    ("gf2.multiply_s", "gf2.multiply", "self_s", "s"),
    ("gf2.multiply_calls", "gf2.multiply", "calls", "count"),
    ("filtration.inclusion_matrix_s", "filtration.inclusion_matrix", "self_s", "s"),
    ("filtration.inclusion_matrix_calls", "filtration.inclusion_matrix", "calls", "count"),
    ("persistence.betti_table_s", "persistence.betti_table", "self_s", "s"),
    ("persistence.betti_table_calls", "persistence.betti_table", "calls", "count"),
    ("persistence.barcode_s", "persistence.barcode", "self_s", "s"),
    ("persistence.bars", "persistence.barcode", "size", "count"),
    ("persistence.check_fundamental_lemma_s", "persistence.check_fundamental_lemma",
     "self_s", "s"),
    ("persistence.persistent_betti_s", "persistence.persistent_betti", "self_s", "s"),
    ("persistence.persistent_betti_calls", "persistence.persistent_betti", "calls",
     "count"),
    ("files.serialize_barcodes_s", "files.serialize_barcodes", "self_s", "s"),
    ("render.ascii_bars_s", "render.ascii_bars", "self_s", "s"),
    ("cli.main_s", "cli.main", "self_s", "s"),
    ("api.queries_s", "api.queries", "self_s", "s"),
)


class Tally:
    """Operations attempted and failed; a failure is any wrong or missing answer."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


# ----------------------------------------------------------------------
# Comparing phcalc's answers with the reference


def barcode_ok(stdout: str, fmt: str, want: reference.Barcodes) -> bool:
    """Whether `barcode --format FMT` printed exactly the reference bars."""
    try:
        got = reference.from_json(stdout) if fmt == "json" else reference.from_text(stdout)
    except (ValueError, KeyError, TypeError):
        return False
    return got == want


def check_ok(code: int, stdout: str) -> bool:
    return code == 0 and "all checks passed" in stdout.splitlines()


def answer_ok(query: list, answer: object, want: reference.Barcodes) -> bool:
    return answer == reference.query_answer(want, query)


# ----------------------------------------------------------------------
# Child processes


@dataclass(frozen=True)
class Finished:
    code: int  # exit code; negative for a signal, as subprocess reports it
    wall_s: float
    rss_mb: float
    stdout: str


class Runner:
    """Starts one child at a time and reaps it with wait4, for its own peak RSS."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def run(self, argv: list[str]) -> Finished:
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(self.remaining(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = err_path.read_text(errors="replace")[-2000:]
            print(f"child {argv[1:4]} exited {proc.returncode}: {tail}", file=sys.stderr)
        return Finished(
            proc.returncode, wall, usage.ru_maxrss / 1024, out_path.read_text()
        )

    def phcalc(self, args: list[str]) -> Finished:
        return self.run([sys.executable, "-m", "phcalc.cli", *args])

    def child(self, args: list[str]) -> Finished:
        return self.run([sys.executable, str(HERE / "child.py"), *args])


# ----------------------------------------------------------------------
# Set-up


@dataclass(frozen=True)
class Timed:
    wall_s: float  # at the machine's speed of the moment
    s: float  # rescaled to reference speed (see speed.py)


def median_timed(times: list[Timed]) -> Timed:
    return Timed(statistics.median(t.wall_s for t in times),
                 statistics.median(t.s for t in times))


@dataclass
class Inputs:
    """The workload's pool of input files and their reference barcodes.

    Input 0 is drawn from the seed itself, like `phcalc gen -s SEED`;
    the others from seeds that it draws.  Traced runs and the query
    loop use input 0 only.
    """

    seed: int
    paths: list[Path]
    sha256: list[str]
    bars: list[reference.Barcodes]
    queries: list
    queries_path: Path


def pool_seeds(seed: int, size: int) -> list[int]:
    rng = random.Random(seed)
    return [seed] + [rng.randrange(2**32) for _ in range(size - 1)]


def set_up(w: Workload, seed: int, workdir: Path) -> tuple[Inputs, list[Timed]]:
    """Generate the inputs, their reference answers and the query list.

    Done SETUP_REPEATS times, for a median set-up time; every repeat
    must produce the same bytes.
    """
    times = []
    texts = set()
    before = speed.loop_s()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        paths, bars, docs = [], [], []
        for k, input_seed in enumerate(pool_seeds(seed, w.pool)):
            text, level_facets = reference.generate(w.triangles, w.levels, input_seed)
            bars.append(reference.reference(level_facets))
            paths.append(workdir / f"input{k}.json")
            paths[-1].write_text(text)
            docs.append(text)
        queries = reference.make_queries(w.levels, seed, QUERIES_PER_STRATUM)
        queries_path = workdir / "queries.json"
        queries_path.write_text(json.dumps(queries))
        wall = time.perf_counter() - start
        after = speed.loop_s()
        times.append(Timed(wall, speed.rescale(wall, before, after)))
        before = after
        texts.add(tuple(docs))
    if len(texts) != 1:
        raise RuntimeError("the generator is not deterministic")
    shas = [hashlib.sha256(text.encode()).hexdigest() for text in docs]
    return Inputs(seed, paths, shas, bars, queries, queries_path), times


# ----------------------------------------------------------------------
# Operations


def cli_argv(w: Workload, inputs: Inputs, k: int) -> list[str]:
    return [w.command[0], str(inputs.paths[k]), *w.command[1:]]


def cli_result_ok(w: Workload, inputs: Inputs, k: int, done: Finished) -> bool:
    if w.command[0] == "check":
        return check_ok(done.code, done.stdout)
    return done.code == 0 and barcode_ok(done.stdout, w.command[-1], inputs.bars[k])


def measure_cli(name, w, inputs, runner, tally, seconds) -> dict:
    """Processes one after another for `seconds`, after one untimed warm-up.

    Operation i reads input i of the pool, cyclically.  No process
    starts that would, at the median time so far, end past `seconds`,
    so the run measures what it says.
    """
    warm = runner.phcalc(cli_argv(w, inputs, 0))
    tally.record(cli_result_ok(w, inputs, 0, warm), f"{name} warm-up exit {warm.code}")
    samples, walls, rss = [], [], [warm.rss_mb]
    start = time.perf_counter()
    before = speed.loop_s()
    while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
        if walls and runner.remaining() < 2 * max(walls):
            break
        k = len(walls) % len(inputs.paths)
        done = runner.phcalc(cli_argv(w, inputs, k))
        after = speed.loop_s()
        tally.record(cli_result_ok(w, inputs, k, done), f"{name} input {k} exit {done.code}")
        samples.append(Timed(done.wall_s, speed.rescale(done.wall_s, before, after)))
        walls.append(done.wall_s + after)
        rss.append(done.rss_mb)
        before = after
    return {"op": median_timed(samples), "samples": samples,
            "peak_rss_mb": max(rss), "extra_setup": Timed(0.0, 0.0)}


def measure_queries(inputs, runner, tally, seconds) -> dict:
    out_path = runner.workdir / "queries.out"
    done = runner.child([
        "queries", str(inputs.paths[0]), str(inputs.queries_path), str(out_path),
        str(QUERY_LOADS), str(seconds),
    ])
    if done.code != 0:
        tally.record(False, f"query worker exit {done.code}")
        failed = Timed(done.wall_s, done.wall_s)
        return {"op": failed, "samples": [failed], "peak_rss_mb": done.rss_mb,
                "extra_setup": Timed(0.0, 0.0)}
    result = json.loads(out_path.read_text())
    for samples in [result["warm_up"], *result["passes"]]:
        for i, _, answer in samples:
            query = inputs.queries[i]
            tally.record(answer_ok(query, answer, inputs.bars[0]),
                         f"query {query} -> {answer}")
    # A pass is rescaled by the loops timed just before and after it.
    loops = result["pass_loop_s"]
    means, samples = [], []
    for p, (before, after) in enumerate(zip(loops, loops[1:])):
        latencies = [latency for _, latency, _ in result["passes"][p]]
        mean = statistics.fmean(latencies)
        means.append(Timed(mean, speed.rescale(mean, before, after)))
        samples += [Timed(x, speed.rescale(x, before, after)) for x in latencies]
    loads = [Timed(wall, speed.rescale(wall, before, after))
             for wall, before, after in result["loads"]]
    return {"op": median_timed(means), "samples": samples,
            "peak_rss_mb": done.rss_mb, "extra_setup": median_timed(loads)}


def percentile90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def end_to_end(name, w, inputs, runner, tally, seconds, setup_times) -> dict:
    if not w.command:
        got = measure_queries(inputs, runner, tally, seconds)
    else:
        got = measure_cli(name, w, inputs, runner, tally, seconds)
    again, more_times = set_up(w, inputs.seed, runner.workdir)
    if again.sha256 != inputs.sha256:
        raise RuntimeError("the generator is not deterministic")
    setup = median_timed(setup_times + more_times)
    samples = got["samples"]
    p90 = Timed(percentile90([t.wall_s for t in samples]),
                percentile90([t.s for t in samples]))
    setup = Timed(setup.wall_s + got["extra_setup"].wall_s, setup.s + got["extra_setup"].s)
    print(f"{name}: {len(samples)} timed operations")
    for metric, timed in (("op_s", got["op"]), ("op_p90_s", p90), ("setup_s", setup)):
        print(f"{name} {metric} {timed.wall_s} s at the speed of the moment, "
              f"{timed.s} s at reference speed")
    return {
        "op_s": (got["op"].s, "s"),
        "op_p90_s": (p90.s, "s"),
        "peak_rss_mb": (got["peak_rss_mb"], "MB"),
        "setup_s": (setup.s, "s"),
    }


# ----------------------------------------------------------------------
# Traced runs


def traced_cli(name, w, inputs, runner, tally) -> tuple[list[dict], list[float], float]:
    argv = cli_argv(w, inputs, 0)
    untraced = runner.phcalc(argv)
    tally.record(cli_result_ok(w, inputs, 0, untraced), f"{name} untraced")
    dumps, walls = [], []
    spans_path = runner.workdir / "spans.json"
    for k in range(2):
        done = runner.child(["cli", str(spans_path), "--", *argv])
        tally.record(cli_result_ok(w, inputs, 0, done), f"{name} traced run {k}")
        dumps.append(json.loads(spans_path.read_text()) if spans_path.exists() else None)
        spans_path.unlink(missing_ok=True)
        walls.append(done.wall_s)
    return dumps, walls, untraced.wall_s


def traced_queries(inputs, runner, tally) -> tuple[list[dict], list[float], float]:
    out_path = runner.workdir / "traced.out"
    done = runner.child([
        "queries-traced", str(inputs.paths[0]), str(inputs.queries_path), str(out_path),
    ])
    if done.code != 0:
        tally.record(False, f"traced query worker exit {done.code}")
        return [None, None], [done.wall_s] * 2, done.wall_s
    result = json.loads(out_path.read_text())
    rounds = result["rounds"]
    for answers in [result["untraced_answers"], *(r["answers"] for r in rounds)]:
        for query, answer in zip(inputs.queries, answers):
            tally.record(answer_ok(query, answer, inputs.bars[0]), f"query {query}")
    return ([r["trace"] for r in rounds], [r["wall_s"] for r in rounds],
            result["untraced_s"])


def per_layer(name, w, inputs, runner, tally) -> dict:
    if not w.command:
        dumps, walls, untraced = traced_queries(inputs, runner, tally)
    else:
        dumps, walls, untraced = traced_cli(name, w, inputs, runner, tally)
    rows = []
    for dump in dumps:
        if dump is None:
            rows.append(None)
            continue
        totals = layer_totals(dump)
        row = {}
        for metric, span, field, _ in PER_LAYER:
            row[metric] = totals.get(span, {}).get(field, 0)
        row["complexes.simplices"] = dump["simplices"]
        # Bytes of rendered output, JSON (files) or text (render) alike.
        row["render.output_bytes"] = sum(
            totals.get(s, {}).get("size", 0)
            for s in ("files.serialize_barcodes", "render.ascii_bars")
        )
        rows.append(row)
    units = {metric: unit for metric, _, _, unit in PER_LAYER}
    units.update({"complexes.simplices": "count", "render.output_bytes": "bytes"})
    if None in rows:
        rows = [dict.fromkeys(units, 0)] * 2
    else:
        counts = [{k: v for k, v in row.items() if units[k] != "s"} for row in rows]
        tally.record(counts[0] == counts[1], f"counts differ between traced runs: "
                     f"{ {k: (v, counts[1][k]) for k, v in counts[0].items() if v != counts[1][k]} }")
    metrics = {
        metric: (statistics.median([row[metric] for row in rows]) if units[metric] == "s"
                 else rows[0][metric], unit)
        for metric, unit in units.items()
    }
    metrics["trace.overhead_ratio"] = (statistics.median(walls) / untraced, "ratio")
    return metrics


# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "phcalc" / "cli.py").is_file():
        print(f"perfbench: no phcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    w = WORKLOADS[args.workload]
    seed = w.seed if args.seed is None else args.seed
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        inputs, setup_times = set_up(w, seed, workdir)
        for k, sha in enumerate(inputs.sha256):
            print(f"{args.workload}: seed {seed}, input {k} sha256 {sha}")
        runner = Runner(workdir, started + RUN_BUDGET_S)
        tally = Tally()
        if args.trace:
            metrics = per_layer(args.workload, w, inputs, runner, tally)
        else:
            metrics = end_to_end(args.workload, w, inputs, runner, tally,
                                 args.seconds, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    for metric, (value, unit) in metrics.items():
        print(f"{args.workload} {metric} {value} {unit}")
    print(f"{args.workload} failed_ratio {tally.failed / tally.attempted} "
          f"({tally.failed} of {tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
