"""kinship-forge benchmark: one workload per invocation.

Run from the root of a kinship-forge checkout (standard library only):

    python3 bench/run.py --workload gen-k23 --seed 1 --seconds 20 --trace 0

Workloads (why each exists is in BENCHMARK.json and bench/README.md):

- gen-k23, long-chain, noise-cloze: `kinship-forge generate` at
  `--jobs 1` and `--jobs N` (the usable CPUs, at most 8). Every output
  file is checked against the sha256 recorded in bench/expected.json for
  its master seed. A sample of the written rows is re-solved through
  `cli.cmd_solve` (fact-file parse plus fold); the answer must be the
  row's label, and these solves give the `solve.*` latencies, split into
  thirds by fact count.
- solve-ladder: `cli.cmd_solve` batches over the committed fact files in
  bench/ladder/, whose headers record query, answer and path count, and
  one `kinship-forge solve` process on the over-budget rung.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the workload
once untraced and once under bench/child.py's tracer at `--jobs 1` and
prints the per-layer metrics. The last stdout line is the JSON result;
a full record (machine, seeds, every operation) goes to
.bench_out/results/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import multiprocessing
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
LADDER_DIR = BENCH / "ladder"
EXPECTED = BENCH / "expected.json"
OUT = ROOT / ".bench_out"
# worker count of the jobs_nproc runs: the CPUs this process may use,
# at most 8 so that memory stays small on large machines
NPROC = min(8, len(os.sched_getaffinity(0)))
SETUP_REPS = 15
PROC_TIMEOUT_S = 150.0
LADDER_RUNGS = ("small", "medium", "large")
# a ladder rep solves every query at jobs 1 and again at nproc, the
# medium one LADDER_COPIES times; a run makes seconds / LADDER_REP_S reps
LADDER_REP_S = 7.0
LADDER_COPIES = {"small": 1, "medium": 3, "large": 1}
# exit codes with which a probe may stop at a known limit of the program
# (the k ceiling, the over-budget rung); any other exit, or a traceback,
# marks the run incorrect
DOCUMENTED_EXIT_CODES = (2, 3, 4)


@dataclass(frozen=True)
class GenWorkload:
    """`flags` configure the traced run; the end-to-end reps append
    `rep_flags`, which shrink the corpus so that a run holds several
    reps over several master seeds. A run makes seconds / `rep_s` reps
    (`rep_s` is about one rep's wall on a 2-core host), so the number of
    operations depends on --seconds only, never on timing."""

    flags: tuple[str, ...]
    rep_flags: tuple[str, ...]
    rep_s: float
    fmt: str = "csv"
    probe_ks: tuple[int, ...] = ()
    # passes over the re-solved row sample after each rep
    solve_passes: int = 10

    def config(self, reps: bool) -> tuple[str, ...]:
        return self.flags + self.rep_flags if reps else self.flags


GEN_WORKLOADS = {
    "gen-k23": GenWorkload(
        ("--preset", "gen-k23"), ("--n-train", "1250", "--n-test", "25"), rep_s=5.5, solve_passes=8
    ),
    "long-chain": GenWorkload(
        ("--preset", "gen-k23", "--train-ks", "2", "--n-train", "0", "--test-ks", "7-10"),
        ("--n-test", "25"),
        rep_s=2.0,
        probe_ks=(11, 12),
        solve_passes=12,
    ),
    "noise-cloze": GenWorkload(
        (
            "--preset", "gen-k23", "--test-ks", "2,3",
            "--n-train", "2500", "--n-test", "100",
            "--noise-train", "supporting", "--noise-test", "disconnected",
            "--naming", "cloze", "--format", "jsonl",
        ),
        ("--n-train", "1250", "--n-test", "50"),
        rep_s=3.3,
        fmt="jsonl",
        solve_passes=12,
    ),
}
WORKLOADS = (*GEN_WORKLOADS, "solve-ladder")


class BenchError(Exception):
    """The benchmark cannot produce a result in this directory."""


# -- processes ----------------------------------------------------------

@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float
    timed_out: bool
    stdout: str
    stderr: str

    @property
    def traceback(self) -> bool:
        return "Traceback (most recent call last)" in self.stderr


def run_proc(argv: list[str], log_base: Path, timeout: float = PROC_TIMEOUT_S) -> Proc:
    """Run argv to completion; wall time, peak RSS (of the process or
    its largest reaped descendant, from wait4), and captured output.
    The process gets its own group, so a timeout also kills its pool
    workers."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path = Path(f"{log_base}.out")
    err_path = Path(f"{log_base}.err")
    killed: list[bool] = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, cwd=ROOT, env=env, start_new_session=True
        )

        def kill() -> None:
            killed.append(True)
            os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        code=proc.returncode,
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024,
        timed_out=bool(killed),
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "kinship_forge.cli", *args]


def generate_flags(flags, seed: int, jobs: int, out: Path) -> list[str]:
    return [*flags, "--seed", str(seed), "--jobs", str(jobs), "--out", str(out)]


def run_generate(workload: GenWorkload, reps: bool, seed: int, jobs: int, out: Path,
                 timeout=PROC_TIMEOUT_S) -> Proc:
    out.mkdir(parents=True, exist_ok=True)
    argv = cli_argv("generate", *generate_flags(workload.config(reps), seed, jobs, out))
    return run_proc(argv, out, timeout)


def run_child(mode_args: list[str], stats_path: Path, trace: bool) -> tuple[Proc, dict]:
    argv = [sys.executable, str(BENCH / "child.py"), str(stats_path)]
    argv += ["--trace"] if trace else []
    proc = run_proc(argv + mode_args, stats_path.with_suffix(""))
    if proc.code != 0:
        raise BenchError(f"child {' '.join(mode_args[:1])} failed:\n{proc.stderr[-2000:]}")
    return proc, json.loads(stats_path.read_text())


# -- outputs ------------------------------------------------------------

def output_files(workload: GenWorkload) -> tuple[str, ...]:
    return (f"train.{workload.fmt}", f"test.{workload.fmt}", "manifest.json")


def hash_key(name: str, reps: bool) -> str:
    return f"{name}.reps" if reps else name


def output_hashes(out: Path, workload: GenWorkload) -> dict[str, str]:
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        if (out / name).is_file() else "missing"
        for name in output_files(workload)
    }


def read_rows(path: Path, fmt: str) -> list[dict]:
    """The benchmark's own reader: only the columns the checks need."""
    if fmt == "jsonl":
        rows = [json.loads(line) for line in path.read_text().splitlines() if line]
    else:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            for col in ("genders", "facts", "noise_facts"):
                row[col] = json.loads(row[col])
    return rows


def check_sample(out: Path, workload: GenWorkload) -> list[dict]:
    """Every test row and every tenth train row, in file order."""
    train = read_rows(out / f"train.{workload.fmt}", workload.fmt)
    test = read_rows(out / f"test.{workload.fmt}", workload.fmt)
    return train[::10] + test


_ROW_FACT = re.compile(r"([A-Za-z-]+)\(([^,()]+),([^,()]+)\)")


def row_fact_file(row: dict, surface_of) -> str:
    """A row's facts and noise facts as a `solve` fact file."""
    lines = [f"entity {token} {gender}" for token, gender in sorted(row["genders"].items())]
    for fact in [*row["facts"], *row["noise_facts"]]:
        m = _ROW_FACT.fullmatch(fact)
        if m is None:
            raise BenchError(f"row {row['id']}: cannot parse fact {fact!r}")
        pred, src, dst = m.groups()
        lines.append(f"{surface_of(pred, row['genders'][dst])}({src}, {dst})")
    return "\n".join(lines) + "\n"


def surface_lookup():
    sys.path.insert(0, str(SRC))
    from kinship_forge.ontology import Gender, Predicate, surface

    return lambda pred, gender: surface(Predicate(pred), Gender(gender))


def count_simple_paths(edges, start: int, goal: int, max_len: int = 12, cap: int | None = None) -> int:
    """Simple paths of at most max_len edges between start and goal over
    the undirected graph of edges, as the solver enumerates them (it
    mirrors every fact with its inverse)."""
    adjacency: dict = {}
    for a, b in edges:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    count = 0
    on_path = {start}

    def walk(node, depth: int) -> None:
        nonlocal count
        for nxt in adjacency.get(node, ()):
            if cap is not None and count >= cap:
                return
            if nxt in on_path:
                continue
            if nxt == goal:
                count += 1
            elif depth + 1 < max_len:
                on_path.add(nxt)
                walk(nxt, depth + 1)
                on_path.discard(nxt)

    walk(start, 0)
    return count


def read_rung(name: str) -> list[dict]:
    """The queries of one ladder file. Each `# query: HEAD TAIL ANSWER
    PATHS` header names a query, its expected answer (a relation word,
    or `ambiguous`) and its simple-path count."""
    path = LADDER_DIR / f"{name}.facts"
    edges = []
    queries = []
    for line in path.read_text().splitlines():
        if line.startswith("# query: "):
            head, tail, expected, paths = line.split()[2:]
            queries.append({"rung": name, "facts": str(path), "head": head, "tail": tail,
                            "expected": expected, "paths": paths, "edges": edges})
        elif line and not line.startswith("#"):
            m = _ROW_FACT.fullmatch(line.replace(" ", ""))
            edges.append((m.group(2), m.group(3)))
    return queries


# -- statistics ---------------------------------------------------------

def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 samples beyond it."""
    return max(0, math.floor(100 * (1 - 10 / n)))


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def throughput_metrics(done: dict[str, list[tuple[int, float]]], notes: dict) -> dict[str, float]:
    """Rows over wall time, pooled over the reps of a run: reps differ
    in input (master seed), and pooling weighs each by its work."""
    notes["rows_per_s.reps"] = done["jobs1"]
    notes["rows_per_s.jobs_nproc.reps"] = done["jobs_nproc"]
    return {
        "rows_per_s": sum(r for r, _ in done["jobs1"]) / sum(w for _, w in done["jobs1"]),
        "rows_per_s.jobs_nproc": (
            sum(r for r, _ in done["jobs_nproc"]) / sum(w for _, w in done["jobs_nproc"])
        ),
    }


def latency_metrics(groups: dict[str, list[float]], notes: dict) -> dict[str, float]:
    metrics = {}
    for rung in LADDER_RUNGS:
        values = groups[rung]
        metrics[f"solve.{rung}.p50_ms"] = statistics.median(values) * 1000
        notes[f"solve.{rung}.samples"] = len(values)
    pct = tail_percentile(len(groups["small"]))
    metrics["solve.small.tail_ms"] = nearest_rank(groups["small"], pct) * 1000
    notes["solve.small.tail_percentile"] = pct
    return metrics


# -- run bookkeeping ----------------------------------------------------

@dataclass
class Run:
    workload: str
    seed: int
    work: Path
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: list[str] = field(default_factory=list)
    ops: list[dict] = field(default_factory=list)
    probes: list[dict] = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def op(self, kind: str, ok: bool, wrong: bool = False, **detail) -> dict:
        """Count one operation: a `generate` or `solve` the program was
        asked to do. Returns its record, which later checks may fail."""
        record = {"kind": kind, "ok": True, **detail}
        with self.lock:
            self.attempted += 1
            self.ops.append(record)
        if not ok:
            self.fail(record, wrong)
        return record

    def fail(self, record: dict, wrong: bool, reason: str = "") -> None:
        """Mark an operation failed; `wrong` means its output is
        incorrect, not a documented failure, and clears `correct`."""
        with self.lock:
            if record["ok"]:
                record["ok"] = False
                self.failed += record["kind"] not in PROBE_KINDS
            if wrong:
                self.correct = False
                self.problems.append(f"{record['kind']}: {reason or record}")

    def proc_op(self, kind: str, proc: Proc) -> dict:
        """A CLI process as an operation: exit 0 succeeds; anything else
        is wrong."""
        ok = proc.code == 0 and not proc.timed_out
        return self.op(
            kind, ok, not ok, code=proc.code, wall_s=proc.wall_s,
            timed_out=proc.timed_out, stderr=proc.stderr[-300:] if not ok else "",
        )

    def probe(self, kind: str, proc: Proc) -> dict:
        """A CLI process at a known limit of the program. It is not an
        operation: every operation of a workload must succeed, while a
        probe may stop with a documented exit code or run out of its
        budget, and the traced run counts how many did. Its output, if
        any, is still checked, and an undocumented exit or a traceback is
        wrong."""
        assert kind in PROBE_KINDS
        record = {"kind": kind, "ok": proc.code == 0 and not proc.timed_out, "code": proc.code,
                  "wall_s": proc.wall_s, "timed_out": proc.timed_out, "stderr": proc.stderr[-300:]}
        with self.lock:
            self.probes.append(record)
        if not record["ok"] and not proc.timed_out and (
            proc.code not in DOCUMENTED_EXIT_CODES or proc.traceback
        ):
            self.fail(record, True)
        return record

    def failed_probes(self) -> int:
        return sum(not record["ok"] for record in self.probes)


PROBE_KINDS = ("probe-k11", "probe-k12", "solve-over")


def master_seeds(seed: int) -> list[int]:
    """The committed master seeds, rotated to start at --seed."""
    seeds = json.loads(EXPECTED.read_text())["master_seeds"]
    start = seed % len(seeds)
    return seeds[start:] + seeds[:start]


def check_bytes(run: Run, key: str, workload: GenWorkload, seed: int,
                outs: dict[str, tuple[Path, dict]]) -> None:
    """Every output must match the recorded hashes of its master seed; a
    mismatch fails the operation that wrote it."""
    expected = json.loads(EXPECTED.read_text())["hashes"].get(key, {}).get(str(seed), {})
    for label, (out, record) in outs.items():
        got = output_hashes(out, workload)
        mismatched = sorted(name for name in got if got[name] != expected.get(name))
        if mismatched:
            run.fail(record, True, f"{key} seed {seed} {label}: sha256 differs for {mismatched}")


class RowSolves:
    """Re-solves a sample of written rows through cmd_solve. Each
    measure() call times a few passes over the sample, so the samples
    of a run spread over all its reps. The answer must be the row's
    label, or the operation that wrote the rows fails."""

    def __init__(self, run: Run, rows: list[dict], tag: str, record: dict) -> None:
        self.run = run
        self.rows = rows
        self.record = record
        self.folder = run.work / f"resolve-{tag}"
        self.folder.mkdir(parents=True, exist_ok=True)
        surface_of = surface_lookup()
        self.spec = []
        for i, row in enumerate(rows):
            path = self.folder / f"{i:05d}.facts"
            path.write_text(row_fact_file(row, surface_of))
            self.spec.append({"facts": str(path), "query": [row["query_head"], row["query_tail"]]})
        self.latencies: list[list[float]] = [[] for _ in rows]
        self.batches = 0

    def measure(self, passes: int) -> None:
        spec_path = self.folder / f"spec-{self.batches}.json"
        spec_path.write_text(json.dumps(self.spec * passes))
        _, stats = run_child(["solve-batch", str(spec_path)], spec_path.with_suffix(".stats"), False)
        self.batches += 1
        for n, result in enumerate(stats["solves"]):
            row = self.rows[n % len(self.rows)]
            if result["error"] is not None or result["label"] != row["label"]:
                self.run.fail(self.record, True, f"row {row['id']}: expected {row['label']}, "
                                                 f"got {result['label'] or result['error']}")
            self.latencies[n % len(self.rows)].append(result["latency_s"])

    def groups(self) -> dict[str, list[float]]:
        """Each row's median latency, grouped by thirds of the sample by
        fact count, so that the tail is over rows, not timer noise."""
        by_size = sorted(
            range(len(self.rows)),
            key=lambda i: len(self.rows[i]["facts"]) + len(self.rows[i]["noise_facts"]),
        )
        third = len(by_size) // 3
        return {
            "small": [statistics.median(self.latencies[i]) for i in by_size[:third]],
            "medium": [statistics.median(self.latencies[i]) for i in by_size[third : 2 * third]],
            "large": [statistics.median(self.latencies[i]) for i in by_size[2 * third :]],
        }


def setup_times(run: Run, make_argv, out: Path) -> float:
    """Median wall of SETUP_REPS fresh processes that do only set-up;
    make_argv(i) gives rep i its own output directory, since
    overwriting a file can cost a filesystem flush."""
    walls = []
    out.mkdir(parents=True, exist_ok=True)
    for i in range(SETUP_REPS):
        proc = run_proc(make_argv(i), out / f"setup-{i}")
        if proc.code != 0:
            raise BenchError(f"set-up run failed: {proc.stderr[-2000:]}")
        walls.append(proc.wall_s)
    run.notes["setup_s.samples"] = walls
    return statistics.median(walls)


def manifest_rows(out: Path) -> int:
    counts = json.loads((out / "manifest.json").read_text())["counts"]
    return sum(n for split in counts.values() for n in split.values())


# -- generation workloads -----------------------------------------------

def gen_end_to_end(run: Run, name: str, seconds: float) -> dict[str, float]:
    workload = GEN_WORKLOADS[name]
    seeds = master_seeds(run.seed)
    run.notes["master_seeds"] = []
    setup_flags = (*workload.flags, "--n-train", "0", "--n-test", "0")
    setup_s = setup_times(
        run,
        lambda i: cli_argv("generate", *generate_flags(setup_flags, seeds[0], 1, run.work / f"setup/{i}")),
        run.work / "setup",
    )
    rss = []
    rates: dict[str, list[tuple[int, float]]] = {"jobs1": [], "jobs_nproc": []}
    solves = None
    for rep in range(max(2, round(seconds / workload.rep_s))):
        seed = seeds[rep % len(seeds)]
        run.notes["master_seeds"].append(seed)
        outs = {}
        for label, jobs in (("jobs1", 1), ("jobs_nproc", NPROC)):
            out = run.work / f"rep{rep}-{label}"
            proc = run_generate(workload, True, seed, jobs, out)
            rss.append(proc.rss_mb)
            record = run.proc_op(f"generate-{label}", proc)
            if not record["ok"]:
                raise BenchError(f"generate failed: {proc.stderr[-2000:]}")
            rates[label].append((manifest_rows(out), proc.wall_s))
            outs[label] = (out, record)
        check_bytes(run, hash_key(name, True), workload, seed, outs)
        if solves is None:
            solves = RowSolves(run, check_sample(outs["jobs1"][0], workload), "rep0", outs["jobs1"][1])
        solves.measure(workload.solve_passes)
    return {
        "setup_s": setup_s,
        **throughput_metrics(rates, run.notes),
        "peak_rss_mb": max(rss),
        **latency_metrics(solves.groups(), run.notes),
    }


def gen_traced(run: Run, name: str) -> dict[str, float]:
    workload = GEN_WORKLOADS[name]
    seed = master_seeds(run.seed)[0]
    run.notes["master_seeds"] = [seed]
    dirs = {label: run.work / label for label in ("untraced", "traced", "jobs_nproc")}
    base = run_generate(workload, False, seed, 1, dirs["untraced"])
    dirs["traced"].mkdir(parents=True)
    traced, stats = run_child(
        ["generate", *generate_flags(workload.flags, seed, 1, dirs["traced"])],
        run.work / "traced-stats.json", True,
    )
    wide = run_generate(workload, False, seed, NPROC, dirs["jobs_nproc"])
    records = {
        "untraced": run.proc_op("generate-jobs1", base),
        "traced": run.op("generate-traced", stats["exit_code"] == 0, wrong=stats["exit_code"] != 0),
        "jobs_nproc": run.proc_op("generate-jobs_nproc", wide),
    }
    if not all(record["ok"] for record in records.values()):
        raise BenchError(f"generate failed: {records}")
    check_bytes(run, hash_key(name, False), workload, seed,
                {label: (dirs[label], records[label]) for label in dirs})
    counts = json.loads((dirs["untraced"] / "manifest.json").read_text())["counts"]
    check_attempts(run, stats["trace"], counts, records["traced"])
    metrics = layer_metrics(stats, traced.wall_s / base.wall_s - 1)
    metrics["dataset.pool.efficiency"] = base.wall_s / (NPROC * wide.wall_s)
    run_k_probes(run, workload, seed)
    metrics["dataset.k_probe.failed"] = run.failed_probes()
    return metrics


def run_k_probes(run: Run, workload: GenWorkload, seed: int) -> None:
    """One test-only `generate` per probe k beyond the workload's range,
    to show where the generator stops finding chains. Rows a probe does
    write are re-solved like any others."""
    for k in workload.probe_ks:
        flags = ("--preset", "gen-k23", "--train-ks", "2", "--n-train", "0", "--test-ks", str(k))
        out = run.work / f"probe-k{k}"
        out.mkdir(parents=True)
        proc = run_proc(cli_argv("generate", *generate_flags(flags, seed, 1, out)), out)
        record = run.probe(f"probe-k{k}", proc)
        if record["ok"]:
            RowSolves(run, check_sample(out, workload), f"probe-k{k}", record).measure(1)


def check_attempts(run: Run, trace: dict, counts: dict, record: dict) -> None:
    """attempts = rows + rejections for every (split, k), and the rows
    seen by the tracer are the rows the manifest counts."""
    expected = {f"{split}.k{k}": n for split, by_k in counts.items() for k, n in by_k.items()}
    seen = {key: entry["rows"] for key, entry in trace["rows"].items()}
    balanced = all(
        entry["attempts"] == entry["rows"] + sum(entry["rejected"].values())
        for entry in trace["rows"].values()
    )
    if not (balanced and seen == expected and trace["orphan_attempts"] == 0):
        run.fail(record, True, f"attempt accounting: rows seen {seen}, manifest {expected}, "
                               f"balanced {balanced}, orphan attempts {trace['orphan_attempts']}")


# -- solve ladder -------------------------------------------------------

def ladder_queries(run: Run) -> list[dict]:
    """Every query of the small, medium and large rungs. The inputs are
    committed; --seed only rotates their order."""
    queries = [q for name in LADDER_RUNGS for q in read_rung(name)]
    shift = run.seed % len(queries)
    return queries[shift:] + queries[:shift]


def write_spec(path: Path, queries: list[dict]) -> Path:
    path.write_text(json.dumps([{"facts": q["facts"], "query": [q["head"], q["tail"]]} for q in queries]))
    return path


def answered(query: dict, label: str | None, error: str | None) -> bool:
    if query["expected"] == "ambiguous":
        return error == "AmbiguousAnswerError"
    return error is None and label == query["expected"]


def check_ladder_solves(run: Run, stats: dict, queries: list[dict]) -> list[float]:
    """Checks every answer; returns the latencies in query order."""
    for query, result in zip(queries, stats["solves"], strict=True):
        ok = answered(query, result["label"], result["error"])
        run.op(f"solve-{query['rung']}", ok, wrong=not ok, query=[query["head"], query["tail"]],
               label=result["label"], error=result["error"], latency_s=result["latency_s"])
    return [result["latency_s"] for result in stats["solves"]]


def ladder_end_to_end(run: Run, seconds: float) -> dict[str, float]:
    """Each rep solves every ladder query once in one process (jobs1),
    then in nproc processes at once (jobs_nproc). Latencies come from
    the jobs1 batches; the small rung's are per-query medians, so its
    tail is over queries rather than scheduler noise."""
    (setup_query,) = read_rung("setup")
    setup_s = setup_times(
        run,
        lambda i: cli_argv("solve", "--facts", setup_query["facts"], "--query", setup_query["head"], setup_query["tail"]),
        run.work / "setup",
    )
    queries = [q for q in ladder_queries(run) for _ in range(LADDER_COPIES[q["rung"]])]
    spec = write_spec(run.work / "spec.json", queries)
    per_query: list[list[float]] = [[] for _ in queries]
    rates: dict[str, list[tuple[int, float]]] = {"jobs1": [], "jobs_nproc": []}
    rss = []
    for rep in range(max(2, round(seconds / LADDER_REP_S))):
        for label, jobs in (("jobs1", 1), ("jobs_nproc", NPROC)):
            begin = time.perf_counter()
            with ThreadPoolExecutor(jobs) as pool:
                done = list(pool.map(
                    lambda i: run_child(["solve-batch", str(spec)], run.work / f"rep{rep}-{label}-{i}.json", False),
                    range(jobs),
                ))
            rates[label].append((jobs * len(queries), time.perf_counter() - begin))
            for proc, stats in done:
                rss.append(proc.rss_mb)
                latencies = check_ladder_solves(run, stats, queries)
                if label == "jobs1":
                    for samples, latency in zip(per_query, latencies):
                        samples.append(latency)
    groups: dict[str, list[float]] = {name: [] for name in LADDER_RUNGS}
    for query, samples in zip(queries, per_query):
        if query["rung"] == "small":
            groups["small"].append(statistics.median(samples))
        else:
            groups[query["rung"]] += samples
    return {
        "setup_s": setup_s,
        **throughput_metrics(rates, run.notes),
        "peak_rss_mb": max(rss),
        **latency_metrics(groups, run.notes),
    }


def ladder_traced(run: Run) -> dict[str, float]:
    queries = ladder_queries(run)
    spec = write_spec(run.work / "spec.json", queries)
    base, base_stats = run_child(["solve-batch", str(spec)], run.work / "untraced-stats.json", False)
    check_ladder_solves(run, base_stats, queries)
    traced, stats = run_child(["solve-batch", str(spec)], run.work / "traced-stats.json", True)
    check_ladder_solves(run, stats, queries)
    paths = []
    for query in queries:
        counted = count_simple_paths(query["edges"], query["head"], query["tail"])
        if str(counted) != query["paths"]:
            raise BenchError(f"{query['facts']}: {counted} simple paths, header says {query['paths']}")
        paths.append(counted)
    metrics = layer_metrics(stats, traced.wall_s / base.wall_s - 1)
    metrics["solver.paths_per_query"] = statistics.mean(paths)
    run_over_budget(run)
    metrics["solver.over_budget.failed"] = run.failed_probes()
    return metrics


def run_over_budget(run: Run) -> None:
    """One `solve` process on the over-budget rung under the wall budget
    recorded in bench/expected.json; an answer within it must be the
    header's."""
    budget = json.loads(EXPECTED.read_text())["over_budget_s"]
    (query,) = read_rung("over")
    proc = run_proc(
        cli_argv("solve", "--facts", query["facts"], "--query", query["head"], query["tail"]),
        run.work / "over", budget,
    )
    record = run.probe("solve-over", proc)
    record["budget_s"] = budget
    if record["ok"] and proc.stdout.splitlines()[:1] != [query["expected"]]:
        run.fail(record, True, f"over-budget rung: expected {query['expected']}, got {proc.stdout[:200]!r}")


# -- per-layer metrics --------------------------------------------------

LAYERS = ("familygraph", "chains", "narrative", "solver", "dataset", "cli", "ontology")
REJECTION_CAUSES = (
    "ClosureConflictError", "UnexpandableError", "NoiseSearchError", "NoPathError",
    "AmbiguousAnswerError", "NoEligibleTemplateError", "CoverageError",
    "PoolExhaustedError", "returned_none",
)
ROW_KEYS = ("train.k2", "train.k3", *(f"test.k{k}" for k in range(2, 11)))


def layer_metrics(stats: dict, overhead: float) -> dict[str, float]:
    trace = stats["trace"]
    funcs = trace["functions"]

    def get(metric: str, key: str):
        return funcs.get(metric, {}).get(key, 0)

    def failed(metric: str, cause: str | None = None) -> int:
        causes = funcs.get(metric, {}).get("failed", {})
        return causes.get(cause, 0) if cause else sum(causes.values())

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(f["self_s"] for f in funcs.values() if f["layer"] == layer)
    metrics["cli.self_s"] += stats["import_s"]
    covered = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    for metric in (
        "familygraph.default_name_pool", "familygraph.close_graph", "familygraph.generate_backbone",
        "familygraph.assign_names", "chains.backward_chain", "chains.sample_target", "chains.noise",
        "narrative.render_story", "solver.solve", "cli.parse_fact_file", "dataset.write_rows",
    ):
        metrics[f"{metric}.busy_s"] = get(metric, "busy_s")
    for metric in ("familygraph.default_name_pool", "familygraph.close_graph", "chains.backward_chain",
                   "chains.noise", "solver.solve"):
        metrics[f"{metric}.calls"] = get(metric, "calls")
    for metric in ("familygraph.close_graph", "chains.backward_chain", "chains.noise", "narrative.render_story"):
        metrics[f"{metric}.failed"] = failed(metric)
    closes = get("familygraph.close_graph", "calls") - failed("familygraph.close_graph")
    metrics["familygraph.close_graph.edges_out"] = get("familygraph.close_graph", "extra") / closes if closes else 0
    chains_calls = get("chains.backward_chain", "calls")
    metrics["chains.backward_chain.useful_ratio"] = (
        (chains_calls - failed("chains.backward_chain")) / chains_calls if chains_calls else 0
    )
    metrics["solver.solve.failed.ambiguous"] = failed("solver.solve", "AmbiguousAnswerError")
    metrics["solver.solve.failed.no_path"] = failed("solver.solve", "NoPathError")
    metrics["solver.paths_per_query"] = 0
    metrics["solver.over_budget.failed"] = 0
    rows = trace["rows"]
    total_rows = sum(entry["rows"] for entry in rows.values())
    total_attempts = sum(entry["attempts"] for entry in rows.values())
    metrics["dataset.attempts_per_row"] = total_attempts / total_rows if total_rows else 0
    for key in ROW_KEYS:
        entry = rows.get(key)
        metrics[f"dataset.attempts_per_row.{key}"] = (
            entry["attempts"] / entry["rows"] if entry and entry["rows"] else 0
        )
    for cause in REJECTION_CAUSES:
        metrics[f"dataset.rejected.{cause}"] = sum(e["rejected"].get(cause, 0) for e in rows.values())
    metrics["dataset.write_rows.bytes"] = get("dataset.write_rows", "extra")
    metrics["dataset.pool.efficiency"] = 0
    metrics["dataset.k_probe.failed"] = 0
    metrics["trace.overhead_frac"] = overhead
    metrics["trace.coverage_frac"] = covered / stats["wall_s"]
    return metrics


# -- result -------------------------------------------------------------

def machine_record() -> dict:
    cpu = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": NPROC,
        "cpu_model": cpu or platform.processor(),
        "mp_start_method": multiprocessing.get_start_method(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kinship_forge" / "cli.py").is_file():
        print(f"error: no kinship_forge sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    # SIGTERM unwinds like an interrupt, so running children are killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = OUT / "work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args.workload, args.seed, work)
    try:
        if args.workload in GEN_WORKLOADS:
            values = (gen_traced(run, args.workload) if args.trace
                      else gen_end_to_end(run, args.workload, args.seconds))
        else:
            values = ladder_traced(run) if args.trace else ladder_end_to_end(run, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        # outputs and logs are only needed until the checks ran; the
        # record keeps the stderr of every failed operation
        shutil.rmtree(work, ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / run.attempted if run.attempted else 0,
        "problems": run.problems,
        "metrics": metrics,
        "notes": run.notes,
        "ops": run.ops,
        "probes": run.probes,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  nproc {NPROC}")
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  failed_frac {record['failed_frac']:.4f} ({run.failed} of {run.attempted} operations)")
    for probe in run.probes:
        outcome = "finished" if probe["ok"] else "timed out" if probe["timed_out"] else f"exit {probe['code']}"
        print(f"  probe {probe['kind']}: {outcome} after {probe['wall_s']:.2f} s")
    for key in ("solve.small.tail_percentile", "solve.small.samples", "master_seeds"):
        if key in run.notes:
            print(f"  {key}: {run.notes[key]}")
    for problem in run.problems[:10]:
        print(f"  problem: {problem}"[:400])
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
