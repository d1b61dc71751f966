"""In-process runner for the benchmark: traced `generate` and timed `solve`.

Run from the root of a kinship-forge checkout:

    python3 bench/child.py STATS.json [--trace] generate <generate flags...>
    python3 bench/child.py STATS.json [--trace] solve-batch SPEC.json

`generate` runs `kinship_forge.cli.main(["generate", ...])`. With
`--trace`, the functions that `kinship_forge.cli` and
`kinship_forge.dataset` call by module-level name are wrapped before the
call, so every stage is timed from outside the package; no source file
is edited. `solve-batch` times `cli.cmd_solve` (fact-file parse plus
fold) on each query of SPEC.json, a list of objects with `facts` (a
fact-file path) and `query` ([head, tail]).

STATS.json receives the wall time, the exit code, and with `--trace` the
per-function and per-(split, k) counts described in bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

T0 = time.perf_counter()

# (module, attribute, layer, metric name); every name is looked up by
# the calling module at call time, so replacing the attribute wraps it.
CLI_TARGETS = (
    ("cli", "main", "cli", "cli.main"),
    ("cli", "cmd_solve", "cli", "cli.cmd_solve"),
    ("cli", "parse_fact_file", "cli", "cli.parse_fact_file"),
    ("cli", "default_rulebase", "ontology", "ontology.default_rulebase"),
    ("cli", "synth_bank", "narrative", "narrative.synth_bank"),
    ("cli", "generate_dataset", "dataset", "dataset.generate_dataset"),
    ("cli", "write_rows", "dataset", "dataset.write_rows"),
    ("cli", "solve", "solver", "solver.solve"),
)
DATASET_TARGETS = (
    ("dataset", "enumerate_shapes", "ontology", "ontology.enumerate_shapes"),
    ("dataset", "split_bank", "narrative", "narrative.split_bank"),
    ("dataset", "generate_backbone", "familygraph", "familygraph.generate_backbone"),
    ("dataset", "close_graph", "familygraph", "familygraph.close_graph"),
    ("dataset", "default_name_pool", "familygraph", "familygraph.default_name_pool"),
    ("dataset", "assign_names", "familygraph", "familygraph.assign_names"),
    ("dataset", "sample_target", "chains", "chains.sample_target"),
    ("dataset", "backward_chain", "chains", "chains.backward_chain"),
    ("dataset", "sample_supporting_noise", "chains", "chains.noise"),
    ("dataset", "sample_irrelevant_noise", "chains", "chains.noise"),
    ("dataset", "sample_disconnected_noise", "chains", "chains.noise"),
    ("dataset", "render_story", "narrative", "narrative.render_story"),
    ("dataset", "solve", "solver", "solver.solve"),
)
class FuncStats:
    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.failed: dict[str, int] = defaultdict(int)
        self.extra = 0

    def as_dict(self) -> dict:
        return {
            "layer": self.layer,
            "calls": self.calls,
            "busy_s": self.busy_s,
            "self_s": self.self_s,
            "failed": dict(self.failed),
            "extra": self.extra,
        }


class Tracer:
    """Spans around wrapped calls, kept in memory and dumped once.

    A call's self time is its duration minus the durations of the
    wrapped calls made inside it. Row attempts are read off the calls
    `dataset` makes: a 4-part `derive_seed(master, split, k, index)`
    opens a row, each `generate_backbone` opens an attempt, and the
    first exception escaping a wrapped call names the attempt's
    rejection cause. An attempt closed by a later attempt of the same
    row without such an exception returned nothing (held-out shape or
    label mismatch); the last attempt of a row produced it.
    """

    def __init__(self) -> None:
        self.funcs: dict[str, FuncStats] = {}
        self._inner: list[float] = []
        self.rows: dict[str, dict] = {}
        self._row: str | None = None
        self._attempt_open = False
        self._cause: str | None = None
        self.orphan_attempts = 0

    # -- timing -----------------------------------------------------
    def wrap(self, module, attr: str, layer: str, metric: str) -> None:
        fn = getattr(module, attr)
        stats = self.funcs.setdefault(metric, FuncStats(layer))
        inner = self._inner
        after = {
            "familygraph.close_graph": self._after_close,
            "dataset.write_rows": self._after_write,
        }.get(metric)
        before = self._start_attempt if metric == "familygraph.generate_backbone" else None

        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            inner.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                stats.failed[type(exc).__name__] += 1
                if self._attempt_open and self._cause is None:
                    self._cause = type(exc).__name__
                raise
            finally:
                duration = time.perf_counter() - start
                nested = inner.pop()
                if inner:
                    inner[-1] += duration
                stats.calls += 1
                stats.busy_s += duration
                stats.self_s += duration - nested
            if after is not None:
                after(stats, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)

    @staticmethod
    def _after_close(stats: FuncStats, args, kwargs, result) -> None:
        stats.extra += result.edge_count

    @staticmethod
    def _after_write(stats: FuncStats, args, kwargs, result) -> None:
        stats.extra += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])

    # -- attempt accounting -----------------------------------------
    def wrap_derive_seed(self, module) -> None:
        fn = module.derive_seed

        def derive_seed(*parts):
            if len(parts) == 4 and parts[1] in ("train", "test"):
                self._close_row()
                self._row = f"{parts[1]}.k{parts[2]}"
                self.rows.setdefault(
                    self._row, {"rows": 0, "attempts": 0, "rejected": defaultdict(int)}
                )
            return fn(*parts)

        module.derive_seed = derive_seed

    def _start_attempt(self) -> None:
        if self._row is None:
            self.orphan_attempts += 1
            return
        if self._attempt_open:
            self.rows[self._row]["rejected"][self._cause or "returned_none"] += 1
        self.rows[self._row]["attempts"] += 1
        self._attempt_open = True
        self._cause = None

    def _close_row(self) -> None:
        if self._row is not None and self._attempt_open:
            entry = self.rows[self._row]
            if self._cause is None:
                entry["rows"] += 1
            else:
                entry["rejected"][self._cause] += 1
        self._row = None
        self._attempt_open = False
        self._cause = None

    def report(self) -> dict:
        self._close_row()
        return {
            "functions": {name: s.as_dict() for name, s in self.funcs.items()},
            "rows": {
                key: {**entry, "rejected": dict(entry["rejected"])}
                for key, entry in self.rows.items()
            },
            "orphan_attempts": self.orphan_attempts,
        }


def install(tracer: Tracer, cli, dataset) -> None:
    modules = {"cli": cli, "dataset": dataset}
    for module_name, attr, layer, metric in CLI_TARGETS + DATASET_TARGETS:
        tracer.wrap(modules[module_name], attr, layer, metric)
    tracer.wrap_derive_seed(dataset)


def run_generate(cli, argv: list[str]) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["generate", *argv])
    return {"exit_code": code}


def run_solve_batch(cli, error_type, spec_path: str) -> dict:
    spec = json.loads(Path(spec_path).read_text())
    results = []
    for item in spec:
        args = argparse.Namespace(facts=item["facts"], query=list(item["query"]), rules=None)
        out = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                cli.cmd_solve(args)
        except error_type as exc:
            error = type(exc).__name__
        latency = time.perf_counter() - start
        lines = out.getvalue().splitlines()
        results.append(
            {
                "facts": item["facts"],
                "query": item["query"],
                "latency_s": latency,
                "label": lines[0] if lines and error is None else None,
                "error": error,
            }
        )
    return {"exit_code": 0, "solves": results}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("stats")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("mode", choices=("generate", "solve-batch"))
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    sys.path.insert(0, str(Path("src").resolve()))
    start_import = time.perf_counter()
    from kinship_forge import cli, dataset
    from kinship_forge.errors import KinshipForgeError

    import_s = time.perf_counter() - start_import
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install(tracer, cli, dataset)
    if args.mode == "generate":
        stats = run_generate(cli, args.rest)
    else:
        stats = run_solve_batch(cli, KinshipForgeError, args.rest[0])
    stats["wall_s"] = time.perf_counter() - T0
    stats["import_s"] = import_s
    if tracer is not None:
        stats["trace"] = tracer.report()
    Path(args.stats).write_text(json.dumps(stats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
