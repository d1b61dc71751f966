"""Write the committed benchmark inputs and reference hashes.

Run from the root of a kinship-forge checkout:

    python3 bench/record.py ladder   # rewrite bench/ladder/*.facts
    python3 bench/record.py hashes   # rewrite bench/expected.json hashes

`ladder` builds the solve-ladder fact files once, so later changes to
the generator cannot change the solver's inputs. Every rung is the
closed family of `BackboneParams(generations=4, seed=11)` restricted to
its first n people. The small rung asks every ordered pair the closure
labels; the others ask person 0 to person 2. Each `# query:` header
records the pair, the expected answer (the closure label, or
`ambiguous` where the facts also derive another relation) and the
number of simple paths between the pair (at most 12 edges, as the
solver searches).

`hashes` runs every generation workload at each committed master seed
and records the sha256 of its three output files. A change that alters
the output on purpose re-records them here and says so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

LADDER_SOURCE = "close_graph(generate_backbone(BackboneParams(generations=4, seed=11)))"
RUNG_PEOPLE = {"small": 8, "medium": 9, "large": 10, "over": 14}
# the small rung asks every labelled ordered pair; the others ask this one
QUERY = (0, 2)
# counting stops here; the over-budget rung has more paths than this
PATH_COUNT_CAP = 2_000_000


def _name(entity: int) -> str:
    return f"p{entity:02d}"


def write_ladder() -> None:
    sys.path.insert(0, str(run.SRC))
    from kinship_forge.errors import AmbiguousAnswerError
    from kinship_forge.familygraph import BackboneParams, close_graph, generate_backbone
    from kinship_forge.ontology import surface
    from kinship_forge.solver import solve

    g = close_graph(generate_backbone(BackboneParams(generations=4, seed=11)))
    genders = {i: e.gender for i, e in g.entities.items()}
    run.LADDER_DIR.mkdir(exist_ok=True)
    for rung, people in RUNG_PEOPLE.items():
        facts = [f for f in g.facts() if f.src < people and f.dst < people]
        edges = [(f.src, f.dst) for f in facts]
        if rung == "small":
            pairs = [(a, b) for a in range(people) for b in range(people)
                     if a != b and g.predicate(a, b) is not None]
        else:
            pairs = [QUERY]
        lines = [f"# solve-ladder rung {rung}: {LADDER_SOURCE}, first {people} people",
                 "# each query line: HEAD TAIL ANSWER SIMPLE-PATHS"]
        for head, tail in pairs:
            label = surface(g.predicate(head, tail), g.gender(tail))
            if rung != "over":
                # the closure label is the answer unless the facts also
                # derive another relation, which `solve` reports
                try:
                    if solve(facts, (head, tail), genders).label != label:
                        raise SystemExit(f"{rung} {head}->{tail}: solver disagrees with closure")
                except AmbiguousAnswerError:
                    label = "ambiguous"
            paths = run.count_simple_paths(edges, head, tail, cap=PATH_COUNT_CAP)
            paths_text = str(paths) if paths < PATH_COUNT_CAP else f">={PATH_COUNT_CAP}"
            lines.append(f"# query: {_name(head)} {_name(tail)} {label} {paths_text}")
        lines += [
            f"{surface(f.pred, g.gender(f.dst))}({_name(f.src)}, {_name(f.dst)})"
            for f in facts
        ]
        (run.LADDER_DIR / f"{rung}.facts").write_text("\n".join(lines) + "\n")
        print(f"{rung}: {people} people, {len(facts)} facts, {len(pairs)} queries")
    head, tail = QUERY
    answer = surface(g.predicate(head, tail), g.gender(tail))
    setup = [
        "# set-up probe: one fact, answered without search",
        f"# query: {_name(head)} {_name(tail)} {answer} 1",
        f"{answer}({_name(head)}, {_name(tail)})",
    ]
    (run.LADDER_DIR / "setup.facts").write_text("\n".join(setup) + "\n")


def record_hashes() -> None:
    expected = json.loads(run.EXPECTED.read_text())
    work = run.ROOT / ".bench_out" / "record"
    hashes: dict[str, dict[str, dict[str, str]]] = {}
    for name, workload in run.GEN_WORKLOADS.items():
        for reps in (False, True):
            key = run.hash_key(name, reps)
            hashes[key] = {}
            for seed in expected["master_seeds"]:
                out = work / key / str(seed)
                proc = run.run_generate(workload, reps, seed, 1, out, timeout=600)
                if proc.code != 0:
                    raise SystemExit(f"{key} seed {seed}: exit {proc.code}")
                hashes[key][str(seed)] = run.output_hashes(out, workload)
                print(f"{key} seed {seed}: {proc.wall_s:.2f} s", flush=True)
    expected["hashes"] = hashes
    run.EXPECTED.write_text(json.dumps(expected, indent=2) + "\n")


if __name__ == "__main__":
    command = sys.argv[1] if len(sys.argv) > 1 else ""
    if command == "ladder":
        write_ladder()
    elif command == "hashes":
        record_hashes()
    else:
        sys.exit(__doc__)
