#!/usr/bin/env python3
"""Per-query floors from a live csq_server's `profile=1` answers.

    csq_server --addr 127.0.0.1:7878 --threads 2 --scale 1200 &
    scripts/profile_queries.py http://127.0.0.1:7878 [repeats=7] [Q1 Q5 ...]

For every named query (default: the service's Q1..Q14) asks `repeats` times
and prints, each column the floor over the repeats, in ms: the request's wall
as the client saw it, the `execute` and `plan` spans, the root `Project`
span and the `Gather` span inside `execute`, and `finalize` = request -
execute - plan (decode, render, HTTP). `route` is how the root was answered:
`runs` (counted on the factorized runs), `eager` (counted on each part's
rows), `fallback` (expanded, gathered, de-duplicated, cut) — read from the
root Project span's `bounded` / `runs_emitted` attributes; `-` on a server
that predates the bounded root. `expanded` is that span's `rows_expanded`.
`keys from` names every keyed scan — one restricted by a key set in scope —
by operator ids, read from the scan spans' `keys_from` attribute: a sought
scan (`keys_in`) as `scan<join`, a filtered one (`keys_filtered`) as
`scan~join`. `2<14` says `MapScan#2` read only the keys that the smallest
evaluated input of `ReduceJoin#14` holds; `2~14` that it read its files in
full and bound only the triples whose key that input holds. The join is the
scan's own consumer, or an ancestor when the keys crossed a level of the
plan; `-` when no scan was restricted.
Only localhost is ever contacted.
"""
import json
import sys
import time
import urllib.request

DEFAULT_QUERIES = [f"Q{i}" for i in range(1, 15)]


def spans(node):
    yield node
    for child in node["children"]:
        yield from spans(child)


def ask(base, name):
    started = time.perf_counter()
    with urllib.request.urlopen(f"{base}/query?name={name}&profile=1") as response:
        body = response.read()
    wall_ms = (time.perf_counter() - started) * 1e3
    answer = json.loads(body)
    by_name = {}
    for span in spans(answer["profile"]["root"]):
        by_name.setdefault(span["name"].split("#")[0], []).append(span)
    ms = lambda name: sum(s["wall_s"] for s in by_name.get(name, [])) * 1e3
    project = by_name["Project"][-1]["attrs"] if "Project" in by_name else {}
    keyed = [
        span["name"].split("#")[1]
        + ("<" if "keys_in" in span["attrs"] else "~")
        + str(span["attrs"]["keys_from"])
        for span in by_name.get("MapScan", [])
        if "keys_from" in span["attrs"]
    ]
    if "bounded" not in project:
        route = "-"
    elif not project["bounded"]:
        route = "fallback"
    else:
        route = "runs" if "runs_emitted" in project else "eager"
    return {
        "total_rows": answer["total_rows"],
        "route": route,
        "expanded": project.get("rows_expanded", 0),
        "keys_from": ",".join(keyed) or "-",
        "request": wall_ms,
        "execute": ms("execute"),
        "plan": ms("plan"),
        "Project": ms("Project"),
        "Gather": ms("Gather"),
        "finalize": wall_ms - ms("execute") - ms("plan"),
    }


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    base = sys.argv[1].rstrip("/")
    repeats = int(sys.argv[2]) if len(sys.argv) > 2 else 7
    queries = sys.argv[3:] or DEFAULT_QUERIES
    timed = ["request", "execute", "Project", "Gather", "finalize"]
    print(
        f"{'query':<6}{'total_rows':>11}{'route':>10}{'expanded':>10}"
        + "".join(f"{c:>10}" for c in timed)
        + "  keys from"
    )
    totals = dict.fromkeys(timed, 0.0)
    for name in queries:
        runs = [ask(base, name) for _ in range(repeats)]
        floor = {c: min(run[c] for run in runs) for c in timed}
        for c in timed:
            totals[c] += floor[c]
        last = runs[-1]
        print(
            f"{name:<6}{last['total_rows']:>11}{last['route']:>10}{last['expanded']:>10}"
            + "".join(f"{floor[c]:>10.2f}" for c in timed)
            + f"  {last['keys_from']}"
        )
    print(f"{'sum':<6}{'':>11}{'':>10}{'':>10}" + "".join(f"{totals[c]:>10.2f}" for c in timed))


if __name__ == "__main__":
    main()
