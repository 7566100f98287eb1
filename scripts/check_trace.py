#!/usr/bin/env python3
"""Validate a `pas trace --format chrome` export.

Checks, in order:

1. the file is valid JSON with a top-level ``traceEvents`` array;
2. every event is either ``ph: "M"`` process metadata or a complete
   ``ph: "X"`` duration event (name, integer ts/dur/pid/tid, args with
   16-hex ``trace``/``span``/``parent`` ids);
3. all events share one trace id, span ids are unique, exactly one root
   (``parent == 0``, named ``job``) exists, and every non-root parent
   id resolves to a recorded span — i.e. the stitched tree is closed;
4. every ``pid`` maps to a named process, and at least ``--min-procs``
   distinct processes contributed spans (a dist-mode trace must span
   the server and every worker);
5. with ``--max-spans N``, the trace holds at most N spans (a job's
   span budget, docs/OBSERVABILITY.md).

Exits non-zero with a message on the first violation; prints a one-line
summary on success.
"""

import argparse
import json
import re
import sys

HEX16 = re.compile(r"^[0-9a-f]{16}$")


def fail(msg: str) -> None:
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", help="Chrome trace-event JSON file")
    ap.add_argument(
        "--min-procs",
        type=int,
        default=1,
        help="minimum distinct processes that must have recorded spans",
    )
    ap.add_argument(
        "--max-spans",
        type=int,
        default=None,
        help="maximum spans the trace may hold",
    )
    args = ap.parse_args()

    with open(args.trace, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"not valid JSON: {e}")

    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("no traceEvents array")

    proc_names = {}  # pid -> name
    spans = {}  # span id -> event
    traces = set()
    roots = []
    span_pids = set()

    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"event {i} is not an object")
        ph = ev.get("ph")
        if ph == "M":
            if ev.get("name") != "process_name":
                continue
            pid = ev.get("pid")
            name = ev.get("args", {}).get("name")
            if not isinstance(pid, int) or not name:
                fail(f"metadata event {i} lacks pid/name: {ev}")
            proc_names[pid] = name
            continue
        if ph != "X":
            fail(f"event {i} has unexpected ph {ph!r}")
        for key in ("ts", "dur", "pid", "tid"):
            if not isinstance(ev.get(key), int):
                fail(f"X event {i} ({ev.get('name')!r}) has non-integer {key}")
        if not ev.get("name"):
            fail(f"X event {i} has no name")
        a = ev.get("args")
        if not isinstance(a, dict):
            fail(f"X event {i} ({ev['name']!r}) has no args object")
        for key in ("trace", "span", "parent"):
            v = a.get(key)
            if not isinstance(v, str) or not HEX16.match(v):
                fail(f"X event {i} ({ev['name']!r}) args.{key} is not 16-hex: {v!r}")
        traces.add(a["trace"])
        if a["span"] in spans:
            fail(f"duplicate span id {a['span']} ({ev['name']!r})")
        spans[a["span"]] = ev
        span_pids.add(ev["pid"])
        if a["parent"] == "0" * 16:
            roots.append(ev)

    if not spans:
        fail("no X events recorded")
    if len(traces) != 1:
        fail(f"expected one trace id, found {len(traces)}: {sorted(traces)}")
    if len(roots) != 1:
        fail(f"expected exactly one root span, found {len(roots)}")
    if roots[0]["name"] != "job":
        fail(f"root span is {roots[0]['name']!r}, expected 'job'")

    for ev in spans.values():
        parent = ev["args"]["parent"]
        if parent != "0" * 16 and parent not in spans:
            fail(f"span {ev['name']!r} ({ev['args']['span']}) has missing parent {parent}")

    for pid in span_pids:
        if pid not in proc_names:
            fail(f"pid {pid} has spans but no process_name metadata")
    if len(span_pids) < args.min_procs:
        fail(
            f"spans from {len(span_pids)} process(es) "
            f"({sorted(proc_names[p] for p in span_pids)}), need >= {args.min_procs}"
        )

    if args.max_spans is not None and len(spans) > args.max_spans:
        fail(f"{len(spans)} spans, over the budget of {args.max_spans}")

    names = sorted({ev["name"] for ev in spans.values()})
    procs = sorted(proc_names[p] for p in span_pids)
    print(
        f"check_trace: OK: {len(spans)} spans, 1 trace, 1 root, "
        f"{len(span_pids)} procs {procs}, span names {names}"
    )


if __name__ == "__main__":
    main()
