#!/usr/bin/env python3
"""Validate one region profile exported in all three `/profile` formats.

Given the folded-stack text, JSON, and SVG renderings of the same
profile, checks in order:

1. folded grammar: every line is ``frame(;frame)* <int self-us>`` with
   non-empty frames, and lines are in sorted order (the renderer's
   byte-stability contract);
2. JSON schema: a ``paths`` array of objects carrying exactly
   ``stack``, ``calls``, ``total_us`` and ``self_us`` (the retired
   wall-clock sampler's ``samples`` must not come back) with
   ``self_us <= total_us``, a ``dropped`` counter, and per-parent
   consistency — the sum of a stack's direct children's totals never
   exceeds the parent's total (beyond micro-second rounding);
3. the SVG parses as XML and contains one rect per visible frame;
4. every ``--require`` region name appears somewhere in the JSON stacks,
   and at least ``--min-regions`` distinct region names were recorded;
5. with ``--attribution-min R`` (dist-mode profiles): the scenario
   execution layer accounts for at least fraction R of the worker
   execute envelope — sum of ``exec.point`` totals >= R * sum of
   ``worker.shard.execute`` totals.

Exits non-zero with a message on the first violation; prints a one-line
summary on success.
"""

import argparse
import json
import re
import sys
import xml.etree.ElementTree as ET

LINE = re.compile(r"^(?P<stack>[^ ]+(?: [^ ]+)*) (?P<n>\d+)$")

# The fields of one JSON path, no more and no fewer.
PATH_KEYS = {"stack", "calls", "total_us", "self_us"}


def fail(msg: str) -> None:
    print(f"check_profile: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_folded(path: str) -> list:
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        fail("folded output is empty")
    stacks = []
    for i, line in enumerate(lines):
        m = LINE.match(line)
        if not m:
            fail(f"folded line {i + 1} does not match 'stack <int>': {line!r}")
        stack = m.group("stack")
        frames = stack.split(";")
        if any(not fr for fr in frames):
            fail(f"folded line {i + 1} has an empty frame: {line!r}")
        stacks.append(stack)
    if stacks != sorted(stacks):
        fail("folded lines are not in sorted order")
    return stacks


def check_json(path: str) -> list:
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"profile JSON does not parse: {e}")
    if not isinstance(doc.get("dropped"), int):
        fail("profile JSON lacks an integer 'dropped'")
    paths = doc.get("paths")
    if not isinstance(paths, list) or not paths:
        fail("profile JSON lacks a non-empty 'paths' array")
    by_stack = {}
    for i, p in enumerate(paths):
        if not isinstance(p, dict) or set(p) != PATH_KEYS:
            fail(f"path {i} does not carry exactly {sorted(PATH_KEYS)}: {p!r}")
        for key in ("calls", "total_us", "self_us"):
            if not isinstance(p.get(key), int) or p[key] < 0:
                fail(f"path {i} has bad {key}: {p.get(key)!r}")
        if not isinstance(p.get("stack"), str) or not p["stack"]:
            fail(f"path {i} has no stack")
        if p["self_us"] > p["total_us"]:
            fail(f"path {p['stack']!r}: self {p['self_us']} > total {p['total_us']}")
        by_stack[p["stack"]] = p
    # A parent's total bounds its direct children (1 us rounding slack
    # per child: the renderer rounds ns to us independently).
    children = {}
    for stack in by_stack:
        if ";" in stack:
            children.setdefault(stack.rsplit(";", 1)[0], []).append(stack)
    for parent, kids in children.items():
        if parent not in by_stack:
            fail(f"stack {kids[0]!r} has no parent entry {parent!r}")
        total = sum(by_stack[k]["total_us"] for k in kids)
        if total > by_stack[parent]["total_us"] + len(kids):
            fail(
                f"children of {parent!r} sum to {total} us, "
                f"more than the parent's {by_stack[parent]['total_us']} us"
            )
    return paths


def check_svg(path: str) -> int:
    try:
        tree = ET.parse(path)
    except ET.ParseError as e:
        fail(f"SVG does not parse: {e}")
    ns = {"svg": "http://www.w3.org/2000/svg"}
    rects = tree.getroot().findall(".//svg:rect", ns)
    if len(rects) < 2:
        fail(f"SVG has {len(rects)} rects; expected a background plus frames")
    return len(rects)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("folded", help="folded-stack text rendering")
    ap.add_argument("json", help="JSON rendering")
    ap.add_argument("svg", help="SVG flamegraph rendering")
    ap.add_argument(
        "--min-regions",
        type=int,
        default=1,
        help="minimum distinct region names that must appear",
    )
    ap.add_argument(
        "--require",
        default="",
        help="comma-separated region names that must appear in some stack",
    )
    ap.add_argument(
        "--attribution-min",
        type=float,
        default=None,
        help="minimum fraction of worker.shard.execute total time that "
        "exec.point entries must account for (dist-mode profiles)",
    )
    args = ap.parse_args()

    folded_stacks = check_folded(args.folded)
    paths = check_json(args.json)
    rects = check_svg(args.svg)

    regions = {frame for p in paths for frame in p["stack"].split(";")}
    for name in filter(None, args.require.split(",")):
        if name not in regions:
            fail(f"required region {name!r} absent (have: {sorted(regions)})")
    if len(regions) < args.min_regions:
        fail(f"only {len(regions)} regions recorded, need >= {args.min_regions}")

    attribution = None
    if args.attribution_min is not None:
        leaf_total = lambda name: sum(  # noqa: E731
            p["total_us"] for p in paths if p["stack"].split(";")[-1] == name
        )
        exec_us = leaf_total("exec.point")
        shard_us = leaf_total("worker.shard.execute")
        if shard_us == 0:
            fail("no worker.shard.execute entries for the attribution check")
        attribution = exec_us / shard_us
        if attribution < args.attribution_min:
            fail(
                f"exec.point accounts for {attribution:.1%} of the "
                f"worker execute envelope, need >= {args.attribution_min:.0%}"
            )

    extra = f", attribution {attribution:.1%}" if attribution is not None else ""
    print(
        f"check_profile: OK: {len(folded_stacks)} folded stacks, "
        f"{len(paths)} JSON paths, {rects} SVG rects, "
        f"{len(regions)} regions{extra}"
    )


if __name__ == "__main__":
    main()
