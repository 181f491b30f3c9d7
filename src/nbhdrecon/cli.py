"""Command-line interface.

Subcommands: ``nbhd`` (invariant extraction), ``convex`` (digital convexity),
``reconstruct`` (realize an invariant), ``mine`` (collision sweep),
``verify`` (exhaustive collision-pair audits), ``convert`` (format bridging).

Output is line-oriented JSON.  Exit codes: 0 success or a unique
reconstruction, 2 ambiguous, 3 infeasible, 1 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .convexity import convexity_witness, digital_convexity
from .errors import FormatError, InputError, NbhdReconError
from .families import neighborhood_multiset
from .formats import (
    collision_json_blocks,
    dumps_canonical,
    family_from_json_dict,
    family_to_json_dict,
    from_graph6,
    graph_from_json_dict,
    graph_to_json_dict,
    multiset_from_json_dict,
    multiset_to_json_dict,
    parse_json,
    to_dot,
    to_graph6,
)
from .graphs import VertexSet, mask_members
from .miner import KINDS, collision_arrays, verify_collisions
from .reconstruct import (
    DEFAULT_SOLUTION_LIMIT,
    ReconstructionResult,
    from_digital_convexity,
    from_multiset,
    from_support,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_AMBIGUOUS = 2
EXIT_INFEASIBLE = 3

_VERDICT_EXIT = {"unique": EXIT_OK, "ambiguous": EXIT_AMBIGUOUS,
                 "infeasible": EXIT_INFEASIBLE}


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"input is not UTF-8: {exc.reason}", position=exc.start) from exc


def _load_graph(text: str):
    """Accept a graph6 line or a JSON graph object, by sniffing."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return graph_from_json_dict(parse_json(text))
    return from_graph6(text)


def _parse_vertex_ids(text: str, n: int) -> list[int]:
    """Parse ``--set``: a JSON array of distinct vertex ids, each an integer
    in 0..n-1."""
    members = parse_json(text)
    if not isinstance(members, list):
        raise InputError("--set must be a JSON array of vertex ids")
    seen = 0
    for v in members:
        if type(v) is not int:  # bool is an int subclass; reject it too
            raise InputError(f"--set: vertex id {json.dumps(v)} is not an integer")
        if not 0 <= v < n:
            raise InputError(f"--set: vertex id {v} outside 0..{n - 1}")
        if seen >> v & 1:
            raise InputError(f"--set: vertex id {v} listed twice")
        seen |= 1 << v
    return members


def _result_json(result: ReconstructionResult, count_only: bool = False,
                 with_dot: bool = False) -> dict:
    out = {
        "verdict": result.verdict,
        "truncated": result.truncated,
        "stats": {
            "solutions": result.solution_count,
            "nodes_explored": result.nodes_explored,
            "elapsed_s": round(result.elapsed, 6),
        },
    }
    if count_only:
        out["count"] = result.solution_count
    else:
        out["graphs"] = [{"graph6": to_graph6(g),
                          "edges": [list(e) for e in g.edges()]}
                         for g in result.graphs]
        if with_dot:
            for record, g in zip(out["graphs"], result.graphs):
                record["dot"] = to_dot(g)
    return out


def cmd_nbhd(args) -> int:
    g = _load_graph(_read_input(args.input))
    m = neighborhood_multiset(g, closed=not args.open)
    if args.support:
        print(dumps_canonical(family_to_json_dict(m.support())))
    else:
        print(dumps_canonical(multiset_to_json_dict(m)))
    return EXIT_OK


def cmd_convex(args) -> int:
    g = _load_graph(_read_input(args.input))
    if args.set is not None:
        members = _parse_vertex_ids(args.set, g.n)
        s = VertexSet.from_members(members, g.n)
        witness = convexity_witness(g, s)
        record = {"set": sorted(members), "digitally_convex": witness.convex}
        if witness.convex:
            record["private_neighbors"] = {str(v): x
                                           for v, x in sorted(witness.private_neighbors.items())}
        else:
            record["violator"] = witness.violator
        print(dumps_canonical(record))
        return EXIT_OK
    family = digital_convexity(g)
    if args.json:
        print(dumps_canonical(family_to_json_dict(family)))
    else:
        for mask in family.masks:
            print(json.dumps(list(mask_members(mask))))
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    """Without ``--all`` or ``--count``, search for one realization past
    the first, so that ``unique`` is certified, and print one graph."""
    obj = parse_json(_read_input(args.input))
    mode = "count" if args.count else "all"
    limit = args.limit if args.all or args.count else 1
    if args.source == "multiset":
        result = from_multiset(multiset_from_json_dict(obj), mode, limit)
    elif args.source == "support":
        result = from_support(family_from_json_dict(obj), mode, limit)
    else:
        result = from_digital_convexity(family_from_json_dict(obj), mode, limit)
    print(dumps_canonical(_result_json(result, count_only=args.count,
                                       with_dot=args.dot)))
    return _VERDICT_EXIT[result.verdict]


def cmd_mine(args) -> int:
    """One JSON line per collision group, written in blocks by
    :func:`~nbhdrecon.formats.collision_json_blocks`, which decides the
    record; each line equals ``dumps_canonical`` of the group's record."""
    groups = collision_arrays(args.n, args.kind, allow_large=args.deep, jobs=args.jobs)
    for block in collision_json_blocks(groups):
        sys.stdout.write(block)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = verify_collisions(args.n, allow_large=args.deep)
    print(dumps_canonical({
        "n": report.n,
        "graphs_swept": report.graphs_swept,
        "collision_groups": report.collision_groups,
        "pairs_checked": report.pairs_checked,
        "orbits_checked": report.orbits_checked,
        "violations": list(report.violations),
    }))
    return EXIT_OK


def cmd_convert(args) -> int:
    g = _load_graph(_read_input(args.input))
    if args.to == "g6":
        print(to_graph6(g))
    elif args.to == "json":
        print(dumps_canonical(graph_to_json_dict(g)))
    else:
        sys.stdout.write(to_dot(g))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbhdrecon",
        description="Reconstruct labeled graphs from closed neighborhoods "
                    "and digital convexities; mine and verify invariant collisions.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nbhd", help="extract a neighborhood invariant from a graph")
    p.add_argument("input", help="graph6 or JSON graph file, or - for stdin")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--closed", action="store_true", default=True,
                      help="closed neighborhoods (default)")
    mode.add_argument("--open", action="store_true", default=False,
                      help="open neighborhoods")
    shape = p.add_mutually_exclusive_group()
    shape.add_argument("--multiset", action="store_true", default=True,
                       help="keep multiplicities (default)")
    shape.add_argument("--support", action="store_true", default=False,
                       help="distinct sets only")
    p.set_defaults(func=cmd_nbhd)

    p = sub.add_parser("convex", help="enumerate digitally convex sets or test one set")
    p.add_argument("input", help="graph6 or JSON graph file, or - for stdin")
    p.add_argument("--set", help="JSON array of vertex ids to test")
    p.add_argument("--json", action="store_true",
                   help="emit the family as one canonical JSON object")
    p.set_defaults(func=cmd_convex)

    p = sub.add_parser("reconstruct", help="realize graphs from an invariant")
    p.add_argument("input", help="JSON family file, or - for stdin")
    p.add_argument("--from", dest="source", required=True,
                   choices=("multiset", "support", "dc"),
                   help="which invariant the input encodes")
    p.add_argument("--all", action="store_true",
                   help="list realizations up to --limit (default: one, and unique is certified)")
    p.add_argument("--count", action="store_true",
                   help="report the number of realizations instead of the graphs")
    p.add_argument("--limit", type=int, default=DEFAULT_SOLUTION_LIMIT,
                   help="solution cap with --all or --count (default %(default)s)")
    p.add_argument("--dot", action="store_true",
                   help="include a DOT drawing per returned graph")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("mine", help="sweep all labeled graphs for invariant collisions")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--kind", default="closed-multiset", choices=KINDS)
    p.add_argument("--deep", action="store_true",
                   help="allow the large sweeps (n=7 is millions of graphs, "
                        "n=8 is 268M graphs, about half a minute)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker threads for the key pass")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("verify", help="exhaustively check collision-pair properties")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--deep", action="store_true", help="allow n beyond 6")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("convert", help="convert a graph between formats")
    p.add_argument("input", help="graph6 or JSON graph file, or - for stdin")
    p.add_argument("--to", required=True, choices=("g6", "json", "dot"))
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader closed stdout (``mine ... | head``): stop without a
        # message, and send what is still buffered to devnull so that the
        # interpreter's last flush does not raise it again.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError):  # in-process stand-ins have no descriptor
            return EXIT_USAGE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return EXIT_USAGE
    except NbhdReconError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
