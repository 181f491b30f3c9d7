"""Serialization: graph6, DOT export, and the JSON graph/family formats.

graph6 follows the standard printable encoding for undirected graphs on at
most 62 vertices: one size byte (n + 63), then the upper triangle of the
adjacency matrix read column by column, packed big-endian into 6-bit groups,
each offset by 63.

The JSON set-family format is ``{"universe": n, "sets": [[...], ...]}`` with
each set a sorted integer array; canonical output orders the sets by (size,
lexicographic), which keeps serialized families diff-stable.  Multisets use
the same shape with repeated arrays.  Graphs serialize as
``{"n": ..., "labels": [...], "adjacency": [[...], ...]}``.

JSON output is ``dumps_canonical``: compact, keys sorted.  The one stream
too large for a dict and a ``json.dumps`` per record, the collision groups
of ``mine``, is written by ``collision_json_blocks`` straight from the
miner's arrays: each block of lines is one join over a table of text
pieces, indexed by an int array that numpy builds from the groups' fields,
offsets and checks.  ``dumps_canonical`` of the record dict stays its test
oracle, and the two agree byte for byte.
"""

from __future__ import annotations

import json
from collections.abc import Iterator

import numpy as np

from .errors import FormatError, InputError
from .families import NeighborhoodMultiset, SetFamily
from .graphs import Graph, mask_members
from .miner import CollisionArrays, PairArrays, _graph6_bytes

GRAPH6_MAX_VERTICES = 62
GRAPH6_HEADER = ">>graph6<<"

#: Collision groups per text block of :func:`collision_json_blocks`.
MINE_BLOCK_GROUPS = 4096


def to_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (labels are not preserved)."""
    n = g.n
    if n > GRAPH6_MAX_VERTICES:
        raise InputError(
            f"graph6 supports at most {GRAPH6_MAX_VERTICES} vertices, got {n}")
    out = [chr(n + 63)]
    buf = 0
    filled = 0
    for col in range(1, n):
        for row in range(col):
            buf = (buf << 1) | (1 if g.has_edge(row, col) else 0)
            filled += 1
            if filled == 6:
                out.append(chr(buf + 63))
                buf = 0
                filled = 0
    if filled:
        buf <<= 6 - filled
        out.append(chr(buf + 63))
    return "".join(out)


def from_graph6(text: str) -> Graph:
    """Decode one graph6 line (optional ``>>graph6<<`` header allowed)."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):].strip()
    if not s:
        raise FormatError("empty graph6 input")
    first = ord(s[0])
    if first == 126:
        raise FormatError("graph6 long-size encodings (>62 vertices) are not supported",
                          position=0)
    n = first - 63
    if not 1 <= n <= GRAPH6_MAX_VERTICES:
        raise FormatError(f"invalid graph6 size byte {s[0]!r}", position=0)
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    body = s[1:]
    if len(body) != need_bytes:
        raise FormatError(
            f"graph6 body for n={n} needs {need_bytes} bytes, got {len(body)}",
            position=1 + min(len(body), need_bytes))
    bits = []
    for i, ch in enumerate(body):
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise FormatError(f"invalid graph6 byte {ch!r}", position=1 + i)
        bits.extend((val >> (5 - b)) & 1 for b in range(6))
    if any(bits[need_bits:]):
        raise FormatError("nonzero padding bits in graph6 body", position=len(s) - 1)
    edges = []
    k = 0
    for col in range(1, n):
        for row in range(col):
            if bits[k]:
                edges.append((row, col))
            k += 1
    return Graph(n, edges)


def to_dot(g: Graph, name: str = "g") -> str:
    """GraphViz DOT text; isolated vertices get bare node statements.

    Labels are quoted DOT IDs, with backslashes and double quotes escaped.
    """
    ids = ['"' + str(label).replace("\\", "\\\\").replace('"', '\\"') + '"'
           for label in g.labels]
    lines = [f"graph {name} {{"]
    isolated = [v for v in range(g.n) if g.degree(v) == 0]
    for v in isolated:
        lines.append(f"  {ids[v]};")
    for u, v in g.edges():
        lines.append(f"  {ids[u]} -- {ids[v]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON graph format
# ---------------------------------------------------------------------------


def graph_to_json_dict(g: Graph) -> dict:
    return {
        "n": g.n,
        "labels": list(g.labels),
        "adjacency": [sorted(mask_members(g.adjacency_mask(v))) for v in range(g.n)],
    }


def graph_from_json_dict(obj: dict) -> Graph:
    if not isinstance(obj, dict):
        raise FormatError(f"expected a JSON object for a graph, got {type(obj).__name__}")
    if "n" not in obj:
        raise FormatError('graph JSON needs an "n" field')
    n = obj["n"]
    if type(n) is not int:  # bool is an int subclass; reject it too
        raise FormatError('"n" must be an integer')
    labels = obj.get("labels")
    if labels is not None and not (isinstance(labels, list) and all(
            isinstance(x, (str, int, float)) for x in labels)):
        raise FormatError('"labels" must be an array of strings or numbers')
    if "adjacency" in obj:
        adjacency = obj["adjacency"]
        if not isinstance(adjacency, list) or len(adjacency) != n:
            raise FormatError(f'"adjacency" must list neighbors for all {n} vertices')
        masks = [0] * n
        for u, nbrs in enumerate(adjacency):
            if not isinstance(nbrs, list):
                raise FormatError(f"adjacency entry for vertex {u} is not an array")
            for v in nbrs:
                if type(v) is not int or not 0 <= v < n:
                    raise FormatError(f"neighbor {v!r} of vertex {u} out of range")
                masks[u] |= 1 << v
        try:
            return Graph.from_adjacency_masks(masks, labels)
        except InputError as exc:
            raise FormatError(str(exc)) from exc
    if "edges" in obj:
        if not isinstance(obj["edges"], list):
            raise FormatError('"edges" must be an array of vertex pairs')
        edges = []
        for pair in obj["edges"]:
            if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                    or not all(type(x) is int for x in pair)):
                raise FormatError(f"edge {pair!r} is not a pair of integers")
            edges.append((pair[0], pair[1]))
        try:
            return Graph(n, edges, labels)
        except InputError as exc:
            raise FormatError(str(exc)) from exc
    raise FormatError('graph JSON needs an "adjacency" or "edges" field')


# ---------------------------------------------------------------------------
# JSON set-family / multiset format
# ---------------------------------------------------------------------------


def family_to_json_dict(f: SetFamily) -> dict:
    return {"universe": f.universe,
            "sets": [list(mask_members(m)) for m in f.masks]}


def multiset_to_json_dict(m: NeighborhoodMultiset) -> dict:
    return {"universe": m.universe,
            "sets": [list(mask_members(mask)) for mask in m.expanded_masks()]}


def _sets_from_json(obj: dict) -> tuple[int, list[int]]:
    """The universe and the member masks of a set-family or multiset
    object, in input order; a set listing a vertex twice is rejected."""
    if not isinstance(obj, dict):
        raise FormatError(f"expected a JSON object, got {type(obj).__name__}")
    if "universe" not in obj or "sets" not in obj:
        raise FormatError('set-family JSON needs "universe" and "sets" fields')
    universe = obj["universe"]
    sets = obj["sets"]
    if type(universe) is not int or universe < 0:
        raise FormatError('"universe" must be a non-negative integer')
    if not isinstance(sets, list):
        raise FormatError('"sets" must be an array of integer arrays')
    masks = []
    for i, members in enumerate(sets):
        if not isinstance(members, list) or not all(type(v) is int for v in members):
            raise FormatError(f'set #{i} is not an integer array')
        seen = 0
        for v in members:
            if not 0 <= v < universe:
                raise FormatError(f"set #{i} member {v} outside universe {universe}")
            if seen >> v & 1:
                raise FormatError(f"set #{i} lists vertex {v} twice")
            seen |= 1 << v
        masks.append(seen)
    return universe, masks


def family_from_json_dict(obj: dict) -> SetFamily:
    """Parse a set family; repeated sets are deduplicated."""
    return SetFamily(*_sets_from_json(obj))


def multiset_from_json_dict(obj: dict) -> NeighborhoodMultiset:
    """Parse a multiset; repeated arrays encode multiplicity."""
    return NeighborhoodMultiset(*_sets_from_json(obj))


def parse_json(text: str):
    """``json.loads`` with position-bearing diagnostics."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg}", position=exc.pos) from exc


def dumps_canonical(obj: dict) -> str:
    """Compact single-line JSON with stable key order."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def collision_json_blocks(groups: CollisionArrays,
                          first: PairArrays | None = None) -> Iterator[str]:
    """The JSON lines of ``mine``, one per collision group, in text blocks of
    :data:`MINE_BLOCK_GROUPS` groups.

    Line i is ``dumps_canonical`` of group i's record with its keys in sorted
    order: ``fingerprint``, ``graphs`` (graph6 of the members), ``kind`` and
    ``n``, and for a closed multiset ``checks`` and ``witness`` from
    ``first``, the :func:`~nbhdrecon.miner.first_pair_checks` of ``groups``.
    A block is one join over a table of pieces, indexed by an int array built
    with numpy: per group its head (the checks), one member text per field,
    the ``"graphs"`` separator, each member's graph6, the first bare and the
    others after ``","``, and its tail (the witness).  No Python object is
    built per group.
    """
    n = groups.n
    # Mask m prints as member text m, or 2^n + m after a comma.  A zero field
    # of a support is padding and prints nothing; a closed neighborhood is
    # never empty, and an empty open one prints as [].
    members = ["[" + ",".join(map(str, mask_members(m))) + "]" for m in range(1 << n)]
    if groups.kind == "closed-support":
        members[0] = ""
    tail = f'"],"kind":"{groups.kind}","n":{n}'
    count = len(groups.offsets) - 1
    if first is None:
        heads, tails = ['{"fingerprint":['], [tail + "}\n"]
        head_ids = tail_ids = np.zeros(count, dtype=np.intp)
    else:
        heads = [
            '{"checks":' + dumps_canonical({
                "both_contain_c4": bool(f & 8), "edge_transit": bool(f & 4),
                "equal_edge_count": bool(f & 2), "orbits_are_cliques": bool(f & 1),
            }) + ',"fingerprint":[' for f in range(16)]
        head_ids = (8 * first.both_contain_c4 + 4 * first.edge_transit
                    + 2 * first.equal_edge_count + first.orbits_are_cliques).astype(np.intp)
        witnesses, tail_ids = first._witness_index()
        tails = [tail + ',"witness":' + json.dumps(w) + "}\n" for w in witnesses]
    pieces = np.array([text.encode() for text in (
        members + ["," + text if text else "" for text in members]
        + heads + ['],"graphs":["'] + tails)], dtype=object)
    head_at = 2 << n
    separator = head_at + len(heads)
    tail_at = separator + 1
    graph6_at = tail_at + len(tails)
    fields = groups.fields.astype(np.intp)
    fields[:, 1:] += 1 << n
    row = n + 3  # the pieces of a line besides its graph6
    bounds = groups.offsets
    for lo in range(0, count, MINE_BLOCK_GROUPS):
        hi = min(lo + MINE_BLOCK_GROUPS, count)
        at = bounds[lo]
        graph6 = _graph6_bytes(n, groups.edge_masks[at:bounds[hi]])
        size, width = graph6.shape
        quoted = np.empty((size, width + 3), dtype=np.uint8)
        quoted[:, :3] = list(b'","')
        quoted[:, 3:] = graph6
        table = np.concatenate((pieces, graph6.view(f"S{width}").ravel().astype(object),
                                quoted.view(f"S{width + 3}").ravel().astype(object)))

        # Line k's pieces start at line[k]: head, n fields, separator, its
        # members' graph6, the first bare, and its tail.  So member t of the
        # block, in line k, is piece line[k] + n + 2 + t - first_member[k].
        sizes = np.diff(bounds[lo:hi + 1])
        first_member = bounds[lo:hi] - at
        line = np.arange(hi - lo) * row + first_member
        ids = np.empty((hi - lo) * row + size, dtype=np.intp)
        ids[np.repeat(line - first_member + n + 2, sizes) + np.arange(size)] = \
            graph6_at + size + np.arange(size)
        ids[line] = head_at + head_ids[lo:hi]
        ids[line[:, None] + np.arange(1, n + 1)] = fields[lo:hi]
        ids[line + n + 1] = separator
        ids[line + n + 2] = graph6_at + first_member
        ids[line + n + 2 + sizes] = tail_at + tail_ids[lo:hi]
        # graph6 bytes run from 63 to 126, so the backslash is the one
        # character in a line that JSON escapes.
        yield b"".join(table[ids].tolist()).replace(b"\\", b"\\\\").decode()
