"""graph6 codec for orders 0..64.

The format is the order n followed by the upper-triangle adjacency bits
in column order x(0,1); x(0,2), x(1,2); x(0,3), ...; zero-padded to a
multiple of six, each six-bit group offset by 63 into ASCII 63..126.
Orders up to 62 take one byte n+63; larger ones take ``~`` and then n as
three six-bit groups.  A size header above 64 vertices, the 8-byte
``~~`` form included, is refused.
"""

from __future__ import annotations

from .graphs import MAX_ORDER, Graph, make_graph


class Graph6Error(ValueError):
    """Malformed graph6 input; the message carries the byte offset."""


def graph6_encode(g: Graph) -> str:
    if g.n <= 62:
        out = [chr(g.n + 63)]
    else:
        out = ["~"] + [chr((g.n >> shift & 63) + 63) for shift in (12, 6, 0)]
    group = 0
    nbits = 0
    for v in range(1, g.n):
        for u in range(v):
            group = (group << 1) | ((g.adj[u] >> v) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(group + 63))
                group = nbits = 0
    if nbits:
        out.append(chr((group << (6 - nbits)) + 63))
    return "".join(out)


def graph6_decode(line: str) -> Graph:
    line = line.strip()
    if not line:
        raise Graph6Error("empty graph6 line (offset 0)")
    for pos, ch in enumerate(line):
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"byte {ord(ch)} out of graph6 range at offset {pos}")
    groups = [ord(ch) - 63 for ch in line]
    # size header: one byte, or "~" and three groups, or "~~" and six groups
    start, head = (0, 1) if groups[0] < 63 else (2, 8) if groups[1:2] == [63] else (1, 4)
    if len(groups) < head:
        raise Graph6Error(f"truncated size header (offset {len(groups)})")
    n = 0
    for group in groups[start:head]:
        n = (n << 6) | group
    if n > MAX_ORDER:
        raise Graph6Error(f"order {n} exceeds {MAX_ORDER} (offset 0)")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(groups) != head + need:
        raise Graph6Error(
            f"expected {head + need} bytes for order {n}, got {len(groups)} "
            f"(offset {min(len(groups), head + need)})")
    bits = [(group >> shift) & 1 for group in groups[head:] for shift in range(5, -1, -1)]
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    if any(bits[idx:]):
        raise Graph6Error(f"nonzero padding bits (offset {head + idx // 6})")
    return make_graph(n, edges)
