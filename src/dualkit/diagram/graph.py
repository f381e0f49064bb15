"""Open-graph semantics and the symmetric-equality decision procedure.

A diagram determines an open graph: generator boxes with typed ports,
wires connecting boundary positions and box ports, and closed loops.
Braids, cups and caps are pure wire routing, so two diagrams have the
same open graph exactly when they are equal in the free symmetric
monoidal category with duals on the signature.  Equality is decided by
a canonical labeling of the box occurrences: colour refinement from the
box labels along the wires, then, for each component refinement leaves
non-discrete, one individualisation per box of its first smallest cell
(McKay & Piperno, "Practical graph isomorphism, II", J. Symbolic Comput.
60, 2014).  The cost is polynomial in the number of boxes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .diagram import BRAID, CAP, CUP, GEN, GEN_INV, Diagram, cell_arity


@dataclass(frozen=True)
class OpenGraph:
    dom: tuple            # boundary words (letters)
    cod: tuple
    boxes: tuple          # occurrence index -> (kind, generator name)
    wires: tuple          # frozensets of two endpoints
    loops: tuple          # sorted base names of closed loops

    # endpoint encodings:
    #   ("dom", i) / ("cod", j) / ("box", occ, "in"|"out", port)


def diagram_to_open_graph(diagram: Diagram) -> OpenGraph:
    """Trace every wire of the diagram through its routing cells."""
    sig = diagram.sig
    words = diagram.boundaries()

    edges = {}      # edge id -> [endpointA, endpointB or None]
    edge_letter = {}
    nxt = [0]

    def new_edge(endpoint, letter):
        eid = nxt[0]
        nxt[0] += 1
        edges[eid] = [endpoint, None]
        edge_letter[eid] = letter
        return eid

    live = [new_edge(("dom", i), letter)
            for i, letter in enumerate(diagram.dom)]
    boxes = []
    routing = {}    # (node, port) -> (node, partner port) for braid/cup/cap

    for t, cell in enumerate(diagram.slices):
        consumed, produced = cell_arity(sig, cell, words[t])
        w = cell.offset
        if cell.kind in (GEN, GEN_INV):
            occ = len(boxes)
            boxes.append((cell.kind, cell.data))
            for k in range(len(consumed)):
                edges[live[w + k]][1] = ("box", occ, "in", k)
            outs = [new_edge(("box", occ, "out", k), produced[k])
                    for k in range(len(produced))]
        else:
            node = ("route", t)
            if cell.kind == BRAID:
                pairs = [(node + ("in", 0), node + ("out", 1)),
                         (node + ("in", 1), node + ("out", 0))]
            elif cell.kind == CUP:
                pairs = [(node + ("out", 0), node + ("out", 1))]
            else:  # CAP
                pairs = [(node + ("in", 0), node + ("in", 1))]
            for a, b in pairs:
                routing[a] = b
                routing[b] = a
            for k in range(len(consumed)):
                edges[live[w + k]][1] = node + ("in", k)
            outs = [new_edge(node + ("out", k), produced[k])
                    for k in range(len(produced))]
        live[w:w + len(consumed)] = outs

    cod = words[-1]
    for j, eid in enumerate(live):
        edges[eid][1] = ("cod", j)

    full_routing = routing

    # index edges by endpoint
    by_endpoint = {}
    for eid, (ea, eb) in edges.items():
        by_endpoint[ea] = eid
        by_endpoint[eb] = eid

    def is_terminal(pt):
        return pt[0] in ("dom", "cod", "box")

    visited = set()
    wires = []
    for eid, (ea, eb) in sorted(edges.items()):
        for start in (ea, eb):
            if not is_terminal(start) or eid in visited:
                continue
            # walk from this terminal to the far terminal
            here_edge, here_end = eid, start
            while True:
                visited.add(here_edge)
                a, b = edges[here_edge]
                far = b if a == here_end else a
                if is_terminal(far):
                    wires.append(frozenset((start, far)))
                    break
                partner = full_routing[far]
                here_edge = by_endpoint[partner]
                here_end = partner

    loops = []
    for eid in sorted(edges.keys()):
        if eid in visited:
            continue
        loops.append(edge_letter[eid].name)
        here_edge, here_end = eid, edges[eid][0]
        while True:
            visited.add(here_edge)
            a, b = edges[here_edge]
            far = b if a == here_end else a
            partner = full_routing[far]
            here_edge = by_endpoint[partner]
            here_end = partner
            if here_edge == eid:
                break

    return OpenGraph(diagram.dom, cod, tuple(boxes), tuple(wires),
                     tuple(sorted(loops)))


def _encode(graph: OpenGraph, perm) -> tuple:
    """Wire multiset encoding under a relabeling of box occurrences."""
    def rename(pt):
        if pt[0] == "box":
            return ("box", perm[pt[1]], pt[2], pt[3])
        return pt

    return tuple(sorted(tuple(sorted(map(rename, wire))) for wire in
                        graph.wires))


def _ports(graph: OpenGraph) -> dict:
    """Each box occurrence's ports in (in/out, index) order, each paired
    with the endpoint at the far end of its wire."""
    ports = {occ: [] for occ in range(len(graph.boxes))}
    for a, b in graph.wires:
        for here, far in ((a, b), (b, a)):
            if here[0] == "box":
                ports[here[1]].append((here[2:], far))
    return {occ: sorted(p) for occ, p in ports.items()}


def _refine(colour: dict, ports: dict) -> dict:
    """Refine a colouring of box occurrences until it is stable.

    A box's next colour ranks its colour followed by, port by port, what
    the port's wire reaches: a boundary position, or the colour and port
    of a box.  Colours are ranks of these signatures and the old colour
    leads, so the order of cells is kept and no occurrence index ever
    decides a colour."""
    cells = len(set(colour.values()))
    while cells < len(colour):
        sig = {occ: (c, tuple(
            (port, far if far[0] != "box" else
             ("box", colour[far[1]]) + far[2:]) for port, far in ports[occ]))
            for occ, c in colour.items()}
        rank = {s: r for r, s in enumerate(sorted(set(sig.values())))}
        colour = {occ: rank[s] for occ, s in sig.items()}
        if len(rank) == cells:
            break
        cells = len(rank)
    return colour


def _components(occs, ports) -> list:
    """Connected components of the given boxes along box-to-box wires."""
    seen, comps = set(), []
    for start in occs:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for occ in comp:        # comp grows while it is walked
            for _, far in ports[occ]:
                if far[0] == "box" and far[1] not in seen:
                    seen.add(far[1])
                    comp.append(far[1])
        comps.append(comp)
    return comps


def _canonical_component(comp, colour, ports, labels) -> tuple:
    """(code, boxes in canonical order) of a component that refinement
    left non-discrete.  Each box of its first smallest cell is
    individualised in turn; as every port carries one wire, refinement
    then makes the connected component discrete.  The least code wins:
    the boxes' labels and adjacency under the resulting order."""
    cells = {}
    for occ in comp:
        cells.setdefault(colour[occ], []).append(occ)
    _, first = min((len(members), c) for c, members in cells.items())
    best = None
    for v in cells[first]:
        split = _refine({occ: 2 * colour[occ] + (occ != v) for occ in comp},
                        ports)
        order = sorted(comp, key=split.__getitem__)
        local = {occ: i for i, occ in enumerate(order)}
        code = (tuple(labels[occ] for occ in order),
                tuple(tuple((port, local[far[1]]) + far[2:]
                            for port, far in ports[occ]) for occ in order))
        if best is None or code < best[0]:
            best = (code, order)
    return best


@dataclass(frozen=True)
class NormalForm:
    dom: tuple
    cod: tuple
    boxes: tuple
    wires: tuple
    loops: tuple


def normalize_symmetric(diagram: Diagram) -> NormalForm:
    """A canonical form deciding equality in the free symmetric monoidal
    category with duals.

    Box occurrences are coloured by the rank of their label and refined
    by what their ports are wired to; a box wired to the boundary, or
    connected to a box in a singleton cell, ends in a singleton cell.
    So a component that refinement leaves non-discrete floats free of
    the boundary; each such component is canonicalised on its own, and
    they are ordered by their codes.  Boxes are then numbered by label,
    the discrete ones first by colour, and the wires are encoded under
    that numbering."""
    graph = diagram_to_open_graph(diagram)
    labels = graph.boxes
    rank = {label: r for r, label in enumerate(sorted(set(labels)))}
    colour = {occ: rank[label] for occ, label in enumerate(labels)}
    key = {}
    if len(rank) < len(labels):
        ports = _ports(graph)
        colour = _refine(colour, ports)
        size = Counter(colour.values())
        floating = [occ for occ in colour if size[colour[occ]] > 1]
        codes = sorted((_canonical_component(comp, colour, ports, labels)
                        for comp in _components(floating, ports)),
                       key=lambda code_order: code_order[0])
        for ordinal, (_, order) in enumerate(codes):
            for i, occ in enumerate(order):
                key[occ] = (labels[occ], 1, ordinal, i)
    for occ, c in colour.items():
        key.setdefault(occ, (labels[occ], 0, c))
    order = sorted(colour, key=key.__getitem__)
    perm = [0] * len(labels)
    for pos, occ in enumerate(order):
        perm[occ] = pos
    return NormalForm(graph.dom, graph.cod,
                      tuple(labels[occ] for occ in order),
                      _encode(graph, perm), graph.loops)
