"""Open-graph semantics and the symmetric-equality decision procedure.

A diagram determines an open graph: generator boxes with typed ports,
wires connecting boundary positions and box ports, and closed loops,
read off in one union-find pass over strand segments (Tarjan, J. ACM
22, 1975), in which a braid only swaps its two live segments and reads
no word.  Braids, cups and caps are pure wire routing, so two diagrams
have the same open graph exactly when they are equal in the free
symmetric monoidal category with duals on the signature.
Equality is decided by a canonical labeling of the box occurrences:
colour refinement from the box labels along the wires, then, for each
component refinement leaves non-discrete, one individualisation per
box of its first smallest cell (McKay & Piperno, "Practical graph
isomorphism, II", J. Symbolic Comput. 60, 2014).  The cost is
polynomial in the number of boxes.
"""

from __future__ import annotations

from collections import Counter

from .. import Frozen
from .diagram import BRAID, CAP, CUP, GEN, GEN_INV, Diagram, cell_arity


class OpenGraph(Frozen):
    # dom and cod are the boundary words (of letters); boxes maps each
    # occurrence index to (kind, generator name); wires are frozensets of
    # two endpoints, each ("dom", i), ("cod", j) or
    # ("box", occ, "in"|"out", port); loops are the sorted base names of
    # the closed loops
    _fields = ("dom", "cod", "boxes", "wires", "loops")

    def __init__(self, dom: tuple, cod: tuple, boxes: tuple, wires: tuple,
                 loops: tuple):
        self.__dict__.update(dom=dom, cod=cod, boxes=boxes, wires=wires,
                             loops=loops)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dom, self.cod, self.boxes, self.wires, self.loops) == \
            (other.dom, other.cod, other.boxes, other.wires, other.loops)

    def __hash__(self):
        return hash((self.dom, self.cod, self.boxes, self.wires, self.loops))


def diagram_to_open_graph(diagram: Diagram) -> OpenGraph:
    """Trace every wire of the diagram in one union-find pass.

    A strand segment is created at a ``dom`` position, at a box output or
    at a cup, and ends at a box input, at a ``cod`` position or at a cap.
    A braid only swaps its two live segments: the diagram was validated
    when it was built, so neither its letters nor its range are looked
    at again.  A cup unites the two segments it creates and a cap the two
    it consumes.  Each resulting class has two terminal ends, which make
    a wire, or none, which make a closed loop named by its letter."""
    sig = diagram.sig
    parent, letters = [], []    # union-find forest over segments

    def segment(letter):
        parent.append(len(parent))
        letters.append(letter)
        return parent[-1]

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    def union(a, b):
        parent[find(a)] = find(b)

    live = [segment(letter) for letter in diagram.dom]
    ends = [(("dom", i), s) for i, s in enumerate(live)]
    boxes = []
    for cell in diagram.slices:
        w = cell.offset
        if cell.kind == BRAID:
            live[w], live[w + 1] = live[w + 1], live[w]
            continue
        consumed, produced = cell_arity(sig, cell)
        ins = live[w:w + len(consumed)]
        outs = [segment(letter) for letter in produced]
        if cell.kind in (GEN, GEN_INV):
            occ = len(boxes)
            boxes.append((cell.kind, cell.data))
            ends += [(("box", occ, "in", k), s) for k, s in enumerate(ins)]
            ends += [(("box", occ, "out", k), s) for k, s in enumerate(outs)]
        elif cell.kind == CUP:
            union(*outs)
        elif cell.kind == CAP:
            union(*ins)
        live[w:w + len(consumed)] = outs
    ends += [(("cod", j), s) for j, s in enumerate(live)]

    wires = {}
    for end, s in ends:
        wires.setdefault(find(s), []).append(end)
    loops = sorted(letters[s].name for s in range(len(parent))
                   if find(s) == s and s not in wires)
    return OpenGraph(diagram.dom, diagram.cod, tuple(boxes),
                     tuple(frozenset(pair) for pair in wires.values()),
                     tuple(loops))


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


class NormalForm(Frozen):
    _fields = ("dom", "cod", "boxes", "wires", "loops")

    def __init__(self, dom: tuple, cod: tuple, boxes: tuple, wires: tuple,
                 loops: tuple):
        self.__dict__.update(dom=dom, cod=cod, boxes=boxes, wires=wires,
                             loops=loops)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dom, self.cod, self.boxes, self.wires, self.loops) == \
            (other.dom, other.cod, other.boxes, other.wires, other.loops)

    def __hash__(self):
        return hash((self.dom, self.cod, self.boxes, self.wires, self.loops))


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
