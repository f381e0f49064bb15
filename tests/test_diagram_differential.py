"""Differential tests for the diagram layer's fast paths.

The brute-force normaliser below (every product of permutations within
each box label class, keeping the least wire encoding), the two-walk
open-graph tracer, the slice-by-slice boundary walk and the triple-loop
matrix product are the previous implementations, kept as oracles.  The
refinement-based ``normalize_symmetric`` must induce the same equal /
not-equal relation as the oracle on a seeded pool of random diagrams
with at most 6 boxes, the union-find ``diagram_to_open_graph`` must give
the tracer's graph on the same pools and on braid-only and braid, cup
and cap pools, the boundary words a diagram keeps must be the walk's,
and the row-combination ``Matrix.mul`` must return the oracle's product
on every domain and shape.  The brute-force normaliser reads the
tracer's graph, and the tracer reads the walk's words, so neither
depends on the union-find pass or on the kept words.
"""

import inspect
import random
import time
from itertools import permutations

import pytest

from dualkit import MalformedInput
from dualkit.diagram import (BUILTIN_RULES, Cell, Diagram, Letter,
                             OpenGraph, RewriteError, TypingError,
                             apply_rule, compose, diagram_to_open_graph,
                             normalize_symmetric, signature, tensor)
from dualkit.diagram import graph as graph_module
from dualkit.diagram.diagram import apply_cell, cell_arity
from dualkit.exactlin import INT, NAT, Matrix, fp

T = Letter("T")
Td = Letter("T", dual=True)
SIG = signature(["T"], {
    "f": (("T",), ("T",), True),
    "g": (("T",), ("T",)),
    "m": (("T", "T"), ("T",)),
    "d": (("T",), ("T", "T")),
    "u": ((), ("T",)),
    "c": (("T",), ()),
    "s": ((), ()),
    "h": (("T", "T"), ("T", "T")),
})
MAX_BOXES = 6


# ------------------------------------------------------------------ oracles

def oracle_boundaries(sig, dom, slices):
    """The words before and after each slice, re-derived by applying
    every cell in turn to the word before it."""
    words = [dom]
    for cell in slices:
        words.append(apply_cell(sig, words[-1], cell))
    return words


def oracle_open_graph(diagram):
    """The open graph traced by walking an edge table: every edge between
    two cells is recorded with its two endpoints, braids, cups and caps
    route an edge end to a partner port, and each wire is walked from one
    terminal to the other; the edges left over form closed loops."""
    sig = diagram.sig
    words = oracle_boundaries(sig, diagram.dom, diagram.slices)

    edges = {}      # edge id -> [endpointA, endpointB or None]
    edge_letter = {}

    def new_edge(endpoint, letter):
        eid = len(edges)
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
        if cell.kind in ("gen", "gen-inv"):
            occ = len(boxes)
            boxes.append((cell.kind, cell.data))
            for k in range(len(consumed)):
                edges[live[w + k]][1] = ("box", occ, "in", k)
            outs = [new_edge(("box", occ, "out", k), produced[k])
                    for k in range(len(produced))]
        else:
            node = ("route", t)
            if cell.kind == "braid":
                pairs = [(node + ("in", 0), node + ("out", 1)),
                         (node + ("in", 1), node + ("out", 0))]
            elif cell.kind == "cup":
                pairs = [(node + ("out", 0), node + ("out", 1))]
            else:  # cap
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
                partner = routing[far]
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
            partner = routing[far]
            here_edge = by_endpoint[partner]
            here_end = partner
            if here_edge == eid:
                break

    return OpenGraph(diagram.dom, cod, tuple(boxes), tuple(wires),
                     tuple(sorted(loops)))


def brute_force_normal_form(diagram):
    """The open graph with box occurrences relabeled, within each label
    class, to minimise the wire encoding over every permutation."""
    graph = oracle_open_graph(diagram)
    groups = {}
    for occ, label in enumerate(graph.boxes):
        groups.setdefault(label, []).append(occ)
    labels_sorted = sorted(groups)
    base, pos = {}, 0
    for label in labels_sorted:
        for occ in groups[label]:
            base[occ] = pos
            pos += 1

    def encode(perm):
        def rename(pt):
            if pt[0] == "box":
                return ("box", perm[pt[1]], pt[2], pt[3])
            return pt
        return tuple(sorted(tuple(sorted(map(rename, wire)))
                            for wire in graph.wires))

    best = None
    class_lists = [groups[label] for label in labels_sorted]

    def rec(idx, perm):
        nonlocal best
        if idx == len(class_lists):
            enc = encode(perm)
            if best is None or enc < best:
                best = enc
            return
        occs = class_lists[idx]
        slots = sorted(base[o] for o in occs)
        for assignment in permutations(slots):
            for o, s in zip(occs, assignment):
                perm[o] = s
            rec(idx + 1, perm)

    rec(0, [0] * len(graph.boxes))
    boxes = tuple(label for label in labels_sorted for _ in groups[label])
    return (graph.dom, graph.cod, boxes, best, graph.loops)


def triple_loop_mul(a, b):
    p = a.domain[1] if isinstance(a.domain, tuple) else None
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            s = 0
            for k in range(a.cols):
                s += a.data[i][k] * b.data[k][j]
            row.append(s % p if p else s)
        out.append(row)
    return Matrix.from_rows(a.domain, out, shape=(a.rows, b.cols))


# --------------------------------------------------------- diagram pool

def _boxes(diagram):
    return sum(c.kind in ("gen", "gen-inv") for c in diagram.slices)


def random_diagram(rng):
    """A random well-typed diagram with at most MAX_BOXES boxes and width
    at most 4."""
    dom = tuple(rng.choice((T, Td)) for _ in range(rng.randrange(3)))
    cells, current = [], Diagram(SIG, dom, ())
    for _ in range(rng.randrange(2, 10)):
        width = len(current.cod)
        kind = rng.choice(("gen", "gen", "gen", "gen-inv", "braid", "cup",
                           "cap"))
        if kind in ("gen", "gen-inv") and _boxes(current) >= MAX_BOXES:
            continue
        offset = rng.randrange(width + 1)
        if kind == "gen":
            cell = Cell(kind, offset, rng.choice("fgmducs"))
        elif kind == "gen-inv":
            cell = Cell(kind, offset, "f")
        elif kind == "braid":
            cell = Cell(kind, offset, rng.choice((1, -1)))
        else:
            cell = Cell(kind, offset, rng.choice((T, Td)))
        try:
            candidate = Diagram(SIG, dom, tuple(cells) + (cell,))
        except TypingError:
            continue
        if len(candidate.cod) <= 4:
            cells.append(cell)
            current = candidate
    return current


def isotopic_variant(rng, diagram):
    """The diagram after a few random isotopy moves: built-in rewrite
    steps and inserted double braids."""
    for _ in range(rng.randrange(1, 6)):
        n = len(diagram.slices)
        if rng.random() < 0.3:
            words = diagram.boundaries()
            k = rng.randrange(n + 1)
            if len(words[k]) >= 2:
                w = rng.randrange(len(words[k]) - 1)
                pair = (Cell("braid", w, rng.choice((1, -1))),
                        Cell("braid", w, rng.choice((1, -1))))
                diagram = Diagram(SIG, diagram.dom, diagram.slices[:k] + pair
                                  + diagram.slices[k:])
            continue
        rule = rng.choice(BUILTIN_RULES)
        try:
            diagram = apply_rule(diagram, rule, rng.choice(("fwd", "bwd")),
                                 rng.randrange(n + 1), rng.randrange(4))
        except RewriteError:
            pass
    return diagram


STEP_POOL = [random_diagram(random.Random(seed)) for seed in range(40)]


@pytest.mark.parametrize("rule", [*BUILTIN_RULES, "inv-cancel:f",
                                  "inv-cancel-rev:f", "inv-cancel:nosuch"])
def test_a_step_gives_a_diagram_or_a_rewrite_error(rule):
    """Every location, negative ones included, and both directions: a
    step that does not apply raises RewriteError and nothing else."""
    for diagram in STEP_POOL:
        for direction in ("fwd", "bwd"):
            for k in range(-1, len(diagram.slices) + 2):
                for w in range(-1, 6):
                    try:
                        out = apply_rule(diagram, rule, direction, k, w)
                    except RewriteError:
                        continue
                    assert isinstance(out, Diagram)


def chain_loop(label, k):
    """k boxes ``label`` composed in a closed loop, floating free."""
    return [Cell("cup", 0, Td)] + [Cell("gen", 0, label)] * k + \
        [Cell("cap", 0, T)]


def _braid_into(tags, target):
    """Braid cells that sort the strand tags into the target order."""
    cells = []
    for i, tag in enumerate(target):
        j = tags.index(tag)
        for w in range(j - 1, i - 1, -1):
            tags[w], tags[w + 1] = tags[w + 1], tags[w]
            cells.append(Cell("braid", w, 1))
    return cells


def closed_h_graph(n, sigma, tau):
    """n boxes h: T (x) T -> T (x) T, floating free, with output port 0 of
    box v wired to input port 0 of box sigma[v] and output port 1 to
    input port 1 of box tau[v]."""
    ins = [(v, k) for v in range(n) for k in (0, 1)]
    wiring = {(v, 0): (sigma[v], 0) for v in range(n)}
    wiring.update({(v, 1): (tau[v], 1) for v in range(n)})
    cells = [Cell("cup", 2 * i, Td) for i in range(len(ins))]
    tags = [(kind, port) for port in ins for kind in ("up", "down")]
    cells += _braid_into(tags, [("up", port) for port in ins]
                         + [("down", port) for port in ins])
    cells += [Cell("gen", 2 * v, "h") for v in range(n)]
    tags[:2 * n] = [("out", port) for port in ins]
    cells += _braid_into(tags, [tag for port in ins for tag in
                                (("out", port), ("down", wiring[port]))])
    cells += [Cell("cap", 0, T)] * len(ins)
    return Diagram(SIG, (), tuple(cells))


def _relabel(perm, pi):
    """The permutation pi perm pi^-1, as a list."""
    out = [0] * len(perm)
    for v, w in enumerate(perm):
        out[pi[v]] = pi[w]
    return out


def floating_pool():
    """Hand-made members with floating components and closed loops."""
    loops = {name: Diagram(SIG, (), tuple(cells)) for name, cells in (
        ("f4", chain_loop("f", 4)),
        ("f2+f2", chain_loop("f", 2) + chain_loop("f", 2)),
        ("f1+f3", chain_loop("f", 1) + chain_loop("f", 3)),
        ("f3+f1", chain_loop("f", 3) + chain_loop("f", 1)),
        ("f2+g2", chain_loop("f", 2) + chain_loop("g", 2)),
        ("fg+f", chain_loop("f", 1)[:-1] + chain_loop("g", 1)[1:]
         + chain_loop("f", 1)),
        ("f+fg", chain_loop("f", 1) + chain_loop("f", 1)[:-1]
         + chain_loop("g", 1)[1:]),
        ("f+g", chain_loop("f", 1) + chain_loop("g", 1)),
        ("g+f", chain_loop("g", 1) + chain_loop("f", 1)),
        ("3uc", [Cell("gen", 0, "u"), Cell("gen", 0, "c")] * 3),
        ("2s+loop", [Cell("gen", 0, "s")] * 2
         + [Cell("cup", 0, T), Cell("cap", 0, Td)]),
        ("uu-braid-mc", [Cell("gen", 0, "u"), Cell("gen", 1, "u"),
                         Cell("braid", 0, 1), Cell("gen", 0, "m"),
                         Cell("gen", 0, "c")]),
        ("uu-mc", [Cell("gen", 0, "u"), Cell("gen", 1, "u"),
                   Cell("gen", 0, "m"), Cell("gen", 0, "c")]),
        ("udmc", [Cell("gen", 0, "u"), Cell("gen", 0, "d"),
                  Cell("gen", 0, "m"), Cell("gen", 0, "c")]),
        ("ud-braid-mc", [Cell("gen", 0, "u"), Cell("gen", 0, "d"),
                         Cell("braid", 0, -1), Cell("gen", 0, "m"),
                         Cell("gen", 0, "c")]),
    )}
    loops["f+f2-attached"] = Diagram(SIG, (T,), (Cell("gen", 0, "f"),)
                                     + tuple(chain_loop("f", 2)))
    # colour refinement leaves these three boxes in one cell, yet box 2
    # (fixed by tau) is not like boxes 0 and 1: every relabelling must
    # give one form, and tau = id another
    for pi in permutations(range(3)):
        loops[f"h{pi}"] = closed_h_graph(3, _relabel([1, 2, 0], pi),
                                         _relabel([1, 0, 2], pi))
    loops["h-tau-id"] = closed_h_graph(3, [1, 2, 0], [0, 1, 2])
    return loops


def diagram_pool(seed, bases=40, variants=2):
    rng = random.Random(seed)
    pool = list(floating_pool().values())
    for _ in range(bases):
        base = random_diagram(rng)
        pool.append(base)
        pool += [isotopic_variant(rng, base) for _ in range(variants)]
    return pool


def _features(diagram):
    graph = diagram_to_open_graph(diagram)
    kinds = {c.kind for c in diagram.slices}
    attached = {pt[1] for wire in graph.wires for pt in wire
                if pt[0] == "box" and any(q[0] != "box" for q in wire)}
    labels = {name for _, name in graph.boxes}
    return {
        "cup": "cup" in kinds, "cap": "cap" in kinds,
        "loop": bool(graph.loops), "two-port": bool(labels & {"m", "d"}),
        "0-ary": bool(labels & {"u", "c", "s"}),
        "gen-inv": "gen-inv" in kinds,
        "floating": len(attached) < len(graph.boxes),
    }


# -------------------------------------------------------------- open graph

def _graph_mismatches(pool):
    """The members of the pool whose open graph differs from the oracle's
    in its boundaries, boxes, loops or set of wires.  The function under
    test is looked up on its module, so that a test can patch in a
    mutant."""
    def view(graph):
        return (graph.dom, graph.cod, graph.boxes, graph.loops,
                frozenset(graph.wires), len(graph.wires))
    return [d for d in pool if view(graph_module.diagram_to_open_graph(d))
            != view(oracle_open_graph(d))]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_open_graph_agrees_with_the_tracer(seed):
    assert _graph_mismatches(diagram_pool(seed)) == []


CAP_UNION = """        elif cell.kind == CAP:
            union(*ins)
"""


def test_open_graph_oracle_catches_a_cap_that_does_not_unite(monkeypatch):
    source = inspect.getsource(graph_module.diagram_to_open_graph)
    assert source.count(CAP_UNION) == 1
    namespace = dict(vars(graph_module))
    exec(source.replace(CAP_UNION, ""), namespace)
    monkeypatch.setattr(graph_module, "diagram_to_open_graph",
                        namespace["diagram_to_open_graph"])
    assert _graph_mismatches(diagram_pool(0))


def braid_pool(seed, count=60, routing=False):
    """Random diagrams of braids only on words of T and T^ of width 2 to
    6, or with routing set, of braids, cups and caps from any width."""
    rng = random.Random(seed)
    pool = []
    for _ in range(count):
        dom = tuple(rng.choice((T, Td))
                    for _ in range(rng.randrange(0 if routing else 2, 7)))
        cells, current = [], dom
        for _ in range(rng.randrange(1, 13)):
            kind = rng.choice(("braid", "cup", "cap") if routing
                              else ("braid",))
            if kind == "braid" and len(current) >= 2:
                cell = Cell(kind, rng.randrange(len(current) - 1),
                            rng.choice((1, -1)))
            elif kind == "cup" and len(current) <= 5:
                cell = Cell(kind, rng.randrange(len(current) + 1),
                            rng.choice((T, Td)))
            elif kind == "cap" and len(current) >= 2:
                w = rng.randrange(len(current) - 1)
                cell = Cell(kind, w, current[w])
            else:
                continue
            try:
                current = apply_cell(SIG, current, cell)
            except TypingError:     # a cap on a (T, T) or (T^, T^) pair
                continue
            cells.append(cell)
        pool.append(Diagram(SIG, dom, tuple(cells)))
    return pool


@pytest.mark.parametrize("routing", [False, True],
                         ids=["braids", "braids-cups-caps"])
def test_open_graph_of_pure_routing_agrees_with_the_tracer(routing):
    pool = braid_pool(3, routing=routing)
    kinds = {c.kind for d in pool for c in d.slices}
    assert kinds == ({"braid", "cup", "cap"} if routing else {"braid"})
    assert max(len(d.dom) for d in pool) == 6
    assert _graph_mismatches(pool) == []


BRAID_SWAP = """            live[w], live[w + 1] = live[w + 1], live[w]
"""


def test_open_graph_oracle_catches_a_braid_on_the_wrong_pair(monkeypatch):
    source = inspect.getsource(graph_module.diagram_to_open_graph)
    assert source.count(BRAID_SWAP) == 1
    namespace = dict(vars(graph_module))
    exec(source.replace(BRAID_SWAP, """            live[w - 1], live[w] = live[w], live[w - 1]
"""), namespace)
    monkeypatch.setattr(graph_module, "diagram_to_open_graph",
                        namespace["diagram_to_open_graph"])
    assert _graph_mismatches(braid_pool(3))
    assert _graph_mismatches(braid_pool(3, routing=True))
    assert _graph_mismatches(diagram_pool(0))


# ------------------------------------------------------------ kept words

def _kept_words_mismatches(diagrams):
    return [d for d in diagrams if d.boundaries() !=
            tuple(oracle_boundaries(d.sig, d.dom, d.slices))]


@pytest.mark.parametrize("seed", [0, 1])
def test_kept_words_agree_with_the_walk(seed):
    pool = diagram_pool(seed) + braid_pool(seed, routing=True)
    rng = random.Random(seed)
    made = []
    for d in pool:
        # d cut in two at a random slice and composed again
        k = rng.randrange(len(d.slices) + 1)
        first = Diagram(SIG, d.dom, d.slices[:k])
        second = Diagram(SIG, first.cod, d.slices[k:])
        again = compose(second, first)
        assert again == d
        made += [first, second, again,
                 tensor(d, rng.choice(pool)), tensor(rng.choice(pool), d)]
    assert _kept_words_mismatches(pool + made) == []
    for d in pool + made:
        assert isinstance(d.boundaries(), tuple)
        assert d.cod == d.boundaries()[-1]


def test_kept_words_agree_with_the_walk_after_every_move():
    # a move whose name ends in ":" takes the generator f
    rules = {rule + "f" if rule.endswith(":") else rule
             for rule in BUILTIN_RULES}
    made = {}

    def step(diagram, rule, direction, k, w):
        try:
            out = apply_rule(diagram, rule, direction, k, w)
        except RewriteError:
            return None
        made.setdefault((rule, direction), []).append(out)
        return out

    for rule in sorted(rules):
        for diagram in STEP_POOL:
            for k in range(len(diagram.slices) + 1):
                for w in range(5):
                    step(diagram, rule, "fwd", k, w)
                    # a backward step makes a redex for the forward one
                    out = step(diagram, rule, "bwd", k, w)
                    if out is not None:
                        step(out, rule, "fwd", k, w)
    assert set(made) == {(rule, direction) for rule in rules
                         for direction in ("fwd", "bwd")}
    assert _kept_words_mismatches(d for ds in made.values() for d in ds) \
        == []


# cells that do not fit the word before them, the message each raises,
# and its class
ILL_TYPED = [
    ((T,), (Cell("gen", 0, "m"),), TypingError,
     "cell m@0 out of range on (T)"),
    ((T, T), (Cell("gen", 0, "f"), Cell("gen", 1, "m")), TypingError,
     "cell m@1 out of range on (T, T)"),
    ((T, Td), (Cell("cap", 0, Td),), TypingError,
     "cell cap[T^]@0 expects (T^, T) at 0 in (T, T^)"),
    ((T, Td), (Cell("braid", 0, 1), Cell("gen", 0, "f")), TypingError,
     "cell f@0 expects (T) at 0 in (T^, T)"),
    ((T,), (Cell("braid", 0, -1),), TypingError, "braid out of range"),
    ((T,), (Cell("gen-inv", 0, "g"),), TypingError,
     "generator g is not invertible"),
    ((), (Cell("cup", 1, T),), TypingError, "cell cup[T]@1 out of range on ()"),
    ((T,), (Cell("gen", 0, "zz"),), MalformedInput, "unknown generator zz"),
]


@pytest.mark.parametrize("dom, slices, error, message", ILL_TYPED)
def test_an_ill_typed_slice_raises_what_the_walk_raises(dom, slices, error,
                                                         message):
    with pytest.raises(error) as built:
        Diagram(SIG, dom, slices)
    with pytest.raises(error) as walked:
        oracle_boundaries(SIG, dom, slices)
    assert str(built.value) == str(walked.value) == message


# -------------------------------------------------------------- normaliser

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_normaliser_agrees_with_brute_force(seed):
    pool = diagram_pool(seed)
    assert all(_boxes(d) <= MAX_BOXES for d in pool)
    covered = {name for d in pool for name, has in _features(d).items()
               if has}
    assert covered == {"cup", "cap", "loop", "two-port", "0-ary", "gen-inv",
                       "floating"}
    old = [brute_force_normal_form(d) for d in pool]
    new = [normalize_symmetric(d) for d in pool]
    equal_pairs = distinct_pairs = 0
    for i in range(len(pool)):
        assert new[i].boxes == old[i][2]
        for j in range(i + 1, len(pool)):
            same = old[i] == old[j]
            assert (new[i] == new[j]) == same, (pool[i], pool[j])
            if same and pool[i] != pool[j]:
                equal_pairs += 1
            elif not same and new[i].boxes == new[j].boxes:
                distinct_pairs += 1
    # the pool has teeth: syntactically different equal diagrams, and
    # unequal diagrams with the same boxes
    assert equal_pairs >= 40 and distinct_pairs >= 40


def test_floating_components_told_apart():
    nf = {name: normalize_symmetric(d) for name, d in floating_pool().items()}
    assert len({nf["f4"], nf["f2+f2"], nf["f1+f3"]}) == 3
    # the order in which components are built is irrelevant
    assert nf["f1+f3"] == nf["f3+f1"]
    assert nf["fg+f"] == nf["f+fg"]
    assert nf["f+g"] == nf["g+f"]
    assert nf["uu-braid-mc"] == nf["uu-mc"]     # a braid between two units
    assert nf["udmc"] != nf["ud-braid-mc"]      # d's outputs swapped
    relabelled = {nf[name] for name in nf if name.startswith("h(")}
    assert len(relabelled) == 1 and nf["h-tau-id"] not in relabelled


def _timed_normal_form(diagram):
    start = time.perf_counter()
    nf = normalize_symmetric(diagram)
    return nf, time.perf_counter() - start


def test_ten_disjoint_traced_boxes_under_a_second():
    ten = Diagram(SIG, (), tuple(chain_loop("f", 1) * 10))
    nf, seconds = _timed_normal_form(ten)
    assert seconds < 1.0
    assert nf.boxes == (("gen", "f"),) * 10 and len(nf.wires) == 10
    # nine traced boxes and one loop of two differ from ten traced boxes
    other = Diagram(SIG, (), tuple(chain_loop("f", 1) * 8
                                   + chain_loop("f", 2)))
    assert normalize_symmetric(other) != nf


def test_ten_identical_scalar_pairs_under_a_second():
    pairs = Diagram(SIG, (), (Cell("gen", 0, "u"), Cell("gen", 0, "c")) * 10)
    nf, seconds = _timed_normal_form(pairs)
    assert seconds < 1.0
    shuffled = Diagram(SIG, (), (Cell("gen", 0, "u"),) * 10
                       + (Cell("gen", 0, "c"),) * 10)
    assert normalize_symmetric(shuffled) == nf


# --------------------------------------------------------- matrix product

def _random_matrix(rng, domain, rows, cols, density):
    p = domain[1] if isinstance(domain, tuple) else None
    lo = 0 if domain == NAT or p else -9
    hi = p - 1 if p else 9
    return Matrix.from_rows(domain, [
        [rng.randint(lo, hi) if rng.random() < density else 0
         for _ in range(cols)] for _ in range(rows)], shape=(rows, cols))


@pytest.mark.parametrize("domain", [NAT, INT, fp(2), fp(7), fp(101)],
                         ids=["nat", "int", "f2", "f7", "f101"])
def test_mul_matches_triple_loop(domain):
    rng = random.Random(repr(domain))
    shapes = [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (1, 1, 1),
              (2, 5, 3), (6, 6, 6), (9, 4, 7)]
    for n, k, m in shapes:
        for density in (0.0, 0.2, 1.0):
            a = _random_matrix(rng, domain, n, k, density)
            b = _random_matrix(rng, domain, k, m, density)
            assert a.mul(b) == triple_loop_mul(a, b)


def test_mul_of_a_whiskered_slice():
    # id (x) f (x) id, the shape each diagram slice has, times a dense
    # matrix: at most 3 nonzeros per row
    rng = random.Random(5)
    f = Matrix.from_rows(NAT, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    slice_ = Matrix.from_rows(NAT, [
        [f.data[i // 3 % 3][j // 3 % 3] if i // 9 == j // 9 and i % 3 == j % 3
         else 0 for j in range(27)] for i in range(27)])
    dense = _random_matrix(rng, NAT, 27, 27, 1.0)
    assert slice_.mul(dense) == triple_loop_mul(slice_, dense)
    assert dense.mul(slice_) == triple_loop_mul(dense, slice_)
