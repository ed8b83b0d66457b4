"""Seeded inputs of the perf ledger: data graphs, query templates, work lists.

Topology is pinned, identity is seeded.  Pattern counts on a heavy-tailed
Chung-Lu draw move 13-28 % between draws of the same parameters (measured:
square, q4, demo, q2, q1, chordal_square, clique4 on n=2400), which would
bury a 10 % regression bound under input noise.  So every data graph is one
fixed Chung-Lu draw (``TOPOLOGY_SEED``), pinned by sha256 in
``expected.json``, and ``--seed`` decides everything a client could see of
it: the vertex ids (a permutation that keeps the (degree, id) order inside
each degree class, so the engine's symmetry breaking picks the same
representatives and every answer is the pinned answer mapped through the
permutation), the order and orientation of the edge list on the wire, the
variable names, edge order and keyword case of every query text.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.graph.generators import chung_lu
from repro.graph.patterns import get_pattern

TOPOLOGY_SEED = 2019
LABELS = ("A", "B", "C")

#: (n, average degree, power-law exponent) per graph and size class.
GRAPH_PARAMS = {
    "full": {
        "small": (300, 5.0, 2.5),
        "mid": (700, 7.0, 2.5),
        "rows": (1800, 10.0, 2.4),
    },
    "quick": {
        "small": (90, 4.0, 2.5),
        "mid": (200, 5.0, 2.5),
        "rows": (260, 6.0, 2.4),
    },
}

Edge = Tuple[int, int]


# ---------------------------------------------------------------- graphs
@dataclass(frozen=True)
class BaseGraph:
    """One pinned topology in base ids, with base-id labels (small only)."""

    key: str  # "small" | "mid" | "rows", suffixed ".quick" in quick mode
    edges: Tuple[Edge, ...]
    labels: Optional[Dict[int, str]]

    @property
    def vertices(self) -> List[int]:
        return sorted({v for e in self.edges for v in e})

    def sha256(self) -> str:
        h = hashlib.sha256()
        h.update(repr(self.edges).encode())
        h.update(repr(sorted((self.labels or {}).items())).encode())
        return h.hexdigest()


def base_graph(name: str, size: str = "full") -> BaseGraph:
    n, avg_degree, exponent = GRAPH_PARAMS[size][name]
    graph = chung_lu(n, avg_degree, exponent=exponent, seed=TOPOLOGY_SEED)
    edges = tuple(sorted(tuple(sorted(e)) for e in graph.edges()))
    labels = None
    if name == "small":
        rng = random.Random(f"labels:{TOPOLOGY_SEED}")
        labels = {
            v: rng.choice(LABELS) for v in sorted({v for e in edges for v in e})
        }
    key = name if size == "full" else f"{name}.{size}"
    return BaseGraph(key, edges, labels)


@dataclass
class SeededGraph:
    """A base graph as one seed's clients see it."""

    base: BaseGraph
    edges: List[List[int]]  # wire form: shuffled, randomly oriented
    labels: Optional[Dict[str, str]]  # wire form: str(vertex) -> label
    to_base: Dict[int, int]  # seeded id -> base id

    def adjacency(self) -> Dict[int, set]:
        adj: Dict[int, set] = {}
        for u, v in self.edges:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        return adj


def seeded_graph(base: BaseGraph, seed: int) -> SeededGraph:
    rng = random.Random(f"graph:{base.key}:{seed}")
    vertices = base.vertices
    degree: Dict[int, int] = dict.fromkeys(vertices, 0)
    for u, v in base.edges:
        degree[u] += 1
        degree[v] += 1
    shuffled = list(vertices)
    rng.shuffle(shuffled)
    drawn = dict(zip(vertices, shuffled))
    # Inside a degree class the new ids keep the base order, so the
    # (degree, id) total order - and with it every symmetry-breaking
    # choice the engine makes - is the same for every seed.
    by_degree: Dict[int, List[int]] = {}
    for v in vertices:
        by_degree.setdefault(degree[v], []).append(v)
    to_seeded: Dict[int, int] = {}
    for members in by_degree.values():
        for v, new in zip(members, sorted(drawn[m] for m in members)):
            to_seeded[v] = new
    edges = [
        [to_seeded[u], to_seeded[v]] if rng.random() < 0.5
        else [to_seeded[v], to_seeded[u]]
        for u, v in base.edges
    ]
    rng.shuffle(edges)
    labels = None
    if base.labels is not None:
        labels = {str(to_seeded[v]): lbl for v, lbl in base.labels.items()}
    return SeededGraph(
        base, edges, labels, {new: old for old, new in to_seeded.items()}
    )


# ------------------------------------------------------------- templates
@dataclass(frozen=True)
class Template:
    """One query up to naming: a pattern over positions 0..k-1 plus its
    RETURN shape.  Position i is the i-th variable in sorted-name order,
    which is the pattern vertex (and match-tuple column) lowering gives it.
    """

    edges: Tuple[Edge, ...]
    ret: str = "count"  # "count" | "group:<p>" | "rows" | "cols:<p>,<q>,.."
    where: Tuple[Tuple[int, str], ...] = ()
    limit: Optional[int] = None

    @property
    def k(self) -> int:
        return 1 + max(v for e in self.edges for v in e)

    @property
    def key(self) -> str:
        """Stable id the pinned answers are stored under."""
        parts = ["e=" + ".".join(f"{a}-{b}" for a, b in self.edges)]
        if self.where:
            parts.append("w=" + ".".join(f"{p}{lbl}" for p, lbl in self.where))
        parts.append("r=" + self.ret)
        if self.limit is not None:
            parts.append(f"l={self.limit}")
        return "|".join(parts)

    @property
    def kind(self) -> str:
        if self.ret == "count":
            return "count"
        return "groups" if self.ret.startswith("group:") else "stream"

    @property
    def columns(self) -> Tuple[int, ...]:
        if self.ret.startswith("cols:"):
            return tuple(int(p) for p in self.ret[5:].split(","))
        return tuple(range(self.k))


def _norm_edges(edges: Iterable[Edge]) -> Tuple[Edge, ...]:
    return tuple(sorted((min(a, b), max(a, b)) for a, b in edges))


def named_pattern(name: str) -> Tuple[Edge, ...]:
    """A bundled pattern as position edges (paper vertex u_i -> i-1)."""
    return _norm_edges((a - 1, b - 1) for a, b in get_pattern(name).edges())


def numberings(edges: Tuple[Edge, ...]) -> List[Tuple[Edge, ...]]:
    """Every distinct edge set a renumbering of ``edges`` can produce."""
    k = 1 + max(v for e in edges for v in e)
    seen = {
        _norm_edges((perm[a], perm[b]) for a, b in edges)
        for perm in itertools.permutations(range(k))
    }
    return sorted(seen)


def shape_key(edges: Tuple[Edge, ...]) -> Tuple[Edge, ...]:
    """Isomorphism-class key: the smallest renumbering."""
    return numberings(edges)[0]


#: The seven shapes of the query mix.
MIX_SHAPES: Dict[str, Tuple[Edge, ...]] = {
    "triangle": _norm_edges([(0, 1), (1, 2), (0, 2)]),
    "square": _norm_edges([(0, 1), (1, 2), (2, 3), (0, 3)]),
    "chordal_square": _norm_edges([(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
    "clique4": _norm_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "paw": _norm_edges([(0, 1), (1, 2), (0, 2), (0, 3)]),
    "tailed_square": named_pattern("q2"),
    "house": named_pattern("q1"),
}
#: Shapes with enough distinct numberings to keep arriving relabeled.
RENUMBERED_SHAPES = ("paw", "tailed_square", "house")
#: Shapes the mix groups by.  GROUP BY has to enumerate every match, and
#: the five-vertex shapes have 10^5 of them on the small graph: four such
#: queries were 70 % of a pass, which is enum_compiled's regime, not the
#: mix's (parse, plan cache, scheduler and protocol outweigh enumeration).
GROUPED_SHAPES = ("triangle", "square", "chordal_square", "clique4", "paw")

#: Row streams (stream workloads and enum_process): full rows that name
#: every column (the identity projection the optimizer drops), a projected
#: stream, and a bare ``RETURN *``.
STREAM_TEMPLATES: Tuple[Template, ...] = (
    Template(MIX_SHAPES["chordal_square"], ret="cols:0,1,2,3"),
    Template(MIX_SHAPES["clique4"], ret="cols:0,1"),
    Template(MIX_SHAPES["triangle"], ret="rows"),
)

#: Count-only patterns of enum_compiled, by bundled name.
COMPILED_PATTERNS = (
    "square", "q4", "demo", "q2", "q1", "chordal_square", "clique4",
)


def _base_numberings(edges: Tuple[Edge, ...]) -> List[Tuple[Edge, ...]]:
    """The two numberings of a mix shape that repeat in every pass."""
    every = numberings(edges)
    second = every[len(every) // 2]
    return [edges] if second == edges else [edges, second]


def _connected(k: int, edges: Sequence[Edge]) -> bool:
    adj = {i: set() for i in range(k)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, frontier = {0}, [0]
    while frontier:
        for w in adj[frontier.pop()]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == k


#: Cold patterns kept ready; a mix needs cold slots x (passes + warm-up).
COLD_POOL_SIZE = 32


@functools.lru_cache(maxsize=None)
def cold_pool() -> Tuple[Tuple[Edge, ...], ...]:
    """Patterns that reach a server at most once, in a fixed order: every
    connected 4- and 5-vertex shape outside the mix, topped up with dense
    6-vertex shapes (few matches on a sparse graph, so the plan search
    they trigger is what the query costs)."""
    taken = {shape_key(e) for e in MIX_SHAPES.values()}
    pool: List[Tuple[Edge, ...]] = []
    for k in (4, 5):
        pairs = list(itertools.combinations(range(k), 2))
        classes = set()
        for m in range(k - 1, len(pairs) + 1):
            for edges in itertools.combinations(pairs, m):
                if _connected(k, edges):
                    classes.add(shape_key(_norm_edges(edges)))
        pool.extend(sorted(classes - taken))
    rng = random.Random("cold-6")
    pairs = list(itertools.combinations(range(6), 2))
    seen = set()
    while len(pool) < COLD_POOL_SIZE:
        edges = _norm_edges(rng.sample(pairs, rng.randint(8, 10)))
        if _connected(6, edges):
            key = shape_key(edges)
            if key not in seen:
                seen.add(key)
                pool.append(key)
    return tuple(pool)


def mix_templates() -> Dict[str, List[Template]]:
    """Every template the mix can draw, by slot kind (the pin set)."""
    out: Dict[str, List[Template]] = {
        "count": [], "group": [], "where": [], "limit": [],
        "renumbered": [], "cold": [],
    }
    for name, shape in MIX_SHAPES.items():
        for edges in _base_numberings(shape):
            k = Template(edges).k
            out["count"].append(Template(edges))
            out["limit"].append(Template(edges, ret="rows", limit=100))
            for p in range(k):
                if name in GROUPED_SHAPES:
                    out["group"].append(Template(edges, ret=f"group:{p}"))
                for label in LABELS:
                    out["where"].append(Template(edges, where=((p, label),)))
        if name in RENUMBERED_SHAPES:
            base = set(_base_numberings(shape))
            out["renumbered"].extend(
                Template(e) for e in numberings(shape) if e not in base
            )
    out["cold"] = [Template(e) for e in cold_pool()]
    return out


# ------------------------------------------------------------ query text
_KEYWORDS = {"match", "where", "and", "return", "count", "group", "by"}
_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def _names(rng: random.Random, k: int) -> List[str]:
    """k distinct identifiers, in sorted order (position i gets the i-th)."""
    names: set = set()
    while len(names) < k:
        name = "".join(
            rng.choice(_ALPHABET) for _ in range(rng.randint(1, 5))
        )
        if rng.random() < 0.3:
            name += str(rng.randint(0, 99))
        if name not in _KEYWORDS:
            names.add(name)
    return sorted(names)


def render(template: Template, rng: random.Random) -> str:
    """BENU-QL text of a template: names, edge order, orientation and
    keyword case drawn from ``rng``; the lowered pattern is the template's.
    """
    kw = (lambda s: s) if rng.random() < 0.7 else (lambda s: s.lower())
    names = _names(rng, template.k)
    edges = list(template.edges)
    rng.shuffle(edges)
    sep = rng.choice((", ", ","))
    parts = [
        kw("MATCH") + " " + sep.join(
            "({})-({})".format(*(
                (names[a], names[b]) if rng.random() < 0.5
                else (names[b], names[a])
            ))
            for a, b in edges
        )
    ]
    if template.where:
        parts.append(
            kw("WHERE") + " " + f" {kw('AND')} ".join(
                f"{names[p]}.label = '{label}'" for p, label in template.where
            )
        )
    if template.ret == "count":
        ret = kw("COUNT") + "(*)"
    elif template.ret.startswith("group:"):
        ret = (
            f"{kw('COUNT')}(*) {kw('GROUP')} {kw('BY')} "
            + names[int(template.ret[6:])]
        )
    elif template.ret == "rows":
        ret = "*"
    else:
        ret = ", ".join(names[p] for p in template.columns)
    parts.append(kw("RETURN") + " " + ret)
    return " ".join(parts)


# ------------------------------------------------------------ work lists
@dataclass(frozen=True)
class Op:
    """One operation of a work list."""

    template: Template
    text: str
    slot: str = "count"  # mix slot kind; "stream"/"pattern" elsewhere
    name: str = ""  # bundled pattern name (enum_compiled only)


#: Share of each slot kind in the mix, in slots per 40.
MIX_SHARES = (
    ("count", 22), ("renumbered", 2), ("group", 8), ("where", 4),
    ("limit", 2), ("cold", 2),
)


def mix_passes(seed: int, ops_per_pass: int, passes: int) -> List[List[Op]]:
    """``passes`` work lists of the query mix, the first one the warm-up.

    Which templates a pass holds, and in which order, does not depend on
    the seed: a house GROUP BY costs thirty times a triangle count, and the
    plan a labeled query gets depends on which numbering of its shape
    reached the plan cache first, so drawing or ordering them per seed
    would make every seed a different amount of work.  The seed writes the
    texts.  Count, group, where and limit slots carry
    the same text in every pass (plan-cache exact hits once warm); a
    renumbered slot carries a numbering no earlier pass used (isomorphic
    hit); a cold slot carries a shape no earlier pass used (miss:
    Algorithm 3 runs).
    """
    compose = random.Random("mix-composition")
    pool = mix_templates()
    kinds: List[str] = []
    for kind, share in MIX_SHARES:
        kinds.extend([kind] * round(ops_per_pass * share / 40))
    kinds = (kinds + ["count"] * ops_per_pass)[:ops_per_pass]
    fresh = {
        kind: compose.sample(pool[kind], len(pool[kind]))
        for kind in ("renumbered", "cold")
    }
    for kind, items in fresh.items():
        if kinds.count(kind) * passes > len(items):
            raise ValueError(
                f"{kinds.count(kind) * passes} {kind} slots over {passes} "
                f"passes exceed the pool of {len(items)}"
            )
    repeated = [
        None if kind in fresh else compose.choice(pool[kind]) for kind in kinds
    ]

    order = list(range(ops_per_pass))
    compose.shuffle(order)
    rng = random.Random(f"mix:{seed}")
    texts = [None if t is None else render(t, rng) for t in repeated]
    out = []
    for _ in range(passes):
        ops = []
        for i in order:
            template, text = repeated[i], texts[i]
            if template is None:
                template = fresh[kinds[i]].pop()
                text = render(template, rng)
            ops.append(Op(template, text, kinds[i]))
        out.append(ops)
    return out


def stream_ops(seed: int) -> List[Op]:
    rng = random.Random(f"stream:{seed}")
    return [Op(t, render(t, rng), "stream") for t in STREAM_TEMPLATES]


def compiled_ops(seed: int) -> List[Op]:
    rng = random.Random(f"compiled:{seed}")
    names = list(COMPILED_PATTERNS)
    rng.shuffle(names)
    return [
        Op(Template(named_pattern(name)), "", "pattern", name)
        for name in names
    ]


def all_templates(graph: str) -> List[Template]:
    """Every template whose answer on ``graph`` must be pinned."""
    if graph == "small":
        return [t for ts in mix_templates().values() for t in ts]
    if graph == "mid":
        return [Template(named_pattern(n)) for n in COMPILED_PATTERNS]
    return list(STREAM_TEMPLATES)
