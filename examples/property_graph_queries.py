#!/usr/bin/env python
"""Property-graph queries — the paper's future-work extension, working.

Models a small social/content platform as a labeled graph (users, pages,
tags) and runs typed pattern queries: co-engagement wedges, typed
triangles, and a "collaboration square".  Labels shrink both the search
space (per-label candidate pools) and the symmetry group (only
label-preserving automorphisms are deduplicated).

Run:  python examples/property_graph_queries.py
"""

import random

from repro.engine.benu import count_subgraphs, enumerate_subgraphs
from repro.engine.config import BenuConfig
from repro.graph.graph import Graph, complete_graph
from repro.labeled import LabeledGraph, LabeledPatternGraph
from repro.metrics import format_table


def build_platform(num_users=400, num_pages=120, num_tags=25, seed=11):
    """A synthetic platform: users befriend users, like pages; pages carry tags."""
    rng = random.Random(seed)
    users = [f"u{i}" for i in range(num_users)]
    pages = [f"p{i}" for i in range(num_pages)]
    tags = [f"t{i}" for i in range(num_tags)]
    ids = {name: i for i, name in enumerate(users + pages + tags)}
    labels = {}
    for name in users:
        labels[ids[name]] = "user"
    for name in pages:
        labels[ids[name]] = "page"
    for name in tags:
        labels[ids[name]] = "tag"

    edges = []
    for name in users:  # friendships (preferential-ish)
        for _ in range(rng.randint(1, 6)):
            other = users[min(rng.randrange(num_users), rng.randrange(num_users))]
            if other != name:
                edges.append((ids[name], ids[other]))
    for name in users:  # page likes
        for _ in range(rng.randint(1, 4)):
            edges.append((ids[name], ids[pages[rng.randrange(num_pages)]]))
    for name in pages:  # tag assignments
        for _ in range(rng.randint(1, 3)):
            edges.append((ids[name], ids[tags[rng.randrange(num_tags)]]))
    return LabeledGraph(edges, labels)


def main() -> None:
    platform = build_platform()
    print(f"platform graph: {platform}")
    print(f"label counts: {platform.label_frequencies()}")

    queries = {
        # Two friends who like the same page.
        "co-liked page": LabeledPatternGraph(
            complete_graph(3), {1: "user", 2: "user", 3: "page"}
        ),
        # A friendship triangle.
        "friend triangle": LabeledPatternGraph(
            complete_graph(3), {1: "user", 2: "user", 3: "user"}
        ),
        # Two pages sharing a tag, both liked by one user.
        "topic square": LabeledPatternGraph(
            Graph([(1, 2), (2, 3), (3, 4), (4, 1)]),
            {1: "user", 2: "page", 3: "tag", 4: "page"},
        ),
    }

    config = BenuConfig(num_workers=2)
    rows = []
    for name, pattern in queries.items():
        count = count_subgraphs(pattern, platform, config)
        rows.append([name, pattern.n, len(pattern.symmetry_conditions), count])
    print()
    print(format_table(["query", "vertices", "sym conditions", "results"], rows))

    sample = enumerate_subgraphs(
        queries["co-liked page"], platform, BenuConfig(collect=True)
    )[:3]
    print("\nsample co-liked-page matches (user, user, page):", sample)
    print(
        "\nLabels cut the work: candidate pools shrink per label, and only "
        "label-preserving symmetry is deduplicated — the property-graph "
        "direction the paper's conclusion sketches."
    )


if __name__ == "__main__":
    main()
