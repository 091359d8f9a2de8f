"""Fraud monitoring on a transaction network that keeps changing.

The paper's introduction motivates subgraph queries with fraud detection:
cyclic patterns in transaction networks indicate fraudulent activity.

This example builds a labeled payment network, writes the fraud patterns in
Cypher, and streams transaction batches into a ``GraphflowDB`` over a
``DynamicGraph`` with ``apply_updates``.  After every batch it counts each
pattern again on the updated graph and reports how many new instances
appeared, and finally drills into the most implicated accounts with the
aggregation helpers.

Run:  python examples/fraud_monitoring.py
"""

from __future__ import annotations

import numpy as np

from repro import DynamicGraph, GraphflowDB
from repro.executor.aggregates import top_k_vertices
from repro.graph.builder import GraphBuilder
from repro.graph.schema import GraphSchema
from repro.planner.plan import wco_plan_from_order
from repro.planner.qvo import enumerate_orderings
from repro.query.cypher import parse_cypher


def build_payment_network(num_accounts: int = 120, num_payments: int = 700, seed: int = 7):
    """A random payment network: accounts paying other accounts."""
    schema = GraphSchema.from_names(["Account"], ["PAYS"])
    account = schema.vertex_label_id("Account")
    pays = schema.edge_label_id("PAYS")
    rng = np.random.default_rng(seed)
    builder = GraphBuilder()
    for v in range(num_accounts):
        builder.add_vertex(v, account)
    added = 0
    while added < num_payments:
        src = int(rng.integers(0, num_accounts))
        dst = int(rng.integers(0, num_accounts))
        if src == dst:
            continue
        builder.add_edge(src, dst, pays)
        added += 1
    return builder.build(name="payments"), schema, pays


def main() -> None:
    graph, schema, pays = build_payment_network()
    print(f"payment network: {graph}")

    # Fraud patterns, written the way an analyst would write them.
    cycle3 = parse_cypher(
        "MATCH (a:Account)-[:PAYS]->(b:Account)-[:PAYS]->(c:Account)-[:PAYS]->(a)",
        schema,
        name="money-cycle-3",
    )
    round_trip = parse_cypher(
        "MATCH (a:Account)-[:PAYS]->(b:Account)-[:PAYS]->(a)", schema, name="round-trip"
    )
    fan_in_out = parse_cypher(
        "MATCH (a:Account)-[:PAYS]->(m:Account), (b:Account)-[:PAYS]->(m), (m)-[:PAYS]->(c:Account)",
        schema,
        name="fan-in-out",
    )

    db = GraphflowDB(DynamicGraph(graph))
    patterns = (cycle3, round_trip, fan_in_out)
    totals = {}
    for query in patterns:
        totals[query.name] = db.execute(query).num_matches
        print(f"counted {query.name:<14} initial matches: {totals[query.name]}")

    # Stream in new transaction batches, counting every pattern after each.
    rng = np.random.default_rng(13)
    print("\nstreaming transaction batches:")
    for batch_number in range(1, 6):
        batch = []
        for _ in range(15):
            src = int(rng.integers(0, graph.num_vertices))
            dst = int(rng.integers(0, graph.num_vertices))
            if src != dst:
                batch.append((src, dst, pays))
        db.apply_updates(inserts=batch)
        deltas = []
        for query in patterns:
            total = db.execute(query).num_matches
            deltas.append(f"{query.name}: {total - totals[query.name]:+d} (total {total})")
            totals[query.name] = total
        print(f"  batch {batch_number}: {', '.join(deltas)}")

    # Which accounts sit in the middle of the most 3-cycles right now?
    ordering = enumerate_orderings(cycle3)[0]
    plan = wco_plan_from_order(cycle3, ordering)
    suspicious = top_k_vertices(plan, db.graph, cycle3.vertices[0], k=5)
    print("\nmost implicated accounts (account id, cycles through it):")
    for account_id, count in suspicious:
        print(f"  account {account_id:>4}: {count} cycles")


if __name__ == "__main__":
    main()
