"""The generated datasets are pinned bit for bit.

``dataset_digests.json`` holds a SHA-256 of each graph's ``vertex_labels``,
``edge_src``, ``edge_dst`` and ``edge_labels`` for every archetype at scale
0.25 and for livejournal at 0.5, 1 and 2 (the benchmark graphs).  A change to
the builder or the I/O path must leave every digest as it is; a change to a
generator's draws rebaselines the file on purpose and says why in CHANGES.md::

    PYTHONPATH=src python tests/baselines/test_dataset_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro import datasets
from repro.graph.graph import Graph

DIGEST_PATH = Path(__file__).resolve().with_name("dataset_digests.json")
FIELDS = ("vertex_labels", "edge_src", "edge_dst", "edge_labels")


def pinned_graphs() -> List[Tuple[str, float]]:
    return [(name, 0.25) for name in datasets.available()] + [
        ("livejournal", scale) for scale in (0.5, 1.0, 2.0)
    ]


def graph_digests(graph: Graph) -> Dict[str, str]:
    """SHA-256 of each array, read as little-endian int64."""
    return {
        field: hashlib.sha256(
            np.ascontiguousarray(getattr(graph, field), dtype="<i8").tobytes()
        ).hexdigest()
        for field in FIELDS
    }


def compute_digests() -> Dict[str, Dict[str, str]]:
    return {
        f"{name}@{scale:g}": graph_digests(datasets.load(name, scale=scale, use_cache=False))
        for name, scale in pinned_graphs()
    }


def test_generated_graphs_match_pinned_digests():
    pinned = json.loads(DIGEST_PATH.read_text())
    got = compute_digests()
    assert sorted(got) == sorted(pinned)
    changed = [
        f"{key}.{field}" for key in sorted(got) for field in FIELDS if got[key][field] != pinned[key][field]
    ]
    assert not changed, f"generated graphs differ from {DIGEST_PATH.name}: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_dataset_digests.py --write")
    DIGEST_PATH.write_text(json.dumps(compute_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGEST_PATH}")
