#!/usr/bin/env python3
"""Fail when importing the package loads scipy.

scipy's only caller is the EmptyHeaded baseline's fractional-edge-cover LP
(``repro.baselines.ghd.fractional_edge_cover``), which imports it on its
first solve; everything else runs on numpy.  This script imports ``repro``,
``repro.cli``, ``repro.experiments``, ``repro.server`` and every module under
``repro.baselines``, checks that ``scipy`` is not in ``sys.modules``, and
prints the peak RSS after ``import repro.cli``.  It then solves the
triangle's LP, whose optimum is 1.5, and checks that scipy is loaded now.

Exit code 0 when both checks hold, 1 otherwise.  It must run in a fresh
interpreter:

    PYTHONPATH=src python tools/check_import_footprint.py
"""

from __future__ import annotations

import importlib
import pkgutil
import resource
import sys


def main() -> int:
    if "repro" in sys.modules:
        print("check_import_footprint: repro is already imported", file=sys.stderr)
        return 1
    import repro.cli

    # ru_maxrss is in KiB on Linux.
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS after import repro.cli: {rss_mib:.1f} MiB")

    import repro.baselines
    import repro.experiments
    import repro.server

    for module in pkgutil.iter_modules(repro.baselines.__path__):
        importlib.import_module(f"repro.baselines.{module.name}")
    if "scipy" in sys.modules:
        print("check_import_footprint: importing the package loaded scipy", file=sys.stderr)
        return 1

    from repro.baselines.ghd import fractional_edge_cover
    from repro.query.catalog_queries import triangle

    cover = fractional_edge_cover(triangle())
    if abs(cover - 1.5) > 1e-6:
        print(f"check_import_footprint: triangle cover {cover}, expected 1.5", file=sys.stderr)
        return 1
    if "scipy" not in sys.modules:
        print("check_import_footprint: the LP solve did not load scipy", file=sys.stderr)
        return 1
    print("scipy loads only for the GHD LP")
    return 0


if __name__ == "__main__":
    sys.exit(main())
