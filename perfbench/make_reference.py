"""Rebuild the reference catalog that the benchmark reads and checks against.

    python3 perfbench/make_reference.py

Builds the full default ladder (DEFAULT_CATALOG_PAIRS) of the production
system with critgyro's catalog_build and writes it with catalog_save to
perfbench/data/reference_catalog.json (about a minute). The file is input
data: the ensemble workloads retune across it, and the curves workload
compares its curves with it, so rebuild it only from curves already trusted.
"""

import sys

from run import prepare_environment


def main() -> int:
    prepare_environment()
    import workloads
    from critgyro import curves

    basis, cache = workloads.build_system(workloads.PRODUCTION)
    catalog = curves.catalog_build(basis, cache, curves.DEFAULT_CATALOG_PAIRS)
    curves.catalog_save(catalog, workloads.REFERENCE_CATALOG)
    for c in catalog.curves:
        print(f"(g={c.g}, A={c.anisotropy}): center={c.center!r} width={c.width!r}")
    print(f"wrote {workloads.REFERENCE_CATALOG}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
