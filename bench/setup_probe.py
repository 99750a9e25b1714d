"""One set-up as a CLI user pays it: fresh interpreter, ``import hfh``, first task ready.

Run by ``run.py`` as ``python3 setup_probe.py <src dir> <workload> <seed> <workdir>``;
prints one JSON line ``{"import_s": ...}`` once the tasks of the workload are
written, which is the moment the parent stops its clock.
"""

import json
import os
import sys
import time


def main(argv):
    src, workload, seed, workdir = argv
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import hfh  # noqa: F401
    import_s = time.perf_counter() - t0
    import hfh.cli  # noqa: F401
    import workloads

    workloads.generate(workload, int(seed), workdir)
    print(json.dumps({"import_s": import_s}), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
