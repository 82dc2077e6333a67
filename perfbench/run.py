"""Run one benchmark workload at one seed and print its metrics.

    python3 perfbench/run.py --workload aml-edge-sum --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout; the program is imported from
``src/``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Lines before it start with ``#`` and describe the run.
Scratch files and span dumps go to ``.perfbench/`` in the checkout.
"""

import os

# Fixed before numpy loads: one BLAS/OpenMP thread keeps runs steady on a
# small shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("aml-edge-sum", "planted-node-pna", "graph-structure")


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        ref_file = root / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "meganet" / "__init__.py").is_file():
        print(f"error: no meganet sources under {ROOT / 'src'}; run the "
              "benchmark from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import workloads
    from spans import Tracer

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          f"blas threads {BLAS_THREADS} of {os.cpu_count()} cpus, "
          f"numpy {np.__version__}, python {platform.python_version()}, "
          f"git {git_sha(ROOT)}")
    tracer = Tracer()
    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), out_dir, tracer)
    if args.trace:
        dump = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        with open(dump, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts,
                       "absent": tracer.absent}, fh)
        print(f"# absent layers: {tracer.absent or 'none'}; spans in {dump}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
