"""Set-up probe: in a fresh interpreter, do the imports a workload needs and
build its first inputs, then print ``ready``.  ``run.py`` times this from
process start to that line; it is the wait before the first unit of work.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

import bootstrap


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    bootstrap.import_mecnet()
    if workload == "oracle-16q":
        import oracle

        [oracle.make_case(seed, i) for i in range(oracle.BLOCK)]
    else:
        import sweep

        ks = sweep.EVAL_GRID["qnet_counts"]
        sweep.config(sweep.unit_seed(seed, 0), sweep.DENSITY[workload], ks[:1], bootstrap.OUT)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
