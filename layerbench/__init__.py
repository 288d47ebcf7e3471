"""Layer-waterfall benchmark of the PrivShape reproduction.

Run ``python3 layerbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``layerbench/README.md``.
"""
