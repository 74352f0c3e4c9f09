"""End-to-end and per-layer benchmark of platetx; run with
``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``."""
