"""The repository benchmark: four workloads, measured end to end with
tracing off and per layer in a separate traced run.  Entry point:
``python3 perfbench/run.py``; documentation: ``perfbench/README.md``."""
