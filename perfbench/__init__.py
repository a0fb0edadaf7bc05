"""Workload benchmark for the why-not engine.

Three workloads drive the public ``repro`` API from one process:
``whynot-cold`` (the paper's per-question protocol on cold buffers),
``serve-open`` (open-loop traffic through the asyncio server over a
sharded engine) and ``merchant-churn`` (index writes beside reads).
``perfbench/run.py`` is the single entry point; see its docstring.
"""
