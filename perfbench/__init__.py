"""Benchmark harness for udmorph: seeded corpora, CLI timing, output checks
and a traced in-process run.  Run it with `python3 perfbench/run.py`."""
