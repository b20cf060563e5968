"""Benchmark harness for the textpersona pipeline; run with ``python3 -m perfbench``."""
