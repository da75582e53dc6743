"""Benchmark harness for the qortho package (see bench/README.md)."""
