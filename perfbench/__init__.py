"""Layered benchmark for rootfield; see perfbench/README.md."""
