"""Tests of the benchmark harness."""
