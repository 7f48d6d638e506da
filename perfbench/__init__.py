"""fusionpid benchmark harness; run perfbench/run.py."""
