"""Helpers of the repository benchmark (``perfbench/run.py``).

The modules here import nothing from the engine at import time, so the
unit tests in ``perfbench/tests`` run without Ray.
"""
