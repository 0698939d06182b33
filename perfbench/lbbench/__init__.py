"""End-to-end and per-layer benchmark of the LBTrust reproduction.

``perfbench/run.py`` is the entry point; this package holds the pieces it
composes: drift-corrected timing (:mod:`.timing`), the independent
reference models the outputs are checked against (:mod:`.models`), the
span tracer of the per-layer run (:mod:`.trace`) and the four workloads
(:mod:`.workloads`).
"""
