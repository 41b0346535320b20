"""Deterministic discrete-event simulation substrate.

Implements the paper's basic system model (Section 2.1): sequential
processes connected by reliable FIFO directed links with pluggable delay
(asynchrony) models, all driven by a single seeded virtual-time scheduler
so that runs are exactly reproducible and stabilization instants are exact.

Names are imported from their modules (a package import loads no
module of it); the flat public surface is :mod:`repro.api`.
"""
