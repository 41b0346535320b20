"""Consistency checkers over operation histories — batch and streaming.

Names are imported from their modules (a package import loads no
module of it); the flat public surface is :mod:`repro.api`.
"""
