"""The paper's register constructions (Figures 2-5, Sections 3-5).

Names are imported from their modules (a package import loads no
module of it); the flat public surface is :mod:`repro.api`.
"""
