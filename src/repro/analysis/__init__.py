"""Offline analyses and reporting: temporal-stream statistics, MLP, and
ASCII rendering of the paper's figures.

Import names from the defining submodules: the package re-exports
nothing, so importing one submodule does not load its siblings.
"""
