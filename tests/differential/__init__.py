"""Differential test plane: old vs new hot-path implementations.

Every module here proves an optimised implementation observationally
identical to a simple reference — the heap scheduler vs a naive
list-scanning scheduler, and the zero-copy output queue vs a naive
byte-list model.  Run
with ``HYPOTHESIS_PROFILE=differential`` for the CI budget (200
derandomized examples per property).
"""
