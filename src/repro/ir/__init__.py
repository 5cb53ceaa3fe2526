"""Intermediate Representation (IR) substrate (paper §III-B).

Each attribute value of a tuple is construed as a sentence and embedded
into a fixed-dimension similarity-preserving vector by one of four
methods: LSA, W2V, BERT(-sim), EmbDI(-lite). `api.build_irs` is the
uniform entry point producing a DataFrame with one row per tuple:
``(id, table, irs: array<float>)``, ``irs`` the concatenation of the
tuple's arity per-attribute IRs of ``ir_dim`` floats each (float32).
`api.ir_tensor` turns the collected frame into one ``(n, arity, ir_dim)``
float32 array.
"""
from repro.ir.api import IR_KINDS, build_irs, ir_tensor

__all__ = ["IR_KINDS", "build_irs", "ir_tensor"]
